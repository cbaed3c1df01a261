//! Attribute metadata and interface schemas.
//!
//! Definition 2.2 of the paper splits a source's attributes into the
//! *interface schema* (queriable attributes `A_q`) and the *result schema*
//! (attributes displayed in result pages, `A_r`). Table 2 of the paper lists
//! the queriable attributes used for the four controlled databases; the
//! [`Schema`] type captures exactly that information.

use crate::interner::AttrId;

/// Description of a single attribute of the universal table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrSpec {
    /// Human-readable attribute name (e.g. `"Actor"`, `"Title"`).
    pub name: String,
    /// Whether the attribute is part of the interface schema `A_q`
    /// (values of this attribute may be used as queries).
    pub queriable: bool,
    /// Whether a record may carry several values of this attribute
    /// (e.g. the `Authors` attribute of a publication database, which the
    /// paper concatenates into one full-text-searchable column).
    pub multi_valued: bool,
}

impl AttrSpec {
    /// A queriable, single-valued attribute.
    pub fn queriable(name: &str) -> Self {
        AttrSpec { name: name.to_owned(), queriable: true, multi_valued: false }
    }

    /// A queriable attribute that may hold several values per record.
    pub fn queriable_multi(name: &str) -> Self {
        AttrSpec { name: name.to_owned(), queriable: true, multi_valued: true }
    }

    /// A result-only (non-queriable) attribute.
    pub fn result_only(name: &str) -> Self {
        AttrSpec { name: name.to_owned(), queriable: false, multi_valued: false }
    }
}

/// The schema of a universal table: an ordered list of attributes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    attrs: Vec<AttrSpec>,
}

impl Schema {
    /// The most attributes a schema holds: an [`AttrId`] is a `u16`.
    pub const MAX_ATTRS: usize = u16::MAX as usize;

    /// Builds a schema from attribute specs. Panics past
    /// [`Schema::MAX_ATTRS`]; decoders of untrusted input check it first.
    pub fn new(attrs: Vec<AttrSpec>) -> Self {
        assert!(attrs.len() <= Self::MAX_ATTRS, "too many attributes");
        Schema { attrs }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The spec of attribute `id`.
    pub fn attr(&self, id: AttrId) -> &AttrSpec {
        &self.attrs[id.0 as usize]
    }

    /// Finds an attribute id by name.
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.attrs.iter().position(|a| a.name == name).map(|i| AttrId(i as u16))
    }

    /// Iterates `(id, spec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttrSpec)> {
        self.attrs.iter().enumerate().map(|(i, a)| (AttrId(i as u16), a))
    }

    /// Ids of the queriable attributes (the interface schema `A_q`).
    pub fn queriable_attrs(&self) -> Vec<AttrId> {
        self.iter().filter(|(_, a)| a.queriable).map(|(id, _)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movie_schema() -> Schema {
        Schema::new(vec![
            AttrSpec::result_only("Title"),
            AttrSpec::queriable_multi("Actor"),
            AttrSpec::queriable("Director"),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = movie_schema();
        assert_eq!(s.attr_by_name("Director"), Some(AttrId(2)));
        assert_eq!(s.attr_by_name("Nope"), None);
    }

    #[test]
    fn queriable_attrs_filters_result_only() {
        let s = movie_schema();
        assert_eq!(s.queriable_attrs(), vec![AttrId(1), AttrId(2)]);
    }

    #[test]
    fn attr_spec_constructors() {
        let s = movie_schema();
        assert!(!s.attr(AttrId(0)).queriable);
        assert!(s.attr(AttrId(1)).multi_valued);
        assert!(!s.attr(AttrId(2)).multi_valued);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }
}
