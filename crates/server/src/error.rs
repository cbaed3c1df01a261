//! Server-side error type.

use std::fmt;

/// Errors a query interface can return to the crawler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The query names an attribute that is not part of the interface schema
    /// `A_q` (Definition 2.2) — e.g. trying to query a result-only attribute.
    NotQueriable {
        /// The offending attribute name.
        attr: String,
    },
    /// The query referenced an attribute name the source does not have.
    UnknownAttribute {
        /// The offending attribute name.
        attr: String,
    },
    /// The interface does not support keyword search and a keyword query was
    /// sent.
    KeywordUnsupported,
    /// The form demands more equality predicates than the query carries
    /// (restrictive multi-attribute interfaces, §2.2's airfare/hotel class).
    TooFewPredicates {
        /// Predicates the form requires.
        required: usize,
        /// Predicates the query carried.
        got: usize,
    },
    /// The server could not read its own segments (a segment file was
    /// truncated, deleted or unreadable). Retrying cannot help.
    Storage {
        /// The I/O error, rendered.
        detail: String,
    },
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Storage { detail: e.to_string() }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::NotQueriable { attr } => {
                write!(f, "attribute {attr:?} is not queriable through this interface")
            }
            ServerError::UnknownAttribute { attr } => {
                write!(f, "unknown attribute {attr:?}")
            }
            ServerError::KeywordUnsupported => {
                write!(f, "this interface does not support keyword search")
            }
            ServerError::TooFewPredicates { required, got } => {
                write!(f, "this form requires at least {required} filled fields, got {got}")
            }
            ServerError::Storage { detail } => write!(f, "the source's storage failed: {detail}"),
        }
    }
}

impl std::error::Error for ServerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServerError::NotQueriable { attr: "Price".into() };
        assert!(e.to_string().contains("Price"));
        assert!(ServerError::KeywordUnsupported.to_string().contains("keyword"));
    }
}
