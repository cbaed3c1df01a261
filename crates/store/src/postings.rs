//! Set operations over sorted postings lists.
//!
//! A postings list is a strictly ascending run of `u32` record ids packed
//! little-endian, 4 bytes each: the layout a [`ListStore`](crate::ListStore)
//! keeps in its data segment on either pager. [`SegmentTable`](crate::SegmentTable)
//! hands [`intersect`] and [`union`] the lists exactly as stored, borrowed in
//! place from a resident segment or copied out of the buffer pool, so a
//! conjunctive query gallops over its longer list without decoding it.

use crate::list::unpack;

/// Skew ratio at which a pairwise intersection abandons the linear merge
/// for galloping search through the longer list.
pub const GALLOP_SKEW: usize = 8;

/// Sorted intersection of sorted, duplicate-free packed lists; no lists
/// intersect to nothing.
///
/// The fold starts from the shortest list: the two shortest are intersected
/// straight from their bytes, each longer one then narrows the running
/// result, and the fold stops as soon as that result is empty. Each step
/// gallops when its list is ≥[`GALLOP_SKEW`]× the running result — the
/// common shape for conjunctions of one rare and one popular value.
/// Reorders `lists`.
pub fn intersect<L: AsRef<[u8]>>(lists: &mut [L]) -> Vec<u32> {
    lists.sort_by_key(|l| l.as_ref().len());
    let (shortest, longer) = match &*lists {
        [] => return Vec::new(),
        [only] => return unpack(only.as_ref()).collect(),
        [shortest, longer @ ..] => (shortest.as_ref(), longer),
    };
    let mut acc = Vec::with_capacity(shortest.len() / 4);
    narrow(unpack(shortest), ids(longer[0].as_ref()), &mut acc);
    for l in &longer[1..] {
        if acc.is_empty() {
            break;
        }
        let mut out = Vec::with_capacity(acc.len());
        narrow(acc.iter().copied(), ids(l.as_ref()), &mut out);
        acc = out;
    }
    acc
}

/// Sorted, duplicate-free union of sorted packed lists.
pub fn union<L: AsRef<[u8]>>(lists: &[L]) -> Vec<u32> {
    let mut all: Vec<u32> = lists.iter().flat_map(|l| unpack(l.as_ref())).collect();
    if lists.len() > 1 {
        all.sort_unstable();
        all.dedup();
    }
    all
}

/// A packed list as 4-byte ids.
fn ids(list: &[u8]) -> &[[u8; 4]] {
    list.as_chunks::<4>().0
}

/// Appends to `out` the ids of `small` (sorted) that `list` (packed, at
/// least as long) also holds.
///
/// Balanced inputs use the classic two-cursor linear merge; when `list` is
/// ≥[`GALLOP_SKEW`]× longer, each id of `small` is located in it by
/// exponential (galloping) probe + binary search, turning the cost from
/// `O(n + m)` into `O(n log m)`.
fn narrow(small: impl ExactSizeIterator<Item = u32>, list: &[[u8; 4]], out: &mut Vec<u32>) {
    let id = |c: &[u8; 4]| u32::from_le_bytes(*c);
    let gallop = list.len() >= GALLOP_SKEW * small.len();
    let mut lo = 0usize;
    for x in small {
        let rest = &list[lo..];
        let idx = if gallop {
            // Double the probe until it lands at or past `x`, then binary
            // search the bracketed prefix for the lower bound.
            let mut win = 1usize;
            while win < rest.len() && id(&rest[win]) < x {
                win = win.saturating_mul(2);
            }
            rest[..(win + 1).min(rest.len())].partition_point(|c| id(c) < x)
        } else {
            rest.iter().position(|c| id(c) >= x).unwrap_or(rest.len())
        };
        if idx == rest.len() {
            break;
        }
        lo += idx;
        if id(&list[lo]) == x {
            out.push(x);
            lo += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(ids: &[u32]) -> Vec<u8> {
        ids.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    /// Naive reference intersection for differential checks.
    fn naive_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|x| b.contains(x)).collect()
    }

    /// `small` narrowed by `large` (the galloping path when `large` is
    /// ≥ [`GALLOP_SKEW`]× longer).
    fn narrowed(small: &[u32], large: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        narrow(small.iter().copied(), ids(&pack(large)), &mut out);
        out
    }

    #[test]
    fn galloping_agrees_with_linear_merge_on_skewed_lists() {
        // Long side 0,3,6,…,2997 (1000 elems); short side is 5 elems — skew
        // 200× forces the galloping path in both argument orders.
        let large: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        let small: Vec<u32> = vec![0, 7, 600, 1500, 2997];
        let expect = naive_intersect(&small, &large);
        assert_eq!(expect, vec![0, 600, 1500, 2997], "fixture sanity");
        assert_eq!(narrowed(&small, &large), expect);
        assert_eq!(intersect(&mut [pack(&large), pack(&small)]), expect);
        // A balanced pair takes the linear merge to the same answer.
        let mid: Vec<u32> = (0..1000).map(|i| i * 2).collect();
        assert_eq!(narrowed(&mid, &large), naive_intersect(&mid, &large));
    }

    #[test]
    fn galloping_handles_boundary_positions() {
        let large: Vec<u32> = (100..200).collect();
        // Probes before the start, at both ends, past the end, and between.
        for small in [
            vec![0, 1, 2],
            vec![100],
            vec![199],
            vec![200, 300],
            vec![99, 100, 199, 200],
            vec![150],
        ] {
            assert_eq!(narrowed(&small, &large), naive_intersect(&small, &large), "{small:?}");
        }
    }

    #[test]
    fn three_way_intersection_with_mixed_skew() {
        let a: Vec<u32> = (0..2000).collect();
        let b: Vec<u32> = (0..2000).filter(|x| x % 2 == 0).collect();
        let c: Vec<u32> = vec![3, 4, 10, 11, 1998];
        let abc = naive_intersect(&naive_intersect(&c, &b), &a);
        assert_eq!(abc, vec![4, 10, 1998]);
        // The shortest-first fold reaches the same set in any list order.
        let (a, b, c) = (pack(&a), pack(&b), pack(&c));
        assert_eq!(intersect(&mut [&a, &b, &c]), abc);
        assert_eq!(intersect(&mut [&c, &a, &b]), abc);
        assert_eq!(intersect(&mut [&c]), vec![3, 4, 10, 11, 1998]);
        assert!(intersect::<&[u8]>(&mut []).is_empty());
    }

    #[test]
    fn union_dedups_and_sorts_across_lists() {
        let (a, c) = (pack(&[1, 2, 3]), pack(&[2, 3, 4]));
        assert_eq!(union(&[&a, &c]), vec![1, 2, 3, 4]);
        assert_eq!(union(&[&c]), vec![2, 3, 4]);
        assert!(union::<&[u8]>(&[]).is_empty());
    }
}
