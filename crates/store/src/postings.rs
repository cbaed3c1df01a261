//! Set operations over sorted postings lists.
//!
//! A postings list is a strictly ascending slice of `u32` record ids. Both
//! server backends answer conjunctive queries with [`intersect`] and keyword
//! queries with [`union`] — the resident inverted index over slices of its
//! own column, [`SegmentTable`](crate::SegmentTable) over lists read out of
//! the buffer pool — so their match lists agree by construction.

/// Skew ratio at which a pairwise intersection abandons the linear merge
/// for galloping search through the longer list.
pub const GALLOP_SKEW: usize = 8;

/// Sorted intersection of sorted, duplicate-free lists; no lists intersect
/// to nothing.
///
/// The fold starts from the shortest list: the two shortest are intersected
/// straight from their slices, each longer one then narrows the running
/// result, and the fold stops as soon as that result is empty. Each pairwise
/// step gallops when one side is ≥[`GALLOP_SKEW`]× the other — the common
/// shape for conjunctions of one rare and one popular value. Reorders
/// `lists`.
pub fn intersect(lists: &mut [&[u32]]) -> Vec<u32> {
    match lists {
        [] => Vec::new(),
        [only] => only.to_vec(),
        _ => {
            lists.sort_by_key(|l| l.len());
            let mut acc = Vec::with_capacity(lists[0].len());
            intersect_sorted(lists[0], lists[1], &mut acc);
            for l in &lists[2..] {
                if acc.is_empty() {
                    break;
                }
                let mut out = Vec::with_capacity(acc.len().min(l.len()));
                intersect_sorted(&acc, l, &mut out);
                acc = out;
            }
            acc
        }
    }
}

/// Sorted, duplicate-free union of sorted lists.
pub fn union(lists: &[&[u32]]) -> Vec<u32> {
    match lists {
        [] => Vec::new(),
        [only] => only.to_vec(),
        _ => {
            let mut all: Vec<u32> = lists.iter().flat_map(|l| l.iter().copied()).collect();
            all.sort_unstable();
            all.dedup();
            all
        }
    }
}

/// Intersects two sorted, duplicate-free `u32` slices into `out`.
///
/// Balanced inputs use the classic two-cursor linear merge; when one side is
/// ≥[`GALLOP_SKEW`]× longer, each element of the short side is located in
/// the long side by exponential (galloping) probe + binary search, turning
/// the cost from `O(n + m)` into `O(n log m)`.
fn intersect_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() || large.is_empty() {
        return;
    }
    if large.len() >= GALLOP_SKEW * small.len() {
        let mut lo = 0usize;
        for &x in small {
            let rest = &large[lo..];
            if rest.is_empty() {
                break;
            }
            // Double the probe until it lands at or past `x`, then binary
            // search the bracketed prefix for the lower bound.
            let mut win = 1usize;
            while win < rest.len() && rest[win] < x {
                win = win.saturating_mul(2);
            }
            let end = (win + 1).min(rest.len());
            let idx = rest[..end].partition_point(|&y| y < x);
            if idx < rest.len() && rest[idx] == x {
                out.push(x);
                lo += idx + 1;
            } else {
                lo += idx;
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(small[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference intersection for differential checks.
    fn naive_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|x| b.contains(x)).collect()
    }

    #[test]
    fn galloping_agrees_with_linear_merge_on_skewed_lists() {
        // Long side 0,3,6,…,2997 (1000 elems); short side is 5 elems — skew
        // 200× forces the galloping path in both argument orders.
        let large: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        let small: Vec<u32> = vec![0, 7, 600, 1500, 2997];
        let expect = naive_intersect(&small, &large);
        assert_eq!(expect, vec![0, 600, 1500, 2997], "fixture sanity");
        for (a, b) in [(&small, &large), (&large, &small)] {
            let mut out = Vec::new();
            intersect_sorted(a, b, &mut out);
            assert_eq!(out, expect);
        }
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
            let mut out = Vec::new();
            intersect_sorted(&small, &large, &mut out);
            assert_eq!(out, naive_intersect(&small, &large), "small = {small:?}");
        }
    }

    #[test]
    fn three_way_intersection_with_mixed_skew() {
        let a: Vec<u32> = (0..2000).collect();
        let b: Vec<u32> = (0..2000).filter(|x| x % 2 == 0).collect();
        let c: Vec<u32> = vec![3, 4, 10, 11, 1998];
        let mut ab = Vec::new();
        intersect_sorted(&a, &b, &mut ab);
        let mut abc = Vec::new();
        intersect_sorted(&ab, &c, &mut abc);
        assert_eq!(abc, vec![4, 10, 1998]);
        // The shortest-first fold reaches the same set in any list order.
        assert_eq!(intersect(&mut [&a, &b, &c]), abc);
        assert_eq!(intersect(&mut [&c, &a, &b]), abc);
    }
}
