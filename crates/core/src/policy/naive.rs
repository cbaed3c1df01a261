//! The naive query-selection policies of §3.1.
//!
//! "For the breath-first selection, L_to-query is organized as a queue. …
//! For the depth-first query selection, L_to-query is implemented as a stack.
//! … Finally, the random query selector picks a random element from
//! L_to-query."

use crate::policy::SelectionPolicy;
use crate::state::{CandStatus, CrawlState};
use dwc_model::ValueId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Breadth-first selection: earliest-discovered value first.
#[derive(Debug, Default)]
pub struct Bfs {
    queue: VecDeque<ValueId>,
}

impl Bfs {
    /// New empty BFS frontier.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SelectionPolicy for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn on_discovered(&mut self, _state: &CrawlState, v: ValueId) {
        self.queue.push_back(v);
    }

    fn select(&mut self, state: &CrawlState) -> Option<ValueId> {
        while let Some(v) = self.queue.pop_front() {
            if state.status_of(v) == CandStatus::Frontier {
                return Some(v);
            }
        }
        None
    }
}

/// Depth-first selection: newest-discovered value first.
#[derive(Debug, Default)]
pub struct Dfs {
    stack: Vec<ValueId>,
}

impl Dfs {
    /// New empty DFS frontier.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SelectionPolicy for Dfs {
    fn name(&self) -> &'static str {
        "dfs"
    }

    fn on_discovered(&mut self, _state: &CrawlState, v: ValueId) {
        self.stack.push(v);
    }

    fn select(&mut self, state: &CrawlState) -> Option<ValueId> {
        while let Some(v) = self.stack.pop() {
            if state.status_of(v) == CandStatus::Frontier {
                return Some(v);
            }
        }
        None
    }
}

/// Uniform random selection from the frontier.
#[derive(Debug)]
pub struct RandomSelect {
    pool: Vec<ValueId>,
    rng: StdRng,
}

impl RandomSelect {
    /// New random selector with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomSelect { pool: Vec::new(), rng: StdRng::seed_from_u64(seed) }
    }
}

impl SelectionPolicy for RandomSelect {
    fn name(&self) -> &'static str {
        "random"
    }

    fn on_discovered(&mut self, _state: &CrawlState, v: ValueId) {
        self.pool.push(v);
    }

    fn select(&mut self, state: &CrawlState) -> Option<ValueId> {
        while !self.pool.is_empty() {
            let i = self.rng.gen_range(0..self.pool.len());
            let v = self.pool.swap_remove(i);
            if state.status_of(v) == CandStatus::Frontier {
                return Some(v);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_model::AttrId;

    fn state_with(values: &[&str]) -> (CrawlState, Vec<ValueId>) {
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let ids: Vec<ValueId> = values
            .iter()
            .map(|s| {
                let id = st.intern(AttrId(0), s);
                st.set_status(id, CandStatus::Frontier);
                id
            })
            .collect();
        (st, ids)
    }

    #[test]
    fn bfs_is_fifo() {
        let (st, ids) = state_with(&["a", "b", "c"]);
        let mut p = Bfs::new();
        for &v in &ids {
            p.on_discovered(&st, v);
        }
        assert_eq!(p.select(&st), Some(ids[0]));
        assert_eq!(p.select(&st), Some(ids[1]));
        assert_eq!(p.select(&st), Some(ids[2]));
        assert_eq!(p.select(&st), None);
    }

    #[test]
    fn dfs_is_lifo() {
        let (st, ids) = state_with(&["a", "b", "c"]);
        let mut p = Dfs::new();
        for &v in &ids {
            p.on_discovered(&st, v);
        }
        assert_eq!(p.select(&st), Some(ids[2]));
        assert_eq!(p.select(&st), Some(ids[1]));
        assert_eq!(p.select(&st), Some(ids[0]));
        assert_eq!(p.select(&st), None);
    }

    #[test]
    fn random_selects_each_exactly_once() {
        let (st, ids) = state_with(&["a", "b", "c", "d", "e"]);
        let mut p = RandomSelect::new(7);
        for &v in &ids {
            p.on_discovered(&st, v);
        }
        let mut got: Vec<ValueId> = (0..5).map(|_| p.select(&st).unwrap()).collect();
        assert_eq!(p.select(&st), None);
        got.sort_unstable();
        let mut want = ids.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let (st, ids) = state_with(&["a", "b", "c", "d", "e", "f"]);
        let run = |seed| {
            let mut p = RandomSelect::new(seed);
            for &v in &ids {
                p.on_discovered(&st, v);
            }
            (0..6).map(|_| p.select(&st).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn queried_entries_are_skipped() {
        let (mut st, ids) = state_with(&["a", "b"]);
        let mut p = Bfs::new();
        for &v in &ids {
            p.on_discovered(&st, v);
        }
        st.set_status(ids[0], CandStatus::Queried);
        assert_eq!(p.select(&st), Some(ids[1]));
    }
}
