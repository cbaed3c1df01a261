//! The fault-matrix cell shared by the crash, replay, serving-parity and
//! paged-storage suites. CI sweeps `DWC_FAULT_KIND` × `DWC_FAULT_SEED`; each
//! suite builds its source-side schedule here, so one cell means the same
//! faults everywhere.

use deep_web_crawler::prelude::{FaultKind, FaultPlan};

/// The fault plan for one matrix cell, offset by `seed` so different cells
/// hit different crawl phases. Kinds: `none`, `burst`, `stall`, `corrupt`,
/// `panic` and `mixed`. A `panic` plan kills the crawling thread, so only a
/// supervised fleet survives it; single-crawler suites ask for `mixed`
/// instead.
///
/// # Panics
///
/// Panics on any other kind, so a misspelt cell cannot pass as a clean run.
pub fn matrix_plan(kind: &str, seed: u64) -> FaultPlan {
    match kind {
        "none" => FaultPlan::new(),
        "burst" => FaultPlan::new().burst(8 + seed % 13, 40),
        "stall" => FaultPlan::seeded(seed, 600, 0.08, &[FaultKind::Stall { rounds: 3 }]),
        "corrupt" => FaultPlan::seeded(seed, 600, 0.10, &[FaultKind::Corrupt]),
        "panic" => FaultPlan::new().panic_at(9 + seed % 17).panic_at(60 + seed % 29),
        "mixed" => FaultPlan::seeded(
            seed,
            600,
            0.08,
            &[FaultKind::Transient, FaultKind::Stall { rounds: 2 }, FaultKind::Corrupt],
        ),
        other => panic!("unknown DWC_FAULT_KIND {other:?}"),
    }
}

/// The cell this run covers: `DWC_FAULT_KIND` (default `mixed`) and
/// `DWC_FAULT_SEED` (default 1).
///
/// # Panics
///
/// Panics on a seed that is not an integer, as [`matrix_plan`] does on an
/// unknown kind.
pub fn fault_matrix_cell() -> (String, u64) {
    let kind = std::env::var("DWC_FAULT_KIND").unwrap_or_else(|_| "mixed".into());
    let seed = match std::env::var("DWC_FAULT_SEED") {
        Ok(s) => s.parse().unwrap_or_else(|_| panic!("DWC_FAULT_SEED {s:?} is not an integer")),
        Err(_) => 1,
    };
    (kind, seed)
}
