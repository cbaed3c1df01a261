//! Experiment harness: shared utilities for the per-table / per-figure
//! binaries and the gated benches.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md's per-experiment index). All experiments are
//! deterministic in `(scale, seed)`; the scale defaults to a laptop-friendly
//! fraction of the paper's dataset sizes and can be overridden with the
//! `DWC_SCALE` environment variable (`1.0` = paper scale).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fmt;
pub mod runner;
pub mod seeds;

/// Default experiment scale (fraction of the paper's dataset sizes).
pub const DEFAULT_SCALE: f64 = 0.05;

/// Reads the experiment scale from `DWC_SCALE`, defaulting to
/// [`DEFAULT_SCALE`]. Values outside `(0, 1]` are rejected.
pub fn scale_from_env() -> f64 {
    match std::env::var("DWC_SCALE") {
        Ok(s) => {
            let v: f64 = s.parse().unwrap_or_else(|_| panic!("DWC_SCALE={s:?} is not a number"));
            assert!(v > 0.0 && v <= 1.0, "DWC_SCALE must be in (0, 1]");
            v
        }
        Err(_) => DEFAULT_SCALE,
    }
}
