//! Scheduler counters for a fleet run.
//!
//! The fleet runs each allocation cycle's slices on scoped worker threads
//! ([`crate::fleet::run_fleet`]); what the schedule did is recorded as
//! [`crate::events::CrawlEvent::SliceScheduled`] /
//! [`crate::events::CrawlEvent::SliceCompleted`] events and folded into the
//! counters below.

/// Scheduler-level counters for a whole fleet run, derived from
/// [`crate::events::CrawlEvent::SliceScheduled`] /
/// [`crate::events::CrawlEvent::SliceCompleted`] streams by
/// [`crate::metrics::MetricsRegistry::scheduler_stats`] and surfaced as
/// [`crate::fleet::FleetReport`]`::scheduler`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulerStats {
    /// Worker threads the fleet resolved to.
    pub workers: u32,
    /// Budget slices handed out by the coordinator.
    pub slices_scheduled: u64,
    /// Slices that came back from a worker without panicking.
    pub slices_completed: u64,
    /// Rounds granted across all scheduled slices.
    pub rounds_granted: u64,
    /// Elapsed rounds actually billed across all completed slices.
    pub rounds_executed: u64,
    /// Always 0: workers take slices from one list and never steal from
    /// each other. Kept only because existing benchmark readers still
    /// report it.
    pub steals: u64,
    /// Completed slices per worker, indexed by worker id.
    pub per_worker_slices: Vec<u64>,
}
