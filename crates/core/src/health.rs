//! Per-source circuit breakers and fleet job health accounting.
//!
//! A crawler hammering a sick source wastes budget: every request costs a
//! round (Definition 2.3) whether it succeeds or not. The supervisor keeps a
//! [`CircuitBreaker`] per job and samples the worker's consecutive-failure
//! streak at every slice boundary:
//!
//! * **Closed** — the job is healthy and competes for budget normally.
//! * **Open** — the streak reached [`BreakerConfig::trip_after`]; the job is
//!   paused and excluded from allocation for
//!   [`BreakerConfig::cooldown`] allocation rounds, so its budget flows to
//!   healthy jobs instead of being burned on a source that is down.
//!   "Paused" means *left out of the allocation*: the job's crawler stays
//!   parked in its coordinator slot and no slice is handed out for it, so a
//!   tripped job holds no worker (and blocks no thread) while it cools
//!   down.
//! * **HalfOpen** — cooldown elapsed; the job gets one probe slice. A clean
//!   slice closes the breaker (a *recovery*); more faults re-open it.
//!
//! The breaker itself keeps no tallies: [`CircuitBreaker::observe`] and
//! [`CircuitBreaker::tick`] *return* the phase transition they caused (if
//! any), and the supervisor records each one as a
//! [`crate::events::CrawlEvent::BreakerTransition`] on the job's metrics
//! registry. Trips, recoveries, and worker restarts are then derived into
//! [`JobHealth`] and surfaced through `FleetReport`.

use crate::events::BreakerPhase;

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transient-class failures (worker fault streak observed at
    /// a slice boundary) that trip the breaker open.
    pub trip_after: u32,
    /// Allocation rounds an open breaker waits before probing (minimum 1).
    pub cooldown: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { trip_after: 8, cooldown: 2 }
    }
}

/// Where a breaker currently is in its Closed → Open → HalfOpen cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: slices flow normally.
    Closed,
    /// Tripped: the job is paused for `remaining` more allocation rounds.
    Open {
        /// Allocation rounds left before the half-open probe.
        remaining: u32,
    },
    /// Cooled down: the next slice is a probe.
    HalfOpen,
}

impl BreakerState {
    /// The coarse phase of this state, as carried by breaker events.
    pub fn phase(self) -> BreakerPhase {
        match self {
            BreakerState::Closed => BreakerPhase::Closed,
            BreakerState::Open { .. } => BreakerPhase::Open,
            BreakerState::HalfOpen => BreakerPhase::HalfOpen,
        }
    }
}

/// One job's breaker: a pure state machine whose methods return the phase
/// transitions they cause (the caller records them as events).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new(BreakerConfig::default())
    }
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker { config, state: BreakerState::Closed }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the job is paused (open breaker): excluded from allocation.
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }

    /// Feeds the worker-reported consecutive-failure streak at a slice
    /// boundary into the state machine. Returns the `(from, to)` phase
    /// transition when the observation changed phase: a trip
    /// (`… → Open`) or a clean-probe recovery (`HalfOpen → Closed`).
    pub fn observe(&mut self, fault_streak: u32) -> Option<(BreakerPhase, BreakerPhase)> {
        match self.state {
            BreakerState::Closed => {
                if fault_streak >= self.config.trip_after {
                    return Some(self.trip());
                }
                None
            }
            BreakerState::HalfOpen => {
                if fault_streak == 0 {
                    self.state = BreakerState::Closed;
                    Some((BreakerPhase::HalfOpen, BreakerPhase::Closed))
                } else {
                    Some(self.trip())
                }
            }
            // An open job receives no slices; a stale report changes nothing.
            BreakerState::Open { .. } => None,
        }
    }

    /// Advances one allocation round: open breakers cool toward half-open.
    /// Returns `(Open, HalfOpen)` on the round the cooldown elapses.
    pub fn tick(&mut self) -> Option<(BreakerPhase, BreakerPhase)> {
        if let BreakerState::Open { remaining } = &mut self.state {
            *remaining = remaining.saturating_sub(1);
            if *remaining == 0 {
                self.state = BreakerState::HalfOpen;
                return Some((BreakerPhase::Open, BreakerPhase::HalfOpen));
            }
        }
        None
    }

    fn trip(&mut self) -> (BreakerPhase, BreakerPhase) {
        let from = self.state.phase();
        self.state = BreakerState::Open { remaining: self.config.cooldown.max(1) };
        (from, BreakerPhase::Open)
    }
}

/// Fault-tolerance counters for one fleet job, reported in `FleetReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobHealth {
    /// Times this job's breaker tripped open.
    pub breaker_trips: u64,
    /// Times this job's breaker recovered via a clean half-open probe.
    pub breaker_recoveries: u64,
    /// Times this job's worker was restarted after a panic.
    pub worker_restarts: u32,
    /// Whether the job was abandoned after exhausting its restart budget.
    pub abandoned: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_breaker_ignores_small_streaks() {
        let mut b = CircuitBreaker::new(BreakerConfig { trip_after: 3, cooldown: 2 });
        assert_eq!(b.observe(0), None);
        assert_eq!(b.observe(2), None);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn full_trip_cooldown_probe_recovery_cycle() {
        let mut b = CircuitBreaker::new(BreakerConfig { trip_after: 3, cooldown: 2 });
        assert_eq!(b.observe(3), Some((BreakerPhase::Closed, BreakerPhase::Open)));
        assert!(b.is_open());
        assert_eq!(b.tick(), None, "cooldown not yet elapsed");
        assert!(b.is_open());
        assert_eq!(b.tick(), Some((BreakerPhase::Open, BreakerPhase::HalfOpen)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(
            b.observe(0),
            Some((BreakerPhase::HalfOpen, BreakerPhase::Closed)),
            "clean probe closes"
        );
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn dirty_probe_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig { trip_after: 2, cooldown: 1 });
        assert_eq!(b.observe(2), Some((BreakerPhase::Closed, BreakerPhase::Open)));
        b.tick();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(
            b.observe(1),
            Some((BreakerPhase::HalfOpen, BreakerPhase::Open)),
            "any fault during the probe re-opens"
        );
        assert!(b.is_open());
    }

    #[test]
    fn observations_while_open_change_nothing() {
        let mut b = CircuitBreaker::new(BreakerConfig { trip_after: 1, cooldown: 3 });
        assert!(b.observe(1).is_some());
        let state = b.state();
        assert_eq!(b.observe(5), None);
        assert_eq!(b.state(), state);
    }

    #[test]
    fn zero_cooldown_still_waits_one_round() {
        let mut b = CircuitBreaker::new(BreakerConfig { trip_after: 1, cooldown: 0 });
        b.observe(1);
        assert_eq!(b.state(), BreakerState::Open { remaining: 1 });
        assert_eq!(b.tick(), Some((BreakerPhase::Open, BreakerPhase::HalfOpen)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }
}
