//! Deterministic chaos injection for the serving tier.
//!
//! The serving seam ([`crate::serve`]) models queueing, shedding and
//! deadlines, but a well-behaved queue is still a fantasy transport: real
//! wires drop, duplicate, reorder, truncate and stall frames, and real
//! services crash holding requests. This module supplies the fault model —
//! the *machinery that survives it* (idempotent request ids, service-side
//! dedup, retransmission, hedging, crash recovery) lives in
//! [`crate::serve`].
//!
//! A [`ChaosPlan`] is a deterministic schedule: it maps 1-based **wire frame
//! indices** to [`ChaosKind`]s. Every transmission the client attempts —
//! request frames and reply frames alike — consumes one index from a shared
//! monotone counter ([`ChaosState::next_frame`]), so a plan names exact
//! frames ("the 12th frame on this wire is dropped") and a run with the same
//! plan injects exactly the same faults. Plans come from three places:
//!
//! * [`ChaosPlan::seeded`] — pseudo-random schedules from a seed, the chaos
//!   harness's bread and butter;
//! * builder methods ([`drop_at`](ChaosPlan::drop_at) …) — hand-written
//!   regression schedules;
//! * [`ChaosPlan::from_spec`] — parsed from a compact `"12:drop,40:stall"`
//!   string, the format `dwc chaos --chaos-plan` prints so a failing
//!   schedule can be replayed from the command line.
//!
//! When a seeded schedule breaks an invariant, [`shrink_plan`] ddmin-shrinks
//! it to a minimal failing subset — the smallest set of frame faults that
//! still reproduces the failure — which is what gets printed and archived.
//!
//! The invariants every chaos crawl must keep live in one place,
//! [`ChaosRun::violation`], which both `tests/chaos.rs` and `dwc chaos`
//! call:
//!
//! 1. **Crawl parity** — the crawl report is bit-identical to the fault-free
//!    run with the same crawl seed: chaos is fully absorbed below the
//!    `respond()` seam.
//! 2. **Billing conservation** — `rounds_used` equals `executed + shed +
//!    cancelled + retransmitted`: every frame that reached the service is
//!    billed exactly once, dropped request frames bill nothing.
//! 3. **Replay parity** — service reports still fold deterministically from
//!    their recorded event streams.

use crate::crawler::CrawlReport;
use crate::fault::{splitmix64, SPLITMIX_STEP};
use crate::serve::ServiceReport;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// One kind of injected fault, attached to a single wire frame.
///
/// The same kind means different things on a *request* frame (client →
/// service) and a *reply* frame (service → client); both readings are
/// documented per variant. Frames are allocated in pairs per transmission
/// attempt: first the request frame, then the reply frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChaosKind {
    /// The frame vanishes. Request: never reaches the service, bills
    /// nothing, the client retransmits. Reply: the request was executed and
    /// billed, the client retransmits and is served from the dedup cache.
    Drop,
    /// The frame arrives twice. Request: a duplicate job with the same
    /// request id is enqueued (billed, dedup-served, never re-executed).
    /// Reply: the duplicate is discarded by the client; tallied only.
    Duplicate,
    /// The frame is delayed behind later traffic by the reorder window.
    Reorder,
    /// The frame is truncated in transit. Request: fails service-side
    /// framing and is discarded — observably a drop. Reply: the client's
    /// checksum rejects it and it retransmits; the intact frame is served
    /// from the dedup cache.
    Corrupt,
    /// The frame stalls on the wire for the plan's stall duration before
    /// delivery. This is the fault hedging exists for.
    Stall,
    /// The link carrying the frame goes down. Same observable as [`Drop`]
    /// (the frame is lost); tallied separately.
    Disconnect,
    /// The worker holding this frame's request crashes. Before execution:
    /// the request is billed cancelled and the retransmit re-executes.
    /// After execution (reply frame): the outcome survives in the dedup
    /// cache and the retransmit is served from it — exactly-once holds
    /// across the crash.
    Crash,
    /// The whole service halts permanently: every later transmission fails
    /// unbilled. The crash-recovery harness resumes the crawl from its last
    /// checkpoint against a fresh service.
    Halt,
}

impl ChaosKind {
    /// Every kind, in spec order.
    pub const ALL: [ChaosKind; 8] = [
        ChaosKind::Drop,
        ChaosKind::Duplicate,
        ChaosKind::Reorder,
        ChaosKind::Corrupt,
        ChaosKind::Stall,
        ChaosKind::Disconnect,
        ChaosKind::Crash,
        ChaosKind::Halt,
    ];

    /// The spec-string token for this kind (`"drop"`, `"stall"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            ChaosKind::Drop => "drop",
            ChaosKind::Duplicate => "dup",
            ChaosKind::Reorder => "reorder",
            ChaosKind::Corrupt => "corrupt",
            ChaosKind::Stall => "stall",
            ChaosKind::Disconnect => "disconnect",
            ChaosKind::Crash => "crash",
            ChaosKind::Halt => "halt",
        }
    }

    /// Parses a spec-string token. Accepts exactly what
    /// [`as_str`](ChaosKind::as_str) produces.
    pub fn parse(token: &str) -> Option<ChaosKind> {
        ChaosKind::ALL.into_iter().find(|k| k.as_str() == token)
    }
}

impl fmt::Display for ChaosKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A deterministic fault schedule: wire-frame index → fault, plus the two
/// duration knobs ([`stall`](ChaosPlan::stall_for) /
/// [`reorder`](ChaosPlan::reorder_for)) shared by every timed fault in the
/// plan. Frame indices are 1-based: frame 1 is the first transmission on
/// the wire.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    faults: BTreeMap<u64, ChaosKind>,
    stall: Option<Duration>,
    reorder: Option<Duration>,
}

/// How long a stalled frame sits on the wire when the plan doesn't say.
const DEFAULT_STALL: Duration = Duration::from_millis(2);
/// How far a reordered frame slips when the plan doesn't say.
const DEFAULT_REORDER: Duration = Duration::from_micros(200);

impl ChaosPlan {
    /// An empty plan: no faults, a chaos-free wire.
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Schedules `kind` on 1-based wire frame `frame` (replacing any fault
    /// already there). Frame 0 is not a frame; it is ignored.
    pub fn at(mut self, frame: u64, kind: ChaosKind) -> Self {
        if frame > 0 {
            self.faults.insert(frame, kind);
        }
        self
    }

    /// Schedules a [`ChaosKind::Drop`] on frame `frame`.
    pub fn drop_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Drop)
    }

    /// Schedules a [`ChaosKind::Duplicate`] on frame `frame`.
    pub fn duplicate_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Duplicate)
    }

    /// Schedules a [`ChaosKind::Corrupt`] on frame `frame`.
    pub fn corrupt_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Corrupt)
    }

    /// Schedules a [`ChaosKind::Stall`] on frame `frame`.
    pub fn stall_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Stall)
    }

    /// Schedules a [`ChaosKind::Crash`] on frame `frame`.
    pub fn crash_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Crash)
    }

    /// Schedules a [`ChaosKind::Halt`] on frame `frame`.
    pub fn halt_at(self, frame: u64) -> Self {
        self.at(frame, ChaosKind::Halt)
    }

    /// Sets how long [`ChaosKind::Stall`] holds a frame (default 2 ms).
    pub fn stall_for(mut self, stall: Duration) -> Self {
        self.stall = Some(stall);
        self
    }

    /// Sets how far [`ChaosKind::Reorder`] delays a frame (default 200 µs).
    pub fn reorder_for(mut self, reorder: Duration) -> Self {
        self.reorder = Some(reorder);
        self
    }

    /// A pseudo-random schedule over the first `horizon` wire frames: each
    /// frame independently draws a fault with probability `rate`, choosing
    /// uniformly among `kinds` (all kinds when `kinds` is empty). The same
    /// `(seed, horizon, rate, kinds)` always yields the same plan — the
    /// draw is the same splitmix64 scheme [`crate::fault::FaultPlan::seeded`]
    /// uses, so chaos schedules and source-fault schedules decorrelate by
    /// seed alone.
    pub fn seeded(seed: u64, horizon: u64, rate: f64, kinds: &[ChaosKind]) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        let threshold = (rate * u64::MAX as f64) as u64;
        let pool: &[ChaosKind] = if kinds.is_empty() { &ChaosKind::ALL } else { kinds };
        let mut plan = ChaosPlan::new();
        for frame in 1..=horizon {
            let draw = splitmix64(seed.wrapping_add(frame.wrapping_mul(SPLITMIX_STEP)));
            if draw <= threshold {
                // A second decorrelated draw picks the kind, so changing the
                // kind pool never shifts *which* frames fault.
                let pick = splitmix64(draw ^ SPLITMIX_STEP) as usize % pool.len();
                plan.faults.insert(frame, pool[pick]);
            }
        }
        plan
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault scheduled on `frame`, if any.
    pub fn kind_at(&self, frame: u64) -> Option<ChaosKind> {
        self.faults.get(&frame).copied()
    }

    /// Iterates `(frame, kind)` pairs in frame order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, ChaosKind)> + '_ {
        self.faults.iter().map(|(&f, &k)| (f, k))
    }

    /// How long stalled frames sit on the wire.
    pub fn stall(&self) -> Duration {
        self.stall.unwrap_or(DEFAULT_STALL)
    }

    /// How far reordered frames slip.
    pub fn reorder(&self) -> Duration {
        self.reorder.unwrap_or(DEFAULT_REORDER)
    }

    /// Renders the plan as the compact spec `dwc chaos --chaos-plan`
    /// accepts: `"12:drop,40:stall"`, frames in order. Empty plans render
    /// as an empty string.
    pub fn to_spec(&self) -> String {
        let mut out = String::new();
        for (frame, kind) in self.iter() {
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(&format!("{frame}:{kind}"));
        }
        out
    }

    /// Parses a spec produced by [`to_spec`](ChaosPlan::to_spec). Whitespace
    /// around entries is tolerated; an empty string is the empty plan.
    pub fn from_spec(spec: &str) -> Result<Self, ChaosSpecError> {
        let mut plan = ChaosPlan::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (frame, kind) =
                entry.split_once(':').ok_or_else(|| ChaosSpecError { entry: entry.to_owned() })?;
            let frame: u64 =
                frame.trim().parse().map_err(|_| ChaosSpecError { entry: entry.to_owned() })?;
            let kind = ChaosKind::parse(kind.trim())
                .ok_or_else(|| ChaosSpecError { entry: entry.to_owned() })?;
            if frame == 0 {
                return Err(ChaosSpecError { entry: entry.to_owned() });
            }
            plan.faults.insert(frame, kind);
        }
        Ok(plan)
    }

    /// The plan restricted to a subset of its faults — the shrinking
    /// primitive: same duration knobs, only the given frames keep their
    /// faults.
    pub fn restricted_to(&self, frames: &[u64]) -> Self {
        let mut sub = self.clone();
        sub.faults.retain(|frame, _| frames.contains(frame));
        sub
    }
}

/// A spec entry [`ChaosPlan::from_spec`] could not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpecError {
    /// The offending `frame:kind` entry, verbatim.
    pub entry: String,
}

impl fmt::Display for ChaosSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad chaos spec entry {:?} (want FRAME:KIND, e.g. 12:drop)", self.entry)
    }
}

impl std::error::Error for ChaosSpecError {}

/// Delta-debugging (ddmin) shrink: given a plan whose schedule makes
/// `fails` return `true`, finds a subset of its faults that still fails but
/// from which no single fault can be removed without the failure vanishing
/// (1-minimality). `fails` is re-run on candidate sub-plans, so it should
/// be a full deterministic reproduction of the failing run.
///
/// Returns the plan unchanged when it no longer fails (non-reproducible
/// failure) — shrinking only ever preserves a real failure.
pub fn shrink_plan<F: FnMut(&ChaosPlan) -> bool>(plan: &ChaosPlan, mut fails: F) -> ChaosPlan {
    if !fails(plan) {
        return plan.clone();
    }
    let mut frames: Vec<u64> = plan.iter().map(|(f, _)| f).collect();
    let mut chunks = 2usize;
    while frames.len() > 1 {
        let chunk_len = frames.len().div_ceil(chunks);
        let mut reduced = false;
        let mut start = 0;
        while start < frames.len() {
            let end = (start + chunk_len).min(frames.len());
            // Try deleting frames[start..end] — the complement must still fail.
            let complement: Vec<u64> =
                frames[..start].iter().chain(frames[end..].iter()).copied().collect();
            if !complement.is_empty() && fails(&plan.restricted_to(&complement)) {
                frames = complement;
                chunks = chunks.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunks >= frames.len() {
                break;
            }
            chunks = (chunks * 2).min(frames.len());
        }
    }
    plan.restricted_to(&frames)
}

/// Running totals of injected faults, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosTally {
    /// Frames eaten by [`ChaosKind::Drop`].
    pub dropped: u64,
    /// Frames doubled by [`ChaosKind::Duplicate`].
    pub duplicated: u64,
    /// Frames slipped by [`ChaosKind::Reorder`].
    pub reordered: u64,
    /// Frames truncated by [`ChaosKind::Corrupt`].
    pub corrupted: u64,
    /// Frames held by [`ChaosKind::Stall`].
    pub stalled: u64,
    /// Frames lost to [`ChaosKind::Disconnect`].
    pub disconnects: u64,
    /// Worker crashes injected by [`ChaosKind::Crash`].
    pub crashes: u64,
    /// Whether a [`ChaosKind::Halt`] took the service down.
    pub halted: bool,
}

impl ChaosTally {
    /// Total injected faults (halt counted once).
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.reordered
            + self.corrupted
            + self.stalled
            + self.disconnects
            + self.crashes
            + u64::from(self.halted)
    }
}

/// Live chaos bookkeeping shared by every connection on a wire: the plan,
/// the monotone frame counter, the injected-fault tallies and the halt
/// latch. One `Arc<ChaosState>` per service under test — the frame counter
/// is global across every connection that shares it, which is what makes
/// plan indices mean
/// "the N-th transmission anywhere on this wire".
#[derive(Debug)]
pub struct ChaosState {
    plan: ChaosPlan,
    cursor: AtomicU64,
    halted: AtomicBool,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    corrupted: AtomicU64,
    stalled: AtomicU64,
    disconnects: AtomicU64,
    crashes: AtomicU64,
}

impl ChaosState {
    /// Arms a plan: frame counter at zero, nothing injected yet.
    pub fn new(plan: ChaosPlan) -> Self {
        ChaosState {
            plan,
            cursor: AtomicU64::new(0),
            halted: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Allocates the next 1-based wire frame index and looks up its
    /// scheduled fault. Every transmission attempt — request or reply —
    /// consumes exactly one index, faulted or not.
    pub fn next_frame(&self) -> (u64, Option<ChaosKind>) {
        let frame = self.cursor.fetch_add(1, Ordering::Relaxed) + 1;
        (frame, self.plan.kind_at(frame))
    }

    /// Frames transmitted so far.
    pub fn frames_sent(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Whether a [`ChaosKind::Halt`] fired: the service is gone for good.
    pub fn is_halted(&self) -> bool {
        self.halted.load(Ordering::Relaxed)
    }

    /// Latches the halt.
    pub fn set_halted(&self) {
        self.halted.store(true, Ordering::Relaxed);
    }

    /// Records one injected fault of `kind` in the tallies.
    pub(crate) fn note(&self, kind: ChaosKind) {
        match kind {
            ChaosKind::Drop => self.dropped.fetch_add(1, Ordering::Relaxed),
            ChaosKind::Duplicate => self.duplicated.fetch_add(1, Ordering::Relaxed),
            ChaosKind::Reorder => self.reordered.fetch_add(1, Ordering::Relaxed),
            ChaosKind::Corrupt => self.corrupted.fetch_add(1, Ordering::Relaxed),
            ChaosKind::Stall => self.stalled.fetch_add(1, Ordering::Relaxed),
            ChaosKind::Disconnect => self.disconnects.fetch_add(1, Ordering::Relaxed),
            ChaosKind::Crash => self.crashes.fetch_add(1, Ordering::Relaxed),
            ChaosKind::Halt => {
                self.set_halted();
                0
            }
        };
    }

    /// Snapshot of the injected-fault totals.
    pub fn tally(&self) -> ChaosTally {
        ChaosTally {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            stalled: self.stalled.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            halted: self.is_halted(),
        }
    }
}

/// What one crawl through a chaos wire produced: everything the chaos
/// invariants are checked on.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRun {
    /// The crawl's report.
    pub report: CrawlReport,
    /// The service report folded live.
    pub service: ServiceReport,
    /// The service report replayed from the service's recorded events.
    pub replayed: ServiceReport,
    /// Rounds the inner source executed.
    pub executed: u64,
    /// The client's `rounds_used()`, read once every admitted request was
    /// completed or cancelled.
    pub rounds_used: u64,
    /// Wire frames the client transmitted.
    pub frames: u64,
    /// Faults the wire injected.
    pub tally: ChaosTally,
}

impl ChaosRun {
    /// The first chaos invariant this run breaks, or `None` when all hold.
    /// `plan` is the schedule the run faced and `baseline` the same crawl
    /// without faults. In order: replay parity, billing conservation, and
    /// absorption — the report equals the baseline, unless the plan halts
    /// the service, in which case the crawl may end early but never harvest
    /// more records than the baseline.
    pub fn violation(&self, plan: &ChaosPlan, baseline: &CrawlReport) -> Option<String> {
        if self.replayed != self.service {
            return Some(format!(
                "replay parity broken: live {:?} != replayed {:?}",
                self.service, self.replayed
            ));
        }
        let billed =
            self.executed + self.service.shed + self.service.cancelled + self.service.retransmitted;
        if self.rounds_used != billed {
            return Some(format!(
                "billing conservation broken: rounds_used {} != executed {} + shed {} + \
                 cancelled {} + retransmitted {}",
                self.rounds_used,
                self.executed,
                self.service.shed,
                self.service.cancelled,
                self.service.retransmitted
            ));
        }
        let (run, base) = (&self.report, baseline);
        if plan.iter().any(|(_, k)| k == ChaosKind::Halt) {
            if run.records > base.records {
                return Some(format!(
                    "halted crawl harvested {} records, more than the baseline's {}",
                    run.records, base.records
                ));
            }
        } else if run != base {
            return Some(format!(
                "crawl report diverged from the fault-free baseline under a recoverable plan: \
                 {} records / {} rounds / {} queries vs baseline {} / {} / {}",
                run.records, run.rounds, run.queries, base.records, base.rounds, base.queries
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every truncation and every bit flip that stays UTF-8 of a spec
    /// naming every kind parses to an error or to a plan that round-trips
    /// through its spec, and never panics.
    #[test]
    fn damaged_specs_are_errors_or_round_tripping_plans() {
        let plan = ChaosKind::ALL
            .iter()
            .enumerate()
            .fold(ChaosPlan::new(), |plan, (i, &kind)| plan.at(7 + 130 * i as u64, kind));
        assert_eq!(plan.len(), ChaosKind::ALL.len());
        let mut parsed = 0;
        crate::for_each_damaged(&plan.to_spec(), |spec| {
            if let Ok(plan) = ChaosPlan::from_spec(spec) {
                assert_eq!(ChaosPlan::from_spec(&plan.to_spec()), Ok(plan), "from {spec:?}");
                parsed += 1;
            }
        });
        assert!(parsed > 0, "every prefix that ends between entries parses");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_rate_bounded() {
        let a = ChaosPlan::seeded(42, 1000, 0.1, &[]);
        let b = ChaosPlan::seeded(42, 1000, 0.1, &[]);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, ChaosPlan::seeded(43, 1000, 0.1, &[]), "different seed, different plan");
        // ~10% of 1000 frames; loose 4x bounds keep this robust across seeds.
        assert!(a.len() > 25 && a.len() < 400, "rate ~0.1 of 1000, got {}", a.len());
        assert!(ChaosPlan::seeded(42, 1000, 0.0, &[]).is_empty());
        assert_eq!(ChaosPlan::seeded(42, 1000, 1.0, &[]).len(), 1000);
    }

    #[test]
    fn kind_pool_restricts_draws_without_moving_frames() {
        let all = ChaosPlan::seeded(7, 500, 0.2, &[]);
        let drops = ChaosPlan::seeded(7, 500, 0.2, &[ChaosKind::Drop]);
        assert_eq!(
            all.iter().map(|(f, _)| f).collect::<Vec<_>>(),
            drops.iter().map(|(f, _)| f).collect::<Vec<_>>(),
            "kind pool must not shift which frames fault"
        );
        assert!(drops.iter().all(|(_, k)| k == ChaosKind::Drop));
    }

    #[test]
    fn spec_roundtrips_and_rejects_garbage() {
        let plan = ChaosPlan::new().drop_at(12).stall_at(40).at(7, ChaosKind::Disconnect);
        let spec = plan.to_spec();
        assert_eq!(spec, "7:disconnect,12:drop,40:stall");
        assert_eq!(ChaosPlan::from_spec(&spec).unwrap(), plan);
        assert_eq!(ChaosPlan::from_spec("").unwrap(), ChaosPlan::new());
        assert_eq!(ChaosPlan::from_spec(" 3:crash , 9:halt ").unwrap().len(), 2);
        assert!(ChaosPlan::from_spec("12").is_err());
        assert!(ChaosPlan::from_spec("x:drop").is_err());
        assert!(ChaosPlan::from_spec("12:sneeze").is_err());
        assert!(ChaosPlan::from_spec("0:drop").is_err(), "frames are 1-based");
        for kind in ChaosKind::ALL {
            assert_eq!(ChaosKind::parse(kind.as_str()), Some(kind));
        }
    }

    #[test]
    fn state_allocates_frames_and_tallies_faults() {
        let state = ChaosState::new(ChaosPlan::new().drop_at(2).crash_at(3));
        assert_eq!(state.next_frame(), (1, None));
        assert_eq!(state.next_frame(), (2, Some(ChaosKind::Drop)));
        assert_eq!(state.next_frame(), (3, Some(ChaosKind::Crash)));
        assert_eq!(state.frames_sent(), 3);
        state.note(ChaosKind::Drop);
        state.note(ChaosKind::Crash);
        state.note(ChaosKind::Halt);
        let tally = state.tally();
        assert_eq!(tally.dropped, 1);
        assert_eq!(tally.crashes, 1);
        assert!(tally.halted);
        assert!(state.is_halted());
        assert_eq!(tally.total(), 3);
    }

    #[test]
    fn shrink_finds_the_single_culprit_fault() {
        let plan = ChaosPlan::seeded(11, 400, 0.15, &[ChaosKind::Drop, ChaosKind::Stall]);
        assert!(plan.len() > 10, "need a non-trivial plan to shrink");
        let culprit = plan.iter().nth(plan.len() / 2).unwrap().0;
        // "Fails" iff the culprit frame's fault is present.
        let shrunk = shrink_plan(&plan, |p| p.kind_at(culprit).is_some());
        assert_eq!(shrunk.len(), 1);
        assert!(shrunk.kind_at(culprit).is_some());
    }

    #[test]
    fn shrink_keeps_interacting_pairs_together() {
        let plan =
            ChaosPlan::new().drop_at(3).drop_at(8).stall_at(21).crash_at(34).duplicate_at(55);
        // The failure needs *both* frame 8 and frame 34.
        let shrunk = shrink_plan(&plan, |p| p.kind_at(8).is_some() && p.kind_at(34).is_some());
        assert_eq!(shrunk.len(), 2);
        assert_eq!(shrunk.kind_at(8), Some(ChaosKind::Drop));
        assert_eq!(shrunk.kind_at(34), Some(ChaosKind::Crash));
    }

    #[test]
    fn shrink_returns_nonreproducible_plans_untouched() {
        let plan = ChaosPlan::new().drop_at(1).drop_at(2);
        assert_eq!(shrink_plan(&plan, |_| false), plan);
    }

    #[test]
    fn restricted_plans_keep_duration_knobs() {
        let plan = ChaosPlan::new()
            .stall_at(5)
            .drop_at(9)
            .stall_for(Duration::from_millis(7))
            .reorder_for(Duration::from_micros(50));
        let sub = plan.restricted_to(&[5]);
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.stall(), Duration::from_millis(7));
        assert_eq!(sub.reorder(), Duration::from_micros(50));
    }
}
