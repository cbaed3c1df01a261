//! Tenancy primitives: identities, per-tenant policy knobs, usage metering.
//!
//! The fleet engine schedules *jobs*, but capacity, fairness, and billing
//! are questions about *tenants* — the principals on whose behalf jobs run.
//! This module holds the vocabulary shared by every layer that carries the
//! tenant dimension:
//!
//! * [`TenantId`] / [`Tenant`] — the registry entry validated by
//!   [`crate::fleet::FleetConfigBuilder::tenants`]: scheduling weight, round
//!   quota, and dispatch priority.
//! * [`UsageLedger`] — the per-tenant fold of the fleet event stream
//!   (rounds, pages, preemptions), reported in
//!   [`crate::fleet::FleetReport::usage`] and reproducible bit-for-bit by
//!   replaying the recorded events.
//!
//! A fleet with an **empty registry** is tenant-blind and behaves exactly as
//! before tenancy existed; nothing here is on any hot path unless tenants
//! are configured.

use crate::config::ConfigError;

/// Identity of a tenant — the billing/fairness principal a job runs under.
///
/// A plain newtype over `u32` so it can be carried in events, serialized in
/// the flat JSON event stream, and used as a map key without ceremony.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One registry entry: a tenant and its scheduling policy.
///
/// Built fluently — `Tenant::new(3).with_weight(5).with_quota(200)` — and
/// validated as a set by [`validate_tenants`] (invoked from the
/// `FleetConfig` builder): zero weights, zero quotas, and duplicate ids are
/// rejected at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tenant {
    /// The tenant's identity; unique within a registry.
    pub id: TenantId,
    /// Weighted-fair scheduling weight. A weight-5 tenant receives 5× the
    /// rounds of a weight-1 tenant under contention. Must be positive.
    pub weight: u32,
    /// Optional hard cap on total Def. 2.3 rounds the tenant may consume in
    /// one fleet run; once reached the tenant's jobs are parked
    /// (cooperative preemption at the next slice boundary).
    pub round_quota: Option<u64>,
    /// Dispatch priority: within one allocation cycle, slices of
    /// higher-priority tenants are handed to the workers first. Affects only
    /// dispatch *order*, never grant *amounts*, so reports are unchanged.
    pub priority: u8,
}

impl Tenant {
    /// A default tenant: weight 1, no quota, priority 0.
    pub fn new(id: u32) -> Self {
        Tenant { id: TenantId(id), weight: 1, round_quota: None, priority: 0 }
    }

    /// Sets the weighted-fair scheduling weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Caps the tenant's total rounds for the run.
    pub fn with_quota(mut self, rounds: u64) -> Self {
        self.round_quota = Some(rounds);
        self
    }

    /// Sets the dispatch priority (higher dispatches first).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// Validates a tenant registry: positive weights, positive quotas, unique
/// ids. Called by [`crate::fleet::FleetConfigBuilder::build`].
pub fn validate_tenants(tenants: &[Tenant]) -> Result<(), ConfigError> {
    let mut seen = std::collections::BTreeSet::new();
    for t in tenants {
        if t.weight == 0 {
            return Err(ConfigError::ZeroTenantWeight(t.id.0));
        }
        if t.round_quota == Some(0) {
            return Err(ConfigError::ZeroTenantQuota(t.id.0));
        }
        if !seen.insert(t.id) {
            return Err(ConfigError::DuplicateTenant(t.id.0));
        }
    }
    Ok(())
}

/// Per-tenant usage metering: the fold of the tenant-tagged fleet events.
///
/// `rounds` and `pages` are folded as per-job *cumulative maxima* from
/// `SliceCompleted` / `JobAttached` (mirroring the coordinator's own
/// `rounds_used` bookkeeping), so they stay exact under worker panics,
/// restarts, and checkpoint resumes; `preempted` is a plain event count.
/// The conservation invariant — the `rounds` fields of all ledgers sum to
/// `FleetReport::total_rounds` exactly — is tested property-style in
/// `tests/fleet_sched.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UsageLedger {
    /// Def. 2.3 rounds billed to the tenant's jobs.
    pub rounds: u64,
    /// Page-request rounds actually executed against sources.
    pub pages: u64,
    /// Times one of the tenant's jobs was parked at a slice boundary
    /// (quota exhaustion or tripped breaker under preemption).
    pub preempted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_fluent_setters() {
        let t = Tenant::new(7).with_weight(5).with_quota(100).with_priority(3);
        assert_eq!(t.id, TenantId(7));
        assert_eq!(t.weight, 5);
        assert_eq!(t.round_quota, Some(100));
        assert_eq!(t.priority, 3);
        let d = Tenant::new(0);
        assert_eq!((d.weight, d.round_quota, d.priority), (1, None, 0));
    }

    #[test]
    fn registry_validation_rejects_each_misconfiguration() {
        assert_eq!(
            validate_tenants(&[Tenant::new(1).with_weight(0)]),
            Err(ConfigError::ZeroTenantWeight(1))
        );
        assert_eq!(
            validate_tenants(&[Tenant::new(2).with_quota(0)]),
            Err(ConfigError::ZeroTenantQuota(2))
        );
        assert_eq!(
            validate_tenants(&[Tenant::new(0), Tenant::new(1), Tenant::new(0)]),
            Err(ConfigError::DuplicateTenant(0))
        );
        assert_eq!(validate_tenants(&[Tenant::new(0), Tenant::new(1)]), Ok(()));
        assert_eq!(validate_tenants(&[]), Ok(()));
    }
}
