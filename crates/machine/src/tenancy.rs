//! Multi-tenant QP virtualization: tenant registry, SLO classes, and
//! per-tenant accounting.
//!
//! A rack running soNUMA is shared by many applications; each node's RMC
//! multiplexes all of their queue pairs through one Request Generation
//! Pipeline. This module owns the node-local tenant registry: which
//! tenant each QP belongs to, the tenant's scheduling weight and SLO
//! class, and the per-tenant counters (requests serviced, completions,
//! backpressure rejections) the benchmark harness reports per tenant.
//!
//! The registry is deliberately flat data — `Vec`s indexed by slot, with
//! a sorted id index — so lookups on the RGP's hot path are O(log n) and
//! iteration order is deterministic regardless of registration pattern.

use sonuma_protocol::{QpId, TenantId};

/// Service-level objective class of a tenant (strict-priority tiers).
///
/// `Gold` preempts `Silver` preempts `Bronze` under the strict-priority
/// scheduler; under weighted policies the class is reporting metadata
/// (the weight carries the policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SloClass {
    /// Latency-critical traffic; served first under strict priority.
    Gold,
    /// Standard traffic.
    #[default]
    Silver,
    /// Throughput-oriented background traffic; served last.
    Bronze,
}

impl SloClass {
    /// Strict-priority level: 0 is served first.
    #[inline]
    pub fn priority(self) -> u8 {
        match self {
            SloClass::Gold => 0,
            SloClass::Silver => 1,
            SloClass::Bronze => 2,
        }
    }

    /// Number of distinct priority levels.
    pub const LEVELS: usize = 3;

    /// Report label.
    pub fn as_str(self) -> &'static str {
        match self {
            SloClass::Gold => "gold",
            SloClass::Silver => "silver",
            SloClass::Bronze => "bronze",
        }
    }

    /// Parses a report label.
    ///
    /// # Errors
    ///
    /// Returns the unknown label back.
    pub fn parse(s: &str) -> Result<SloClass, String> {
        match s {
            "gold" => Ok(SloClass::Gold),
            "silver" => Ok(SloClass::Silver),
            "bronze" => Ok(SloClass::Bronze),
            other => Err(format!("unknown SLO class {other:?} (gold|silver|bronze)")),
        }
    }
}

/// Registration record for one tenant on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Cluster-wide tenant identity.
    pub id: TenantId,
    /// WDRR scheduling weight (line-quanta per round). Must be nonzero.
    pub weight: u32,
    /// Strict-priority tier.
    pub slo: SloClass,
}

/// Per-tenant counters accumulated by the pipelines and the access
/// library on one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// WQ entries the RGP consumed for this tenant's QPs.
    pub requests: u64,
    /// CQ entries the RCP posted for this tenant's QPs.
    pub completions: u64,
    /// Posts the access library rejected with `WqFull` (backpressure the
    /// tenant itself experienced).
    pub wq_full: u64,
}

/// The node-local tenant registry: specs, stats, and the QP→tenant map.
#[derive(Debug, Default)]
pub struct TenantTable {
    /// Registration order preserved (deterministic iteration).
    tenants: Vec<(TenantSpec, TenantStats)>,
    /// `(tenant id raw, slot)` sorted by id, for O(log n) lookup.
    by_id: Vec<(u32, usize)>,
    /// QP index → tenant slot (None for untagged QPs).
    qp_slot: Vec<Option<usize>>,
}

impl TenantTable {
    /// Registers (or updates) a tenant.
    ///
    /// Re-registering an existing id overwrites its weight/SLO but keeps
    /// its stats and QP bindings.
    pub fn register(&mut self, spec: TenantSpec) {
        match self.by_id.binary_search_by_key(&spec.id.0, |&(id, _)| id) {
            Ok(i) => {
                let slot = self.by_id[i].1;
                self.tenants[slot].0 = spec;
            }
            Err(i) => {
                let slot = self.tenants.len();
                self.tenants.push((spec, TenantStats::default()));
                self.by_id.insert(i, (spec.id.0, slot));
            }
        }
    }

    /// The registration for `id`, if present.
    pub fn lookup(&self, id: TenantId) -> Option<&TenantSpec> {
        self.slot_of(id).map(|s| &self.tenants[s].0)
    }

    fn slot_of(&self, id: TenantId) -> Option<usize> {
        self.by_id
            .binary_search_by_key(&id.0, |&(id, _)| id)
            .ok()
            .map(|i| self.by_id[i].1)
    }

    /// Binds `qp` to `tenant` (which must be registered).
    ///
    /// # Panics
    ///
    /// Panics if the tenant is not registered.
    pub fn bind_qp(&mut self, qp: QpId, tenant: TenantId) {
        let slot = self
            .slot_of(tenant)
            .expect("tenant must be registered before binding a QP");
        if self.qp_slot.len() <= qp.index() {
            self.qp_slot.resize(qp.index() + 1, None);
        }
        self.qp_slot[qp.index()] = Some(slot);
    }

    /// The spec of the tenant owning `qp` (None for untagged QPs).
    pub fn qp_tenant(&self, qp: QpId) -> Option<&TenantSpec> {
        let slot = *self.qp_slot.get(qp.index())?;
        slot.map(|s| &self.tenants[s].0)
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// `(spec, stats)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&TenantSpec, &TenantStats)> {
        self.tenants.iter().map(|(spec, stats)| (spec, stats))
    }

    /// Stats for `id`, if registered.
    pub fn stats(&self, id: TenantId) -> Option<&TenantStats> {
        self.slot_of(id).map(|s| &self.tenants[s].1)
    }

    /// Counts one RGP-serviced WQ entry against `qp`'s tenant.
    pub(crate) fn note_request(&mut self, qp: QpId) {
        if let Some(Some(slot)) = self.qp_slot.get(qp.index()) {
            self.tenants[*slot].1.requests += 1;
        }
    }

    /// Counts one posted CQ entry against `qp`'s tenant.
    pub(crate) fn note_completion(&mut self, qp: QpId) {
        if let Some(Some(slot)) = self.qp_slot.get(qp.index()) {
            self.tenants[*slot].1.completions += 1;
        }
    }

    /// Counts one `WqFull` rejection against `qp`'s tenant.
    pub(crate) fn note_wq_full(&mut self, qp: QpId) {
        if let Some(Some(slot)) = self.qp_slot.get(qp.index()) {
            self.tenants[*slot].1.wq_full += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A weight-1 `Silver` tenant.
    fn best_effort(id: TenantId) -> TenantSpec {
        TenantSpec {
            id,
            weight: 1,
            slo: SloClass::Silver,
        }
    }

    #[test]
    fn register_lookup_bind() {
        let mut t = TenantTable::default();
        t.register(TenantSpec {
            id: TenantId(9),
            weight: 4,
            slo: SloClass::Gold,
        });
        t.register(best_effort(TenantId(2)));
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(TenantId(9)).unwrap().weight, 4);
        assert!(t.lookup(TenantId(5)).is_none());

        t.bind_qp(QpId(3), TenantId(9));
        assert_eq!(t.qp_tenant(QpId(3)).unwrap().id, TenantId(9));
        assert!(t.qp_tenant(QpId(0)).is_none(), "untagged QP");
        assert!(t.qp_tenant(QpId(100)).is_none(), "unknown QP");
    }

    #[test]
    fn reregistration_updates_spec_keeps_stats() {
        let mut t = TenantTable::default();
        t.register(best_effort(TenantId(1)));
        t.bind_qp(QpId(0), TenantId(1));
        t.note_request(QpId(0));
        t.register(TenantSpec {
            id: TenantId(1),
            weight: 8,
            slo: SloClass::Bronze,
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(TenantId(1)).unwrap().weight, 8);
        assert_eq!(t.stats(TenantId(1)).unwrap().requests, 1);
        assert_eq!(t.qp_tenant(QpId(0)).unwrap().slo, SloClass::Bronze);
    }

    #[test]
    fn counters_attribute_to_the_bound_tenant() {
        let mut t = TenantTable::default();
        t.register(best_effort(TenantId(0)));
        t.register(best_effort(TenantId(1)));
        t.bind_qp(QpId(0), TenantId(0));
        t.bind_qp(QpId(1), TenantId(1));
        t.note_request(QpId(0));
        t.note_completion(QpId(0));
        t.note_wq_full(QpId(1));
        // Counters on untagged QPs are silently dropped, not misattributed.
        t.note_request(QpId(7));
        let a = t.stats(TenantId(0)).unwrap();
        let b = t.stats(TenantId(1)).unwrap();
        assert_eq!((a.requests, a.completions, a.wq_full), (1, 1, 0));
        assert_eq!((b.requests, b.completions, b.wq_full), (0, 0, 1));
    }

    #[test]
    fn slo_roundtrip_and_priority_order() {
        for slo in [SloClass::Gold, SloClass::Silver, SloClass::Bronze] {
            assert_eq!(SloClass::parse(slo.as_str()).unwrap(), slo);
        }
        assert!(SloClass::parse("platinum").is_err());
        assert!(SloClass::Gold.priority() < SloClass::Silver.priority());
        assert!(SloClass::Silver.priority() < SloClass::Bronze.priority());
        assert!((SloClass::Bronze.priority() as usize) < SloClass::LEVELS);
    }
}
