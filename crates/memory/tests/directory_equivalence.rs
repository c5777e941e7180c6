//! Differential test of the derived coherence directory.
//!
//! `MemoryHierarchy` answers "who else holds this line, and who holds it
//! modified" by probing the other agents' L1 tag arrays. Until that change
//! it kept an explicit `line -> (holders, dirty_owner)` map beside the
//! tags. [`MapHierarchy`] below is that earlier implementation, kept
//! verbatim (on the public `CacheArray`/`DramModel` API) as the reference:
//! over random access streams the two must agree on every `AccessResult`
//! and on every counter a run reports.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use sonuma_memory::{
    AccessKind, AccessResult, AgentId, CacheArray, CacheGeometry, DramModel, HierarchyConfig,
    HitLevel, LookupResult, MemoryHierarchy, PAddr,
};
use sonuma_sim::SimTime;

#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    /// Bitmask of agents whose L1 may hold the line.
    holders: u64,
    /// Agent holding the line modified, if any.
    dirty_owner: Option<AgentId>,
}

/// The map-based hierarchy: per-agent L1s, shared LLC, one DRAM channel,
/// and an explicit per-line coherence map.
struct MapHierarchy {
    config: HierarchyConfig,
    l1s: Vec<CacheArray>,
    l2: CacheArray,
    dram: DramModel,
    lines: HashMap<u64, LineState>,
    hits_by_level: [u64; 4],
}

impl MapHierarchy {
    fn new(config: HierarchyConfig, agents: usize) -> Self {
        MapHierarchy {
            config,
            l1s: (0..agents)
                .map(|_| CacheArray::new(config.l1_geometry))
                .collect(),
            l2: CacheArray::new(config.l2_geometry),
            dram: DramModel::new(config.dram),
            lines: HashMap::new(),
            hits_by_level: [0; 4],
        }
    }

    fn note(&mut self, level: HitLevel) {
        let i = match level {
            HitLevel::L1 => 0,
            HitLevel::L2 => 1,
            HitLevel::CacheToCache => 2,
            HitLevel::Dram => 3,
        };
        self.hits_by_level[i] += 1;
    }

    fn apply_l1_side_effects(&mut self, agent: AgentId, result: LookupResult) {
        let evicted = match result {
            LookupResult::Hit => None,
            LookupResult::Miss { evicted_clean } => evicted_clean,
            LookupResult::MissDirtyEviction { victim_line } => {
                self.l2.access(PAddr::new(victim_line * 64), true);
                Some(victim_line)
            }
        };
        if let Some(line) = evicted {
            if let Some(st) = self.lines.get_mut(&line) {
                st.holders &= !(1u64 << agent.0);
                if st.dirty_owner == Some(agent) {
                    st.dirty_owner = None;
                }
            }
        }
    }

    fn apply_l2_side_effects(&mut self, now: SimTime, result: LookupResult) {
        if let LookupResult::MissDirtyEviction { .. } = result {
            self.dram.access(now, 64);
        }
    }

    fn access(
        &mut self,
        agent: AgentId,
        addr: PAddr,
        kind: AccessKind,
        now: SimTime,
    ) -> AccessResult {
        let line = addr.line_index();
        let write = kind == AccessKind::Write;
        let me = 1u64 << agent.0;

        let mut latency = self.config.l1_latency;
        let l1_result = self.l1s[agent.0].access(addr, write);
        self.apply_l1_side_effects(agent, l1_result);

        let state = self.lines.entry(line).or_default();
        let holders_others = state.holders & !me;
        let dirty_other = match state.dirty_owner {
            Some(o) if o != agent => Some(o),
            _ => None,
        };

        if l1_result.is_hit() && dirty_other.is_none() {
            if write && holders_others != 0 {
                latency += self.config.l2_latency;
                self.invalidate_others(line, agent);
            }
            let state = self.lines.entry(line).or_default();
            state.holders |= me;
            if write {
                state.dirty_owner = Some(agent);
            }
            self.note(HitLevel::L1);
            return AccessResult {
                latency,
                level: HitLevel::L1,
            };
        }

        latency += self.config.l2_latency;

        let level = if let Some(owner) = dirty_other {
            latency += self.config.cache_to_cache;
            if write {
                self.l1s[owner.0].invalidate(addr);
            } else {
                self.l1s[owner.0].clean(addr);
            }
            let l2r = self.l2.access(addr, true);
            self.apply_l2_side_effects(now, l2r);
            HitLevel::CacheToCache
        } else {
            let l2r = self.l2.access(addr, write);
            self.apply_l2_side_effects(now, l2r);
            if l2r.is_hit() {
                HitLevel::L2
            } else {
                let issue = now + latency;
                let done = self.dram.access(issue, 64);
                latency = done - now;
                HitLevel::Dram
            }
        };

        let state = self.lines.entry(line).or_default();
        if write {
            self.invalidate_others(line, agent);
            let state = self.lines.entry(line).or_default();
            state.holders = me;
            state.dirty_owner = Some(agent);
        } else {
            state.holders |= me;
            if let Some(owner) = dirty_other {
                let state = self.lines.entry(line).or_default();
                if state.dirty_owner == Some(owner) {
                    state.dirty_owner = None;
                }
            }
        }

        self.note(level);
        AccessResult { latency, level }
    }

    fn invalidate_others(&mut self, line: u64, keep: AgentId) {
        let state = self.lines.entry(line).or_default();
        let holders = state.holders;
        state.holders &= 1u64 << keep.0;
        if let Some(owner) = state.dirty_owner {
            if owner != keep {
                state.dirty_owner = None;
            }
        }
        let addr = PAddr::new(line * 64);
        for i in 0..self.l1s.len() {
            if i != keep.0 && holders & (1u64 << i) != 0 {
                self.l1s[i].invalidate(addr);
            }
        }
    }
}

/// Cache geometries from "every access evicts" up to Table 1's.
fn config(shape: usize) -> HierarchyConfig {
    let mut c = HierarchyConfig::table1();
    let (l1, l2) = match shape {
        // One set, one way: every fill evicts, dirty victims everywhere.
        0 => ((64, 1), (128, 2)),
        // L2 smaller than the L1s together: LLC write-backs to DRAM.
        1 => ((256, 2), (256, 1)),
        2 => ((512, 2), (2048, 4)),
        3 => ((1024, 4), (8192, 8)),
        _ => return c,
    };
    c.l1_geometry = CacheGeometry::new(l1.0, l1.1);
    c.l2_geometry = CacheGeometry::new(l2.0, l2.1);
    c
}

/// Runs `ops` = `(agent, line, write, time in ns)` through both
/// implementations and compares everything observable.
fn check(shape: usize, agents: usize, span: u64, ops: &[(usize, u64, bool, u64)]) {
    let cfg = config(shape);
    let mut derived = MemoryHierarchy::new(cfg, agents);
    let mut reference = MapHierarchy::new(cfg, agents);
    for (i, &(agent, line, write, t_ns)) in ops.iter().enumerate() {
        let agent = AgentId(agent % agents);
        let addr = PAddr::new((line % span) * 64);
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        // Timestamps are deliberately not monotone: MAQ-scheduled RMC
        // accesses reach the hierarchy out of order.
        let now = SimTime::from_ns(t_ns);
        let got = derived.access(agent, addr, kind, now);
        let want = reference.access(agent, addr, kind, now);
        assert_eq!(
            (got.latency, got.level),
            (want.latency, want.level),
            "access {i}: {agent:?} {kind:?} {addr:?} at {now} (shape {shape}, {agents} agents)"
        );
    }
    assert_eq!(derived.hits_by_level(), reference.hits_by_level);
    assert_eq!(derived.dram().accesses(), reference.dram.accesses());
    let tag_lines = reference
        .l1s
        .iter()
        .map(CacheArray::resident_lines)
        .sum::<usize>()
        + reference.l2.resident_lines();
    assert_eq!(derived.resident_lines(), tag_lines);
}

proptest! {
    /// Tiny geometries: L1/L2 evictions, dirty write-backs and ownership
    /// ping-pong on nearly every access.
    #[test]
    fn derived_directory_matches_map_under_eviction_pressure(
        shape in 0usize..4,
        agents in 1usize..7,
        span in 1u64..96,
        ops in vec((0usize..6, 0u64..96, any::<bool>(), 0u64..2_000), 1..1_500),
    ) {
        check(shape, agents, span, &ops);
    }

    /// Table 1's geometry: the production configuration, long streams,
    /// working sets from one hot line to L1-conflicting strides.
    #[test]
    fn derived_directory_matches_map_on_table1(
        agents in 1usize..7,
        stride in prop_oneof![Just(1u64), Just(256), Just(4096)],
        ops in vec((0usize..6, 0u64..2_048, any::<bool>(), 0u64..50_000), 1..4_000),
    ) {
        let strided: Vec<_> = ops
            .iter()
            .map(|&(a, line, w, t)| (a, line * stride, w, t))
            .collect();
        check(4, agents, u64::MAX / 64, &strided);
    }
}

/// The read/write hand-offs between a core and the RMC that the machine
/// actually performs (WQ entry, CQ entry, landing buffer), spelled out.
#[test]
fn producer_consumer_handoffs_match() {
    let mut ops = Vec::new();
    for round in 0..64u64 {
        let (wq, cq, buf) = (round % 8, 64 + round % 8, 128 + round % 16);
        ops.push((0, wq, true, round * 100)); // core writes the WQ entry
        ops.push((1, wq, false, round * 100 + 10)); // RMC reads it (c2c)
        ops.push((1, buf, true, round * 100 + 40)); // RMC lands the payload
        ops.push((1, cq, true, round * 100 + 50)); // RMC posts the CQ entry
        ops.push((0, cq, false, round * 100 + 60)); // core polls it (c2c)
        ops.push((0, buf, false, round * 100 + 70)); // core reads the payload
    }
    for shape in 0..5 {
        check(shape, 2, u64::MAX / 64, &ops);
    }
}
