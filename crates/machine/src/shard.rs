//! The sharded cluster: conservative-parallel execution of the machine.
//!
//! [`SonumaBackend`] partitions the cluster's nodes into contiguous
//! shards (one per thread, planned by `sonuma_fabric::ShardPlan` so grid
//! shards are whole torus slabs), gives each shard *ownership* of its
//! slice of world state — a [`Cluster`] in mailbox mode plus its own
//! `ClusterEngine` — and advances all shards in epochs bounded by the
//! fabric's *lookahead* `L`: no packet is delivered sooner than one hop
//! plus one header serialization after its injection
//! (`FabricConfig::min_delivery_delay`, 15.75 ns on the paper's torus).
//! The single global [`Fabric`](sonuma_fabric::Fabric) lives here, not in
//! any shard.
//!
//! # Why `--threads N` is bit-identical to `--threads 1`
//!
//! Determinism rests on three invariants:
//!
//! 1. **Packets are the only cross-node channel.** Every event a node
//!    schedules targets that node itself; influence between nodes flows
//!    exclusively through fabric packets (and harness-level driver calls,
//!    which are serial). So each node's event history is a function of
//!    the packet stream it receives.
//! 2. **Every non-loopback packet takes the mailbox path — even when
//!    source and destination share a shard.** A send is staged in its
//!    source node's own outbox (`crate::mailbox`) and stays there until
//!    the commit frontier passes it; the commit then takes the due prefix
//!    of every node that holds any, orders those departures — and only
//!    those, once, on 16-byte keys — by `(inject time, source node,
//!    per-source staging order)`, applies them to the global fabric in
//!    that order and schedules the resulting `Deliver` events into the
//!    destination nodes' event lanes in the same order. The key is a pure
//!    function of simulated history, so link-state evolution and delivery
//!    order never depend on the partition.
//! 3. **Epoch and round boundaries are partition-invariant.** Every
//!    epoch runs all shards to the one horizon `min floor + L - 1`, a
//!    function of the global event set alone, so the epoch structure —
//!    and [`SonumaBackend::epochs`] — is the same for every partition.
//!    Execution proceeds in *quanta* of
//!    `QUANTUM_EPOCHS` lookaheads anchored at the globally earliest
//!    pending work; every quantum runs to completion — all events and
//!    staged traffic up to the quantum boundary are final — and every
//!    shard clock re-aligns to the boundary. Rounds hand control back to
//!    the driver only at quantum boundaries, so harness-level posts
//!    charge from the same simulated time at any thread count. (With one
//!    horizon per epoch the quanta no longer guard anything the epochs do
//!    not; they survive because removing them moves the instants at
//!    which the driver regains control, which changes results.)
//!
//! # Why node-major order inside a window is bit-identical
//!
//! A shard (`ShardSlot::run_epoch`) does not execute a window in global
//! `(time, seq)` order: its engine keeps one event lane per owned node
//! (`EventEngine::with_lanes`, the lane being [`ClusterEvent::node`]
//! minus the shard's first node) and runs a window node by node, so a
//! rack touches one node's state for a run of consecutive events instead
//! of a different node's cold state on every event. This
//! is the `--threads 512` execution of the window, and the same
//! invariants license it: inside one window no packet sent can arrive
//! (that is the lookahead; a loopback delivery targets the sender
//! itself), every event a node schedules targets that node (invariant 1
//! — so a node's events and their `(time, seq)` order, schedule-order
//! tie-breaks included, are untouched by any other node's execution),
//! and all inter-node traffic goes through the `(t, src, seq)`-ordered
//! mailbox commit (invariant 2 — so the order nodes ran in is erased).
//! Debug builds assert on every event scheduled inside a window that it
//! targets the node being run, which turns invariant 1 into a check every
//! debug-mode test of this crate exercises. The serial [`Cluster`]
//! (`RoutePath::Direct`) runs on the one-lane engine
//! (`ClusterEngine::new`), i.e. in exact global time order: its fabric
//! sends resolve inline and do depend on it.
//!
//! # Conservative safety
//!
//! Within an epoch every shard runs to `min over s of floor[s] + L - 1`,
//! where `floor[s]` is the earliest pending event or staged departure of
//! shard `s`. Any influence of one node on another is a fabric packet,
//! injected no earlier than the earliest floor and delivered at least `L`
//! later — after the horizon. Hence nothing can land at or before the
//! horizon, and committing staged traffic at that frontier never
//! schedules into any shard's past.
//! Between epochs the cluster additionally *pre-commits* staged
//! departures below `min(frontier bound, earliest pending event - 1)`:
//! no shard can inject a departure earlier than its own next event, so
//! every staged entry below that line is final in the global
//! `(t, src, seq)` order and can be applied without running an epoch.
//! Pre-committing before anchoring a quantum also settles the anchor on
//! true event floors, keeping epoch windows tiled to the lookahead grid
//! instead of split across staged-head offsets. The per-delivery
//! [`SonumaBackend::pair_bound_violations`] counter (asserted zero by
//! the partition property tests) checks the promise at runtime.

use sonuma_fabric::ShardPlan;
use sonuma_protocol::NodeId;
use sonuma_sim::{EpochWorld, SimTime};
use sonuma_trace::{FaultKind, Fields, Member, NodeCounters};

use crate::cluster::{Cluster, RoutePath};
use crate::config::MachineConfig;
use crate::event::ClusterEvent;
use crate::mailbox::Mailbox;
use crate::{ClusterEngine, SonumaBackend};

/// Events one `advance()` round executes before handing control back to
/// the driver (posts/polls happen between rounds). Rounds are measured in
/// events — a partition-invariant quantity — and the threshold is only
/// checked at quantum boundaries (also partition-invariant), so the
/// driver's interleaving with the simulation is identical at every
/// thread count. 64 matches the pre-sharding `run_steps(64)` burst.
const ADVANCE_ROUND_EVENTS: u64 = 64;

/// Width of one execution quantum, in lookaheads
/// (`FabricConfig::min_delivery_delay` of the smallest packet). A quantum
/// spans `[S, S + QUANTUM_EPOCHS * L)` where `S` is the globally earliest
/// pending work — a topology constant times a partition-invariant anchor,
/// so quantum boundaries are partition-invariant. The width sets the
/// driver's observation granularity, so changing it changes results.
pub(crate) const QUANTUM_EPOCHS: u64 = 4;

/// One shard: its slice of the world plus the engine that drives it.
pub(crate) struct ShardSlot {
    pub world: Cluster,
    pub engine: ClusterEngine,
}

// SAFETY: the only non-`Send` constituent of `Cluster` is the attached
// application process slot (`CoreSlot.process`, a `Box<dyn AppProcess>`
// whose implementations may capture `Rc` state). Shard clusters are
// constructed exclusively by `SonumaBackend` from fresh nodes, and
// nothing in the sharded surface can attach a process (`Cluster::spawn`
// is unreachable through it), so every `process` slot is `None` for the
// slot's entire lifetime. All remaining state is owned plain data, and
// the engine's lane function is `Send` by `EventEngine::with_lanes`'
// bound. `build_shard` asserts the process invariant at construction.
unsafe impl Send for ShardSlot {}

impl ShardSlot {
    /// The per-node outboxes this shard's sends are staged in.
    fn outbox(&mut self) -> &mut Mailbox {
        match &mut self.world.route {
            RoutePath::Mailbox(outbox) => outbox,
            RoutePath::Direct(_) => unreachable!("shard clusters stage into a mailbox"),
        }
    }

    /// The shard's floors: earliest staged-but-uncommitted departure, and
    /// earliest pending event. Both O(1).
    pub(crate) fn floors(&mut self) -> (Option<SimTime>, Option<SimTime>) {
        (self.outbox().floor(), self.engine.next_time())
    }
}

/// The earlier of two optional instants.
fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

impl EpochWorld for ShardSlot {
    fn run_epoch(&mut self, horizon: SimTime) -> u64 {
        // Node-major, not time-major: see "Why node-major order inside a
        // window is bit-identical" in the module docs.
        self.engine.run_until(&mut self.world, horizon)
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.engine.next_time()
    }

    fn align_clock(&mut self, to: SimTime) {
        self.engine.advance_now_to(to);
    }
}

/// Builds shard `s`'s slice of the world: a pure function of the config
/// and plan.
pub(crate) fn build_shard(config: &MachineConfig, plan: &ShardPlan, s: usize) -> ShardSlot {
    let range = plan.range(s);
    // Lane ids are local: a shard allocates lane headers for the nodes it
    // owns, not for the rack.
    let base = range.start as u32;
    let engine =
        ClusterEngine::with_lanes(range.len(), move |event| u32::from(event.node()) - base);
    let world = Cluster::shard_slice(config.clone(), range);
    // The Send invariant of ShardSlot: no process ever attaches.
    debug_assert!(world
        .nodes
        .iter()
        .all(|n| n.cores.iter().all(|c| c.process.is_none())));
    let mut slot = ShardSlot { world, engine };
    // Each shard schedules the crash/restart events for the fault-plan
    // nodes it owns; the schedule is a pure function of the plan, so it
    // is partition-invariant.
    slot.world.schedule_fault_events(&mut slot.engine);
    slot
}

impl SonumaBackend {
    /// Runs one driver round: whole quanta until [`ADVANCE_ROUND_EVENTS`]
    /// events have executed or the simulation drains. Both the event
    /// threshold and the quantum boundaries it is checked at are
    /// partition-invariant, so the driver regains control at the same
    /// simulated instants for every thread count. Returns whether work
    /// remains.
    pub(crate) fn advance_round(&mut self) -> bool {
        let mut ran_total = 0u64;
        let more = loop {
            match self.run_quantum() {
                None => break false,
                Some(ran) => {
                    ran_total += ran;
                    if ran_total >= ADVANCE_ROUND_EVENTS {
                        break true;
                    }
                }
            }
        };
        self.sync_caches();
        more
    }

    /// Refreshes the `&self`-queryable event count from shard state (the
    /// clock is maintained by `run_quantum`). Called at round boundaries.
    fn sync_caches(&mut self) {
        let mut events = 0u64;
        self.engine.for_each_shard(|_, slot| {
            events += slot.engine.events_executed() + slot.world.batched_logical_events;
        });
        self.events = events;
    }

    /// Executes one quantum `[S, S + QUANTUM_EPOCHS * L)` anchored at the
    /// globally earliest pending event, running lookahead-bounded epochs —
    /// with a commit-frontier merge after each — until everything inside
    /// the quantum is final, then aligns every
    /// shard clock to the (partition-invariant) quantum boundary.
    ///
    /// Returns `None` when the simulation is drained, otherwise the
    /// number of events executed.
    fn run_quantum(&mut self) -> Option<u64> {
        // Settle the anchor: commit every staged departure that is
        // already final — below both the floor-implied frontier and every
        // pending event — so heads left over from the previous quantum
        // become delivery events *before* the boundary is chosen. The
        // quantum then anchors on the earliest remaining work, which
        // keeps its `L`-grid aligned with the floors the epochs actually
        // step through; anchoring on a staged head would offset `t_end`
        // from that grid and split one lookahead band across two quanta
        // (one extra epoch per quantum). Every quantity involved —
        // staged entries, the global minimum floor and event time — is
        // partition-invariant, so the boundary still is too.
        let (mut min_floor, mut min_event) = self.gather_floors();
        min_floor?;
        // The commit frontier only ever moves forward: staged sends must
        // hit the (order-dependent) fabric in globally nondecreasing
        // `(t, src, seq)` order.
        let mut frontier = SimTime::ZERO;
        if let Some(bound) = self.precommit_bound(frontier, min_floor, min_event) {
            frontier = bound;
            if self.commit(frontier) > 0 {
                (min_floor, min_event) = self.gather_floors();
            }
        }
        let anchor = min_floor?;
        let t_end = SimTime::from_ps(
            anchor
                .as_ps()
                .saturating_add(self.quantum.as_ps())
                .saturating_sub(1),
        );
        self.engine.set_cap(Some(t_end));
        let mut ran_quantum = 0u64;
        loop {
            // Stop without an empty barrier once everything left lies
            // beyond the quantum.
            if min_floor.is_none_or(|f| f > t_end) {
                break;
            }
            // Pre-commit: the frontier an epoch would establish is pure
            // floor arithmetic, so advance it *now* and turn final staged
            // departures into delivery events before the epoch runs —
            // otherwise an iteration whose earliest pending work is a
            // staged head burns a whole (empty) epoch just to publish the
            // frontier that lets `commit` deliver it. The bound stays
            // below every pending event, so no departure injected later
            // can slot under anything committed here.
            let mut pre = 0;
            if let Some(bound) = self.precommit_bound(frontier, min_floor, min_event) {
                frontier = bound;
                pre = self.commit(frontier);
                if pre > 0 {
                    // Committing moved the staged heads (and added
                    // delivery events); refresh the floors so the epoch —
                    // and the quantum-exhausted check — see them.
                    // (`min_event` is re-gathered at the loop tail before
                    // its next read.)
                    (min_floor, _) = self.gather_floors();
                    if min_floor.is_none_or(|f| f > t_end) {
                        break;
                    }
                }
            }
            let ran = self.engine.run_epoch();
            frontier = frontier.max(self.engine.horizon());
            let committed = pre + self.commit(frontier);
            ran_quantum += ran;
            debug_assert!(
                ran + committed as u64 > 0,
                "a quantum iteration with pending work must make progress"
            );
            if ran == 0 && committed == 0 {
                break;
            }
            (min_floor, min_event) = self.gather_floors();
        }
        self.engine.set_cap(None);
        // Everything at or before the boundary is final; park every clock
        // on it so driver-visible time is partition-invariant.
        self.engine.align_all(t_end);
        self.clock = self.clock.max(t_end);
        self.sample_nodes_if_due();
        Some(ran_quantum)
    }

    /// Takes a node sample at the current quantum boundary if the
    /// recorder's cadence deadline has passed. The boundary sequence is
    /// partition-invariant and the quantum loop only exits once every
    /// event at or before the boundary is final, so the counters read
    /// here — pipeline totals per node, fault-recovery totals — are the
    /// same for every thread count.
    fn sample_nodes_if_due(&mut self) {
        let now = self.clock;
        // Taking the recorder out releases `self` for the read-only
        // counter folds below; `Option::take` on a box moves a pointer,
        // no allocation.
        let Some(mut rec) = self.trace.take() else {
            return;
        };
        if rec.node_due(now) {
            let (w_start, w_end) = rec.begin_node_round(now);
            // Scheduled fault transitions that fell inside this round's
            // window, at their true instants. The schedule is pure config
            // data, so the scan order (plan order) is deterministic.
            let in_window = |at: SimTime| {
                (at > w_start || (w_start == SimTime::ZERO && at == SimTime::ZERO)) && at <= w_end
            };
            if let Some(faults) = &self.config.fabric.faults {
                for lf in &faults.links {
                    if let Some(at) = lf.kill_at.filter(|&at| in_window(at)) {
                        rec.record_transition(at, FaultKind::LinkKill, lf.src.0, lf.dst.0);
                    }
                    if let Some(at) = lf.revive_at.filter(|&at| in_window(at)) {
                        rec.record_transition(at, FaultKind::LinkRevive, lf.src.0, lf.dst.0);
                    }
                }
                for nf in &faults.nodes {
                    if in_window(nf.crash_at) {
                        rec.record_transition(nf.crash_at, FaultKind::NodeCrash, nf.node.0, 0);
                    }
                    if in_window(nf.restart_at) {
                        rec.record_transition(nf.restart_at, FaultKind::NodeRestart, nf.node.0, 0);
                    }
                }
            }
            // Per-node pipeline counters, in global node order (shards
            // are contiguous slabs, so shard order == node order).
            for s in 0..self.plan.shards() {
                let range = self.plan.range(s);
                let rec = &mut rec;
                self.engine.peek_shard(s, |slot| {
                    for node in range {
                        let rows = slot.world.pipeline_stats(NodeId(node as u16)).rows();
                        // The trace's counters are pipeline counters of
                        // the same name.
                        let mut cur = NodeCounters::default();
                        for (name, field) in cur.fields() {
                            if let Member::U64(v) = field {
                                *v = rows.iter().find(|row| row.0 == name).expect("a counter").1;
                            }
                        }
                        rec.record_node(now, node as u16, cur);
                    }
                });
            }
            // Fault-recovery counter deltas (see FAULT_COUNTER_KINDS for
            // the array order).
            let fs = self.fabric.fault_stats();
            let pt = self.total_pipeline_stats();
            rec.record_fault_counters(
                now,
                [
                    fs.dropped,
                    fs.corrupted,
                    fs.rerouted,
                    fs.unreachable,
                    self.total_crash_drops(),
                    pt.rgp_timeouts,
                    pt.rgp_retransmits,
                ],
            );
        }
        self.trace = Some(rec);
    }

    /// Publishes the outbox floors to the engine as source floors and
    /// returns the global minimum floor — a shard's floor is its earliest
    /// pending work, the min of its next event and its outbox floor — plus
    /// the global minimum *event* time (the earliest instant any shard
    /// could inject a not-yet-staged departure).
    fn gather_floors(&mut self) -> (Option<SimTime>, Option<SimTime>) {
        let mut min_floor: Option<SimTime> = None;
        let mut min_event: Option<SimTime> = None;
        for s in 0..self.plan.shards() {
            let (staged, next) = self.engine.with_shard(s, ShardSlot::floors);
            self.engine.set_source_floor(s, staged);
            min_floor = earlier(min_floor, earlier(staged, next));
            min_event = earlier(min_event, next);
        }
        (min_floor, min_event)
    }

    /// The largest frontier advance the current floors admit without an
    /// epoch: staged departures below both the would-be epoch frontier
    /// (`min_floor + L - 1`) and every pending event are final — no shard
    /// can inject a departure below its next event, so committing them
    /// cannot reorder the global `(t, src, seq)` send sequence. `None`
    /// when nothing is pending or the bound does not move past
    /// `frontier`.
    fn precommit_bound(
        &self,
        frontier: SimTime,
        min_floor: Option<SimTime>,
        min_event: Option<SimTime>,
    ) -> Option<SimTime> {
        let h = min_floor? + self.engine.lookahead() - SimTime::from_ps(1);
        let bound = match min_event {
            Some(e) => h.min(SimTime::from_ps(e.as_ps().saturating_sub(1))),
            None => h,
        };
        (bound > frontier).then_some(bound)
    }

    /// Applies every staged departure with `t <= frontier` to the global
    /// fabric in `(t, src, seq)` order — identical to the serial send
    /// order — and schedules the `Deliver` events into the destination
    /// nodes' lanes in the same order. Costs O(shards) when nothing is
    /// due, otherwise O(nodes holding staged traffic + departures due).
    /// Returns the number of departures committed.
    fn commit(&mut self, frontier: SimTime) -> usize {
        let batch = &mut self.batch;
        batch.clear();
        self.engine
            .for_each_shard(|_, slot| slot.outbox().take_due(frontier, batch));
        // Progress is measured in departures *consumed*, not deliveries
        // scheduled: a fault-dropped packet leaves its outbox without
        // producing a delivery, and reporting it as zero progress would
        // trip the quantum loop's liveness check.
        let consumed = self.batch.len();
        if consumed == 0 {
            return 0;
        }
        for (t, mut pkt) in self.batch.ordered() {
            // Link sampling rides the merge: this loop applies sends in
            // the global `(t, src, seq)` order — identical to the serial
            // schedule — so closing the cadence window *before* the first
            // send at or past it captures the fabric state after exactly
            // the sends that precede the window end, no matter how
            // commits batch across partitions. (Quantum boundaries are
            // not usable here: a commit frontier may legally outrun the
            // boundary, making boundary-time fabric state
            // partition-dependent.)
            if let Some(rec) = self.trace.as_deref_mut() {
                if rec.fabric_due(t) {
                    let end = rec.close_fabric_window(t);
                    self.fabric
                        .visit_links(|slot, src, dst, bytes, packets, stalls| {
                            rec.record_link(end, slot, src, dst, bytes, packets, stalls);
                        });
                }
            }
            let salt = pkt.fault_salt(t.as_ps());
            let (arrival, fate) = self.fabric.send_faulty(
                t,
                pkt.src,
                pkt.dst,
                pkt.virtual_lane(),
                pkt.wire_bytes(),
                salt,
            );
            let arrival = arrival.time;
            match fate {
                // A dropped packet still advanced the link clocks (it
                // occupied the wire before vanishing) but never becomes a
                // delivery event.
                sonuma_fabric::PacketFate::Dropped => continue,
                sonuma_fabric::PacketFate::Corrupted => pkt.corrupt = true,
                sonuma_fabric::PacketFate::Delivered => {}
            }
            // The promise every horizon rests on: nothing lands sooner
            // than one lookahead after its inject time.
            let promise = t + self.engine.lookahead();
            if arrival < promise {
                self.pair_bound_violations += 1;
                debug_assert!(
                    false,
                    "delivery beats the lookahead promise: arrival {arrival} < {promise}"
                );
            }
            self.deliveries[self.plan.shard_of(pkt.dst.index())].push((arrival, pkt));
        }
        // One lock per destination shard that actually received traffic,
        // each handed its own list in merged order.
        for (s, deliveries) in self.deliveries.iter_mut().enumerate() {
            if deliveries.is_empty() {
                continue;
            }
            let violations = &mut self.pair_bound_violations;
            self.engine.with_shard(s, |slot| {
                for (at, pkt) in deliveries.drain(..) {
                    if at <= slot.engine.now() {
                        *violations += 1;
                        debug_assert!(
                            false,
                            "delivery at {at} lands in shard {s}'s past ({})",
                            slot.engine.now()
                        );
                    }
                    slot.engine.schedule_at(at, ClusterEvent::Deliver { pkt });
                }
            });
        }
        consumed
    }
}
