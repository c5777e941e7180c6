//! Core scheduling: run-to-block execution, wake-up delivery and CQ/watch
//! parking.
//!
//! Simulated cores run [`crate::AppProcess`] state machines in
//! run-to-block style. This module owns everything between a pipeline
//! event and application code observing it: CQ wake-ups (with the
//! coherence-invalidation detection cost), memory watches (the model of a
//! core polling its receive buffer, §5.3), remote-interrupt delivery (§8
//! extension), and the application-side CQ drain.

use sonuma_memory::VAddr;
use sonuma_protocol::{CqEntry, NodeId, QpId};
use sonuma_sim::SimTime;

use crate::api::NodeApi;
use crate::cluster::Cluster;
use crate::event::{ClusterEvent, WakeReason};
use crate::node::{BlockState, Watch};
use crate::process::{Completion, Step, Wake};
use crate::ClusterEngine;

impl Cluster {
    // ------------------------------------------------------------------
    // Wake-up sources: CQ completions, memory watches, interrupts.
    // ------------------------------------------------------------------

    /// Schedules a CQ wake-up for the QP's owner core if it is parked on
    /// this queue.
    pub(crate) fn maybe_cq_wake(
        &mut self,
        engine: &mut ClusterEngine,
        n: usize,
        qp: QpId,
        t: SimTime,
    ) {
        let owner = self.node_mut(n).app_qps[qp.index()].owner_core;
        let slot = &self.node_mut(n).cores[owner];
        let waiting = matches!(
            slot.block,
            BlockState::WaitingCq(q) | BlockState::WaitingEither(q, _, _) if q == qp
        );
        if !waiting || slot.wake_pending {
            return;
        }
        let busy = self.node_mut(n).cores[owner].busy_until;
        self.node_mut(n).cores[owner].wake_pending = true;
        let at = (t + self.config().software.wake_detect).max(busy);
        engine.schedule_at(at, ClusterEvent::CqWake { node: n as u16, qp });
    }

    /// Drains the CQ and wakes the owner with the completions.
    pub(crate) fn deliver_cq_wake(&mut self, engine: &mut ClusterEngine, n: usize, qp: QpId) {
        let owner = self.node_mut(n).app_qps[qp.index()].owner_core;
        let comps = self.drain_cq(n, qp);
        if comps.is_empty() {
            // Raced with an explicit poll; nothing to deliver.
            self.node_mut(n).cores[owner].wake_pending = false;
            return;
        }
        self.wake_core(engine, n, owner, Wake::CqReady(comps));
    }

    /// Functionally drains every fresh CQ entry (application-side consumer).
    pub(crate) fn drain_cq(&mut self, n: usize, qp: QpId) -> Vec<Completion> {
        // O(1) emptiness check against the RMC's producer counter: the
        // overwhelmingly common empty poll must not walk the CQ ring
        // through page translation (a 512-node driver polls every node
        // between engine bursts).
        if self.node_mut(n).app_qps[qp.index()].cq_drained
            == self.node_mut(n).rmc.qps[qp.index()].cq_produced()
        {
            return Vec::new();
        }
        let mut out = Vec::new();
        loop {
            let (cq_index, cq_phase) = {
                let cur = &self.node_mut(n).app_qps[qp.index()];
                (cur.cq_index, cur.cq_phase)
            };
            let cq_va = self.node_mut(n).rmc.qps[qp.index()].cq_entry_addr(cq_index);
            let mut line = [0u8; 64];
            self.node_mut(n)
                .read_virt(cq_va, &mut line)
                .expect("CQ mapped");
            match CqEntry::decode(&line) {
                Some((entry, phase)) if phase == cq_phase => {
                    out.push(Completion {
                        qp,
                        wq_index: entry.wq_index,
                        status: entry.status,
                    });
                    let entries = self.node_mut(n).rmc.qps[qp.index()].entries();
                    let cur = &mut self.node_mut(n).app_qps[qp.index()];
                    cur.cq_index += 1;
                    if cur.cq_index == entries {
                        cur.cq_index = 0;
                        cur.cq_phase = !cur.cq_phase;
                    }
                    cur.cq_drained += 1;
                    cur.outstanding = cur.outstanding.saturating_sub(1);
                    cur.slot_busy[entry.wq_index as usize] = false;
                }
                _ => break,
            }
        }
        out
    }

    /// Wakes any core whose armed watch intersects the written range.
    pub(crate) fn trigger_watches(
        &mut self,
        engine: &mut ClusterEngine,
        n: usize,
        addr: VAddr,
        len: u64,
        t: SimTime,
    ) {
        let wake_detect = self.config().software.wake_detect;
        while let Some(idx) = self.node_mut(n).matching_watch(addr, len) {
            let watch = self.node_mut(n).watches.swap_remove(idx);
            let core = watch.core;
            let slot = &mut self.node_mut(n).cores[core];
            if slot.wake_pending {
                continue;
            }
            slot.wake_pending = true;
            let at = (t + wake_detect).max(slot.busy_until);
            engine.schedule_at(
                at,
                ClusterEvent::CoreWake {
                    node: n as u16,
                    core: core as u16,
                    reason: WakeReason::MemoryTouched { addr },
                },
            );
        }
    }

    /// Delivers the next pending interrupt to the handler core if it is
    /// parked (one per wake-up; redelivery happens when the core blocks
    /// again).
    pub(crate) fn deliver_interrupt(&mut self, engine: &mut ClusterEngine, n: usize, t: SimTime) {
        let Some(core) = self.node_mut(n).interrupt_handler else {
            return;
        };
        let slot = &self.node(n).cores[core];
        let parked = matches!(
            slot.block,
            BlockState::WaitingCq(_)
                | BlockState::WaitingMemory(_, _)
                | BlockState::WaitingEither(_, _, _)
        );
        let wake_pending = slot.wake_pending;
        if !parked || wake_pending || self.node(n).pending_interrupts.is_empty() {
            return;
        }
        let (from, payload) = self
            .node_mut(n)
            .pending_interrupts
            .pop_front()
            .expect("checked nonempty");
        self.node_mut(n).cores[core].wake_pending = true;
        let at = (t + self.config().software.wake_detect).max(self.node(n).cores[core].busy_until);
        engine.schedule_at(
            at,
            ClusterEvent::CoreWake {
                node: n as u16,
                core: core as u16,
                reason: WakeReason::Interrupt { from, payload },
            },
        );
    }

    // ------------------------------------------------------------------
    // Core execution (run-to-block).
    // ------------------------------------------------------------------

    /// Runs one process wake-up and applies its blocking decision.
    pub(crate) fn wake_core(
        &mut self,
        engine: &mut ClusterEngine,
        n: usize,
        core: usize,
        why: Wake,
    ) {
        let Some(mut process) = self.node_mut(n).cores[core].process.take() else {
            return;
        };
        // Disarm any watch this core had (single-wake semantics).
        self.node_mut(n).watches.retain(|w| w.core != core);
        let slot = &mut self.node_mut(n).cores[core];
        slot.block = BlockState::Running;
        slot.wake_pending = false;

        // Charge the software cost of observing this wake-up.
        let software = self.config().software;
        let base_charge = match &why {
            Wake::Start | Wake::Timer => SimTime::ZERO,
            Wake::CqReady(comps) => {
                software.cq_poll_cost + software.completion_cost * comps.len() as u64
            }
            Wake::MemoryTouched { .. } => software.cq_poll_cost,
            // Interrupt entry: vectoring + handler prologue, modeled like
            // one completion observation.
            Wake::Interrupt { .. } => software.completion_cost,
        };

        let mut api = NodeApi::new(self, engine, n, core, base_charge);
        let step = process.wake(&mut api, why);
        let elapsed = api.elapsed();
        let now = engine.now() + elapsed;

        if !matches!(step, Step::Done) {
            self.node_mut(n).cores[core].process = Some(process);
        }
        self.apply_step(engine, n, core, step, now);
    }

    /// Applies a process's blocking decision at logical time `now`.
    fn apply_step(
        &mut self,
        engine: &mut ClusterEngine,
        n: usize,
        core: usize,
        step: Step,
        now: SimTime,
    ) {
        self.node_mut(n).cores[core].busy_until = now;
        match step {
            Step::Done => {
                self.node_mut(n).cores[core].block = BlockState::Idle;
                // Anchor the work performed in this final wake-up on the
                // event clock, so total simulated time includes it.
                engine.schedule_at(now, ClusterEvent::Anchor { node: n as u16 });
            }
            Step::Sleep(d) => {
                self.node_mut(n).cores[core].block = BlockState::Sleeping;
                engine.schedule_at(
                    now + d,
                    ClusterEvent::CoreWake {
                        node: n as u16,
                        core: core as u16,
                        reason: WakeReason::Timer,
                    },
                );
            }
            Step::WaitCq(qp) => {
                self.node_mut(n).cores[core].block = BlockState::WaitingCq(qp);
                self.recheck_cq(engine, n, core, qp, now);
            }
            Step::WaitMemory { addr, len } => {
                self.node_mut(n).cores[core].block = BlockState::WaitingMemory(addr, len);
                self.node_mut(n).watches.push(Watch { core, addr, len });
            }
            Step::WaitCqOrMemory { qp, addr, len } => {
                self.node_mut(n).cores[core].block = BlockState::WaitingEither(qp, addr, len);
                self.node_mut(n).watches.push(Watch { core, addr, len });
                self.recheck_cq(engine, n, core, qp, now);
            }
        }
        // A parked handler core picks up any interrupt that arrived while
        // it was running.
        if self.node_mut(n).interrupt_handler == Some(core)
            && !self.node_mut(n).pending_interrupts.is_empty()
        {
            self.deliver_interrupt(engine, n, now);
        }
    }

    /// If completions already sit in the CQ when a core parks on it, wake
    /// it immediately (the poll loop would have found them).
    fn recheck_cq(
        &mut self,
        engine: &mut ClusterEngine,
        n: usize,
        core: usize,
        qp: QpId,
        now: SimTime,
    ) {
        let (cq_index, cq_phase) = {
            let cur = &self.node_mut(n).app_qps[qp.index()];
            (cur.cq_index, cur.cq_phase)
        };
        let cq_va = self.node_mut(n).rmc.qps[qp.index()].cq_entry_addr(cq_index);
        let mut line = [0u8; 64];
        self.node_mut(n)
            .read_virt(cq_va, &mut line)
            .expect("CQ mapped");
        let fresh = matches!(CqEntry::decode(&line), Some((_, phase)) if phase == cq_phase);
        if fresh && !self.node_mut(n).cores[core].wake_pending {
            self.node_mut(n).cores[core].wake_pending = true;
            let poll = self.config().software.cq_poll_cost;
            engine.schedule_at(now + poll, ClusterEvent::CqWake { node: n as u16, qp });
        }
    }

    /// Registers `core` as node `node`'s remote-interrupt handler (§8
    /// extension). Interrupts arriving with no handler are counted and
    /// dropped.
    pub fn set_interrupt_handler(&mut self, node: NodeId, core: usize) {
        assert!(
            core < self.node_mut(node.index()).cores.len(),
            "core out of range"
        );
        self.node_mut(node.index()).interrupt_handler = Some(core);
    }
}
