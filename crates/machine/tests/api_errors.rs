//! Access-library error paths: a full WQ must surface `ApiError::WqFull`
//! (never a silent drop), the rejection must be counted as backpressure,
//! and the application-side cursors (`outstanding`, `poll_cq`) must stay
//! consistent across many wrap-arounds of the 16-bit WQ ring index.

use std::cell::RefCell;
use std::rc::Rc;

use sonuma_machine::{
    ApiError, AppProcess, Cluster, ClusterEngine, MachineConfig, NodeApi, SloClass, Step,
    TenantSpec, Wake,
};
use sonuma_memory::VAddr;
use sonuma_protocol::{CtxId, NodeId, QpId, TenantId};

const CTX: CtxId = CtxId(0);

#[derive(Debug, Default, Clone)]
struct Outcome {
    wq_full_errors: u32,
    completions: u32,
    max_outstanding: u16,
    cursor_mismatches: u32,
}

/// Posts greedily until the WQ rejects, across enough operations to wrap
/// the ring index many times, checking `outstanding` against its own
/// issued/completed ledger on every wake-up.
struct GreedyPoster {
    qp: QpId,
    buf: VAddr,
    target: u32,
    issued: u32,
    completed: u32,
    outcome: Rc<RefCell<Outcome>>,
}

impl AppProcess for GreedyPoster {
    fn wake(&mut self, api: &mut NodeApi<'_>, why: Wake) -> Step {
        if matches!(why, Wake::Start) {
            self.buf = api.heap_alloc(64).unwrap();
        }
        if let Wake::CqReady(comps) = &why {
            let entries = api.qp_capacity(self.qp);
            for c in comps {
                assert!(c.status.is_ok());
                assert!(
                    c.wq_index < entries,
                    "completion names WQ slot {} beyond the {}-entry ring",
                    c.wq_index,
                    entries
                );
                self.completed += 1;
            }
            self.outcome.borrow_mut().completions = self.completed;
        }
        // The ledger and the library must agree at every observation
        // point, through arbitrarily many ring wrap-arounds.
        if api.outstanding(self.qp) != (self.issued - self.completed) as u16 {
            self.outcome.borrow_mut().cursor_mismatches += 1;
        }
        while self.issued < self.target {
            match api.post_read(self.qp, NodeId(1), CTX, 0, self.buf, 64) {
                Ok(_) => self.issued += 1,
                Err(ApiError::WqFull) => {
                    let mut out = self.outcome.borrow_mut();
                    out.wq_full_errors += 1;
                    // The rejection happened exactly at capacity: every
                    // slot is genuinely in flight.
                    assert_eq!(api.outstanding(self.qp), api.qp_capacity(self.qp));
                    break;
                }
                Err(e) => panic!("unexpected post error: {e}"),
            }
        }
        let mut out = self.outcome.borrow_mut();
        out.max_outstanding = out.max_outstanding.max(api.outstanding(self.qp));
        if self.completed == self.target {
            return Step::Done;
        }
        Step::WaitCq(self.qp)
    }
}

fn small_ring_config() -> MachineConfig {
    let mut config = MachineConfig::simulated_hardware(2);
    // A 4-entry ring makes the 16-bit WQ index wrap every 4 posts; 64
    // operations exercise 16 full wraps (and 8 phase-bit flips).
    config.qp_entries = 4;
    config
}

#[test]
fn wq_full_is_an_error_and_cursors_survive_wraparound() {
    let mut cluster = Cluster::new(small_ring_config());
    cluster.create_context(CTX, 1 << 16).unwrap();
    let mut engine = ClusterEngine::new();
    let qp = cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    let outcome = Rc::new(RefCell::new(Outcome::default()));
    let target = 64;
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(GreedyPoster {
            qp,
            buf: VAddr::new(0),
            target,
            issued: 0,
            completed: 0,
            outcome: Rc::clone(&outcome),
        }),
    );
    engine.run(&mut cluster);
    let out = outcome.borrow().clone();
    assert_eq!(out.completions, target, "every accepted post completed");
    assert_eq!(
        out.cursor_mismatches, 0,
        "outstanding() disagreed with the issued/completed ledger"
    );
    assert!(
        out.wq_full_errors > 0,
        "a greedy poster against a 4-entry ring must hit WqFull"
    );
    assert_eq!(out.max_outstanding, 4, "occupancy never exceeds the ring");
    // Nothing was silently dropped: the RMC consumed exactly the accepted
    // posts, and the rejections are visible as API backpressure counters.
    let stats = cluster.pipeline_stats(NodeId(0));
    assert_eq!(stats.rgp_requests, target as u64);
    assert_eq!(stats.rcp_completions, target as u64);
    assert_eq!(stats.api_wq_full, out.wq_full_errors as u64);
}

#[test]
fn wq_full_rejections_attribute_to_the_posting_tenant() {
    let mut cluster = Cluster::new(small_ring_config());
    cluster.create_context(CTX, 1 << 16).unwrap();
    let mut engine = ClusterEngine::new();
    let tenant = TenantSpec {
        id: TenantId(7),
        weight: 1,
        slo: SloClass::Silver,
    };
    cluster.register_tenant(NodeId(0), tenant);
    let qp = cluster
        .create_tenant_qp(NodeId(0), CTX, 0, TenantId(7))
        .unwrap();
    let outcome = Rc::new(RefCell::new(Outcome::default()));
    cluster.spawn(
        &mut engine,
        NodeId(0),
        0,
        Box::new(GreedyPoster {
            qp,
            buf: VAddr::new(0),
            target: 16,
            issued: 0,
            completed: 0,
            outcome: Rc::clone(&outcome),
        }),
    );
    engine.run(&mut cluster);
    let stats = cluster.tenant_stats(NodeId(0));
    assert_eq!(stats.len(), 1);
    let (spec, t) = stats[0];
    assert_eq!(spec.id, TenantId(7));
    assert_eq!(t.completions, 16);
    assert_eq!(t.requests, 16);
    assert_eq!(
        t.wq_full,
        outcome.borrow().wq_full_errors as u64,
        "per-tenant backpressure must match the errors the app saw"
    );
    assert!(t.wq_full > 0);
}

#[test]
fn bad_qp_and_bad_length_reject_before_touching_state() {
    struct BadPoster;
    impl AppProcess for BadPoster {
        fn wake(&mut self, api: &mut NodeApi<'_>, _why: Wake) -> Step {
            let buf = api.heap_alloc(64).unwrap();
            assert_eq!(
                api.post_read(QpId(99), NodeId(1), CTX, 0, buf, 64),
                Err(ApiError::BadQp)
            );
            let qp = QpId(0);
            assert_eq!(
                api.post_read(qp, NodeId(1), CTX, 0, buf, 63),
                Err(ApiError::BadLength)
            );
            assert_eq!(
                api.post_read(qp, NodeId(1), CTX, 0, buf, 0),
                Err(ApiError::BadLength)
            );
            assert_eq!(api.outstanding(qp), 0, "rejected posts left no residue");
            Step::Done
        }
    }
    let mut cluster = Cluster::new(MachineConfig::simulated_hardware(2));
    cluster.create_context(CTX, 1 << 16).unwrap();
    let mut engine = ClusterEngine::new();
    cluster.create_qp(NodeId(0), CTX, 0).unwrap();
    cluster.spawn(&mut engine, NodeId(0), 0, Box::new(BadPoster));
    engine.run(&mut cluster);
    let stats = cluster.pipeline_stats(NodeId(0));
    assert_eq!(stats.rgp_requests, 0);
    assert_eq!(stats.api_wq_full, 0, "shape errors are not backpressure");
}
