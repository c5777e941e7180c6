//! End-to-end fault-injection properties of the machine: the seeded
//! fault schedule is deterministic across identical runs *and* across
//! arbitrary shard partitions (the invariant that keeps `--threads N`
//! byte-identical under failures), node crashes abort in-flight work and
//! recover via source-side retransmission, and exhausted retries surface
//! as `Status::Aborted` completions instead of hangs.

use proptest::collection::vec;
use proptest::prelude::*;

use sonuma_fabric::{FabricConfig, FaultPlan, FaultStats, LinkFault, NodeFault, Topology};
use sonuma_machine::{MachineConfig, PipelineStats, SonumaBackend};
use sonuma_protocol::{NodeId, RemoteBackend, RemoteCompletion, RemoteRequest, Status};
use sonuma_sim::SimTime;

/// A machine config over `topology` (paper timing, fabric swapped).
fn config_for(topology: Topology) -> MachineConfig {
    let nodes = topology.nodes();
    let mut config = MachineConfig::simulated_hardware(nodes);
    config.fabric = match topology {
        Topology::Crossbar { .. } => FabricConfig::paper_crossbar(nodes),
        Topology::Torus { .. } => FabricConfig {
            topology,
            ..FabricConfig::torus2d(1, 1)
        },
    };
    config
}

/// A busy fault schedule touching every injection mechanism: a lossy
/// degraded link, a link that dies mid-run and revives, and a node that
/// crashes and restarts — all derived from the topology so any shape
/// gets a valid plan.
fn busy_plan(topology: &Topology, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    let mut lossy = LinkFault::on(NodeId(0), topology.neighbors(NodeId(0))[0]);
    lossy.drop_prob = 0.2;
    lossy.corrupt_prob = 0.2;
    plan.links.push(lossy);
    let n1 = NodeId(1);
    let mut flappy = LinkFault::on(n1, *topology.neighbors(n1).last().expect("degree >= 1"));
    flappy.kill_at = Some(SimTime::from_us(2));
    flappy.revive_at = Some(SimTime::from_us(8));
    plan.links.push(flappy);
    plan.nodes.push(NodeFault {
        node: NodeId((topology.nodes() - 1) as u16),
        crash_at: SimTime::from_us(3),
        restart_at: SimTime::from_us(6),
    });
    plan
}

/// Everything observable about one faulty run that must be identical
/// across repeats and shard partitions.
#[derive(Debug, PartialEq)]
struct Outcome {
    now: SimTime,
    events: u64,
    completions: Vec<Vec<RemoteCompletion>>,
    delivery_hashes: Vec<u64>,
    stats: PipelineStats,
    fault_stats: FaultStats,
    crashes: u64,
    crash_drops: u64,
}

/// Drives a deterministic closed-loop read/write stream over `b` and
/// snapshots every invariant observable, faults included.
fn drive(mut b: SonumaBackend, ops_per_node: u64, stride: usize) -> Outcome {
    let nodes = b.num_nodes();
    for n in 0..nodes {
        b.write_ctx(NodeId(n as u16), 0, &[n as u8 ^ 0x5A; 1024]);
    }
    let mut remaining = vec![ops_per_node; nodes];
    let mut inflight = vec![0usize; nodes];
    let mut completions: Vec<Vec<RemoteCompletion>> = vec![Vec::new(); nodes];
    loop {
        let mut posted = false;
        for n in 0..nodes {
            while remaining[n] > 0 && inflight[n] < 2 {
                let dst = NodeId(((n + stride) % nodes) as u16);
                if dst.index() == n {
                    remaining[n] = 0;
                    break;
                }
                let i = remaining[n];
                let req = if i.is_multiple_of(3) {
                    RemoteRequest::write(dst, (i * 64) % 512, vec![n as u8 ^ i as u8; 128])
                } else {
                    RemoteRequest::read(dst, (i * 64) % 512, 128)
                };
                b.post(NodeId(n as u16), req).expect("post accepted");
                remaining[n] -= 1;
                inflight[n] += 1;
                posted = true;
            }
        }
        let more = b.advance();
        for (n, sink) in completions.iter_mut().enumerate() {
            for c in b.poll(NodeId(n as u16)) {
                inflight[n] -= 1;
                sink.push(c);
            }
        }
        let pending: usize = inflight.iter().sum();
        if !more && !posted && pending == 0 && remaining.iter().all(|&r| r == 0) {
            break;
        }
    }
    assert_eq!(b.pair_bound_violations(), 0);
    Outcome {
        now: b.now(),
        events: b.events_processed(),
        delivery_hashes: (0..nodes)
            .map(|n| b.delivery_hash(NodeId(n as u16)))
            .collect(),
        stats: (0..nodes)
            .map(|n| b.pipeline_stats(NodeId(n as u16)))
            .fold(PipelineStats::default(), PipelineStats::merge),
        fault_stats: b.fabric().fault_stats(),
        crashes: b.total_crashes(),
        crash_drops: b.total_crash_drops(),
        completions,
    }
}

/// Strictly increasing partition bounds over `nodes` from raw cut
/// material.
fn bounds_from(cuts: &[usize], nodes: usize) -> Vec<usize> {
    let mut bounds = vec![0];
    let mut inner: Vec<usize> = cuts.iter().map(|&c| 1 + c % (nodes - 1)).collect();
    inner.sort_unstable();
    inner.dedup();
    bounds.extend(inner);
    bounds.push(nodes);
    bounds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The same seeded fault plan yields the *same* injected-fault
    /// sequence — drops, corruptions, reroutes, crashes, timeouts,
    /// retransmits, delivery order — on the serial engine and on any
    /// random shard partition.
    #[test]
    fn fault_schedule_is_partition_invariant(
        w in 2usize..4,
        h in 2usize..4,
        cuts in vec(0usize..1024, 1..4),
        stride_seed in 1usize..5,
        ops in 2u64..5,
        seed in 0u64..1000,
    ) {
        let topology = Topology::torus2d(w, h);
        let nodes = topology.nodes();
        let stride = 1 + stride_seed % (nodes - 1);
        let mut config = config_for(topology);
        config.fabric.faults = Some(busy_plan(&config.fabric.topology, seed));
        let serial = drive(
            SonumaBackend::with_partition(config.clone(), 1 << 16, vec![0, nodes]),
            ops, stride,
        );
        let bounds = bounds_from(&cuts, nodes);
        let sharded = drive(
            SonumaBackend::with_partition(config, 1 << 16, bounds.clone()),
            ops, stride,
        );
        prop_assert_eq!(
            &serial, &sharded,
            "faulty run diverged under partition {:?}", &bounds
        );
    }

    /// Identical seeds replay the identical fault sequence run over run.
    #[test]
    fn same_seed_replays_the_same_faults(seed in 0u64..1000) {
        let build = || {
            let mut config = config_for(Topology::torus2d(3, 3));
            config.fabric.faults = Some(busy_plan(&config.fabric.topology, seed));
            SonumaBackend::with_threads(config, 1 << 16, 1)
        };
        let a = drive(build(), 4, 2);
        let b = drive(build(), 4, 2);
        prop_assert_eq!(a, b);
    }
}

/// A node that crashes with requests outstanding against it: the first
/// delivery lands in the outage window and is discarded, the source's
/// retransmission timer fires, and the retry after restart completes the
/// operation cleanly — end to end through WQ, fabric, and CQ.
#[test]
fn crash_outage_recovers_via_retransmit() {
    let mut config = config_for(Topology::crossbar(4));
    let mut plan = FaultPlan::new(1);
    plan.nodes.push(NodeFault {
        node: NodeId(2),
        crash_at: SimTime::from_ps(0),
        restart_at: SimTime::from_us(5),
    });
    config.fabric.faults = Some(plan);
    let mut b = SonumaBackend::with_threads(config, 1 << 16, 1);
    b.write_ctx(NodeId(2), 0, &[0xEE; 256]);
    b.post(NodeId(0), RemoteRequest::read(NodeId(2), 0, 64))
        .expect("post accepted");
    while b.advance() {}
    let done = b.poll(NodeId(0));
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].status, Status::Ok, "retry after restart succeeds");
    assert!(
        b.now() >= SimTime::from_us(5),
        "completion cannot predate the restart"
    );
    let stats = b.pipeline_stats(NodeId(0));
    assert_eq!(stats.rgp_timeouts, 1, "one deadline expired");
    assert_eq!(stats.rgp_retransmits, 1, "one line was retransmitted");
    assert_eq!(b.total_crashes(), 1);
    assert_eq!(
        b.total_crash_drops(),
        1,
        "the original landed in the window"
    );
}

/// A destination that never comes back: retries back off exponentially,
/// exhaust, and the operation completes with `Status::Aborted` — the
/// liveness guarantee that a fault plan can never hang the simulation.
#[test]
fn exhausted_retries_abort_instead_of_hanging() {
    let mut config = config_for(Topology::crossbar(4));
    let mut plan = FaultPlan::new(1);
    plan.timeout = SimTime::from_us(1);
    plan.max_retries = 2;
    plan.nodes.push(NodeFault {
        node: NodeId(2),
        crash_at: SimTime::from_ps(0),
        restart_at: SimTime::from_ns(1_000_000_000), // 1 s: effectively never
    });
    config.fabric.faults = Some(plan);
    let mut b = SonumaBackend::with_threads(config, 1 << 16, 1);
    b.write_ctx(NodeId(2), 0, &[0xEE; 256]);
    b.post(NodeId(0), RemoteRequest::read(NodeId(2), 0, 64))
        .expect("post accepted");
    while b.advance() {}
    let done = b.poll(NodeId(0));
    assert_eq!(done.len(), 1, "the operation must still complete");
    assert_eq!(done[0].status, Status::Aborted);
    let stats = b.pipeline_stats(NodeId(0));
    assert_eq!(stats.rgp_retransmits, 2, "max_retries bounds the attempts");
    assert_eq!(stats.rgp_timeouts, 3, "initial deadline plus one per retry");
}
