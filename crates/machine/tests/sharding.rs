//! Partition-equivalence properties of the sharded engine.
//!
//! The fabric crate's `flow_properties` suite pins the delivery-order
//! behavior of the fabric under the serial typed engine; these tests
//! extend that contract up through the full machine: for *random*
//! contiguous node→shard partitions of random crossbar/torus
//! topologies, the sharded engine must deliver every packet to every
//! node in exactly the order the serial (single-shard) engine does —
//! asserted via the per-node delivery-order hash (time, source, tid,
//! line) plus completions, pipeline counters, fabric totals, the clock
//! and the epoch-barrier count.

use proptest::collection::vec;
use proptest::prelude::*;

use sonuma_fabric::{FabricConfig, FaultPlan, LinkFault, NodeFault, Topology};
use sonuma_machine::{MachineConfig, PipelineStats, SonumaBackend};
use sonuma_protocol::{NodeId, RemoteBackend, RemoteCompletion, RemoteRequest};
use sonuma_sim::SimTime;
use sonuma_trace::{render_jsonl, TraceConfig, TraceMeta};

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

/// Everything observable about one run that must be partition-invariant.
#[derive(Debug, PartialEq)]
struct Outcome {
    now: SimTime,
    events: u64,
    completions: Vec<Vec<RemoteCompletion>>,
    delivery_hashes: Vec<u64>,
    stats: Vec<PipelineStats>,
    fabric_packets: u64,
    fabric_bytes: u64,
    credit_stalls: u64,
    epochs: u64,
    trace: Option<String>,
}

/// Drives a deterministic closed-loop read/write stream over `b` and
/// snapshots every invariant observable, the epoch-barrier count
/// included. With `traced`, a flight recorder is armed and its rendered
/// JSONL rides along in the outcome so trace bytes are pinned
/// partition-invariant too.
fn drive(b: SonumaBackend, ops_per_node: u64, stride: usize, op_bytes: u64) -> Outcome {
    drive_opts(b, ops_per_node, stride, op_bytes, false)
}

fn drive_opts(
    mut b: SonumaBackend,
    ops_per_node: u64,
    stride: usize,
    op_bytes: u64,
    traced: bool,
) -> Outcome {
    if traced {
        b.arm_trace(&TraceConfig {
            interval: SimTime::from_ns(1_000),
            link_capacity: 256,
            node_capacity: 256,
            event_capacity: 64,
        });
    }
    let nodes = b.num_nodes();
    for n in 0..nodes {
        b.write_ctx(NodeId(n as u16), 0, &[n as u8 ^ 0x3C; 1024]);
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
                let offset = (i * op_bytes) % 512;
                let req = if i.is_multiple_of(3) {
                    RemoteRequest::write(
                        dst,
                        offset,
                        vec![(n as u8) ^ (i as u8); op_bytes as usize],
                    )
                } else {
                    RemoteRequest::read(dst, offset, op_bytes)
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
    assert_eq!(
        b.pair_bound_violations(),
        0,
        "a delivery beat the lookahead promise"
    );
    Outcome {
        now: b.now(),
        events: b.events_processed(),
        delivery_hashes: (0..nodes)
            .map(|n| b.delivery_hash(NodeId(n as u16)))
            .collect(),
        stats: (0..nodes)
            .map(|n| b.pipeline_stats(NodeId(n as u16)))
            .collect(),
        fabric_packets: b.fabric().packets_sent(),
        fabric_bytes: b.fabric().bytes_sent(),
        credit_stalls: b.fabric().credit_stalls(),
        epochs: b.epochs(),
        trace: b.trace().map(|rec| {
            let meta = TraceMeta {
                scenario: "sharding-proptest".to_string(),
                backend: "sonuma".to_string(),
                nodes: nodes as u64,
                interval_ps: SimTime::from_ns(1_000).as_ps(),
            };
            render_jsonl(&meta, Some(rec), None)
        }),
        completions,
    }
}

/// Builds strictly increasing partition bounds over `nodes` from raw cut
/// material (any slice of arbitrary integers yields a valid plan).
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
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random partitions of random topologies are delivery-order
    /// equivalent to the serial engine.
    #[test]
    fn random_partitions_match_serial_delivery_order(
        shape in 0usize..3,
        w in 2usize..4,
        h in 2usize..4,
        cuts in vec(0usize..1024, 1..4),
        stride_seed in 1usize..7,
        ops in 2u64..5,
    ) {
        let topology = match shape {
            0 => Topology::crossbar(w * h + 1),
            1 => Topology::torus2d(w, h),
            _ => Topology::torus3d(w, h, 2),
        };
        let nodes = topology.nodes();
        let stride = 1 + stride_seed % (nodes - 1);
        let config = config_for(topology);
        let serial = drive(
            SonumaBackend::with_partition(config.clone(), 1 << 16, vec![0, nodes]),
            ops, stride, 128,
        );
        let bounds = bounds_from(&cuts, nodes);
        let sharded = drive(
            SonumaBackend::with_partition(config, 1 << 16, bounds.clone()),
            ops, stride, 128,
        );
        prop_assert_eq!(
            &serial.delivery_hashes, &sharded.delivery_hashes,
            "delivery order diverged under partition {:?}", &bounds
        );
        prop_assert_eq!(
            serial.epochs, sharded.epochs,
            "epoch count moved under partition {:?}", &bounds
        );
        prop_assert_eq!(serial, sharded);
    }

    /// The same equivalence with the flight recorder armed and —
    /// optionally — a link-kill + node-crash fault plan installed: over
    /// random partitions of crossbar and torus3d topologies, delivery
    /// orders, completions, pipeline stats, fabric totals, the epoch
    /// count and the rendered trace bytes are identical to the one-shard
    /// run's.
    #[test]
    fn random_partitions_match_serial_under_faults_and_trace(
        shape in 0usize..2,
        w in 2usize..4,
        h in 2usize..4,
        cuts in vec(0usize..1024, 1..4),
        faulty in any::<bool>(),
    ) {
        let topology = match shape {
            0 => Topology::crossbar(w * h + 1),
            _ => Topology::torus3d(w, h, 2),
        };
        let nodes = topology.nodes();
        let mut config = config_for(topology);
        if faulty {
            let mut plan = FaultPlan::new(0xFA17);
            let mut flap = LinkFault::on(NodeId(0), NodeId(1));
            flap.kill_at = Some(SimTime::from_ns(2_000));
            flap.revive_at = Some(SimTime::from_ns(20_000));
            plan.links.push(flap);
            plan.nodes.push(NodeFault {
                node: NodeId((nodes - 1) as u16),
                crash_at: SimTime::from_ns(3_000),
                restart_at: SimTime::from_ns(30_000),
            });
            config.fabric.faults = Some(plan);
        }
        let bounds = bounds_from(&cuts, nodes);
        let serial = drive_opts(
            SonumaBackend::with_partition(config.clone(), 1 << 16, vec![0, nodes]),
            3, 2, 128, true,
        );
        let sharded = drive_opts(
            SonumaBackend::with_partition(config, 1 << 16, bounds.clone()),
            3, 2, 128, true,
        );
        prop_assert!(serial.trace.is_some(), "the recorder was armed");
        prop_assert_eq!(
            serial.epochs, sharded.epochs,
            "epoch count moved under partition {:?} (faulty={})", &bounds, faulty
        );
        prop_assert_eq!(
            serial, sharded,
            "diverged under partition {:?} (faulty={})", &bounds, faulty
        );
    }
}

/// The topology-aware default partition is equivalent too, at every
/// thread count up to the node count — the non-random complement of the
/// property above (this is the exact configuration `--threads` uses).
/// The second topology has slabs several hops apart, where a horizon
/// that depended on shard distance would batch epochs differently.
#[test]
fn default_partitions_match_serial_at_every_thread_count() {
    for (topology, thread_counts) in [
        (Topology::torus2d(4, 3), &[2, 3, 5, 12][..]),
        (Topology::torus3d(2, 2, 8), &[2, 4, 8][..]),
    ] {
        let config = config_for(topology);
        let serial = drive(
            SonumaBackend::with_threads(config.clone(), 1 << 16, 1),
            4,
            5,
            256,
        );
        for &threads in thread_counts {
            let sharded = drive(
                SonumaBackend::with_threads(config.clone(), 1 << 16, threads),
                4,
                5,
                256,
            );
            assert_eq!(
                serial.epochs, sharded.epochs,
                "epoch count moved at {threads} threads"
            );
            assert_eq!(serial, sharded, "diverged at {threads} threads");
        }
    }
}

/// The backlog shape the rack workloads have and the cases above (2-5
/// ops of 128-256 B per node) never build: 8 KB writes and reads unrolled
/// as whole 128-line bursts, so every node's outbox holds on the order of
/// a hundred lines with *future* inject times across dozens of epochs,
/// replies to its peers land inside that backlog, and all sixteen nodes
/// start in lockstep, so equal inject times across sources are the rule.
/// Delivery order, completions, trace bytes and the epoch count must not
/// depend on the thread count — which they do as soon as the commit
/// orders by anything less than `(t, src, seq)`.
#[test]
fn burst_backlogs_commit_in_serial_order_at_every_thread_count_and_depth() {
    let mut config = config_for(Topology::torus2d(4, 4));
    config.rgp_burst_lines = 128;
    let run = |threads: usize| {
        let b = SonumaBackend::with_threads(config.clone(), 1 << 16, threads);
        drive_opts(b, 4, 5, 8192, true)
    };
    let serial = run(1);
    assert!(
        serial.fabric_packets >= 16 * 4 * 128,
        "every op is a 128-line burst"
    );
    for threads in [2, 4] {
        let outcome = run(threads);
        assert_eq!(
            serial.delivery_hashes, outcome.delivery_hashes,
            "delivery order diverged at {threads} threads"
        );
        assert_eq!(
            serial.epochs, outcome.epochs,
            "epoch count moved at {threads} threads"
        );
        assert_eq!(serial, outcome, "diverged at {threads} threads");
    }
}
