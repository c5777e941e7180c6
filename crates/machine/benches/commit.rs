//! Commit-path cost of the sharded cluster: closed-loop neighbor traffic
//! through the full quantum loop, so the measured body is dominated by
//! staging into the per-node outboxes, the commit's one key sort and the
//! per-shard `Deliver` scheduling. Two shapes:
//!
//! * `merge/*` — 64 B reads on a 4×4 torus at 1 / 4 / 8 shards: an outbox
//!   never holds more than a line or two, every commit takes all of it;
//! * `backlog/*` — 8 KB writes on an 8×8 torus at 1 / 4 shards, unrolled
//!   as whole 128-line bursts: every node keeps on the order of a hundred
//!   staged lines with *future* inject times alive across dozens of
//!   epochs while each epoch's few new sends land inside them. This is the
//!   shape `kv512` has and `merge/*` never built, which is how a staging
//!   buffer that re-sorted its whole backlog 15.7 times per packet went
//!   unseen until a sampling profile found it.
//!
//! Runs offline through the in-repo criterion shim:
//!
//! ```text
//! cargo bench -p sonuma-machine --bench commit
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use sonuma_fabric::FabricConfig;
use sonuma_machine::{MachineConfig, SonumaBackend};
use sonuma_protocol::{NodeId, RemoteBackend, RemoteRequest};

/// Builds a `side`×`side` torus machine and drains `ops_per_node`
/// two-deep pipelined neighbor operations — 64 B reads, or `write_bytes`
/// writes unrolled as one burst each — through the full quantum/commit
/// loop.
fn commit_run(side: usize, threads: usize, ops_per_node: u64, write_bytes: Option<usize>) -> u64 {
    let mut config = MachineConfig::simulated_hardware(side * side);
    config.fabric = FabricConfig::torus2d(side, side);
    if let Some(bytes) = write_bytes {
        config.rgp_burst_lines = (bytes / 64) as u32;
    }
    let mut b = SonumaBackend::with_threads(config, 1 << 16, threads);
    let nodes = b.num_nodes();
    for n in 0..nodes {
        b.write_ctx(NodeId(n as u16), 0, &[0xA5; 1024]);
    }
    let mut remaining = vec![ops_per_node; nodes];
    let mut inflight = vec![0usize; nodes];
    loop {
        let mut posted = false;
        for n in 0..nodes {
            while remaining[n] > 0 && inflight[n] < 2 {
                let dst = NodeId(((n + 1) % nodes) as u16);
                let offset = (remaining[n] * 64) % 512;
                let req = match write_bytes {
                    Some(bytes) => RemoteRequest::write(dst, offset, vec![n as u8; bytes]),
                    None => RemoteRequest::read(dst, offset, 64),
                };
                b.post(NodeId(n as u16), req).expect("post accepted");
                remaining[n] -= 1;
                inflight[n] += 1;
                posted = true;
            }
        }
        let more = b.advance();
        for (n, inflight) in inflight.iter_mut().enumerate() {
            *inflight -= b.poll(NodeId(n as u16)).len();
        }
        let pending: usize = inflight.iter().sum();
        if !more && !posted && pending == 0 && remaining.iter().all(|&r| r == 0) {
            break;
        }
    }
    b.events_processed()
}

fn bench_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit");
    group.sample_size(5);
    for threads in [1usize, 4, 8] {
        group.bench_function(&format!("merge/{threads}"), |b| {
            b.iter(|| commit_run(4, threads, 8, None))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("backlog");
    group.sample_size(5);
    for threads in [1usize, 4] {
        group.bench_function(&format!("write8k/{threads}"), |b| {
            b.iter(|| commit_run(8, threads, 4, Some(8192)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_commit);
criterion_main!(benches);
