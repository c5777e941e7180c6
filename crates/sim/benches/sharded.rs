//! `ShardedEngine` epoch overhead: empty-epoch barrier cost and chained
//! epoch throughput at 1 / 4 / 8 shards. Runs offline through the in-repo criterion shim:
//!
//! ```text
//! cargo bench -p sonuma-sim --bench sharded
//! ```
//!
//! `empty/{n}` releases and re-joins the worker pool with zero events —
//! the pure per-epoch synchronization tax a conservative engine pays for
//! every scalar lookahead. `chain/{n}` drains a fixed event chain whose
//! step is five lookaheads, so every epoch executes at most one event
//! per shard. The companion commit-merge bench lives in
//! `crates/machine/benches/` where the k-way merge is implemented.

use criterion::{criterion_group, criterion_main, Criterion};
use sonuma_sim::{EpochWorld, ShardedEngine, SimTime};

/// A shard holding one arithmetic chain of events: event `i` fires at
/// `start + i * step`. Mirrors the engine's unit-test world but without
/// cross-shard traffic, isolating pure epoch overhead.
struct ChainShard {
    now: SimTime,
    next: Option<SimTime>,
    step: SimTime,
    remaining: u64,
    executed: u64,
}

impl ChainShard {
    fn new(start: SimTime, step: SimTime, events: u64) -> ChainShard {
        ChainShard {
            now: SimTime::ZERO,
            next: (events > 0).then_some(start),
            step,
            remaining: events,
            executed: 0,
        }
    }
}

impl EpochWorld for ChainShard {
    fn run_epoch(&mut self, horizon: SimTime) -> u64 {
        let mut ran = 0;
        while let Some(t) = self.next {
            if t > horizon {
                break;
            }
            self.now = t;
            self.executed += 1;
            self.remaining -= 1;
            self.next = (self.remaining > 0).then(|| t + self.step);
            ran += 1;
        }
        ran
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.next
    }

    fn align_clock(&mut self, to: SimTime) {
        if to > self.now {
            self.now = to;
        }
    }
}

/// One empty epoch: horizons derive from the caller-published source
/// floors, the pool releases and re-joins, zero events execute.
fn empty_epoch(engine: &mut ShardedEngine<ChainShard>, floor: &mut u64) -> u64 {
    *floor += 1_000;
    for s in 0..engine.num_shards() {
        engine.set_source_floor(s, Some(SimTime::from_ps(*floor)));
    }
    engine.run_epoch()
}

/// Drains `events` chained events per shard and returns the epoch
/// (barrier) count it took.
fn chain_run(nshards: usize, events: u64) -> u64 {
    let shards = (0..nshards)
        .map(|_| ChainShard::new(SimTime::from_ns(5), SimTime::from_ns(5), events))
        .collect();
    let mut engine = ShardedEngine::new(shards, SimTime::from_ns(1));
    let mut total = 0;
    loop {
        let ran = engine.run_epoch();
        total += ran;
        if ran == 0 {
            break;
        }
    }
    assert_eq!(total, events * nshards as u64, "chain not fully drained");
    engine.epochs()
}

fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded");
    group.sample_size(10);
    for n in [1usize, 4, 8] {
        let shards = (0..n)
            .map(|_| ChainShard::new(SimTime::ZERO, SimTime::ZERO, 0))
            .collect();
        let mut engine: ShardedEngine<ChainShard> = ShardedEngine::new(shards, SimTime::from_ns(1));
        let mut floor = 0u64;
        group.bench_function(&format!("empty/{n}"), |b| {
            b.iter(|| empty_epoch(&mut engine, &mut floor))
        });
    }
    for n in [1usize, 4, 8] {
        group.bench_function(&format!("chain/{n}"), |b| b.iter(|| chain_run(n, 256)));
    }
    group.finish();
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
