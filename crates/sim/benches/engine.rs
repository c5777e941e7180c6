//! Schedule/dispatch throughput of the typed `EventEngine` (one-lane:
//! a binary heap of 16-byte keys over a slab) at 1k / 100k / 1M queued
//! events.
//!
//! Each benchmark schedules N events at pseudorandom times (xorshift over
//! a 50 µs-per-1k-events window, so queue density is comparable across
//! sizes), then drains the queue; the measured body covers both schedule
//! and dispatch. Runs offline through the in-repo criterion shim:
//!
//! ```text
//! cargo bench -p sonuma-sim --bench engine
//! ```
//!
//! The `window` group prices the multi-lane window (`with_lanes`: for
//! each listed lane, pop its own heap while the head is at or below the
//! horizon) against the one-lane engine's plain time-major window on the
//! same self-rescheduling load: N events per window spread over L lanes,
//! at the shapes the rack scenarios produce (~11 events per node per
//! window on a neighbor rack, ~1.5 on a torus scan, a dozen events in
//! total under faults). The handlers do no work, so the ratio is the pure
//! engine overhead of running a window lane by lane.
//!
//! Measured when the per-lane store replaced the calendar queue (PR 17,
//! 2-core sandbox, min of 5, both trees in one session on one host):
//!
//! * `engine/typed` 1k 81 → 60 µs, **100k 10.4 → 15.7 ms**, 1M 197 →
//!   366 ms. A binary heap loses to a calendar queue once one lane holds
//!   many thousands of pending events, which no production world does:
//!   the one-lane engine's users are two-node anchor systems, the
//!   baselines and PageRank on at most 16 nodes, and none of
//!   `paper-anchors`, Fig. 9 or `kv512`'s RDMA/TCP runs got slower
//!   (DESIGN.md, "The typed event engine").
//! * `window`, ns per event, multi-lane vs one-lane: 33 vs 83 at
//!   5,632 × 512, 20 vs 54 at 768 × 512, 20 vs 20 at 11 × 11 — a ratio
//!   of 0.4 / 0.4 / 1.0. The parent's lane-major window (drain the
//!   calendar queue, sort by lane, merge in-window children through a
//!   side heap) cost 100 / 105 / 35 ns per event and its time-major one
//!   31 / 29 / 28, so running a rack's window node by node is now as
//!   cheap as the time-major window was, and 2–5× cheaper than it was.

use criterion::{criterion_group, criterion_main, Criterion};
use sonuma_sim::{EventEngine, SimTime, World};

/// The typed world: accumulates event payloads.
struct Count {
    hits: u64,
    sum: u64,
}

/// Events carry a payload, exactly like the machine's `ClusterEvent`
/// variants carry node/core/packet state.
enum Tick {
    Hit(u64),
}

impl World for Count {
    type Event = Tick;
    fn handle(&mut self, _engine: &mut EventEngine<Self>, event: Tick) {
        let Tick::Hit(id) = event;
        self.hits += 1;
        self.sum = self.sum.wrapping_add(id);
    }
}

/// Deterministic pseudorandom event time for index `i` of an `n`-event
/// run: xorshift spread over ~50 µs per 1k events.
fn time_of(seed: &mut u64, n: u64) -> SimTime {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    SimTime::from_ps(*seed % (n * 50_000))
}

fn typed_run(n: u64) -> u64 {
    let mut engine = EventEngine::new();
    let mut world = Count { hits: 0, sum: 0 };
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for id in 0..n {
        engine.schedule_at(time_of(&mut seed, n), Tick::Hit(id));
    }
    engine.run(&mut world);
    assert_eq!(world.hits, n);
    world.sum
}

/// The window world: every event re-arms itself one window later in its
/// own lane, so each window executes exactly the seeded `n` events.
struct Rearm {
    window_ps: u64,
    hits: u64,
}

struct LaneTick {
    lane: u32,
}

impl World for Rearm {
    type Event = LaneTick;
    fn handle(&mut self, engine: &mut EventEngine<Self>, event: LaneTick) {
        self.hits += 1;
        engine.schedule_in(SimTime::from_ps(self.window_ps), event);
    }
}

/// Runs `windows` windows of `n` events over `lanes` lanes, on the
/// multi-lane engine or the one-lane (time-major) engine.
fn window_run(n: u64, lanes: u32, windows: u64, by_lane: bool) -> u64 {
    const WINDOW_PS: u64 = 100_000;
    let mut engine = if by_lane {
        EventEngine::with_lanes(lanes as usize, |e: &LaneTick| e.lane)
    } else {
        EventEngine::new()
    };
    let mut world = Rearm {
        window_ps: WINDOW_PS,
        hits: 0,
    };
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for id in 0..n {
        let at = time_of(&mut seed, 1).as_ps() % WINDOW_PS;
        let lane = (id % u64::from(lanes)) as u32;
        engine.schedule_at(SimTime::from_ps(at), LaneTick { lane });
    }
    for w in 1..=windows {
        let horizon = SimTime::from_ps(w * WINDOW_PS - 1);
        assert_eq!(engine.run_until(&mut world, horizon), n);
    }
    world.hits
}

fn bench_windows(c: &mut Criterion) {
    let mut group = c.benchmark_group("window");
    group.sample_size(5);
    // (events per window, lanes): neighbor512-, scan512- and faults512-like.
    for (n, lanes) in [(5_632u64, 512u32), (768, 512), (11, 11)] {
        let windows = 2_000_000 / n;
        for (mode, by_lane) in [("time", false), ("lane", true)] {
            group.bench_function(&format!("{mode}/{n}x{lanes}"), |b| {
                b.iter(|| window_run(n, lanes, windows, by_lane))
            });
        }
    }
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(5);
    for n in [1_000u64, 100_000, 1_000_000] {
        group.bench_function(&format!("typed/{n}"), |b| b.iter(|| typed_run(n)));
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_windows);
criterion_main!(benches);
