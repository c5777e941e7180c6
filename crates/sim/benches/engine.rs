//! Schedule/dispatch throughput: typed arena-backed `EventEngine` versus
//! the legacy boxed-closure `Engine`, at 1k / 100k / 1M queued events.
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
//! The acceptance bar for the typed engine is >= 2x events/sec over the
//! boxed engine at 100k queued events.
//!
//! The `window` group prices the lane-major epoch window
//! (`run_until_by_lane`: drain + sort by lane + merge) against the plain
//! time-major `run_until` on the same self-rescheduling load: N events per
//! window spread over L lanes, at the shapes the rack scenarios produce
//! (~11 events per node per window on a neighbor rack, ~1.5 on a torus
//! scan, a dozen events in total under faults). The handlers do no work,
//! so the ratio is the pure engine overhead a machine run has to win back
//! through locality.

use criterion::{criterion_group, criterion_main, Criterion};
use sonuma_sim::{Engine, EventEngine, SimTime, World};

/// The typed world: accumulates event payloads.
struct Count {
    hits: u64,
    sum: u64,
}

/// Events carry a payload, exactly like the machine's `ClusterEvent`
/// variants carry node/core/packet state — which is also what forces the
/// boxed engine below to really allocate (a captureless closure would be
/// zero-sized and `Box::new` would never touch the heap).
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

fn boxed_run(n: u64) -> u64 {
    let mut engine: Engine<(u64, u64)> = Engine::new();
    let mut world = (0u64, 0u64); // (hits, sum)
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for id in 0..n {
        engine.schedule_at(time_of(&mut seed, n), move |w: &mut (u64, u64), _| {
            w.0 += 1;
            w.1 = w.1.wrapping_add(id);
        });
    }
    engine.run(&mut world);
    assert_eq!(world.0, n);
    world.1
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

/// Runs `windows` windows of `n` events over `lanes` lanes, lane-major
/// or time-major.
fn window_run(n: u64, lanes: u32, windows: u64, by_lane: bool) -> u64 {
    const WINDOW_PS: u64 = 100_000;
    let mut engine = EventEngine::new();
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
        let ran = if by_lane {
            engine.run_until_by_lane(&mut world, horizon, |e| e.lane)
        } else {
            engine.run_until(&mut world, horizon)
        };
        assert_eq!(ran, n);
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
        group.bench_function(&format!("boxed/{n}"), |b| b.iter(|| boxed_run(n)));
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_windows);
criterion_main!(benches);
