//! The multi-lane `EventEngine` (`with_lanes`) against the one-lane
//! engine (`new`), whose `run_until` is exact global `(time, seq)` order.
//!
//! For worlds whose events only ever schedule into their own lane, running
//! a window lane by lane must be indistinguishable — per lane — from
//! running it in global time order: same fired sequence in every lane,
//! same event counts, same clock and earliest pending time after the
//! window, same events left pending. The generated worlds lean on the
//! cases where the two executions differ most: same-timestamp ties (broken
//! by schedule order, which lane-major execution permutes globally but not
//! within a lane), events landing exactly on a horizon and one picosecond
//! past it, chains that stay inside the window they start in, and windows
//! from 1 ps wide to wider than the whole run.

use proptest::collection::vec;
use proptest::prelude::*;

use sonuma_sim::{EventEngine, SimTime, World};

/// One event: fires in `lane`, then schedules `id`-derived children into
/// the same lane until `depth` runs out.
#[derive(Debug, Clone, Copy)]
struct Ev {
    lane: u32,
    id: u64,
    depth: u8,
}

struct Lanes {
    /// `(time ps, id)` of every fired event, per lane, in firing order.
    fired: Vec<Vec<(u64, u64)>>,
    /// Every window horizon of the run, ascending: chained events aim at
    /// these (and one past them) on purpose.
    horizons: Vec<u64>,
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl World for Lanes {
    type Event = Ev;

    fn handle(&mut self, engine: &mut EventEngine<Self>, ev: Ev) {
        let now = engine.now().as_ps();
        self.fired[ev.lane as usize].push((now, ev.id));
        if ev.depth == 0 {
            return;
        }
        // Children are a pure function of the parent's id and firing time
        // — never of global execution order.
        let h = mix(ev.id);
        for child in 0..(h % 3) {
            let c = mix(h ^ child);
            let next_horizon = self.horizons.iter().copied().find(|&t| t >= now);
            let at = match c % 5 {
                0 => now,                                 // same-timestamp tie
                1 => now + 1 + (c >> 8) % 40,             // stays near, usually in-window
                2 => next_horizon.unwrap_or(now),         // exactly on the horizon
                3 => next_horizon.map_or(now, |t| t + 1), // first ps of the next window
                _ => now + 500 + (c >> 8) % 4_000,        // several windows out
            };
            engine.schedule_at(
                SimTime::from_ps(at),
                Ev {
                    lane: ev.lane,
                    id: c,
                    depth: ev.depth - 1,
                },
            );
        }
    }
}

/// Everything a run lets an observer see.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `(ran, events_executed, now, pending, next_time)` after every
    /// window.
    windows: Vec<(u64, u64, u64, usize, Option<SimTime>)>,
    /// Per-lane fired sequences inside the windows.
    in_windows: Vec<Vec<(u64, u64)>>,
    /// Per-lane fired sequences of what the last window left queued,
    /// drained in plain time order.
    leftover: Vec<Vec<(u64, u64)>>,
}

/// Drives `engine` through `horizons`.
fn drive(
    mut engine: EventEngine<Lanes>,
    lanes: usize,
    seeds: &[(u32, u64, u8)],
    horizons: &[u64],
) -> Observed {
    let mut world = Lanes {
        fired: vec![Vec::new(); lanes],
        horizons: horizons.to_vec(),
    };
    for (i, &(lane, t, depth)) in seeds.iter().enumerate() {
        engine.schedule_at(
            SimTime::from_ps(t),
            Ev {
                lane: lane % lanes as u32,
                id: i as u64,
                depth,
            },
        );
    }
    let mut windows = Vec::new();
    for &h in horizons {
        let ran = engine.run_until(&mut world, SimTime::from_ps(h));
        windows.push((
            ran,
            engine.events_executed(),
            engine.now().as_ps(),
            engine.pending(),
            engine.next_time(),
        ));
    }
    let in_windows = std::mem::replace(&mut world.fired, vec![Vec::new(); lanes]);
    engine.run(&mut world);
    Observed {
        windows,
        in_windows,
        leftover: world.fired,
    }
}

proptest! {
    #[test]
    fn lane_major_windows_equal_time_major_windows(
        lanes in 1usize..9,
        seeds in vec((0u32..8, 0u64..3_000, 0u8..5), 1..120),
        widths in vec(prop_oneof![Just(1u64), 2u64..60, 60u64..900, Just(10_000u64)], 1..24),
        on_horizon in vec((0u32..8, 0usize..24, any::<bool>(), 0u8..4), 0..24),
    ) {
        let mut horizons = Vec::new();
        let mut t = 0u64;
        for w in &widths {
            t += w;
            horizons.push(t);
        }
        // Seed events pinned exactly on a horizon or one ps past it.
        let mut seeds = seeds;
        for &(lane, k, past, depth) in &on_horizon {
            let h = horizons[k % horizons.len()];
            seeds.push((lane, h + u64::from(past), depth));
        }

        let by_time = drive(EventEngine::new(), lanes, &seeds, &horizons);
        let by_lane = drive(
            EventEngine::with_lanes(lanes, |ev: &Ev| ev.lane),
            lanes,
            &seeds,
            &horizons,
        );
        prop_assert_eq!(by_lane, by_time);
    }
}
