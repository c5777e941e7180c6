//! Conservative-parallel execution: shards advancing in lookahead-bounded
//! epochs.
//!
//! [`ShardedEngine`] runs `N` shard worlds — each an independent
//! discrete-event simulation over its own slice of state — in *epochs*
//! bounded by one scalar *lookahead* `L`: the minimum simulated time any
//! action of any shard needs before it can affect another (for the soNUMA
//! fabric: one hop plus one header serialization). Each epoch, every
//! shard advances to the same horizon
//!
//! ```text
//! horizon = min over shards s of floor[s] + L - 1
//! ```
//!
//! where `floor[s]` is the earliest thing shard `s` could still do: its
//! earliest pending local event, or the earliest staged-but-undelivered
//! cross-shard message bound *into* it (the caller publishes the latter
//! via [`ShardedEngine::set_source_floor`]). Within an epoch every shard
//! executes its local events concurrently; cross-shard effects are staged
//! by the worlds and exchanged by the *caller* between epochs, and by
//! construction they can only land after the horizon — the classic
//! conservative (no-rollback) synchronization argument.
//!
//! Determinism is the point: the epoch boundaries are a pure function of
//! event timestamps and `L`, never of host thread scheduling or of how
//! the events are split across shards, so a run's event interleaving —
//! and therefore its results and its epoch count — is identical for any
//! shard count, provided the caller's exchange step merges staged traffic
//! in a partition-independent order (see `sonuma-machine`'s
//! `SonumaBackend` for the fabric merge that does this, and for how it
//! re-aligns shard clocks to quantum boundaries so externally injected
//! work charges invariant times).
//!
//! Shards execute on a pool of persistent worker threads. Between epochs a
//! worker spins briefly (epochs are microseconds of host time apart, so
//! futex latency would dominate a sleep), degrades to `yield_now`, and
//! finally parks with a timeout — so an idle, oversubscribed, or 1-core
//! host does not burn CPU while the coordinator is busy elsewhere. Spin
//! budgets adapt to [`std::thread::available_parallelism`]: when the run is
//! oversubscribed, spinning only steals cycles from the shard that would
//! release us, so the ladder collapses to almost-immediate yielding.
//! Shard 0 always runs on the coordinating thread, so a `threads = N` run
//! uses exactly `N` OS threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use crate::time::SimTime;

/// One shard of a sharded simulation: everything [`ShardedEngine`] needs
/// to drive it through epochs.
///
/// Implementations bundle a world and its event engine. `Send` is
/// required because shards execute on pool threads.
pub trait EpochWorld: Send + 'static {
    /// Executes every pending local event with `time <= horizon`; returns
    /// the number executed.
    fn run_epoch(&mut self, horizon: SimTime) -> u64;

    /// Timestamp of the earliest pending local event, if any.
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Aligns the shard's clock to the epoch boundary `to` (which is at
    /// or after every event executed so far, and before every pending
    /// one). A target at or before the current clock is a no-op.
    fn align_clock(&mut self, to: SimTime);

    #[doc(hidden)] // frozen-benchmark residue: ROADMAP item 9 deletes
    fn snapshot(&mut self) {}

    #[doc(hidden)] // frozen-benchmark residue: ROADMAP item 9 deletes
    fn restore(&mut self) {}
}

/// Inclusive horizon implied by the earliest floor `min_floor_ps`: epoch
/// windows are half-open, hence the `- 1` ps. `u64::MAX` (no shard has a
/// floor) stays `u64::MAX`.
#[inline]
fn horizon_ps(min_floor_ps: u64, lookahead_ps: u64) -> u64 {
    if min_floor_ps == u64::MAX {
        u64::MAX
    } else {
        min_floor_ps.saturating_add(lookahead_ps).saturating_sub(1)
    }
}

/// Spins briefly, then yields — the coordinator's wait for workers that
/// are actively executing an epoch (they finish in microseconds).
/// `spin_limit` comes from [`Control`]: large when every shard has a core
/// to run on, tiny when the run is oversubscribed and the spinner is
/// stealing cycles from the very shard it waits for. Returns whether it
/// yielded — the slow side, where a liveness check is affordable.
#[inline]
fn relax(spins: &mut u32, spin_limit: u32) -> bool {
    *spins += 1;
    if *spins < spin_limit {
        std::hint::spin_loop();
        false
    } else {
        std::thread::yield_now();
        true
    }
}

/// OS threads the host can actually run in parallel (1 when unknown).
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Busy-wait spins when every shard has its own core.
const PROVISIONED_SPIN_LIMIT: u32 = 1 << 14;
/// Busy-wait spins when shards outnumber cores: long enough to catch a
/// release already in flight, short enough to hand the core over fast.
const OVERSUBSCRIBED_SPIN_LIMIT: u32 = 1 << 6;
/// Spins before an idle worker starts yielding (provisioned hosts).
const IDLE_SPIN_LIMIT: u32 = 1 << 12;
/// Yields before an idle worker parks.
const IDLE_YIELD_LIMIT: u32 = 64;
/// Park timeout: bounds the wake latency if an unpark is lost to the
/// publish race (the flag handshake below makes that rare), and bounds
/// idle wakeups to ~1 kHz while waiting for shutdown.
const IDLE_PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Shared coordination state between the coordinator and the workers.
struct Control<S> {
    /// Slot `i` holds shard `i`; workers own slots `1..`, the coordinator
    /// slot `0`. Locks are uncontended by construction: a worker holds
    /// its lock only while `epoch` says the shard is running, and the
    /// coordinator only touches worker slots between epochs.
    slots: Vec<Mutex<S>>,
    /// Monotone epoch sequence number; bumping it releases the workers.
    epoch: AtomicU64,
    /// The horizon of the epoch currently being executed, in ps.
    horizon_ps: AtomicU64,
    /// Per-worker completion acknowledgements (last finished epoch).
    done: Vec<AtomicU64>,
    /// Events executed by each worker in its last epoch.
    ran: Vec<AtomicU64>,
    /// Whether each worker is (about to be) parked and needs an unpark.
    parked: Vec<AtomicBool>,
    shutdown: AtomicBool,
    /// The lookahead `L`, in ps.
    lookahead_ps: u64,
    /// Busy-wait budget for barrier waits (adaptive, see [`relax`]).
    spin_limit: u32,
    /// Spin budget of the idle ladder before yielding (adaptive).
    idle_spin_limit: u32,
}

/// A deterministic conservative-parallel driver over [`EpochWorld`]
/// shards. See the module docs for the synchronization argument.
pub struct ShardedEngine<S: EpochWorld> {
    ctl: Arc<Control<S>>,
    workers: Vec<JoinHandle<()>>,
    /// Worker thread handles for unparking, indexed like `ctl.done`.
    worker_threads: Vec<Thread>,
    /// Earliest staged-but-undelivered external input per shard, set by
    /// the caller between epochs; participates in that shard's floor.
    source_floors: Vec<Option<SimTime>>,
    /// Optional inclusive upper bound on every horizon (the caller's
    /// partition-invariant quantum boundary).
    cap: Option<SimTime>,
    epochs: u64,
    /// The boundary every shard executed through in the last epoch.
    horizon: SimTime,
}

impl<S: EpochWorld> ShardedEngine<S> {
    /// Builds an engine over `shards` with lookahead `lookahead`,
    /// spawning `shards.len() - 1` worker threads (shard 0 runs on the
    /// calling thread).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or `lookahead` is zero: a zero
    /// lookahead admits no epoch in which concurrency is safe.
    pub fn new(shards: Vec<S>, lookahead: SimTime) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(
            lookahead > SimTime::ZERO,
            "conservative execution requires a positive lookahead"
        );
        let n = shards.len();
        // Oversubscribed runs must not busy-wait: every spin steals
        // cycles from a shard that still has work.
        let oversubscribed = n > host_parallelism();
        let ctl = Arc::new(Control {
            slots: shards.into_iter().map(Mutex::new).collect(),
            epoch: AtomicU64::new(0),
            horizon_ps: AtomicU64::new(0),
            done: (0..n.saturating_sub(1))
                .map(|_| AtomicU64::new(0))
                .collect(),
            ran: (0..n.saturating_sub(1))
                .map(|_| AtomicU64::new(0))
                .collect(),
            parked: (0..n.saturating_sub(1))
                .map(|_| AtomicBool::new(false))
                .collect(),
            shutdown: AtomicBool::new(false),
            lookahead_ps: lookahead.as_ps(),
            spin_limit: if oversubscribed {
                OVERSUBSCRIBED_SPIN_LIMIT
            } else {
                PROVISIONED_SPIN_LIMIT
            },
            idle_spin_limit: if oversubscribed {
                OVERSUBSCRIBED_SPIN_LIMIT
            } else {
                IDLE_SPIN_LIMIT
            },
        });
        let workers: Vec<JoinHandle<()>> = (1..n)
            .map(|i| {
                let ctl = Arc::clone(&ctl);
                std::thread::Builder::new()
                    .name(format!("sonuma-shard-{i}"))
                    .spawn(move || worker_loop(&ctl, i))
                    .expect("spawn shard worker")
            })
            .collect();
        let worker_threads = workers.iter().map(|h| h.thread().clone()).collect();
        ShardedEngine {
            ctl,
            workers,
            worker_threads,
            source_floors: vec![None; n],
            cap: None,
            epochs: 0,
            horizon: SimTime::ZERO,
        }
    }

    /// Number of shards (== executing threads).
    pub fn num_shards(&self) -> usize {
        self.ctl.slots.len()
    }

    /// The lookahead `L` every epoch is bounded by.
    pub fn lookahead(&self) -> SimTime {
        SimTime::from_ps(self.ctl.lookahead_ps)
    }

    /// Epochs executed so far: a pure function of the global event set
    /// and `L` — the same at every shard count.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The boundary every shard has fully executed through after the
    /// last epoch — the caller's commit frontier: staged traffic injected
    /// at or before it is final.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Publishes the earliest staged-but-undelivered external input bound
    /// for shard `shard` (or `None` when its staging is empty). The value
    /// joins the shard's next-event floor when computing every shard's
    /// next horizon: staged traffic is work the shard will do, just not
    /// scheduled yet.
    pub fn set_source_floor(&mut self, shard: usize, floor: Option<SimTime>) {
        self.source_floors[shard] = floor;
    }

    /// Caps every horizon at `cap` (inclusive). Callers use this to stop
    /// epochs at a partition-invariant boundary they align all clocks to;
    /// `None` removes the cap.
    pub fn set_cap(&mut self, cap: Option<SimTime>) {
        self.cap = cap;
    }

    /// Aligns every shard's clock forward to `to` (per-shard no-op when
    /// already past it).
    pub fn align_all(&mut self, to: SimTime) {
        self.for_each_shard(|_, s| s.align_clock(to));
    }

    /// Runs `f` with exclusive access to shard `i`. Must only be called
    /// between epochs (never concurrently with [`ShardedEngine::run_epoch`]),
    /// which the `&mut self` receiver enforces.
    pub fn with_shard<R>(&mut self, i: usize, f: impl FnOnce(&mut S) -> R) -> R {
        let mut guard = self.ctl.slots[i].lock().expect("shard poisoned");
        f(&mut guard)
    }

    /// Runs `f` with read access to shard `i`. Workers only hold a
    /// shard's lock while an epoch is executing, and epochs only execute
    /// inside [`ShardedEngine::run_epoch`], so between epochs this is an
    /// uncontended lock — it exists so `&self` statistics queries don't
    /// need exclusive access to the whole engine.
    pub fn peek_shard<R>(&self, i: usize, f: impl FnOnce(&S) -> R) -> R {
        let guard = self.ctl.slots[i].lock().expect("shard poisoned");
        f(&guard)
    }

    /// Runs `f` over every shard in index order.
    pub fn for_each_shard(&mut self, mut f: impl FnMut(usize, &mut S)) {
        for i in 0..self.ctl.slots.len() {
            let mut guard = self.ctl.slots[i].lock().expect("shard poisoned");
            f(i, &mut guard);
        }
    }

    /// Executes one epoch: gathers per-shard floors (earliest pending
    /// event, merged with the caller-published source floor), runs all
    /// shards in parallel to the horizon the earliest floor implies,
    /// aligns every clock to it, and returns the number of events
    /// executed.
    ///
    /// Returns 0 without running when no shard has a floor. Note that
    /// with source floors set, a return of 0 does *not* mean the system
    /// is drained — staged traffic may still need committing; the machine
    /// layer's quantum loop terminates on "nothing ran, nothing staged,
    /// nothing committed".
    pub fn run_epoch(&mut self) -> u64 {
        let n = self.ctl.slots.len();
        // The earliest floor; all locks are free here. Output a shard
        // staged but the caller has not exchanged yet fences its peers
        // too: the caller publishes it as the shard's source floor.
        let mut min_floor = u64::MAX;
        for i in 0..n {
            let next = self.ctl.slots[i]
                .lock()
                .expect("shard poisoned")
                .next_event_time();
            let floor = match (next, self.source_floors[i]) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            min_floor = min_floor.min(floor.map_or(u64::MAX, SimTime::as_ps));
        }
        if min_floor == u64::MAX {
            return 0;
        }
        let cap_ps = self.cap.map_or(u64::MAX, SimTime::as_ps);
        let h = horizon_ps(min_floor, self.ctl.lookahead_ps).min(cap_ps);
        self.ctl.horizon_ps.store(h, Ordering::Relaxed);
        self.horizon = SimTime::from_ps(h);

        let mut total = 0u64;
        if n == 1 {
            let mut shard = self.ctl.slots[0].lock().expect("shard poisoned");
            total += run_to_horizon(&self.ctl, &mut shard);
        } else {
            let seq = self.ctl.epoch.load(Ordering::Relaxed) + 1;
            // Release the workers (the store publishes the horizon);
            // SeqCst pairs with the park handshake in `worker_loop`.
            self.ctl.epoch.store(seq, Ordering::SeqCst);
            for (w, parked) in self.ctl.parked.iter().enumerate() {
                if parked.load(Ordering::SeqCst) {
                    self.worker_threads[w].unpark();
                }
            }
            // Shard 0 runs on this thread while the workers run theirs.
            {
                let mut shard = self.ctl.slots[0].lock().expect("shard poisoned");
                total += run_to_horizon(&self.ctl, &mut shard);
            }
            for (i, done) in self.ctl.done.iter().enumerate() {
                let mut spins = 0;
                while done.load(Ordering::Acquire) != seq {
                    // Workers only return on shutdown, so one that has
                    // finished mid-epoch unwound and will never acknowledge.
                    if relax(&mut spins, self.ctl.spin_limit) && self.workers[i].is_finished() {
                        panic!("shard worker {} panicked", i + 1);
                    }
                }
                total += self.ctl.ran[i].load(Ordering::Relaxed);
            }
        }
        self.epochs += 1;
        total
    }
}

/// One shard's work for one release: run to the published horizon, then
/// align the clock to it. Shared by the coordinator (shard 0) and the
/// worker loop.
fn run_to_horizon<S: EpochWorld>(ctl: &Control<S>, shard: &mut S) -> u64 {
    let horizon = SimTime::from_ps(ctl.horizon_ps.load(Ordering::Relaxed));
    let ran = shard.run_epoch(horizon);
    shard.align_clock(horizon);
    ran
}

fn worker_loop<S: EpochWorld>(ctl: &Control<S>, index: usize) {
    let worker = index - 1;
    let mut last = 0u64;
    let mut spins = 0u32;
    loop {
        let seq = ctl.epoch.load(Ordering::Acquire);
        if seq == last {
            if ctl.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Idle: spin briefly (the next epoch usually arrives within
            // microseconds), degrade to yielding, then park. The parked
            // flag is raised *before* re-checking `epoch`, and the
            // coordinator stores `epoch` *before* reading the flags (both
            // SeqCst), so either the worker sees the new epoch or the
            // coordinator sees the flag and unparks — a lost wakeup needs
            // both to miss, which the ordering forbids; the timeout is
            // belt-and-braces and bounds shutdown latency.
            spins += 1;
            if spins < ctl.idle_spin_limit {
                std::hint::spin_loop();
            } else if spins < ctl.idle_spin_limit + IDLE_YIELD_LIMIT {
                std::thread::yield_now();
            } else {
                ctl.parked[worker].store(true, Ordering::SeqCst);
                if ctl.epoch.load(Ordering::SeqCst) == last && !ctl.shutdown.load(Ordering::SeqCst)
                {
                    std::thread::park_timeout(IDLE_PARK_TIMEOUT);
                }
                ctl.parked[worker].store(false, Ordering::SeqCst);
            }
            continue;
        }
        spins = 0;
        last = seq;
        let ran = {
            let mut shard = ctl.slots[index].lock().expect("shard poisoned");
            run_to_horizon(ctl, &mut shard)
        };
        ctl.ran[worker].store(ran, Ordering::Relaxed);
        ctl.done[worker].store(seq, Ordering::Release);
    }
}

impl<S: EpochWorld> Drop for ShardedEngine<S> {
    fn drop(&mut self) {
        self.ctl.shutdown.store(true, Ordering::SeqCst);
        for thread in &self.worker_threads {
            thread.unpark();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<S: EpochWorld> std::fmt::Debug for ShardedEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.ctl.slots.len())
            .field("lookahead", &self.lookahead())
            .field("epochs", &self.epochs)
            .field("horizon", &self.horizon)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventEngine, World};

    /// A minimal world: marks fire at their scheduled time and may chain.
    struct Trace {
        id: usize,
        fired: Vec<u64>,
    }

    enum Ev {
        Mark(u64),
        Chain { left: u32, step_ns: u64 },
    }

    impl World for Trace {
        type Event = Ev;
        fn handle(&mut self, engine: &mut EventEngine<Self>, event: Ev) {
            match event {
                Ev::Mark(tag) => self.fired.push(tag),
                Ev::Chain { left, step_ns } => {
                    self.fired.push(engine.now().as_ps());
                    if left > 0 {
                        engine.schedule_in(
                            SimTime::from_ns(step_ns),
                            Ev::Chain {
                                left: left - 1,
                                step_ns,
                            },
                        );
                    }
                }
            }
        }
    }

    struct Slot {
        world: Trace,
        engine: EventEngine<Trace>,
    }

    impl EpochWorld for Slot {
        fn run_epoch(&mut self, horizon: SimTime) -> u64 {
            self.engine.run_until(&mut self.world, horizon)
        }
        fn next_event_time(&mut self) -> Option<SimTime> {
            self.engine.next_time()
        }
        fn align_clock(&mut self, to: SimTime) {
            self.engine.advance_now_to(to);
        }
    }

    fn slot(id: usize) -> Slot {
        Slot {
            world: Trace {
                id,
                fired: Vec::new(),
            },
            engine: EventEngine::new(),
        }
    }

    #[test]
    fn epochs_advance_and_drain() {
        let mut shards: Vec<Slot> = (0..3).map(slot).collect();
        for (i, s) in shards.iter_mut().enumerate() {
            s.engine.schedule_at(
                SimTime::from_ns(10 * (i as u64 + 1)),
                Ev::Chain {
                    left: 4,
                    step_ns: 7,
                },
            );
        }
        let mut engine = ShardedEngine::new(shards, SimTime::from_ns(5));
        let mut total = 0;
        loop {
            let ran = engine.run_epoch();
            if ran == 0 {
                break;
            }
            total += ran;
        }
        assert_eq!(total, 15, "5 chained events per shard");
        engine.for_each_shard(|i, s| {
            assert_eq!(
                s.world.fired.len(),
                5,
                "shard {} fired all events",
                s.world.id
            );
            assert!(s.world.fired.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(i, s.world.id);
        });
    }

    #[test]
    fn epoch_count_is_shard_count_invariant() {
        // The same global event set must produce the same number of
        // epochs whether it lives in 1 shard or 4.
        let run = |nshards: usize| -> (u64, u64) {
            let mut shards: Vec<Slot> = (0..nshards).map(slot).collect();
            for k in 0..16u64 {
                shards[k as usize % nshards]
                    .engine
                    .schedule_at(SimTime::from_ns(3 * k), Ev::Mark(k));
            }
            let mut engine = ShardedEngine::new(shards, SimTime::from_ns(4));
            let mut events = 0;
            loop {
                let ran = engine.run_epoch();
                if ran == 0 {
                    break;
                }
                events += ran;
            }
            (events, engine.epochs())
        };
        let (e1, epochs1) = run(1);
        let (e4, epochs4) = run(4);
        assert_eq!(e1, 16);
        assert_eq!(e1, e4);
        assert_eq!(
            epochs1, epochs4,
            "epoch structure must not depend on sharding"
        );
    }

    #[test]
    fn clocks_align_to_the_horizon() {
        let mut shards: Vec<Slot> = (0..2).map(slot).collect();
        shards[0]
            .engine
            .schedule_at(SimTime::from_ns(100), Ev::Mark(0));
        let mut engine = ShardedEngine::new(shards, SimTime::from_ns(10));
        assert_eq!(engine.run_epoch(), 1);
        let horizon = engine.horizon();
        assert_eq!(horizon, SimTime::from_ps(100_000 + 10_000 - 1));
        // Both shards — including the one that ran nothing — sit exactly
        // on the boundary.
        engine.for_each_shard(|_, s| assert_eq!(s.engine.now(), horizon));
    }

    #[test]
    fn source_floors_constrain_horizons() {
        // Shard 0 has no local events but 50 ns of staged input; shard 1's
        // event sits at 200 ns. Horizons must respect the staged floor.
        let mut shards: Vec<Slot> = (0..2).map(slot).collect();
        shards[1]
            .engine
            .schedule_at(SimTime::from_ns(200), Ev::Mark(0));
        let mut engine = ShardedEngine::new(shards, SimTime::from_ns(10));
        engine.set_source_floor(0, Some(SimTime::from_ns(50)));
        let ran = engine.run_epoch();
        assert_eq!(ran, 0, "nothing executable below the horizon");
        assert_eq!(engine.epochs(), 1);
        // Both horizons: min(50 + 10, 200 + 10) - 1.
        assert_eq!(engine.horizon(), SimTime::from_ps(60_000 - 1));
        engine.for_each_shard(|_, s| assert_eq!(s.engine.now(), SimTime::from_ps(60_000 - 1)));
        // Clearing the floor lets the 200 ns event bound the next epoch.
        engine.set_source_floor(0, None);
        assert_eq!(engine.run_epoch(), 1);
        assert_eq!(engine.horizon(), SimTime::from_ps(210_000 - 1));
    }

    #[test]
    fn cap_bounds_every_horizon() {
        let mut shards: Vec<Slot> = (0..2).map(slot).collect();
        shards[0].engine.schedule_at(SimTime::ZERO, Ev::Mark(0));
        let mut engine = ShardedEngine::new(shards, SimTime::from_ns(100));
        engine.set_cap(Some(SimTime::from_ns(30)));
        assert_eq!(engine.run_epoch(), 1);
        assert_eq!(engine.horizon(), SimTime::from_ns(30));
        engine.for_each_shard(|_, s| assert_eq!(s.engine.now(), SimTime::from_ns(30)));
        engine.set_cap(None);
        engine.align_all(SimTime::from_ns(40));
        engine.for_each_shard(|_, s| assert_eq!(s.engine.now(), SimTime::from_ns(40)));
    }

    #[test]
    fn parked_workers_wake_for_the_next_epoch() {
        // Long enough between epochs that workers walk the whole idle
        // ladder (spin, yield, park); the next epoch must still run.
        let mut shards: Vec<Slot> = (0..3).map(slot).collect();
        for s in shards.iter_mut() {
            s.engine.schedule_at(SimTime::from_ns(1), Ev::Mark(0));
            s.engine.schedule_at(SimTime::from_ns(500), Ev::Mark(1));
        }
        let mut engine = ShardedEngine::new(shards, SimTime::from_ns(4));
        assert_eq!(engine.run_epoch(), 3);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(engine.run_epoch(), 3, "parked workers must wake and run");
        engine.for_each_shard(|_, s| assert_eq!(s.world.fired.len(), 2));
    }

    #[test]
    fn oversubscribed_run_terminates_promptly() {
        // 16 shards on any host CI offers is oversubscribed; the adaptive
        // spin thresholds must keep the run from burning its wall budget
        // busy-waiting. Generous bound — the pre-adaptive ladder could
        // spin for minutes on a 1-core host.
        let start = std::time::Instant::now();
        let mut shards: Vec<Slot> = (0..16).map(slot).collect();
        for (i, s) in shards.iter_mut().enumerate() {
            s.engine.schedule_at(
                SimTime::from_ns(10 * (i as u64 + 1)),
                Ev::Chain {
                    left: 19,
                    step_ns: 13,
                },
            );
        }
        let mut engine = ShardedEngine::new(shards, SimTime::from_ns(5));
        let mut total = 0;
        loop {
            let ran = engine.run_epoch();
            if ran == 0 {
                break;
            }
            total += ran;
        }
        assert_eq!(total, 16 * 20);
        engine.for_each_shard(|_, s| assert_eq!(s.world.fired.len(), 20));
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "oversubscribed run took {:?}",
            start.elapsed()
        );
    }

    /// A shard whose epoch panics when asked to.
    struct Faulty(bool);

    impl EpochWorld for Faulty {
        fn run_epoch(&mut self, _horizon: SimTime) -> u64 {
            assert!(!self.0, "handler bug");
            0
        }
        fn next_event_time(&mut self) -> Option<SimTime> {
            Some(SimTime::ZERO)
        }
        fn align_clock(&mut self, _to: SimTime) {}
    }

    #[test]
    #[should_panic(expected = "shard worker 1 panicked")]
    fn worker_panic_fails_the_epoch_instead_of_hanging() {
        // The second shard unwinds on its pool thread and never
        // acknowledges; the coordinator must notice and fail, and the
        // engine's `Drop` (run by this unwind) must still join cleanly.
        let mut engine = ShardedEngine::new(vec![Faulty(false), Faulty(true)], SimTime::from_ns(1));
        engine.run_epoch();
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_panics() {
        let _ = ShardedEngine::new(vec![slot(0)], SimTime::ZERO);
    }
}
