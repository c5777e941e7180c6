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
//! `ShardedCluster` for the fabric merge that does this, and for how it
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
//!
//! # Speculative run-ahead
//!
//! With [`ShardedEngine::set_speculation`] set to `K > 0`, one release
//! of the workers executes up to `K` additional epoch *levels* without
//! re-synchronizing. After each level a shard publishes its new floor
//! (atomically, with release ordering); peers compute their next level's
//! horizon from whatever published floors they observe. This is safe
//! without any rollback because floors are monotone within a region: no
//! cross-shard traffic is applied between levels, so a shard's earliest
//! pending work — its next event, merged with the staged output it has
//! produced ([`EpochWorld::pending_floor`]) and the frozen staging floor —
//! can only move later. A stale floor is therefore always a *lower* bound,
//! and a horizon computed from stale floors is conservative.
//!
//! The genuinely optimistic part is clock-only: when a shard runs out of
//! provably safe horizon, it checkpoints its frontier
//! ([`EpochWorld::snapshot`]) and advances its clock to a *predicted*
//! horizon — betting that slower peers will publish the floors their
//! current level implies. At the barrier the coordinator re-derives the
//! horizon from the now-exact floors and validates each speculated clock
//! against it: within the certified bound the speculation commits (the
//! next region starts from the advanced clock); past it the shard is
//! rolled back ([`EpochWorld::restore`]). Because speculation never
//! *executes* an event — only the clock moves — rollback cannot leak
//! simulated state, and the executed event set and per-shard order are
//! identical to the conservative engine for every `K`. Only the epoch
//! count and the commit/rollback tallies
//! ([`ShardedEngine::speculation`]) depend on host timing.

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

    /// The earliest pending work of the shard: its earliest pending local
    /// event, merged with the earliest staged-but-unapplied cross-shard
    /// output it has produced. During a speculative region the caller's
    /// exchange step does not run between levels, so output a level
    /// staged is work peers must still be fenced from — it joins the
    /// floor. The default covers worlds that stage nothing.
    fn pending_floor(&mut self) -> Option<SimTime> {
        self.next_event_time()
    }

    /// Checkpoints the shard's speculation-mutable frontier — at minimum
    /// its clock. The engine snapshots at most once per epoch, always
    /// after the shard's last event of that epoch has executed, and never
    /// executes an event past a live snapshot, so implementations only
    /// need to save what [`EpochWorld::align_clock`] moves.
    fn snapshot(&mut self);

    /// Rolls the frontier back to the last [`EpochWorld::snapshot`] —
    /// the engine calls this when barrier-time validation refutes a
    /// speculated clock. No events have executed since the snapshot, so
    /// restoring the clock restores the whole observable frontier.
    fn restore(&mut self);
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
/// stealing cycles from the very shard it waits for.
#[inline]
fn relax(spins: &mut u32, spin_limit: u32) {
    *spins += 1;
    if *spins < spin_limit {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
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
    /// Speculative run-ahead depth `K` (0 = conservative only).
    spec_k: AtomicU64,
    /// The coordinator's horizon cap for the current region, in ps
    /// (`u64::MAX` = uncapped).
    cap_ps: AtomicU64,
    /// Frozen per-shard staging floors of the current region, in ps
    /// (`u64::MAX` = none). Staging only changes in the caller's exchange
    /// step, which never runs mid-region, so the freeze is exact.
    src_floor_ps: Vec<AtomicU64>,
    /// Per-shard published floors: monotone within a region, refreshed by
    /// each shard after every level it completes.
    pub_floor_ps: Vec<AtomicU64>,
    /// Per-shard last *safe* (non-speculative) horizon reached in the
    /// current region — peers predict from it, and the lowest of the
    /// final values is what the region certainly executed through.
    pub_exec_ps: Vec<AtomicU64>,
    /// Per-shard speculated clock (`u64::MAX` = the shard did not
    /// speculate this region), validated by the coordinator at the
    /// barrier.
    spec_clock_ps: Vec<AtomicU64>,
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
    /// Speculative run-ahead depth `K` (0 = conservative only).
    spec_k: u32,
    /// Speculated clocks that validated at the barrier.
    spec_committed: u64,
    /// Speculated clocks refuted at the barrier and rolled back.
    spec_rolled_back: u64,
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
            spec_k: AtomicU64::new(0),
            cap_ps: AtomicU64::new(u64::MAX),
            src_floor_ps: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            pub_floor_ps: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            pub_exec_ps: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            spec_clock_ps: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
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
            spec_k: 0,
            spec_committed: 0,
            spec_rolled_back: 0,
        }
    }

    /// Sets the speculative run-ahead depth: each call to
    /// [`ShardedEngine::run_epoch`] may execute up to `k` additional
    /// epoch levels per shard without re-synchronizing, plus one
    /// clock-only speculation validated at the barrier (see the module
    /// docs). `0` restores pure conservative execution. Results are
    /// byte-identical for every `k`; only wall-clock behavior and the
    /// [`ShardedEngine::speculation`] tallies change.
    pub fn set_speculation(&mut self, k: u32) {
        self.spec_k = k;
        self.ctl.spec_k.store(u64::from(k), Ordering::Relaxed);
    }

    /// The configured speculative run-ahead depth `K`.
    pub fn speculation_depth(&self) -> u32 {
        self.spec_k
    }

    /// `(committed, rolled_back)` clock speculations so far. Depends on
    /// host scheduling (a slow peer means stale floors, means bolder
    /// bets), so it is reporting metadata, never part of the simulated
    /// result.
    pub fn speculation(&self) -> (u64, u64) {
        (self.spec_committed, self.spec_rolled_back)
    }

    /// Number of shards (== executing threads).
    pub fn num_shards(&self) -> usize {
        self.ctl.slots.len()
    }

    /// The lookahead `L` every epoch is bounded by.
    pub fn lookahead(&self) -> SimTime {
        SimTime::from_ps(self.ctl.lookahead_ps)
    }

    /// Epochs executed so far. At speculation depth 0 this is a pure
    /// function of the global event set and `L` — the same at every shard
    /// count.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The boundary every shard has fully executed through after the
    /// last epoch — the caller's commit frontier: staged traffic injected
    /// at or before it is final. Without speculation it is the epoch's
    /// one horizon; a speculative region reports the lowest safe level
    /// any shard reached.
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
        let spec = self.spec_k > 0;
        // The earliest floor; all locks are free here. `pending_floor`
        // rather than `next_event_time`: any output a shard staged but
        // the caller has not exchanged yet fences its peers too.
        let mut min_floor = u64::MAX;
        for i in 0..n {
            let next = self.ctl.slots[i]
                .lock()
                .expect("shard poisoned")
                .pending_floor();
            let floor = match (next, self.source_floors[i]) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let floor = floor.map_or(u64::MAX, SimTime::as_ps);
            min_floor = min_floor.min(floor);
            if spec {
                // A region starts from the exact per-shard floors.
                self.ctl.pub_floor_ps[i].store(floor, Ordering::Relaxed);
            }
        }
        if min_floor == u64::MAX {
            return 0;
        }
        let cap_ps = self.cap.map_or(u64::MAX, SimTime::as_ps);
        let h = horizon_ps(min_floor, self.ctl.lookahead_ps).min(cap_ps);
        self.ctl.horizon_ps.store(h, Ordering::Relaxed);
        self.horizon = SimTime::from_ps(h);
        if spec {
            // Seed the rest of the region: the frozen staging floors, the
            // cap, and cleared speculation slots. The epoch release below
            // publishes these to the workers.
            self.ctl.cap_ps.store(cap_ps, Ordering::Relaxed);
            for i in 0..n {
                let src = self.source_floors[i].map_or(u64::MAX, SimTime::as_ps);
                self.ctl.src_floor_ps[i].store(src, Ordering::Relaxed);
                self.ctl.pub_exec_ps[i].store(h, Ordering::Relaxed);
                self.ctl.spec_clock_ps[i].store(u64::MAX, Ordering::Relaxed);
            }
        }

        let mut total = 0u64;
        if n == 1 {
            let mut shard = self.ctl.slots[0].lock().expect("shard poisoned");
            total += run_region(&self.ctl, 0, &mut shard);
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
                total += run_region(&self.ctl, 0, &mut shard);
            }
            for (i, done) in self.ctl.done.iter().enumerate() {
                let mut spins = 0;
                while done.load(Ordering::Acquire) != seq {
                    relax(&mut spins, self.ctl.spin_limit);
                }
                total += self.ctl.ran[i].load(Ordering::Relaxed);
            }
        }
        if spec {
            self.settle_region();
        }
        self.epochs += 1;
        total
    }

    /// Barrier-time settlement of a speculative region: adopt the lowest
    /// safe horizon any shard actually reached, then validate each
    /// speculated clock against the horizon the now-exact floors certify,
    /// rolling back only the shards whose bet failed.
    fn settle_region(&mut self) {
        // Post-region values are exact: every shard published after its
        // last level, and the barrier ordered those stores before our
        // loads.
        let min_of = |slots: &[AtomicU64]| {
            slots
                .iter()
                .map(|a| a.load(Ordering::Acquire))
                .min()
                .expect("nonempty shards")
        };
        self.horizon = SimTime::from_ps(min_of(&self.ctl.pub_exec_ps));
        let cap_ps = self.cap.map_or(u64::MAX, SimTime::as_ps);
        let certified =
            horizon_ps(min_of(&self.ctl.pub_floor_ps), self.ctl.lookahead_ps).min(cap_ps);
        for (d, clock) in self.ctl.spec_clock_ps.iter().enumerate() {
            let clock = clock.load(Ordering::Acquire);
            if clock == u64::MAX {
                continue;
            }
            if clock <= certified {
                self.spec_committed += 1;
            } else {
                self.ctl.slots[d].lock().expect("shard poisoned").restore();
                self.spec_rolled_back += 1;
            }
        }
    }
}

/// Horizon a shard may advance to given the currently *published*
/// floors — conservative because published floors are monotone lower
/// bounds within a region. With `predicted`, each peer's floor is bumped
/// to what finishing its current level would imply (one past its last
/// safe horizon, never past its frozen staging floor): the optimistic
/// bet the barrier validates.
fn region_horizon<S>(ctl: &Control<S>, predicted: bool) -> u64 {
    let mut min_floor = u64::MAX;
    for s in 0..ctl.slots.len() {
        let mut f = ctl.pub_floor_ps[s].load(Ordering::Acquire);
        if predicted && f != u64::MAX {
            let exec = ctl.pub_exec_ps[s].load(Ordering::Acquire);
            let src = ctl.src_floor_ps[s].load(Ordering::Relaxed);
            f = f.max(exec.saturating_add(1).min(src));
        }
        min_floor = min_floor.min(f);
    }
    horizon_ps(min_floor, ctl.lookahead_ps).min(ctl.cap_ps.load(Ordering::Relaxed))
}

/// Publishes shard `index`'s floor (pending work merged with the frozen
/// staging floor) and the safe horizon it just reached.
fn publish_progress<S: EpochWorld>(ctl: &Control<S>, index: usize, shard: &mut S, exec_ps: u64) {
    let src = ctl.src_floor_ps[index].load(Ordering::Relaxed);
    let floor = shard
        .pending_floor()
        .map_or(u64::MAX, SimTime::as_ps)
        .min(src);
    ctl.pub_floor_ps[index].store(floor, Ordering::Release);
    ctl.pub_exec_ps[index].store(exec_ps, Ordering::Release);
}

/// One shard's work for one release: the conservative level-0 epoch,
/// then (with speculation enabled) up to `K` further levels against
/// peers' published floors, then at most one clock-only speculation.
/// Shared by the coordinator (shard 0) and the worker loop.
fn run_region<S: EpochWorld>(ctl: &Control<S>, index: usize, shard: &mut S) -> u64 {
    let mut h = ctl.horizon_ps.load(Ordering::Relaxed);
    let mut ran = shard.run_epoch(SimTime::from_ps(h));
    shard.align_clock(SimTime::from_ps(h));
    let k = ctl.spec_k.load(Ordering::Relaxed);
    if k == 0 {
        return ran;
    }
    publish_progress(ctl, index, shard, h);
    for _ in 0..k {
        let next = region_horizon(ctl, false);
        if next == u64::MAX || next <= h {
            break;
        }
        h = next;
        ran += shard.run_epoch(SimTime::from_ps(h));
        shard.align_clock(SimTime::from_ps(h));
        publish_progress(ctl, index, shard, h);
    }
    // Out of provable horizon: bet the clock (never an event) on peers
    // completing their current level. Capped below the next pending
    // event so a refuted bet needs only a clock rewind to undo.
    let predicted = region_horizon(ctl, true);
    let event_cap = shard
        .next_event_time()
        .map_or(u64::MAX, |t| t.as_ps().saturating_sub(1));
    let predicted = predicted.min(event_cap);
    if predicted != u64::MAX && predicted > h {
        shard.snapshot();
        shard.align_clock(SimTime::from_ps(predicted));
        ctl.spec_clock_ps[index].store(predicted, Ordering::Release);
    }
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
            run_region(ctl, index, &mut shard)
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
        saved: Option<(SimTime, u64)>,
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
        fn snapshot(&mut self) {
            self.saved = Some((self.engine.now(), self.engine.events_executed()));
        }
        fn restore(&mut self) {
            let (now, executed) = self.saved.take().expect("restore without snapshot");
            assert_eq!(
                executed,
                self.engine.events_executed(),
                "clock-only speculation must not have executed events"
            );
            self.engine.rewind_now_to(now);
        }
    }

    fn slot(id: usize) -> Slot {
        Slot {
            world: Trace {
                id,
                fired: Vec::new(),
            },
            engine: EventEngine::new(),
            saved: None,
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

    /// Drives chained events through an engine at speculation depth `k`
    /// and returns (fired traces per shard, total events, epochs).
    fn drive_chains(nshards: usize, k: u32) -> (Vec<Vec<u64>>, u64, u64) {
        let mut shards: Vec<Slot> = (0..nshards).map(slot).collect();
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
        engine.set_speculation(k);
        let mut total = 0;
        loop {
            let ran = engine.run_epoch();
            if ran == 0 {
                break;
            }
            total += ran;
        }
        let mut fired = Vec::new();
        engine.for_each_shard(|_, s| fired.push(s.world.fired.clone()));
        (fired, total, engine.epochs())
    }

    #[test]
    fn speculation_is_observationally_invisible() {
        // Every K must fire the same events in the same per-shard order
        // as the conservative engine; only epoch batching may differ.
        let (fired0, total0, _) = drive_chains(3, 0);
        assert_eq!(total0, 60);
        for k in 1..=4 {
            let (fired, total, _) = drive_chains(3, k);
            assert_eq!(total, total0, "K={k} executed a different event count");
            assert_eq!(fired, fired0, "K={k} changed the event order");
        }
    }

    #[test]
    fn speculative_levels_cut_barrier_count() {
        // A single shard chains its own floor level to level, so every
        // region covers K + 1 conservative epochs' worth of horizon:
        // strictly fewer barriers for the same work.
        let (_, total0, epochs0) = drive_chains(1, 0);
        let (_, total3, epochs3) = drive_chains(1, 3);
        assert_eq!(total0, total3);
        assert!(
            epochs3 < epochs0,
            "K=3 regions must batch epochs ({epochs3} vs {epochs0})"
        );
    }

    #[test]
    fn single_shard_clock_speculation_commits() {
        // One shard, events spaced far beyond the lookahead: after the
        // safe levels drain, the engine bets the clock up to just below
        // the next event. With exact self-floors the bet always
        // validates — commits accrue, rollbacks never.
        let mut shards = vec![slot(0)];
        shards[0].engine.schedule_at(
            SimTime::ZERO,
            Ev::Chain {
                left: 9,
                step_ns: 1000,
            },
        );
        let mut engine = ShardedEngine::new(shards, SimTime::from_ns(10));
        engine.set_speculation(1);
        while engine.run_epoch() > 0 {}
        let (committed, rolled_back) = engine.speculation();
        assert!(committed > 0, "clock speculation never validated");
        assert_eq!(rolled_back, 0, "exact self-floors cannot be refuted");
        engine.for_each_shard(|_, s| assert_eq!(s.world.fired.len(), 10));
    }

    #[test]
    fn oversubscribed_run_terminates_promptly() {
        // 16 shards on any host CI offers is oversubscribed; the adaptive
        // spin thresholds must keep the run from burning its wall budget
        // busy-waiting. Generous bound — the pre-adaptive ladder could
        // spin for minutes on a 1-core host.
        let start = std::time::Instant::now();
        let (fired, total, _) = drive_chains(16, 2);
        assert_eq!(total, 16 * 20);
        assert!(fired.iter().all(|f| f.len() == 20));
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "oversubscribed run took {:?}",
            start.elapsed()
        );
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_panics() {
        let _ = ShardedEngine::new(vec![slot(0)], SimTime::ZERO);
    }
}
