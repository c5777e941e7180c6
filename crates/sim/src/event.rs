//! The typed, arena-backed event engine.
//!
//! [`EventEngine`] is the allocation-free successor of the boxed-closure
//! [`crate::Engine`]: instead of heap-allocating a `Box<dyn FnOnce>` per
//! event, the world declares a plain `enum` of everything that can happen
//! ([`World::Event`]) and dispatches it in [`World::handle`]. Events are
//! stored *by value* in a slab arena (a `Vec` plus a free list, so slots
//! recycle and the steady-state hot path never touches the allocator) and
//! ordered by a calendar queue:
//!
//! * time is divided into fixed-width *days* (a power-of-two number of
//!   picoseconds); day `d` hashes to bucket `d mod nbuckets`;
//! * each bucket keeps its 16-byte `(time, seq·slot)` keys sorted
//!   descending, so the bucket minimum pops from the tail in O(1);
//! * extracting the global minimum scans forward day by day from the last
//!   pop — amortized O(1) when occupancy is near one event per day — and
//!   falls back to a direct min scan after one empty round trip;
//! * the queue resizes (and re-estimates the day width from the observed
//!   event spread) when occupancy drifts, keeping both insert and pop
//!   cheap across workloads from hundreds to millions of pending events.
//!
//! Ordering is exact, not approximate: pops come out in `(time, seq)`
//! order, where `seq` is the schedule order, so runs are bit-reproducible
//! exactly like the closure engine's.
//!
//! # Lane windows
//!
//! [`EventEngine::run_until`] executes a window in global `(time, seq)`
//! order. When the world is a set of *lanes* (the machine's nodes) whose
//! events only ever schedule into their own lane,
//! [`EventEngine::run_until_by_lane`] executes the same window lane by
//! lane instead: it drains every key at or below the horizon from the
//! calendar queue, sorts the batch by `(lane, time, seq)` and runs each
//! lane's events back to back, so a lane's state is touched once per
//! window instead of once per event. Events a handler schedules at or
//! below the horizon never enter the calendar queue; they go to a small
//! window-local min-heap that is merged into the running lane by
//! `(time, seq)`. Each lane sees exactly the `(time, seq)`-ordered event
//! sequence it would see under `run_until` — schedule sequence numbers
//! differ in absolute value but not in their order *within a lane*, which
//! is all a tie-break compares — so a world whose lanes share no state
//! ends the window in the same state either way.
//!
//! # Example
//!
//! ```
//! use sonuma_sim::{EventEngine, SimTime, World};
//!
//! struct Clock { ticks: u32 }
//! enum Ev { Tick, Stop }
//!
//! impl World for Clock {
//!     type Event = Ev;
//!     fn handle(&mut self, engine: &mut EventEngine<Self>, event: Ev) {
//!         match event {
//!             Ev::Tick => {
//!                 self.ticks += 1;
//!                 engine.schedule_in(SimTime::from_ns(10), Ev::Tick);
//!             }
//!             Ev::Stop => engine.clear(),
//!         }
//!     }
//! }
//!
//! let mut engine = EventEngine::new();
//! let mut clock = Clock { ticks: 0 };
//! engine.schedule_at(SimTime::ZERO, Ev::Tick);
//! engine.schedule_at(SimTime::from_ns(35), Ev::Stop);
//! engine.run(&mut clock);
//! assert_eq!(clock.ticks, 4); // t = 0, 10, 20, 30
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A simulation world driven by an [`EventEngine`].
///
/// `Event` is the closed set of things that can happen to this world —
/// typically a plain `enum` carrying only ids and small payloads, so that
/// scheduling never allocates. [`World::handle`] receives the engine
/// mutably and may schedule follow-up events.
pub trait World: Sized {
    /// The typed event this world responds to.
    type Event;

    /// Applies one event at the engine's current time.
    fn handle(&mut self, engine: &mut EventEngine<Self>, event: Self::Event);
}

/// Queue key: `(time in ps, meta)` where `meta` packs the schedule
/// sequence (high 40 bits) above the arena slot (low 24 bits). Sequence
/// occupies the high bits, so ordering by `(time, meta)` equals ordering
/// by `(time, seq)` — and the whole key is 16 bytes, four to a cache
/// line.
type Key = (u64, u64);

/// Bits of the key's meta word reserved for the arena slot.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Initial/minimum bucket count (power of two).
const MIN_BUCKETS: usize = 16;

/// Initial day width: 2^10 ps ≈ 1 ns, one core-cycle-ish.
const INITIAL_SHIFT: u32 = 10;

/// Day-width bounds at re-estimation: 64 ps .. ~17.6 µs.
const MIN_SHIFT: u32 = 6;
const MAX_SHIFT: u32 = 44;

/// A calendar queue over [`Key`]s (Brown's multi-list priority queue).
#[derive(Debug)]
struct CalendarQueue {
    /// Each bucket is sorted descending by `(time, seq)`: its minimum is
    /// the tail, poppable in O(1).
    buckets: Vec<Vec<Key>>,
    /// Day width is `1 << shift` picoseconds.
    shift: u32,
    /// Bucket the day scan is currently parked on.
    cur: usize,
    /// Exclusive upper time bound of the day under scan, in ps. `u128`
    /// so the scan can never overflow near `SimTime::MAX`.
    day_end: u128,
    /// Total keys stored.
    len: usize,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            shift: INITIAL_SHIFT,
            cur: 0,
            day_end: 1u128 << INITIAL_SHIFT,
            len: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, t: u64) -> usize {
        ((t >> self.shift) as usize) & (self.buckets.len() - 1)
    }

    /// Inserts without occupancy checks (shared by `insert` and `rebuild`).
    fn push_key(&mut self, key: Key) {
        let idx = self.bucket_of(key.0);
        let bucket = &mut self.buckets[idx];
        let pos = bucket.partition_point(|&k| k > key);
        bucket.insert(pos, key);
        self.len += 1;
        // If the key lands in a day the scan has already passed, rewind the
        // cursor so it is found before anything later.
        let width = 1u128 << self.shift;
        if (key.0 as u128) < self.day_end - width {
            self.cur = idx;
            self.day_end = (((key.0 >> self.shift) as u128) + 1) << self.shift;
        }
    }

    fn insert(&mut self, key: Key) {
        self.push_key(key);
        if self.len > self.buckets.len() * 8 {
            self.rebuild(self.buckets.len() * 4);
        }
    }

    /// Positions the day cursor on the bucket whose tail is the global
    /// minimum and returns that bucket's index.
    fn locate_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let width = 1u128 << self.shift;
        // Scan forward a bounded number of days; a long fruitless scan
        // means the queue went sparse relative to the day width, and one
        // direct min sweep is cheaper than walking empty days.
        let scan_limit = self.buckets.len().min(64);
        for _ in 0..scan_limit {
            if let Some(&(t, _)) = self.buckets[self.cur].last() {
                if (t as u128) < self.day_end {
                    return Some(self.cur);
                }
            }
            self.cur = (self.cur + 1) & (self.buckets.len() - 1);
            self.day_end += width;
        }
        // Jump straight to the minimum. (Same-time keys share a bucket, so
        // comparing tails by (time, seq) identifies the unique minimum.)
        let (idx, t) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.last().map(|&(t, m)| (i, t, m)))
            .min_by_key(|&(_, t, s)| (t, s))
            .map(|(i, t, _)| (i, t))
            .expect("len > 0 but no bucket tail");
        self.cur = idx;
        self.day_end = (((t >> self.shift) as u128) + 1) << self.shift;
        Some(idx)
    }

    /// Pops the earliest key if its time is `<= horizon`.
    fn pop_min_through(&mut self, horizon: u64) -> Option<Key> {
        let idx = self.locate_min()?;
        let &(t, _) = self.buckets[idx].last().expect("located bucket tail");
        if t > horizon {
            return None;
        }
        let key = self.buckets[idx].pop().expect("located bucket tail");
        self.len -= 1;
        if self.buckets.len() > MIN_BUCKETS && self.len * 32 < self.buckets.len() {
            self.rebuild((self.buckets.len() / 4).max(MIN_BUCKETS));
        }
        Some(key)
    }

    /// Re-buckets every key into `nbuckets` buckets, re-estimating the day
    /// width from the observed spread so occupancy stays near a few keys
    /// per bucket-day. Inner bucket `Vec`s are reused across rebuilds so
    /// repeated grows/shrinks do not churn the allocator.
    fn rebuild(&mut self, nbuckets: usize) {
        let nbuckets = nbuckets.next_power_of_two().max(MIN_BUCKETS);
        let mut keys: Vec<Key> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            keys.append(b);
        }
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &(t, _) in &keys {
            lo = lo.min(t);
            hi = hi.max(t);
        }
        if !keys.is_empty() {
            let spacing = ((hi - lo) / keys.len() as u64).max(1);
            self.shift = (63 - spacing.leading_zeros()).clamp(MIN_SHIFT, MAX_SHIFT);
        }
        // Emptied inner vecs keep their capacity: truncate on shrink,
        // extend with fresh (lazily allocated) vecs on grow.
        if nbuckets < self.buckets.len() {
            self.buckets.truncate(nbuckets);
        } else {
            self.buckets.resize_with(nbuckets, Vec::new);
        }
        self.len = 0;
        // Park the cursor on the earliest key's day (or day zero if empty);
        // push_key's rewind keeps it correct as keys go back in.
        if lo == u64::MAX {
            self.cur = 0;
            self.day_end = 1u128 << self.shift;
        } else {
            self.cur = self.bucket_of(lo);
            self.day_end = (((lo >> self.shift) as u128) + 1) << self.shift;
        }
        for key in keys {
            self.push_key(key);
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.cur = 0;
        self.day_end = 1u128 << self.shift;
    }
}

/// A deterministic discrete-event engine dispatching typed events.
///
/// `W` is the caller-owned world implementing [`World`]. Events are stored
/// by value in an internal arena; the scheduling hot path performs no heap
/// allocation once the arena and queue have warmed up. Events at equal
/// timestamps run in the order they were scheduled, making runs
/// bit-reproducible.
///
/// The driving API (`schedule_at`/`schedule_in`/`run`/`run_until`/
/// `run_steps`/`now`/`events_executed`/`pending`) matches the legacy
/// boxed-closure [`crate::Engine`] so worlds migrate by swapping closures
/// for event variants.
pub struct EventEngine<W: World> {
    arena: Vec<Option<W::Event>>,
    free: Vec<u32>,
    queue: CalendarQueue,
    now: SimTime,
    next_seq: u64,
    executed: u64,
    /// Horizon (ps) of the lane window in progress; `None` outside
    /// [`EventEngine::run_until_by_lane`].
    window: Option<u64>,
    /// The window's drained keys in pop — `(time, seq)` — order. Empty
    /// outside a lane window; the buffer is reused across windows.
    drained: Vec<Key>,
    /// The window's execution order: `lane << 32 | index into drained`
    /// for every drained key not yet executed, sorted descending so the
    /// next event to run pops from the tail.
    order: Vec<u64>,
    /// Window-local events: scheduled by a handler of the running lane at
    /// or below the window's horizon. Min-heap by `(time, seq)`; empty
    /// outside a lane window and between lanes.
    local: BinaryHeap<Reverse<Key>>,
}

impl<W: World> Default for EventEngine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: World> EventEngine<W> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        EventEngine {
            arena: Vec::new(),
            free: Vec::new(),
            queue: CalendarQueue::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            executed: 0,
            window: None,
            drained: Vec::new(),
            order: Vec::new(),
            local: BinaryHeap::new(),
        }
    }

    /// The current simulated time (the timestamp of the event being, or
    /// last, executed).
    ///
    /// Monotone under `run`/`run_until`/`run_steps`. Inside
    /// [`EventEngine::run_until_by_lane`] it is monotone *per lane*, not
    /// per engine: it steps back when the window moves on to the next
    /// lane (never below its value at window entry), and settles on the
    /// latest executed timestamp when the window returns.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending. Called from a handler inside
    /// a lane window, this includes the window's not-yet-executed events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len + self.order.len() + self.local.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: the simulation
    /// cannot travel backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        assert!(
            seq < 1 << (64 - SLOT_BITS),
            "schedule sequence space exhausted"
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.arena[slot as usize] = Some(event);
                slot
            }
            None => {
                assert!(
                    (self.arena.len() as u64) < SLOT_MASK,
                    "event arena full ({} pending events)",
                    self.arena.len()
                );
                self.arena.push(Some(event));
                (self.arena.len() - 1) as u32
            }
        };
        let key = (at.as_ps(), (seq << SLOT_BITS) | slot as u64);
        if self.window.is_some_and(|horizon| key.0 <= horizon) {
            self.local.push(Reverse(key));
        } else {
            self.queue.insert(key);
        }
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: W::Event) {
        self.schedule_at(self.now + delay, event);
    }

    /// Timestamp of the earliest pending event, without popping it.
    ///
    /// Takes `&mut self` because locating the minimum advances the
    /// calendar queue's day cursor (the queue itself is untouched). Not
    /// meaningful from a handler inside a lane window, whose remaining
    /// events are held outside the queue.
    pub fn next_time(&mut self) -> Option<SimTime> {
        let idx = self.queue.locate_min()?;
        self.queue.buckets[idx]
            .last()
            .map(|&(t, _)| SimTime::from_ps(t))
    }

    /// Moves the clock forward to `to` without executing anything — the
    /// epoch-boundary alignment of the sharded engine, and the idle-clock
    /// jump of open-loop drivers. A no-op if the clock is already at or
    /// past `to`.
    ///
    /// Callers must not advance past a pending event: that event would
    /// later execute "in the past". Debug builds assert this.
    pub fn advance_now_to(&mut self, to: SimTime) {
        debug_assert!(
            self.next_time().is_none_or(|next| next >= to),
            "advance_now_to({to}) would skip a pending event"
        );
        if to > self.now {
            self.now = to;
        }
    }

    /// Moves the clock *backward* to `to` without touching the queue —
    /// the inverse of [`EventEngine::advance_now_to`], used to undo a
    /// refuted clock-only speculation (`sonuma-sim`'s sharded engine).
    /// Only sound when no event has executed since the clock last stood
    /// at `to`: the caller checkpoints `events_executed` alongside the
    /// clock and asserts it unchanged before rewinding.
    pub fn rewind_now_to(&mut self, to: SimTime) {
        debug_assert!(
            to <= self.now,
            "rewind_now_to({to}) would move the clock forward"
        );
        self.now = to;
    }

    /// Drops every pending event (terminate a simulation early),
    /// including — when called from a handler inside a lane window — the
    /// rest of the window.
    pub fn clear(&mut self) {
        self.queue.clear();
        self.order.clear();
        self.local.clear();
        self.arena.clear();
        self.free.clear();
    }

    /// Runs events until the queue is empty.
    pub fn run(&mut self, world: &mut W) {
        self.run_until(world, SimTime::MAX);
    }

    /// Runs events with timestamps `<= horizon`; later events stay queued.
    ///
    /// Returns the number of events executed by this call. After returning,
    /// [`EventEngine::now`] is the timestamp of the last executed event (or
    /// unchanged if none ran); it never jumps to `horizon`.
    pub fn run_until(&mut self, world: &mut W, horizon: SimTime) -> u64 {
        let mut ran = 0;
        while let Some(event) = self.pop_through(horizon) {
            ran += 1;
            world.handle(self, event);
        }
        ran
    }

    /// Runs at most `max_events` events; used to bound runaway simulations.
    ///
    /// Returns the number of events executed.
    pub fn run_steps(&mut self, world: &mut W, max_events: u64) -> u64 {
        let mut ran = 0;
        while ran < max_events {
            match self.pop_through(SimTime::MAX) {
                Some(event) => {
                    ran += 1;
                    world.handle(self, event);
                }
                None => break,
            }
        }
        ran
    }

    /// Runs events with timestamps `<= horizon` *lane by lane* instead of
    /// in global time order: every event of the lowest lane in
    /// `(time, seq)` order, then every event of the next lane, and so on
    /// (see the module docs). `lane` names the lane an event belongs to.
    ///
    /// The caller promises that a handler only schedules events into the
    /// lane of the event it is handling, and that lanes share no state
    /// the handlers read; debug builds assert the first half on every
    /// executed event. Under that promise the per-lane executed
    /// sequences, the return value, [`EventEngine::events_executed`], the
    /// final [`EventEngine::now`] and the events left pending all equal
    /// those of [`EventEngine::run_until`].
    pub fn run_until_by_lane(
        &mut self,
        world: &mut W,
        horizon: SimTime,
        lane: impl Fn(&W::Event) -> u32,
    ) -> u64 {
        debug_assert!(self.window.is_none(), "lane windows do not nest");
        let horizon = horizon.as_ps();
        while let Some(key) = self.queue.pop_min_through(horizon) {
            let event = self.arena[(key.1 & SLOT_MASK) as usize]
                .as_ref()
                .expect("queued slot holds an event");
            // Pops arrive in `(time, seq)` order, so a key's index in
            // `drained` is its rank and `(lane, index)` — one word —
            // sorts exactly like `(lane, time, seq)`.
            self.order
                .push(u64::from(lane(event)) << 32 | self.drained.len() as u64);
            self.drained.push(key);
        }
        self.order.sort_unstable_by(|a, b| b.cmp(a));
        self.window = Some(horizon);
        let mut latest = self.now.as_ps();
        let mut ran = 0;
        while let Some(&head) = self.order.last() {
            let current = head >> 32;
            while let Some(key) = self.next_in_lane(current) {
                let event = self.take_event(key);
                debug_assert_eq!(
                    u64::from(lane(&event)),
                    current,
                    "an event scheduled into another lane ran inside this lane's window"
                );
                latest = latest.max(key.0);
                ran += 1;
                world.handle(self, event);
            }
        }
        self.window = None;
        self.drained.clear();
        self.now = SimTime::from_ps(latest);
        ran
    }

    /// Pops the running lane's next event inside a lane window: the
    /// earlier of the lane's drained run's head and the earliest event a
    /// handler scheduled inside the window.
    fn next_in_lane(&mut self, lane: u64) -> Option<Key> {
        let drained = self
            .order
            .last()
            .filter(|&&o| o >> 32 == lane)
            .map(|&o| self.drained[o as u32 as usize]);
        let scheduled = self.local.peek().map(|&Reverse(key)| key);
        match (drained, scheduled) {
            (Some(d), Some(s)) if s < d => self.local.pop().map(|_| s),
            (Some(d), _) => self.order.pop().map(|_| d),
            (None, _) => self.local.pop().map(|Reverse(s)| s),
        }
    }

    /// Pops the earliest event not after `horizon`, advancing the clock.
    fn pop_through(&mut self, horizon: SimTime) -> Option<W::Event> {
        let key = self.queue.pop_min_through(horizon.as_ps())?;
        debug_assert!(key.0 >= self.now.as_ps(), "event queue went backwards");
        Some(self.take_event(key))
    }

    /// Takes the event `key` names out of the arena, setting the clock to
    /// its timestamp and recycling its slot.
    fn take_event(&mut self, (t, meta): Key) -> W::Event {
        let slot = (meta & SLOT_MASK) as u32;
        self.now = SimTime::from_ps(t);
        self.executed += 1;
        let event = self.arena[slot as usize]
            .take()
            .expect("queued slot holds an event");
        self.free.push(slot);
        event
    }
}

impl<W: World> std::fmt::Debug for EventEngine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventEngine")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct TraceWorld {
        trace: Vec<(u64, u32)>,
    }

    #[derive(Debug, Clone, Copy)]
    enum TraceEvent {
        Mark(u32),
        Chain { id: u32, delay_ns: u64 },
        Past,
    }

    impl World for TraceWorld {
        type Event = TraceEvent;
        fn handle(&mut self, engine: &mut EventEngine<Self>, event: TraceEvent) {
            match event {
                TraceEvent::Mark(id) => self.trace.push((engine.now().as_ps(), id)),
                TraceEvent::Chain { id, delay_ns } => {
                    self.trace.push((engine.now().as_ps(), id));
                    engine.schedule_in(SimTime::from_ns(delay_ns), TraceEvent::Mark(id + 1));
                }
                TraceEvent::Past => {
                    engine.schedule_at(SimTime::ZERO, TraceEvent::Mark(0));
                }
            }
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut e = EventEngine::new();
        let mut w = TraceWorld::default();
        e.schedule_at(SimTime::from_ns(30), TraceEvent::Mark(3));
        e.schedule_at(SimTime::from_ns(10), TraceEvent::Mark(1));
        e.schedule_at(SimTime::from_ns(20), TraceEvent::Mark(2));
        e.run(&mut w);
        assert_eq!(w.trace, vec![(10_000, 1), (20_000, 2), (30_000, 3)]);
        assert_eq!(e.events_executed(), 3);
        assert_eq!(e.now(), SimTime::from_ns(30));
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut e = EventEngine::new();
        let mut w = TraceWorld::default();
        let t = SimTime::from_ns(5);
        for id in 0..100 {
            e.schedule_at(t, TraceEvent::Mark(id));
        }
        e.run(&mut w);
        let ids: Vec<u32> = w.trace.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut e = EventEngine::new();
        let mut w = TraceWorld::default();
        e.schedule_at(
            SimTime::from_ns(1),
            TraceEvent::Chain { id: 7, delay_ns: 2 },
        );
        e.run(&mut w);
        assert_eq!(w.trace, vec![(1_000, 7), (3_000, 8)]);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut e = EventEngine::new();
        let mut w = TraceWorld::default();
        e.schedule_at(SimTime::from_ns(10), TraceEvent::Mark(1));
        e.schedule_at(SimTime::from_ns(100), TraceEvent::Mark(2));
        let ran = e.run_until(&mut w, SimTime::from_ns(50));
        assert_eq!(ran, 1);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.now(), SimTime::from_ns(10));
        e.run(&mut w);
        assert_eq!(w.trace.len(), 2);
    }

    #[test]
    fn run_steps_bounds_execution() {
        let mut e = EventEngine::new();
        let mut w = TraceWorld::default();
        for i in 0..10u64 {
            e.schedule_at(SimTime::from_ns(i), TraceEvent::Mark(i as u32));
        }
        assert_eq!(e.run_steps(&mut w, 4), 4);
        assert_eq!(w.trace.len(), 4);
        assert_eq!(e.run_steps(&mut w, 100), 6);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e = EventEngine::new();
        let mut w = TraceWorld::default();
        e.schedule_at(SimTime::from_ns(10), TraceEvent::Past);
        e.run(&mut w);
    }

    #[test]
    fn clear_drops_pending_events() {
        let mut e = EventEngine::new();
        let mut w = TraceWorld::default();
        for i in 0..50u64 {
            e.schedule_at(SimTime::from_ns(i), TraceEvent::Mark(0));
        }
        e.clear();
        assert_eq!(e.pending(), 0);
        assert_eq!(e.run_until(&mut w, SimTime::MAX), 0);
        assert!(w.trace.is_empty());
    }

    #[test]
    fn arena_slots_recycle() {
        let mut e = EventEngine::new();
        let mut w = TraceWorld::default();
        // Repeated schedule/drain cycles must not grow the arena beyond the
        // peak number of simultaneously pending events.
        for round in 0..100u64 {
            for i in 0..8u64 {
                e.schedule_in(SimTime::from_ns(i + 1), TraceEvent::Mark(round as u32));
            }
            e.run(&mut w);
        }
        assert!(e.arena.len() <= 8, "arena grew to {}", e.arena.len());
        assert_eq!(e.events_executed(), 800);
    }

    #[test]
    fn far_future_gaps_are_skipped() {
        // Events separated by huge empty stretches exercise the direct
        // min-jump after a fruitless day round.
        let mut e = EventEngine::new();
        let mut w = TraceWorld::default();
        e.schedule_at(SimTime::from_ns(1), TraceEvent::Mark(1));
        e.schedule_at(SimTime::from_ms(10_000), TraceEvent::Mark(2));
        e.schedule_at(SimTime::from_ps(u64::MAX / 2), TraceEvent::Mark(3));
        e.run(&mut w);
        let ids: Vec<u32> = w.trace.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn resize_preserves_order_under_load() {
        // Pseudorandom times force grows, shrinks, and cursor rewinds; the
        // output order must still be exactly (time, seq).
        let mut e = EventEngine::new();
        let mut w = TraceWorld::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut expected: Vec<(u64, u32)> = Vec::new();
        for i in 0..10_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 50_000_000; // 0..50 us in ps
            e.schedule_at(SimTime::from_ps(t), TraceEvent::Mark(i));
            expected.push((t, i));
        }
        e.run(&mut w);
        // Stable sort by time matches (time, seq) order because pushes
        // happen in seq order.
        expected.sort_by_key(|&(t, _)| t);
        assert_eq!(w.trace, expected);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn interleaved_schedule_and_pop_rewinds_cursor() {
        // A handler schedules near-now events after the cursor advanced far
        // ahead; they must still pop before later ones.
        struct Rewinder {
            order: Vec<u32>,
        }
        enum Ev {
            Seed,
            Mark(u32),
        }
        impl World for Rewinder {
            type Event = Ev;
            fn handle(&mut self, engine: &mut EventEngine<Self>, event: Ev) {
                match event {
                    Ev::Seed => {
                        // now is far from zero; schedule something only
                        // slightly in the future plus something far out.
                        engine.schedule_in(SimTime::from_ps(1), Ev::Mark(1));
                        engine.schedule_in(SimTime::from_ms(5), Ev::Mark(2));
                    }
                    Ev::Mark(id) => self.order.push(id),
                }
            }
        }
        let mut e = EventEngine::new();
        let mut w = Rewinder { order: Vec::new() };
        e.schedule_at(SimTime::from_ms(100), Ev::Seed);
        e.run(&mut w);
        assert_eq!(w.order, vec![1, 2]);
    }

    /// A two-lane world for the lane-window bookkeeping tests: lane =
    /// `id / 100`; `Stop` clears the engine, `Hop` schedules into the
    /// other lane (a contract violation).
    #[derive(Default)]
    struct LaneWorld {
        fired: Vec<(u64, u32)>,
        pending_seen: Vec<usize>,
    }

    #[derive(Debug, Clone, Copy)]
    enum LaneEvent {
        Mark(u32),
        Chain { id: u32, delay_ns: u64 },
        Stop(u32),
        Hop(u32),
    }

    fn lane_of(event: &LaneEvent) -> u32 {
        match *event {
            LaneEvent::Mark(id)
            | LaneEvent::Chain { id, .. }
            | LaneEvent::Stop(id)
            | LaneEvent::Hop(id) => id / 100,
        }
    }

    impl World for LaneWorld {
        type Event = LaneEvent;
        fn handle(&mut self, engine: &mut EventEngine<Self>, event: LaneEvent) {
            let now = engine.now().as_ps();
            self.pending_seen.push(engine.pending());
            match event {
                LaneEvent::Mark(id) => self.fired.push((now, id)),
                LaneEvent::Chain { id, delay_ns } => {
                    self.fired.push((now, id));
                    engine.schedule_in(SimTime::from_ns(delay_ns), LaneEvent::Mark(id + 1));
                }
                LaneEvent::Stop(id) => {
                    self.fired.push((now, id));
                    engine.clear();
                }
                LaneEvent::Hop(id) => {
                    engine.schedule_in(SimTime::from_ns(1), LaneEvent::Mark((id + 100) % 200));
                }
            }
        }
    }

    #[test]
    fn lane_window_runs_lanes_back_to_back_and_settles_the_clock() {
        let mut e = EventEngine::new();
        let mut w = LaneWorld::default();
        // Lane 1 is scheduled first and holds the latest in-window event.
        e.schedule_at(
            SimTime::from_ns(10),
            LaneEvent::Chain {
                id: 100,
                delay_ns: 30,
            },
        );
        e.schedule_at(SimTime::from_ns(20), LaneEvent::Mark(0));
        e.schedule_at(
            SimTime::from_ns(30),
            LaneEvent::Chain {
                id: 1,
                delay_ns: 100,
            },
        );
        e.schedule_at(SimTime::from_ns(60), LaneEvent::Mark(150));
        let ran = e.run_until_by_lane(&mut w, SimTime::from_ns(50), lane_of);
        // Lane 0 first (its clock reaching 30 ns), then lane 1 from 10 ns:
        // the in-window chain child at 40 ns runs, the 130 ns one stays.
        assert_eq!(
            w.fired,
            vec![(20_000, 0), (30_000, 1), (10_000, 100), (40_000, 101)]
        );
        assert_eq!(ran, 4);
        assert_eq!(e.events_executed(), 4);
        assert_eq!(e.now(), SimTime::from_ns(40), "latest executed timestamp");
        assert_eq!(e.pending(), 2);
        assert_eq!(e.next_time(), Some(SimTime::from_ns(60)));
    }

    #[test]
    fn pending_inside_a_lane_window_counts_the_rest_of_the_window() {
        // One lane, so the lane run executes in the same global order as
        // run_until and every handler must see the same pending count.
        let schedule = |e: &mut EventEngine<LaneWorld>| {
            e.schedule_at(SimTime::from_ns(1), LaneEvent::Chain { id: 0, delay_ns: 2 });
            e.schedule_at(SimTime::from_ns(2), LaneEvent::Mark(5));
            e.schedule_at(SimTime::from_ns(9), LaneEvent::Mark(6));
            e.schedule_at(SimTime::from_ns(90), LaneEvent::Mark(7));
        };
        let (mut by_time, mut w_time) = (EventEngine::new(), LaneWorld::default());
        schedule(&mut by_time);
        by_time.run_until(&mut w_time, SimTime::from_ns(10));
        let (mut by_lane, mut w_lane) = (EventEngine::new(), LaneWorld::default());
        schedule(&mut by_lane);
        by_lane.run_until_by_lane(&mut w_lane, SimTime::from_ns(10), lane_of);
        assert_eq!(w_time.pending_seen, vec![3, 3, 2, 1]);
        assert_eq!(w_lane.pending_seen, w_time.pending_seen);
        assert_eq!(by_lane.pending(), 1);
    }

    #[test]
    fn clear_inside_a_lane_window_drops_the_rest_of_the_window() {
        let mut e = EventEngine::new();
        let mut w = LaneWorld::default();
        e.schedule_at(SimTime::from_ns(1), LaneEvent::Chain { id: 0, delay_ns: 5 });
        e.schedule_at(SimTime::from_ns(2), LaneEvent::Stop(9));
        e.schedule_at(SimTime::from_ns(3), LaneEvent::Mark(10)); // drained, same lane
        e.schedule_at(SimTime::from_ns(4), LaneEvent::Mark(110)); // drained, later lane
        e.schedule_at(SimTime::from_ns(99), LaneEvent::Mark(11)); // past the horizon
        let ran = e.run_until_by_lane(&mut w, SimTime::from_ns(50), lane_of);
        // The chain child at 6 ns sat in the window-local heap when the
        // stop fired; it is gone with everything else.
        assert_eq!(w.fired, vec![(1_000, 0), (2_000, 9)]);
        assert_eq!(ran, 2);
        assert_eq!(e.pending(), 0);
        assert_eq!(e.run_until(&mut w, SimTime::MAX), 0);
        // The engine is reusable afterwards.
        e.schedule_in(SimTime::from_ns(1), LaneEvent::Mark(12));
        assert_eq!(e.run_until_by_lane(&mut w, SimTime::MAX, lane_of), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "another lane")]
    fn scheduling_into_another_lane_inside_a_window_is_caught() {
        let mut e = EventEngine::new();
        let mut w = LaneWorld::default();
        e.schedule_at(SimTime::from_ns(1), LaneEvent::Hop(0));
        e.run_until_by_lane(&mut w, SimTime::from_ns(50), lane_of);
    }
}
