//! The typed event engine and its per-lane event store.
//!
//! [`EventEngine`] is allocation-free on its hot path: instead of
//! heap-allocating a `Box<dyn FnOnce>` per event, the world declares a
//! plain `enum` of everything that can happen ([`World::Event`]) and
//! dispatches it in [`World::handle`].
//!
//! Events are stored *per lane*. A lane is a set of events that only ever
//! schedule into themselves — a node of the machine — and it owns
//!
//! * a small binary min-heap of 16-byte `(time, seq·slot)` keys, and
//! * its own slab of events by value (a `Vec` plus a free list, so slots
//!   recycle and the steady-state hot path never touches the allocator).
//!
//! A [`LaneIndex`] lists the lanes that hold work and keeps the earliest
//! pending timestamp, so [`EventEngine::next_time`] is one load and an
//! idle window costs nothing. A lane that drains after growing past
//! [`RELEASE_ABOVE`] entries gives its storage back: per-lane containers
//! would otherwise keep the *sum* of their own high-water marks.
//!
//! # Windows
//!
//! [`EventEngine::run_until`] executes a window lane by lane: for each
//! listed lane whose head is at or below the horizon, pop and handle
//! while the head stays there. Nothing is drained, sorted or merged, an
//! event a handler schedules is a push into the heap that is already
//! running, and a lane's state is touched once per window instead of once
//! per event. Within a lane, events run in exact `(time, seq)` order,
//! where `seq` is the schedule order, so runs are bit-reproducible.
//!
//! [`EventEngine::new`] is the one-lane engine, whose window order *is*
//! global `(time, seq)` order. [`EventEngine::with_lanes`] takes the lane
//! function; the caller promises that a handler only schedules into the
//! lane of the event it is handling and that lanes share no state the
//! handlers read. Under that promise every lane sees exactly the event
//! sequence the one-lane engine would show it, so the world ends a window
//! in the same state either way (`tests/lane_windows.rs` holds the one-lane
//! engine up as the oracle).
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
use std::collections::binary_heap::PeekMut;
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

/// A per-lane container that drains after growing past this many entries
/// releases its storage instead of keeping it for the next burst (the
/// event lanes here, the per-node outboxes in `sonuma-machine`).
pub const RELEASE_ABOVE: usize = 64;

/// Which lanes of a per-lane store hold work, and the earliest of it.
///
/// The owner keeps one ordered container per lane and tells the index
/// when a lane's earliest entry may have moved: [`LaneIndex::note`] on a
/// push, [`LaneIndex::settle`] after taking entries out. In return the
/// index answers "what is the earliest entry anywhere" in O(1) and lets a
/// sweep visit only lanes that hold something: no per-lane state is read
/// for a lane with nothing due beyond one cached word.
#[derive(Debug)]
pub struct LaneIndex {
    /// Time of each lane's earliest entry; meaningful for listed lanes.
    heads: Vec<u64>,
    /// The lanes holding at least one entry, ascending: a sweep walks
    /// the owner's per-lane state in address order.
    listed: Vec<u32>,
    /// Minimum of the listed lanes' heads (`u64::MAX` when none).
    floor: u64,
    /// Sweep cursor into `listed`.
    pos: usize,
    /// Minimum head of the lanes the sweep in progress has passed.
    passed: u64,
}

impl LaneIndex {
    /// An index over `lanes` empty lanes.
    pub fn new(lanes: usize) -> Self {
        LaneIndex {
            heads: vec![u64::MAX; lanes],
            listed: Vec::new(),
            floor: u64::MAX,
            pos: 0,
            passed: u64::MAX,
        }
    }

    /// Time (ps) of the earliest entry in any lane.
    #[inline]
    pub fn floor(&self) -> Option<u64> {
        (!self.listed.is_empty()).then_some(self.floor)
    }

    /// Records an entry at time `t` (ps) pushed into `lane`, which held
    /// nothing before the push iff `was_empty`.
    #[inline]
    pub fn note(&mut self, lane: usize, t: u64, was_empty: bool) {
        if was_empty {
            let at = self.listed.partition_point(|&l| (l as usize) < lane);
            self.listed.insert(at, lane as u32);
            self.heads[lane] = t;
        } else if t < self.heads[lane] {
            self.heads[lane] = t;
        }
        self.floor = self.floor.min(t);
    }

    /// Advances the sweep to the next listed lane whose head is at or
    /// below `horizon` and returns it; the caller takes what it wants out
    /// of that lane and reports the lane's new head with
    /// [`LaneIndex::settle`] before asking again. `None` ends the sweep,
    /// with the floor recomputed from every listed lane on the way.
    pub fn next_due(&mut self, horizon: u64) -> Option<usize> {
        while let Some(&lane) = self.listed.get(self.pos) {
            let head = self.heads[lane as usize];
            if head <= horizon {
                return Some(lane as usize);
            }
            self.passed = self.passed.min(head);
            self.pos += 1;
        }
        self.floor = self.passed;
        self.pos = 0;
        self.passed = u64::MAX;
        None
    }

    /// Reports the head of the lane [`LaneIndex::next_due`] last returned
    /// (`None` once it is empty, which unlists it) and steps past it.
    pub fn settle(&mut self, head: Option<u64>) {
        match head {
            Some(head) => {
                self.heads[self.listed[self.pos] as usize] = head;
                self.passed = self.passed.min(head);
                self.pos += 1;
            }
            None => {
                self.listed.remove(self.pos);
            }
        }
    }

    /// Forgets every lane (the owner emptied them all).
    pub fn clear(&mut self) {
        self.listed.clear();
        self.floor = u64::MAX;
        self.pos = 0;
        self.passed = u64::MAX;
    }
}

/// Queue key: `(time in ps, meta)` where `meta` packs the schedule
/// sequence (high 40 bits) above the lane's slab slot (low 24 bits).
/// Sequence occupies the high bits, so ordering by `(time, meta)` equals
/// ordering by `(time, seq)` — and the whole key is 16 bytes, four to a
/// cache line.
type Key = (u64, u64);

/// Bits of the key's meta word reserved for the slab slot.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// One lane's pending events: keys in a min-heap, events by value in the
/// lane's own slab.
struct Lane<E> {
    heap: BinaryHeap<Reverse<Key>>,
    slab: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Default for Lane<E> {
    fn default() -> Self {
        Lane {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<E> Lane<E> {
    fn push(&mut self, t: u64, seq: u64, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                assert!(
                    (self.slab.len() as u64) < SLOT_MASK,
                    "event slab full ({} pending events in one lane)",
                    self.slab.len()
                );
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap
            .push(Reverse((t, (seq << SLOT_BITS) | slot as u64)));
    }

    /// Pops the earliest event if its time is `<= horizon`.
    fn pop_through(&mut self, horizon: u64) -> Option<(u64, E)> {
        let top = self.heap.peek_mut()?;
        if top.0 .0 > horizon {
            return None;
        }
        let Reverse((t, meta)) = PeekMut::pop(top);
        let slot = (meta & SLOT_MASK) as u32;
        let event = self.slab[slot as usize]
            .take()
            .expect("queued slot holds an event");
        self.free.push(slot);
        Some((t, event))
    }

    /// Time of the earliest pending event. A drained lane restarts its
    /// slab from slot zero, and gives its storage back if a burst grew it.
    fn settle(&mut self) -> Option<u64> {
        let head = self.heap.peek().map(|&Reverse((t, _))| t);
        if head.is_none() {
            if self.slab.capacity() > RELEASE_ABOVE {
                *self = Lane::default();
            } else {
                self.slab.clear();
                self.free.clear();
            }
        }
        head
    }
}

/// The lane function of a multi-lane engine.
type LaneOf<E> = Box<dyn Fn(&E) -> u32 + Send>;

/// A deterministic discrete-event engine dispatching typed events.
///
/// `W` is the caller-owned world implementing [`World`]. Events are stored
/// by value in per-lane slabs; the scheduling hot path performs no heap
/// allocation once a lane has warmed up. Within a lane, events at equal
/// timestamps run in the order they were scheduled, making runs
/// bit-reproducible.
pub struct EventEngine<W: World> {
    lanes: Vec<Lane<W::Event>>,
    /// `None` on the one-lane engine: every event is lane 0's.
    lane_of: Option<LaneOf<W::Event>>,
    index: LaneIndex,
    /// Events pending across all lanes.
    len: usize,
    now: SimTime,
    next_seq: u64,
    executed: u64,
    /// The lane a window is executing right now. Its pushes bypass the
    /// index: the window settles the lane's head when it is done with it.
    running: Option<usize>,
}

impl<W: World> Default for EventEngine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: World> EventEngine<W> {
    /// Creates an empty one-lane engine at time zero: every window runs
    /// in exact global `(time, seq)` order.
    pub fn new() -> Self {
        Self::build(1, None)
    }

    /// Creates an empty engine over `lanes` lanes, `lane_of` naming the
    /// lane (`< lanes`) an event belongs to. Windows run lane by lane
    /// (see the module docs for the contract); an empty lane allocates
    /// nothing.
    pub fn with_lanes(lanes: usize, lane_of: impl Fn(&W::Event) -> u32 + Send + 'static) -> Self {
        Self::build(lanes, Some(Box::new(lane_of)))
    }

    fn build(lanes: usize, lane_of: Option<LaneOf<W::Event>>) -> Self {
        EventEngine {
            lanes: (0..lanes).map(|_| Lane::default()).collect(),
            lane_of,
            index: LaneIndex::new(lanes),
            len: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            executed: 0,
            running: None,
        }
    }

    /// The current simulated time (the timestamp of the event being, or
    /// last, executed).
    ///
    /// Monotone on the one-lane engine. Inside a multi-lane window it is
    /// monotone *per lane*: it steps back when the window moves on to the
    /// next lane (never below its value at window entry), and settles on
    /// the latest executed timestamp when the window returns.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending, in every lane.
    #[inline]
    pub fn pending(&self) -> usize {
        self.len
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: the simulation
    /// cannot travel backwards. Debug builds also panic when a handler
    /// inside a window schedules into a lane other than its own.
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
        let lane = self.lane_of.as_ref().map_or(0, |f| f(&event) as usize);
        let store = &mut self.lanes[lane];
        if self.running != Some(lane) {
            debug_assert!(
                self.running.is_none(),
                "a handler scheduled into another lane inside a window"
            );
            self.index.note(lane, at.as_ps(), store.heap.is_empty());
        }
        store.push(at.as_ps(), seq, event);
        self.len += 1;
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: W::Event) {
        self.schedule_at(self.now + delay, event);
    }

    /// Timestamp of the earliest pending event, without popping it: one
    /// load. Not meaningful from a handler inside a window, which has not
    /// settled the running lane yet.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.index.floor().map(SimTime::from_ps)
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

    /// Drops every pending event (terminate a simulation early),
    /// including — when called from a handler inside a window — the rest
    /// of the window.
    pub fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.heap.clear();
            lane.slab.clear();
            lane.free.clear();
        }
        self.index.clear();
        self.len = 0;
        if let Some(lane) = self.running {
            // The window in progress still settles the running lane (the
            // handler may schedule into it again): keep it under the
            // sweep cursor.
            self.index.note(lane, self.now.as_ps(), true);
        }
    }

    /// Runs events until the queue is empty.
    pub fn run(&mut self, world: &mut W) {
        self.run_until(world, SimTime::MAX);
    }

    /// Runs events with timestamps `<= horizon`, lane by lane; later
    /// events stay queued.
    ///
    /// Returns the number of events executed by this call. After returning,
    /// [`EventEngine::now`] is the latest executed timestamp (or unchanged
    /// if none ran); it never jumps to `horizon`.
    pub fn run_until(&mut self, world: &mut W, horizon: SimTime) -> u64 {
        self.window(world, horizon.as_ps(), u64::MAX)
    }

    /// Runs at most `max_events` events; used to bound runaway simulations.
    /// On a multi-lane engine they are taken lane by lane, like any window.
    ///
    /// Returns the number of events executed.
    pub fn run_steps(&mut self, world: &mut W, max_events: u64) -> u64 {
        self.window(world, u64::MAX, max_events)
    }

    /// One window: every listed lane with work at or below `horizon`, up
    /// to `limit` events in total.
    fn window(&mut self, world: &mut W, horizon: u64, limit: u64) -> u64 {
        debug_assert!(self.running.is_none(), "windows do not nest");
        if self.index.floor().is_none_or(|floor| floor > horizon) {
            return 0;
        }
        let mut latest = self.now.as_ps();
        let mut ran = 0;
        while let Some(lane) = self.index.next_due(horizon) {
            self.running = Some(lane);
            while ran < limit {
                let Some((t, event)) = self.lanes[lane].pop_through(horizon) else {
                    break;
                };
                self.now = SimTime::from_ps(t);
                self.executed += 1;
                self.len -= 1;
                latest = latest.max(t);
                ran += 1;
                world.handle(self, event);
            }
            self.running = None;
            let head = self.lanes[lane].settle();
            self.index.settle(head);
        }
        self.now = SimTime::from_ps(latest);
        ran
    }
}

impl<W: World> std::fmt::Debug for EventEngine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventEngine")
            .field("now", &self.now)
            .field("lanes", &self.lanes.len())
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
        // One far event keeps the lane from ever draining, so every round
        // has to reuse freed slots: the slab must not grow beyond the peak
        // number of simultaneously pending events.
        e.schedule_at(SimTime::from_us(1_000), TraceEvent::Mark(0));
        for round in 0..100u64 {
            for i in 0..8u64 {
                e.schedule_in(SimTime::from_ns(i + 1), TraceEvent::Mark(round as u32));
            }
            let horizon = e.now() + SimTime::from_ns(8);
            assert_eq!(e.run_until(&mut w, horizon), 8);
        }
        let slab = e.lanes[0].slab.len();
        assert!(slab <= 9, "slab grew to {slab}");
        assert_eq!(e.events_executed(), 800);
    }

    #[test]
    fn a_lane_that_drained_a_burst_holds_no_capacity_afterwards() {
        let mut e = EventEngine::with_lanes(2, lane_of);
        let mut w = LaneWorld::default();
        e.schedule_at(SimTime::from_us(1), LaneEvent::Mark(100));
        for i in 0..10_000u64 {
            e.schedule_at(SimTime::from_ps(i), LaneEvent::Mark(0));
        }
        assert_eq!(e.run_until(&mut w, SimTime::from_ns(10)), 10_000);
        let lane = &e.lanes[0];
        assert_eq!(
            (
                lane.heap.capacity(),
                lane.slab.capacity(),
                lane.free.capacity()
            ),
            (0, 0, 0)
        );
        // A handful of events is not a burst: that storage stays warm.
        e.schedule_in(SimTime::from_ns(1), LaneEvent::Mark(1));
        assert_eq!(e.run_until(&mut w, SimTime::from_ns(20)), 1);
        assert!(e.lanes[0].slab.capacity() > 0);
        assert_eq!(e.next_time(), Some(SimTime::from_us(1)));
    }

    #[test]
    fn far_future_gaps_are_skipped() {
        // Events separated by huge empty stretches exercise the direct
        // min-jump after a fruitless day round.
        let mut e = EventEngine::new();
        let mut w = TraceWorld::default();
        e.schedule_at(SimTime::from_ns(1), TraceEvent::Mark(1));
        e.schedule_at(SimTime::from_us(10_000_000), TraceEvent::Mark(2));
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
                        engine.schedule_in(SimTime::from_us(5_000), Ev::Mark(2));
                    }
                    Ev::Mark(id) => self.order.push(id),
                }
            }
        }
        let mut e = EventEngine::new();
        let mut w = Rewinder { order: Vec::new() };
        e.schedule_at(SimTime::from_us(100_000), Ev::Seed);
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
        let mut e = EventEngine::with_lanes(2, lane_of);
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
        let ran = e.run_until(&mut w, SimTime::from_ns(50));
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
        let (mut by_lane, mut w_lane) = (EventEngine::with_lanes(2, lane_of), LaneWorld::default());
        schedule(&mut by_lane);
        by_lane.run_until(&mut w_lane, SimTime::from_ns(10));
        assert_eq!(w_time.pending_seen, vec![3, 3, 2, 1]);
        assert_eq!(w_lane.pending_seen, w_time.pending_seen);
        assert_eq!(by_lane.pending(), 1);
    }

    #[test]
    fn clear_inside_a_lane_window_drops_the_rest_of_the_window() {
        let mut e = EventEngine::with_lanes(2, lane_of);
        let mut w = LaneWorld::default();
        e.schedule_at(SimTime::from_ns(1), LaneEvent::Chain { id: 0, delay_ns: 5 });
        e.schedule_at(SimTime::from_ns(2), LaneEvent::Stop(9));
        e.schedule_at(SimTime::from_ns(3), LaneEvent::Mark(10)); // in window, same lane
        e.schedule_at(SimTime::from_ns(4), LaneEvent::Mark(110)); // in window, later lane
        e.schedule_at(SimTime::from_ns(99), LaneEvent::Mark(11)); // past the horizon
        let ran = e.run_until(&mut w, SimTime::from_ns(50));
        // The chain child at 6 ns sat in the running lane's heap when the
        // stop fired; it is gone with everything else.
        assert_eq!(w.fired, vec![(1_000, 0), (2_000, 9)]);
        assert_eq!(ran, 2);
        assert_eq!(e.pending(), 0);
        assert_eq!(e.run_until(&mut w, SimTime::MAX), 0);
        // The engine is reusable afterwards.
        e.schedule_in(SimTime::from_ns(1), LaneEvent::Mark(12));
        assert_eq!(e.next_time(), Some(SimTime::from_ns(3)));
        assert_eq!(e.run_until(&mut w, SimTime::MAX), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "another lane")]
    fn scheduling_into_another_lane_inside_a_window_is_caught() {
        let mut e = EventEngine::with_lanes(2, lane_of);
        let mut w = LaneWorld::default();
        e.schedule_at(SimTime::from_ns(1), LaneEvent::Hop(0));
        e.run_until(&mut w, SimTime::from_ns(50));
    }
}
