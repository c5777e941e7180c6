//! Deterministic discrete-event simulation engine for the soNUMA reproduction.
//!
//! The paper evaluates soNUMA on Flexus, a cycle-accurate full-system
//! simulator. This crate provides the substrate we use instead: a
//! deterministic discrete-event engine with picosecond-resolution time, so
//! that 2 GHz core cycles (500 ps), cache latencies, DRAM timings, and fabric
//! delays all compose exactly with no floating-point drift.
//!
//! # Design
//!
//! * [`SimTime`] is an integer count of picoseconds.
//! * [`EventEngine`] is the production engine: the caller's *world*
//!   implements [`World`] by declaring a typed event `enum` and a
//!   `handle` method; events are stored by value in per-lane slabs,
//!   each ordered by its own small binary heap, so the scheduling hot
//!   path is allocation-free. Events are executed in `(time,
//!   sequence-number)` order, which makes runs bit-reproducible: two runs
//!   with the same seed schedule and execute identical event sequences.
//!   A world made of independent *lanes* hands the engine its lane
//!   function ([`EventEngine::with_lanes`]) and every bounded window runs
//!   lane by lane: same per-lane sequences, far better host locality.
//!   [`LaneIndex`] is the "which lanes hold work, and what is the
//!   earliest" bookkeeping behind it, shared with the machine's per-node
//!   outboxes.
//! * [`ShardedEngine`] runs many [`EpochWorld`] shards — each its own
//!   world plus engine — in lookahead-bounded conservative epochs on a
//!   pool of worker threads, with partition-invariant epoch boundaries
//!   so sharded runs stay bit-deterministic (see [`sharded`]).
//! * [`rng::DetRng`] wraps a seeded PRNG so every stochastic decision is
//!   reproducible, and [`stats`] provides the histograms and rate helpers
//!   used by the measurement harnesses.
//!
//! # Example
//!
//! ```
//! use sonuma_sim::{EventEngine, SimTime, World};
//!
//! struct Counter { ticks: u32 }
//! enum Ev { Tick }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, _engine: &mut EventEngine<Self>, event: Ev) {
//!         let Ev::Tick = event;
//!         self.ticks += 1;
//!     }
//! }
//!
//! let mut engine = EventEngine::new();
//! let mut world = Counter { ticks: 0 };
//! engine.schedule_at(SimTime::from_ns(10), Ev::Tick);
//! engine.run(&mut world);
//! assert_eq!(world.ticks, 1);
//! assert_eq!(engine.now(), SimTime::from_ns(10));
//! ```

pub mod event;
pub mod rng;
pub mod sharded;
pub mod stats;
pub mod time;

pub use event::{EventEngine, LaneIndex, World, RELEASE_ABOVE};
pub use rng::DetRng;
pub use sharded::{EpochWorld, ShardedEngine};
pub use time::SimTime;
