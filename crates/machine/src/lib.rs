//! Full-system model: nodes, cores, OS driver, and the cluster world that
//! wires the RMC pipelines to the memory fabric.
//!
//! This crate is the reproduction's stand-in for Flexus full-system
//! simulation. A [`Cluster`] owns every node (physical memory, coherent
//! cache hierarchy, RMC, cores) plus the fabric, and is driven as the world
//! of a typed `sonuma_sim::EventEngine` ([`ClusterEngine`]). The crate is
//! layered:
//!
//! * [`cluster`] — world ownership and the OS-driver surface of §5.1
//!   (contexts, queue pairs, process attachment);
//! * [`pipeline`] — one module per RMC pipeline (§4.2), each with its own
//!   state machine and backpressure counters:
//!   [`pipeline::rgp`] polls work queues (reading real WQ bytes through
//!   the coherence hierarchy), allocates tids in the ITT, unrolls
//!   multi-line requests, and injects request packets;
//!   [`pipeline::rrpp`] statelessly services requests — CT/CT$ lookup,
//!   bounds check, TLB/page-walk translation, a local coherent memory
//!   access (including atomics), and exactly one reply;
//!   [`pipeline::rcp`] matches replies via the ITT, writes payloads into
//!   application buffers, and posts CQ entries.
//!   A [`PipelineStats`] snapshot exposes every pipeline counter per node;
//! * `sched` — run-to-block core scheduling: CQ wake-ups, memory watches,
//!   and remote-interrupt delivery;
//! * [`shard`] — how the machine executes: the cluster partitioned into
//!   per-thread shards (each a [`Cluster`] owning a slice of nodes, with
//!   fabric sends staged in per-node outboxes, `mailbox`), advanced in
//!   conservative epochs with a deterministic fabric merge at each
//!   barrier, so `--threads N` runs are bit-identical to serial ones;
//! * [`backend`] — [`SonumaBackend`], the machine: it owns the shards,
//!   the global fabric and the driver ports, and is the soNUMA
//!   implementation of the transport-agnostic
//!   `sonuma_protocol::RemoteBackend` contract, so the same request
//!   streams can run over the baselines for Table 2.
//!
//! Applications are [`AppProcess`] state machines running on simulated
//! cores in run-to-block style: each wake-up performs local work and API
//! calls (which charge simulated time) and then blocks on a timer, a
//! completion queue, or a memory watch — the model of the paper's polling
//! loops, with the coherence-invalidation wake-up made explicit.

pub mod api;
pub mod backend;
pub mod cluster;
pub mod config;
pub mod event;
pub mod fault;
pub(crate) mod mailbox;
pub mod node;
pub mod pipeline;
pub mod process;
pub mod sched;
pub mod shard;
pub mod tenancy;

pub use api::{ApiError, NodeApi};
pub use backend::SonumaBackend;
pub use cluster::Cluster;
pub use config::{MachineConfig, SoftwareTiming};
pub use event::{ClusterEvent, WakeReason};
pub use node::Node;
pub use pipeline::rgp::{QpClass, QpScheduler, SchedPolicy};
pub use pipeline::{PipelineStats, RcpState, RgpPhase, RgpState, RrppState};
pub use process::{AppProcess, Completion, Step, Wake};
pub use tenancy::{SloClass, TenantSpec, TenantStats, TenantTable};

/// Convenience alias: the typed event engine specialized to the cluster
/// world (events are [`ClusterEvent`]s dispatched by value — see
/// [`event`]).
pub type ClusterEngine = sonuma_sim::EventEngine<Cluster>;
