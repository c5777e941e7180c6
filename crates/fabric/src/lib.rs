//! The soNUMA memory fabric (§3, §6 of the paper).
//!
//! soNUMA replaces deep network stacks with a lean NUMA-style memory fabric:
//! reliable point-to-point links with credit-based flow control, two virtual
//! lanes for deadlock-free request/reply traffic, and low-radix routers
//! whose forwarding logic maps destination ids directly to output ports
//! (no CAM/TCAM lookups). The paper's evaluation models a full crossbar
//! with a flat 50 ns inter-node delay; the design "is not restricted to any
//! particular topology", so this crate also provides the 2D/3D torus
//! arrangements the paper recommends for rack-scale deployments.
//!
//! The fabric is modeled analytically inside the discrete-event world: a
//! send computes the packet's arrival time from per-port and per-link
//! serialization (bandwidth contention), per-hop latency, and virtual-lane
//! credit occupancy (backpressure). The caller schedules the delivery event
//! at the returned time.
//!
//! # Example
//!
//! ```
//! use sonuma_fabric::{Fabric, FabricConfig};
//! use sonuma_protocol::NodeId;
//! use sonuma_sim::SimTime;
//!
//! let mut fabric = Fabric::new(FabricConfig::paper_crossbar(4));
//! let arrival = fabric.send(SimTime::ZERO, NodeId(0), NodeId(2), 0, 88);
//! assert!(arrival.time >= SimTime::from_ns(50)); // flat crossbar delay
//! ```

pub mod config;
pub mod fabric;
pub mod fault;
pub mod link;
pub mod partition;
pub mod topology;

pub use config::FabricConfig;
pub use fabric::{Arrival, Fabric, FaultStats, LinkStats};
pub use fault::{fault_unit, FaultPlan, LinkFault, NodeFault, PacketFate};
pub use partition::ShardPlan;
pub use topology::{NextHopTable, RouteIter, Topology};

/// Number of virtual lanes: requests on 0, replies on 1 (§6).
pub const VIRTUAL_LANES: usize = 2;
