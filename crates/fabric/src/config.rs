//! Fabric timing configuration.

use sonuma_sim::SimTime;

use crate::fault::FaultPlan;
use crate::topology::Topology;

/// Timing and flow-control parameters of the memory fabric.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Node arrangement and routing.
    pub topology: Topology,
    /// One-way latency of a single hop (router pin-to-pin + wire). For the
    /// crossbar this is the flat inter-node delay.
    pub hop_latency: SimTime,
    /// Bandwidth of each point-to-point link / NI port, bytes per second.
    pub link_bytes_per_sec: u64,
    /// Receive-buffer credits per virtual lane per link. A sender stalls
    /// when all credits of the target lane are consumed by in-flight
    /// packets (credit-based flow control, §6).
    pub credits_per_lane: usize,
    /// Extra latency for a credit to travel back to the sender after the
    /// receiver drains a packet.
    pub credit_return: SimTime,
    /// Seeded fault schedule, if this run injects failures. `None` keeps
    /// the fabric on the fault-free fast path (bit-identical to a build
    /// without fault support).
    pub faults: Option<FaultPlan>,
}

impl FabricConfig {
    /// The paper's simulated configuration (Table 1): a full crossbar with
    /// a flat 50 ns inter-node delay and links comfortably faster than one
    /// DDR3-1600 channel (so memory, not wires, bounds bandwidth).
    pub fn paper_crossbar(nodes: usize) -> Self {
        FabricConfig {
            topology: Topology::crossbar(nodes),
            hop_latency: SimTime::from_ns(50),
            // QPI/HTX-class parallel links: 32 GB/s per direction.
            link_bytes_per_sec: 32_000_000_000,
            credits_per_lane: 16,
            credit_return: SimTime::from_ns(50),
            faults: None,
        }
    }

    /// A 2D torus with Alpha 21364-style routers — 11 ns pin-to-pin (§3)
    /// plus ~4 ns of wire per hop.
    pub fn torus2d(width: usize, height: usize) -> Self {
        FabricConfig {
            topology: Topology::torus2d(width, height),
            hop_latency: SimTime::from_ns(15),
            link_bytes_per_sec: 32_000_000_000,
            credits_per_lane: 16,
            credit_return: SimTime::from_ns(15),
            faults: None,
        }
    }

    /// A 3D torus for rack-scale deployments (§6, §8).
    pub fn torus3d(x: usize, y: usize, z: usize) -> Self {
        FabricConfig {
            topology: Topology::torus3d(x, y, z),
            ..FabricConfig::torus2d(1, 1)
        }
    }

    /// The development platform's "fabric": VM-to-VM shared-memory queues
    /// across NUMA domains of one Opteron server (§7.1). Per-hop latency is
    /// a chip-to-chip HyperTransport crossing plus the software queueing the
    /// hypervisor mapping adds.
    pub fn dev_platform(nodes: usize) -> Self {
        FabricConfig {
            topology: Topology::crossbar(nodes),
            hop_latency: SimTime::from_ns(220),
            link_bytes_per_sec: 6_000_000_000,
            credits_per_lane: 16,
            credit_return: SimTime::from_ns(220),
            faults: None,
        }
    }

    /// Serialization delay of `bytes` on one link.
    pub fn serialization(&self, bytes: u64) -> SimTime {
        SimTime::from_ns_f64(bytes as f64 / self.link_bytes_per_sec as f64 * 1e9)
    }

    /// A lower bound on the injection-to-delivery latency of any packet of
    /// at least `min_packet_bytes`: one hop of latency plus one link's
    /// serialization of the smallest packet. Credits and contention only
    /// delay further, and multi-hop routes pay this per hop, so every
    /// fabric delivery lands at least this far after its injection — the
    /// *lookahead* that bounds the sharded engine's epochs.
    pub fn min_delivery_delay(&self, min_packet_bytes: u64) -> SimTime {
        self.hop_latency + self.serialization(min_packet_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_crossbar_matches_table1() {
        let c = FabricConfig::paper_crossbar(8);
        assert_eq!(c.topology.nodes(), 8);
        assert_eq!(c.hop_latency, SimTime::from_ns(50));
    }

    #[test]
    fn serialization_scales_linearly() {
        let c = FabricConfig::paper_crossbar(2);
        let one = c.serialization(88);
        let two = c.serialization(176);
        assert_eq!(two, one * 2);
        // 88 B at 32 GB/s = 2.75 ns.
        assert_eq!(one, SimTime::from_ps(2750));
    }

    #[test]
    fn dev_platform_is_slower() {
        let hw = FabricConfig::paper_crossbar(4);
        let dev = FabricConfig::dev_platform(4);
        assert!(dev.hop_latency > hw.hop_latency);
        assert!(dev.link_bytes_per_sec < hw.link_bytes_per_sec);
    }
}
