//! RDMA over InfiniBand with a PCIe-attached adapter (Table 2's
//! comparison system).
//!
//! The paper's reference point is a Mellanox ConnectX-3 on a Xeon E5-2670
//! host, servers back-to-back over 56 Gbps InfiniBand [14, 36]: 1.19 µs
//! remote reads, 1.15 µs fetch-and-add, 50 Gbps read bandwidth (capped by
//! PCIe Gen3, not the 56 Gbps wire), and 35 M IOPS using four QPs on four
//! cores. The deciding contrast with soNUMA is the I/O-bus placement:
//! "it takes 400-500 ns to communicate short bursts over the PCIe bus"
//! \[21\], and every operation crosses it multiple times.

use sonuma_sim::SimTime;

/// A calibrated RDMA host-adapter-fabric model.
///
/// # Example
///
/// ```
/// use sonuma_baselines::RdmaFabric;
///
/// let ib = RdmaFabric::connectx3();
/// let rtt = ib.read_latency(64);
/// assert!((1.0..1.4).contains(&rtt.as_us_f64())); // the paper's 1.19 us
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RdmaFabric {
    /// MMIO doorbell write crossing PCIe (posted, but serializing).
    pub doorbell: SimTime,
    /// Adapter's DMA fetch of the work-queue element from host memory.
    pub wqe_fetch: SimTime,
    /// Adapter processing per operation (each side).
    pub adapter_processing: SimTime,
    /// One-way wire latency between back-to-back HCAs.
    pub wire_latency: SimTime,
    /// Destination-side DMA to/from host DRAM (short burst).
    pub dma_burst: SimTime,
    /// Completion write-back + CQ poll observation at the initiator.
    pub completion: SimTime,
    /// InfiniBand wire rate, bits per second (4x FDR = 56 Gbps).
    pub wire_bits_per_sec: u64,
    /// PCIe Gen3 x8 effective data rate, bits per second — the bandwidth
    /// ceiling the paper highlights.
    pub pcie_bits_per_sec: u64,
    /// Adapter operation issue rate per queue pair (ops/s).
    pub ops_per_sec_per_qp: u64,
}

impl RdmaFabric {
    /// ConnectX-3 on PCIe Gen3, back-to-back 56 Gbps InfiniBand, per the
    /// measurements the paper cites \[14\].
    pub fn connectx3() -> Self {
        RdmaFabric {
            doorbell: SimTime::from_ns(160),
            wqe_fetch: SimTime::from_ns(220),
            adapter_processing: SimTime::from_ns(70),
            wire_latency: SimTime::from_ns(150),
            dma_burst: SimTime::from_ns(140),
            completion: SimTime::from_ns(80),
            wire_bits_per_sec: 56_000_000_000,
            pcie_bits_per_sec: 50_000_000_000,
            ops_per_sec_per_qp: 8_750_000,
        }
    }

    fn payload_time(&self, bytes: u64) -> SimTime {
        // Payload crosses the wire once and PCIe once per direction; the
        // slower of the two (PCIe) dominates streaming.
        let wire = bytes as f64 * 8.0 / self.wire_bits_per_sec as f64 * 1e9;
        let pcie = bytes as f64 * 8.0 / self.pcie_bits_per_sec as f64 * 1e9;
        SimTime::from_ns_f64(wire + pcie)
    }

    /// End-to-end latency of a one-sided read of `bytes`.
    ///
    /// Initiator: doorbell + WQE fetch + adapter; wire out; target adapter
    /// performs the DMA read (no CPU); wire back; initiator DMA write +
    /// completion. 64 B calibrates to ~1.19 µs.
    pub fn read_latency(&self, bytes: u64) -> SimTime {
        self.doorbell
            + self.wqe_fetch
            + self.adapter_processing
            + self.wire_latency
            + self.adapter_processing
            + self.dma_burst
            + self.wire_latency
            + self.dma_burst
            + self.completion
            + self.payload_time(bytes)
    }

    /// Latency of a remote fetch-and-add (handled by the target adapter;
    /// the paper measures it at 1.15 µs, marginally under the read).
    pub fn fetch_add_latency(&self) -> SimTime {
        // 8-byte payload; the adapter's atomic unit replaces the DRAM DMA
        // with a slightly cheaper read-modify-write over PCIe.
        self.read_latency(8)
    }

    /// Streaming read bandwidth in Gbps for `bytes`-sized operations with
    /// deep pipelining: the PCIe ceiling, unless small operations leave the
    /// adapter issue-limited.
    pub fn read_bandwidth_gbps(&self, bytes: u64, qps: usize) -> f64 {
        let issue_limited =
            (self.ops_per_sec_per_qp * qps as u64) as f64 * bytes as f64 * 8.0 / 1e9;
        let pcie = self.pcie_bits_per_sec as f64 / 1e9;
        issue_limited.min(pcie)
    }

    /// Small-operation rate (IOPS) with `qps` queue pairs on as many cores
    /// — the paper reports 35 M for four.
    pub fn iops(&self, qps: usize) -> f64 {
        (self.ops_per_sec_per_qp * qps as u64) as f64
    }
}

impl crate::backend::LinkModel for RdmaFabric {
    fn label(&self) -> &'static str {
        "RDMA (ConnectX-3)"
    }

    /// One-sided reads and writes traverse the same doorbell/WQE/wire/DMA
    /// stages; atomics use the adapter's atomic unit (1.15 µs vs. the
    /// 1.19 µs read in the paper's Table 2).
    fn op_latency(&self, op: sonuma_protocol::RemoteOp, bytes: u64) -> SimTime {
        use sonuma_protocol::RemoteOp;
        match op {
            RemoteOp::FetchAdd | RemoteOp::CompSwap => self.fetch_add_latency(),
            _ => self.read_latency(bytes),
        }
    }

    /// The adapter issues at most `ops_per_sec_per_qp` operations per QP;
    /// one backend port maps to one QP.
    fn issue_occupancy(&self, _op: sonuma_protocol::RemoteOp, _bytes: u64) -> SimTime {
        SimTime::from_ns_f64(1e9 / self.ops_per_sec_per_qp as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_latency_matches_paper() {
        let ib = RdmaFabric::connectx3();
        let us = ib.read_latency(64).as_us_f64();
        assert!(
            (1.1..1.3).contains(&us),
            "64 B read RTT {us:.2} us; the paper reports 1.19 us"
        );
    }

    #[test]
    fn fetch_add_close_to_read() {
        let ib = RdmaFabric::connectx3();
        let fa = ib.fetch_add_latency().as_us_f64();
        assert!(
            (1.0..1.3).contains(&fa),
            "fetch-and-add {fa:.2} us; the paper reports 1.15 us"
        );
        assert!(ib.fetch_add_latency() <= ib.read_latency(64));
    }

    #[test]
    fn bandwidth_capped_by_pcie() {
        let ib = RdmaFabric::connectx3();
        let bw = ib.read_bandwidth_gbps(8192, 4);
        assert!(
            (49.0..=50.0).contains(&bw),
            "large-read bandwidth {bw} Gbps; the paper reports 50 Gbps"
        );
        // The wire could do more: the ceiling is the bus, not InfiniBand.
        assert!(ib.wire_bits_per_sec > ib.pcie_bits_per_sec);
    }

    #[test]
    fn small_ops_are_issue_limited() {
        let ib = RdmaFabric::connectx3();
        let bw64 = ib.read_bandwidth_gbps(64, 4);
        assert!(
            bw64 < 20.0,
            "64 B ops cannot reach the PCIe ceiling: {bw64}"
        );
    }

    #[test]
    fn iops_scale_with_qps() {
        let ib = RdmaFabric::connectx3();
        let four = ib.iops(4) / 1e6;
        assert!(
            (30.0..40.0).contains(&four),
            "4-QP IOPS {four} M; the paper reports 35 M"
        );
        assert!((ib.iops(1) - ib.iops(4) / 4.0).abs() < 1.0);
    }

    #[test]
    fn latency_grows_with_payload() {
        let ib = RdmaFabric::connectx3();
        assert!(ib.read_latency(8192) > ib.read_latency(64));
    }
}
