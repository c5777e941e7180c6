//! System assembly and simulation driving.

use sonuma_machine::{AppProcess, Cluster, ClusterEngine, MachineConfig};
use sonuma_protocol::{NodeId, QpId};
use sonuma_sim::SimTime;

use crate::DEFAULT_CTX;

/// Builder for a complete soNUMA system.
///
/// # Example
///
/// ```
/// use sonuma_core::SystemBuilder;
///
/// let system = SystemBuilder::simulated_hardware(4)
///     .segment_len(8 << 20)
///     .qp_entries(128)
///     .build();
/// assert_eq!(system.num_nodes(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    config: MachineConfig,
    segment_len: u64,
}

impl SystemBuilder {
    /// The paper's cycle-accurate platform (Table 1) with `nodes` nodes.
    pub fn simulated_hardware(nodes: usize) -> Self {
        SystemBuilder {
            config: MachineConfig::simulated_hardware(nodes),
            segment_len: 16 << 20,
        }
    }

    /// The Xen-based development platform (§7.1) with `nodes` nodes.
    pub fn dev_platform(nodes: usize) -> Self {
        SystemBuilder {
            config: MachineConfig::dev_platform(nodes),
            segment_len: 16 << 20,
        }
    }

    /// A single cache-coherent node with `cores` cores (the SHM baseline).
    pub fn shared_memory(cores: usize) -> Self {
        SystemBuilder {
            config: MachineConfig::shared_memory_node(cores),
            segment_len: 16 << 20,
        }
    }

    /// Sets the per-node context-segment length (globally readable bytes).
    pub fn segment_len(mut self, len: u64) -> Self {
        self.segment_len = len;
        self
    }

    /// Sets the WQ/CQ ring size for queue pairs created on this system.
    pub fn qp_entries(mut self, entries: u16) -> Self {
        self.config.qp_entries = entries;
        self
    }

    /// Overrides the number of cores per node.
    pub fn cores_per_node(mut self, cores: usize) -> Self {
        self.config.cores_per_node = cores;
        self
    }

    /// Gives mutable access to the full machine configuration for
    /// fine-grained experiments (ablations).
    pub fn tune(mut self, f: impl FnOnce(&mut MachineConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Assembles the system: builds the cluster and establishes the global
    /// context on every node.
    ///
    /// # Panics
    ///
    /// Panics if the context segment cannot be mapped (node memory too
    /// small for `segment_len`).
    pub fn build(self) -> SonumaSystem {
        let mut cluster = Cluster::new(self.config);
        cluster
            .create_context(DEFAULT_CTX, self.segment_len)
            .expect("segment must fit in node memory");
        SonumaSystem {
            cluster,
            engine: ClusterEngine::new(),
            segment_len: self.segment_len,
        }
    }
}

/// A ready-to-run soNUMA system: cluster + engine + the global context.
///
/// See the crate-level example for typical usage.
pub struct SonumaSystem {
    /// The simulated cluster (public for statistics inspection).
    pub cluster: Cluster,
    /// The event engine driving the cluster.
    pub engine: ClusterEngine,
    segment_len: u64,
}

impl std::fmt::Debug for SonumaSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SonumaSystem")
            .field("nodes", &self.cluster.num_nodes())
            .field("segment_len", &self.segment_len)
            .field("now", &self.engine.now())
            .finish()
    }
}

impl SonumaSystem {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.cluster.num_nodes()
    }

    /// Context segment length per node.
    pub fn segment_len(&self) -> u64 {
        self.segment_len
    }

    /// Creates a queue pair on `node`, owned by `core`.
    ///
    /// # Panics
    ///
    /// Panics on setup failure (memory exhaustion).
    pub fn create_qp(&mut self, node: NodeId, core: usize) -> QpId {
        self.cluster
            .create_qp(node, DEFAULT_CTX, core)
            .expect("QP ring allocation failed")
    }

    /// Spawns an application process on `node`/`core`; it wakes with
    /// [`sonuma_machine::Wake::Start`] at the current simulation time.
    pub fn spawn(&mut self, node: NodeId, core: usize, process: Box<dyn AppProcess>) {
        self.cluster.spawn(&mut self.engine, node, core, process);
    }

    /// Runs until no events remain.
    pub fn run(&mut self) {
        self.engine.run(&mut self.cluster);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Functional write into a node's context segment (workload setup).
    pub fn write_ctx(&mut self, node: NodeId, offset: u64, data: &[u8]) {
        self.cluster.write_ctx(node, DEFAULT_CTX, offset, data);
    }

    /// Functional read from a node's context segment (verification).
    pub fn read_ctx(&self, node: NodeId, offset: u64, buf: &mut [u8]) {
        self.cluster.read_ctx(node, DEFAULT_CTX, offset, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_context_on_all_nodes() {
        let mut s = SystemBuilder::simulated_hardware(3)
            .segment_len(1 << 20)
            .build();
        for n in 0..3u16 {
            s.write_ctx(NodeId(n), 0, &[n as u8 + 1]);
            let mut b = [0u8; 1];
            s.read_ctx(NodeId(n), 0, &mut b);
            assert_eq!(b[0], n as u8 + 1);
        }
    }

    #[test]
    fn builder_options_apply() {
        let s = SystemBuilder::dev_platform(2)
            .qp_entries(16)
            .segment_len(2 << 20)
            .build();
        assert_eq!(s.cluster.config().qp_entries, 16);
        assert_eq!(s.segment_len(), 2 << 20);
    }

    #[test]
    fn tune_exposes_full_config() {
        let s = SystemBuilder::simulated_hardware(2)
            .tune(|c| c.itt_entries = 8)
            .build();
        assert_eq!(s.cluster.config().itt_entries, 8);
    }

    #[test]
    fn qp_creation_and_empty_run() {
        let mut s = SystemBuilder::simulated_hardware(2).build();
        let qp = s.create_qp(NodeId(0), 0);
        assert_eq!(qp.index(), 0);
        s.run();
        assert_eq!(s.now(), SimTime::ZERO);
    }
}
