//! The assembled fabric: topology + per-link serialization + credits.

use sonuma_protocol::NodeId;
use sonuma_sim::SimTime;

use crate::config::FabricConfig;
use crate::fault::{fault_unit, FaultPlan, LinkFault, PacketFate};
use crate::link::DirectedLink;
use crate::topology::{NextHopTable, Topology};
use crate::VIRTUAL_LANES;

/// Result of injecting a packet: when and via how many hops it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Time the packet is fully delivered at the destination NI.
    pub time: SimTime,
    /// Number of links traversed.
    pub hops: u32,
}

/// How `(from, to)` directed-link pairs map into the dense link table —
/// the fabric's "adjacency index". Both forms are pure arithmetic, so a
/// hop's link lookup is an index computation plus one array load, no
/// hashing.
#[derive(Debug, Clone, Copy)]
enum AdjIndex {
    /// Crossbar: src-major ordered-pair index. `from` owns a contiguous
    /// block of `n - 1` slots, one per possible peer (the diagonal is
    /// skipped — loopback never enters the fabric).
    Pairs { n: usize },
    /// Torus: node × output port. Ports pair up per dimension
    /// (+1 direction then −1), so a D-dimensional torus has 2·D ports per
    /// node and `n · 2D` slots total.
    Grid { dims: [u16; 3], ndims: u8 },
}

impl AdjIndex {
    fn of(topology: &Topology) -> AdjIndex {
        match *topology {
            Topology::Crossbar { nodes } => AdjIndex::Pairs { n: nodes },
            Topology::Torus { dims, ndims } => AdjIndex::Grid {
                dims: dims.map(|k| k as u16),
                ndims: ndims as u8,
            },
        }
    }

    /// Total slots in the dense table.
    fn slots(self, nodes: usize) -> usize {
        match self {
            AdjIndex::Pairs { n } => n * (n - 1).max(1),
            AdjIndex::Grid { ndims, .. } => nodes * 2 * ndims as usize,
        }
    }

    /// The slot of the link a routed hop `from -> to` leaves on, given the
    /// output `port` the route walker named (`RouteIter::step`): a multiply
    /// and an add, where [`AdjIndex::index`] has to rediscover the port by
    /// dividing both ids down to coordinates.
    fn hop_slot(self, from: NodeId, to: NodeId, port: u8) -> usize {
        match self {
            AdjIndex::Pairs { .. } => self.index(from, to),
            AdjIndex::Grid { ndims, .. } => {
                let slot = from.index() * 2 * ndims as usize + port as usize;
                debug_assert_eq!(slot, self.index(from, to));
                slot
            }
        }
    }

    /// The slot of directed link `from -> to`. `to` must be one hop from
    /// `from` under the owning topology's routing. The cold form, for
    /// hops that come without a port (fault plans, avoidance tables).
    fn index(self, from: NodeId, to: NodeId) -> usize {
        match self {
            AdjIndex::Pairs { n } => {
                let peer = if to.index() < from.index() {
                    to.index()
                } else {
                    to.index() - 1
                };
                from.index() * (n - 1) + peer
            }
            AdjIndex::Grid { dims, ndims } => {
                // Find the one dimension the neighbors differ in and its
                // direction: +1 steps take the even port, −1 the odd.
                // (On a ring of 2 both directions coincide on the even
                // port — there is only one physical link.)
                let (mut f, mut t) = (from.index(), to.index());
                for (d, &dim) in dims[..ndims as usize].iter().enumerate() {
                    let k = dim as usize;
                    let (fc, tc) = (f % k, t % k);
                    if fc != tc {
                        let port = 2 * d + usize::from((tc + k - fc) % k != 1);
                        return from.index() * 2 * ndims as usize + port;
                    }
                    f /= k;
                    t /= k;
                }
                unreachable!("link endpoints are not grid neighbors");
            }
        }
    }
}

/// Per-slot link degradation, precomputed from the [`FaultPlan`] so the
/// send path reads a `Copy` struct instead of scanning the plan.
#[derive(Debug, Clone, Copy)]
struct LinkParams {
    derate: f64,
    credit_loss: usize,
    drop_prob: f64,
    corrupt_prob: f64,
}

const CLEAN_LINK: LinkParams = LinkParams {
    derate: 1.0,
    credit_loss: 0,
    drop_prob: 0.0,
    corrupt_prob: 0.0,
};

/// Fault-injection state of a fabric whose plan degrades or kills links.
///
/// All probabilistic decisions are pure hashes (`fault_unit`) and the
/// kill/revive state is a pure function of the packet's injection time, so
/// this struct holds no RNG position — only the plan compiled to slot
/// indices, a routing-table cache, and counters.
#[derive(Debug)]
struct FaultRuntime {
    seed: u64,
    /// Degraded slots, sorted by slot index for binary search.
    params: Vec<(u32, LinkParams)>,
    /// Links with a kill window; bit `i` of a dead mask tracks entry `i`.
    killable: Vec<(u32, LinkFault)>,
    /// Avoidance table for the most recent dead-mask value. Rebuilt only
    /// when the mask changes (kills and revivals, a handful per run).
    cache: Option<(u64, NextHopTable)>,
    dropped: u64,
    corrupted: u64,
    rerouted: u64,
    unreachable: u64,
}

impl FaultRuntime {
    fn build(plan: &FaultPlan, topology: &Topology, adj: AdjIndex) -> FaultRuntime {
        let mut params: Vec<(u32, LinkParams)> = Vec::new();
        let mut killable = Vec::new();
        for f in &plan.links {
            assert!(
                topology.neighbors(f.src).contains(&f.dst),
                "link fault {:?}->{:?} does not name a fabric link",
                f.src,
                f.dst,
            );
            let slot = adj.index(f.src, f.dst) as u32;
            if f.derate > 1.0 || f.credit_loss > 0 || f.drop_prob > 0.0 || f.corrupt_prob > 0.0 {
                params.push((
                    slot,
                    LinkParams {
                        derate: f.derate.max(1.0),
                        credit_loss: f.credit_loss,
                        drop_prob: f.drop_prob,
                        corrupt_prob: f.corrupt_prob,
                    },
                ));
            }
            if f.kill_at.is_some() {
                assert!(killable.len() < 64, "at most 64 killable links per plan");
                killable.push((slot, *f));
            }
        }
        params.sort_unstable_by_key(|&(slot, _)| slot);
        assert!(
            params.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate link fault on one directed link"
        );
        FaultRuntime {
            seed: plan.seed,
            params,
            killable,
            cache: None,
            dropped: 0,
            corrupted: 0,
            rerouted: 0,
            unreachable: 0,
        }
    }

    fn params_at(&self, slot: u32) -> LinkParams {
        match self.params.binary_search_by_key(&slot, |&(s, _)| s) {
            Ok(i) => self.params[i].1,
            Err(_) => CLEAN_LINK,
        }
    }

    /// Which killable links are dead for a packet injected at `now` — a
    /// pure function of time, never a stateful toggle, because the fabric
    /// sees send times out of order within an epoch.
    fn dead_mask(&self, now: SimTime) -> u64 {
        let mut mask = 0u64;
        for (i, (_, f)) in self.killable.iter().enumerate() {
            if f.dead_at(now) {
                mask |= 1 << i;
            }
        }
        mask
    }

    fn dead_pairs(&self, mask: u64) -> Vec<(NodeId, NodeId)> {
        self.killable
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &(_, f))| (f.src, f.dst))
            .collect()
    }
}

/// Fault-injection counters of one fabric (see [`Fabric::fault_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Packets lost on a faulty link after occupying the wire up to it.
    pub dropped: u64,
    /// Packets delivered with flipped bits (the receiving RMC discards
    /// them on its integrity check).
    pub corrupted: u64,
    /// Packets routed via the dead-link-avoidance table (at least one
    /// link was dead when they were injected).
    pub rerouted: u64,
    /// Packets dropped because no live route to the destination existed.
    pub unreachable: u64,
}

/// The rack-scale memory fabric connecting all nodes' network interfaces.
///
/// Analytic DES component: [`Fabric::send`] advances internal link state
/// and returns the packet's arrival time; the caller schedules delivery.
/// Per-hop costs are `serialization + hop_latency` with store-and-forward
/// at intermediate routers (indistinguishable from cut-through at soNUMA's
/// 88-byte MTU), and per-lane credits apply on every hop.
///
/// Hot-path discipline: routes come from the allocation-free
/// [`Topology::route_iter`] walker, which names each hop's output port, and
/// link state is one 64-byte header per link in a dense table indexed by
/// `node × port` arithmetic, with the credit drain times in one flat ring
/// arena beside it. A hop is an add, a compare and two warm lines: no
/// hashing, no division, and on a torus no heap allocation after
/// [`Fabric::new`] (the crossbar, whose N² slots are mostly never used,
/// appends a link's state on its first packet).
///
/// # Example
///
/// ```
/// use sonuma_fabric::{Fabric, FabricConfig};
/// use sonuma_protocol::NodeId;
/// use sonuma_sim::SimTime;
///
/// let mut f = Fabric::new(FabricConfig::torus2d(4, 4));
/// let near = f.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88);
/// let far = f.send(SimTime::ZERO, NodeId(0), NodeId(10), 0, 88);
/// assert!(far.hops > near.hops);
/// assert!(far.time > near.time);
/// ```
pub struct Fabric {
    config: FabricConfig,
    adj: AdjIndex,
    links: LinkTable,
    /// Compiled link-fault state; `None` whenever the plan (if any) has no
    /// link faults, which keeps [`Fabric::send_faulty`] on the plain
    /// [`Fabric::send`] path.
    fault_rt: Option<FaultRuntime>,
    packets_sent: u64,
    bytes_sent: u64,
    lane_packets: [u64; VIRTUAL_LANES],
}

/// Dense link storage: headers and credit rings, both found from a link's
/// index. The two layouts differ only in how a slot finds that index.
#[derive(Debug)]
struct LinkTable {
    /// Grids: one header per [`AdjIndex`] slot, slot-indexed, all built up
    /// front. Crossbar: one per pair that has carried a packet, in
    /// first-packet order.
    links: Vec<DirectedLink>,
    /// In-flight drain times in picoseconds, `VIRTUAL_LANES ×
    /// credits_per_lane` words per link at `index × that`. Built with
    /// `vec![0u64; n]` so the grids' full-size arena is untouched zero
    /// pages until a link's first packet.
    rings: Vec<u64>,
    /// Crossbar only: slot → index + 1 into `links`, 0 until the pair's
    /// first packet (N² slots, of which a run touches few). Empty on
    /// grids, where the index is the slot.
    dense: Vec<u32>,
}

impl LinkTable {
    fn new(adj: AdjIndex, config: &FabricConfig) -> LinkTable {
        let slots = adj.slots(config.topology.nodes());
        let ring_words = VIRTUAL_LANES * config.credits_per_lane;
        match adj {
            AdjIndex::Pairs { .. } => LinkTable {
                links: Vec::new(),
                rings: Vec::new(),
                dense: vec![0u32; slots],
            },
            AdjIndex::Grid { .. } => LinkTable {
                links: vec![DirectedLink::default(); slots],
                rings: vec![0u64; slots * ring_words],
                dense: Vec::new(),
            },
        }
    }

    /// The header and ring block of the link in `slot`, for a packet about
    /// to cross it `from -> to`. The link's first packet fixes its credit
    /// pool: the configured one less the plan's `credit_loss` for the slot
    /// (flow-control degradation), never below one credit or the link
    /// could carry nothing.
    fn hop(
        &mut self,
        slot: usize,
        from: NodeId,
        to: NodeId,
        config: &FabricConfig,
        rt: Option<&FaultRuntime>,
    ) -> (&mut DirectedLink, &mut [u64]) {
        let ring_words = VIRTUAL_LANES * config.credits_per_lane;
        let index = match self.dense.get_mut(slot) {
            None => slot,
            Some(dense) => {
                if *dense == 0 {
                    self.links.push(DirectedLink::default());
                    self.rings.resize(self.links.len() * ring_words, 0);
                    *dense = u32::try_from(self.links.len()).expect("links fit u32");
                }
                *dense as usize - 1
            }
        };
        let link = &mut self.links[index];
        if !link.in_use() {
            let lost = rt.map_or(0, |rt| rt.params_at(slot as u32).credit_loss);
            let credits = config.credits_per_lane.saturating_sub(lost).max(1);
            link.open(from.0, to.0, credits);
        }
        (link, &mut self.rings[index * ring_words..][..ring_words])
    }

    /// Every link that has carried a packet, in slot order.
    fn in_use(&self) -> impl Iterator<Item = (usize, &DirectedLink)> {
        // One slot per header on grids, per `dense` entry on the crossbar.
        let slots = self.links.len().max(self.dense.len());
        (0..slots).filter_map(|slot| {
            let index = match self.dense.get(slot) {
                None => slot,
                Some(&dense) => (dense as usize).checked_sub(1)?,
            };
            Some((slot, &self.links[index])).filter(|(_, link)| link.in_use())
        })
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("config", &self.config)
            .field("links_active", &self.links.in_use().count())
            .field("packets_sent", &self.packets_sent)
            .field("bytes_sent", &self.bytes_sent)
            .finish()
    }
}

impl Fabric {
    /// Creates an idle fabric.
    ///
    /// # Panics
    ///
    /// Panics if `credits_per_lane` is zero (a zero-credit lane can never
    /// send).
    pub fn new(config: FabricConfig) -> Self {
        assert!(config.credits_per_lane > 0, "zero-credit virtual channel");
        let adj = AdjIndex::of(&config.topology);
        let links = LinkTable::new(adj, &config);
        let fault_rt = config
            .faults
            .as_ref()
            .filter(|plan| !plan.links.is_empty())
            .map(|plan| FaultRuntime::build(plan, &config.topology, adj));
        Fabric {
            config,
            adj,
            links,
            fault_rt,
            packets_sent: 0,
            bytes_sent: 0,
            lane_packets: [0; VIRTUAL_LANES],
        }
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Number of nodes the fabric connects.
    pub fn nodes(&self) -> usize {
        self.config.topology.nodes()
    }

    /// Injects a packet of `bytes` on virtual lane `lane` at time `now`;
    /// returns its arrival at `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 2`, if either node id is out of range, or if
    /// `src == dst` (local traffic never enters the fabric).
    pub fn send(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        lane: usize,
        bytes: u64,
    ) -> Arrival {
        assert!(lane < VIRTUAL_LANES, "virtual lane out of range");
        assert_ne!(src, dst, "loopback traffic must not enter the fabric");
        let ser = self.config.serialization(bytes);

        let mut at = now;
        let mut prev = src;
        let mut hops = 0u32;
        let mut route = self.config.topology.route_iter(src, dst);
        while let Some((hop, port)) = route.step() {
            let slot = self.adj.hop_slot(prev, hop, port);
            let (link, rings) =
                self.links
                    .hop(slot, prev, hop, &self.config, self.fault_rt.as_ref());
            at = link.traverse(rings, &self.config, lane, at, ser, bytes);
            prev = hop;
            hops += 1;
        }

        self.packets_sent += 1;
        self.bytes_sent += bytes;
        self.lane_packets[lane] += 1;
        Arrival { time: at, hops }
    }

    /// Injects a packet through the fault plan: like [`Fabric::send`], but
    /// each hop may be derated, may drop the packet (it occupies the wire
    /// up to and including the faulting hop, then vanishes), or may corrupt
    /// it (it still arrives and pays full wire time; the receiver discards
    /// it). Packets injected while a link is dead route around it via a
    /// recomputed shortest-path table; if no live route exists the packet
    /// is dropped at the source.
    ///
    /// `salt` must identify the packet *instance* — the caller hashes the
    /// packet's wire identity and send time — so the same packet drawn on
    /// any shard of any partition gets the same fate, and a retransmission
    /// (new send time) gets a fresh draw.
    ///
    /// With no link faults compiled this is exactly `send` (and the
    /// returned fate is `Delivered`), so zero-fault runs stay byte-
    /// identical to the fault-free build.
    pub fn send_faulty(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        lane: usize,
        bytes: u64,
        salt: u64,
    ) -> (Arrival, PacketFate) {
        let Some(rt) = self.fault_rt.as_mut() else {
            return (self.send(now, src, dst, lane, bytes), PacketFate::Delivered);
        };
        assert!(lane < VIRTUAL_LANES, "virtual lane out of range");
        assert_ne!(src, dst, "loopback traffic must not enter the fabric");
        let (config, adj, links) = (&self.config, self.adj, &mut self.links);
        let ser = config.serialization(bytes);

        // Dead links force table routing: reuse the cached avoidance table
        // when the dead set is unchanged, rebuild it otherwise (a handful
        // of times per run — only at kill/revive boundaries).
        let mask = rt.dead_mask(now);
        if mask != 0 && rt.cache.as_ref().is_none_or(|&(m, _)| m != mask) {
            let table = NextHopTable::build_avoiding(&config.topology, &rt.dead_pairs(mask));
            rt.cache = Some((mask, table));
        }

        let table = rt.cache.as_ref().filter(|_| mask != 0).map(|(_, t)| t);

        let mut at = now;
        let mut hops = 0u32;
        let mut fate = PacketFate::Delivered;
        let mut unreachable = false;
        let mut cur = src;
        let mut route = config.topology.route_iter(src, dst);
        loop {
            // The arithmetic walker names the output port; a table hop has
            // to look its slot up.
            let (to, slot) = match table {
                None => match route.step() {
                    Some((to, port)) => (to, adj.hop_slot(cur, to, port)),
                    None => break,
                },
                Some(_) if cur == dst => break,
                Some(table) => {
                    let to = table.next_hop(cur, dst);
                    if to == cur {
                        fate = PacketFate::Dropped;
                        unreachable = true;
                        break;
                    }
                    (to, adj.index(cur, to))
                }
            };
            // Occupy credit + wire, with the slot's derate applied to
            // serialization.
            let p = rt.params_at(slot as u32);
            let ser = if p.derate > 1.0 {
                SimTime::from_ps((ser.as_ps() as f64 * p.derate).round() as u64)
            } else {
                ser
            };
            let (link, rings) = links.hop(slot, cur, to, config, Some(rt));
            at = link.traverse(rings, config, lane, at, ser, bytes);
            cur = to;
            hops += 1;
            // Then draw the hop's drop and corruption fates from the pure
            // fault stream; streams 4·slot and 4·slot+1 keep every link's
            // draws decorrelated for the same packet.
            let stream = (slot as u64) << 2;
            if p.drop_prob > 0.0 && fault_unit(rt.seed, salt, stream) < p.drop_prob {
                fate = PacketFate::Dropped;
                break;
            }
            if p.corrupt_prob > 0.0 && fault_unit(rt.seed, salt, stream | 1) < p.corrupt_prob {
                fate = PacketFate::Corrupted;
            }
        }

        self.packets_sent += 1;
        self.bytes_sent += bytes;
        self.lane_packets[lane] += 1;
        rt.rerouted += u64::from(mask != 0);
        match fate {
            PacketFate::Dropped if unreachable => rt.unreachable += 1,
            PacketFate::Dropped => rt.dropped += 1,
            PacketFate::Corrupted => rt.corrupted += 1,
            PacketFate::Delivered => {}
        }
        (Arrival { time: at, hops }, fate)
    }

    /// Fault-injection counters; all zero when no link faults exist.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_rt
            .as_ref()
            .map_or(FaultStats::default(), |rt| FaultStats {
                dropped: rt.dropped,
                corrupted: rt.corrupted,
                rerouted: rt.rerouted,
                unreachable: rt.unreachable,
            })
    }

    /// Total packets injected.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Total bytes injected.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Packets per virtual lane `[requests, replies]`.
    pub fn lane_packets(&self) -> [u64; VIRTUAL_LANES] {
        self.lane_packets
    }

    /// Total credit stalls across all links and lanes (congestion metric).
    pub fn credit_stalls(&self) -> u64 {
        self.links.links.iter().map(DirectedLink::stalls).sum()
    }

    /// Per-link traffic counters for every directed link that has carried
    /// at least one packet, sorted by `(src, dst)` — deterministic
    /// regardless of traffic pattern, so reports built from it are
    /// byte-stable across runs.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        let mut out: Vec<LinkStats> = self
            .links
            .links
            .iter()
            .filter(|link| link.in_use())
            .map(|link| LinkStats {
                src: NodeId(link.src),
                dst: NodeId(link.dst),
                bytes: link.serializer.bytes(),
                packets: link.serializer.packets(),
                credit_stalls: link.stalls(),
            })
            .collect();
        out.sort_unstable_by_key(|l| (l.src, l.dst));
        out
    }

    /// Number of dense link slots (the fixed upper bound on distinct
    /// directed links this fabric can ever instantiate). Flight recorders
    /// size their per-link tables from this once, up front.
    pub fn link_slots(&self) -> usize {
        self.adj.slots(self.nodes())
    }

    /// Visits every link that has carried a packet, in slot order, with
    /// `(slot, src, dst, bytes, packets, credit_stalls)` — the cumulative
    /// counters [`Fabric::link_stats`] reports, but without allocating,
    /// so a flight recorder can sample mid-run on the hot path. Slot
    /// order is a pure function of the topology, never of traffic.
    pub fn visit_links(&self, mut f: impl FnMut(usize, u16, u16, u64, u64, u64)) {
        for (slot, link) in self.links.in_use() {
            f(
                slot,
                link.src,
                link.dst,
                link.serializer.bytes(),
                link.serializer.packets(),
                link.stalls(),
            );
        }
    }
}

/// Traffic counters of one directed link (see [`Fabric::link_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Bytes serialized onto the wire.
    pub bytes: u64,
    /// Packets serialized onto the wire.
    pub packets: u64,
    /// Sends that had to wait for a credit, summed over the link's
    /// virtual lanes.
    pub credit_stalls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_uncontended_latency_is_flat() {
        let mut f = Fabric::new(FabricConfig::paper_crossbar(8));
        let a = f.send(SimTime::ZERO, NodeId(0), NodeId(5), 0, 88);
        assert_eq!(a.hops, 1);
        // 50 ns + 2.75 ns serialization.
        assert_eq!(a.time, SimTime::from_ns(50) + f.config().serialization(88));
    }

    #[test]
    fn torus_latency_scales_with_distance() {
        let mut f = Fabric::new(FabricConfig::torus2d(4, 4));
        let one = f.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88);
        let four = f.send(SimTime::ZERO, NodeId(0), NodeId(10), 0, 88);
        assert_eq!(one.hops, 1);
        assert_eq!(four.hops, 4);
        assert!(
            four.time > one.time * 3,
            "multi-hop must cost proportionally"
        );
    }

    #[test]
    fn link_contention_serializes() {
        let mut f = Fabric::new(FabricConfig::paper_crossbar(4));
        let a = f.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88);
        let b = f.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88);
        assert_eq!(b.time - a.time, f.config().serialization(88));
    }

    #[test]
    fn distinct_links_do_not_contend() {
        let mut f = Fabric::new(FabricConfig::paper_crossbar(4));
        let a = f.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88);
        let b = f.send(SimTime::ZERO, NodeId(2), NodeId(3), 0, 88);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn lanes_do_not_share_credits() {
        let cfg = FabricConfig {
            credits_per_lane: 1,
            ..FabricConfig::paper_crossbar(2)
        };
        let mut f = Fabric::new(cfg);
        // Exhaust lane 0's single credit.
        let a0 = f.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88);
        // Lane 1 is unaffected (same physical link, so only serialization).
        let b = f.send(SimTime::ZERO, NodeId(0), NodeId(1), 1, 88);
        assert_eq!(b.time - a0.time, f.config().serialization(88));
        // Lane 0 again: must wait for the credit to return.
        let a1 = f.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88);
        assert!(a1.time >= a0.time + f.config().credit_return);
        assert!(f.credit_stalls() >= 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut f = Fabric::new(FabricConfig::paper_crossbar(4));
        f.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 24);
        f.send(SimTime::ZERO, NodeId(1), NodeId(0), 1, 88);
        assert_eq!(f.packets_sent(), 2);
        assert_eq!(f.bytes_sent(), 112);
        assert_eq!(f.lane_packets(), [1, 1]);
    }

    #[test]
    fn sustained_throughput_matches_link_bandwidth() {
        let mut f = Fabric::new(FabricConfig::paper_crossbar(2));
        let n = 10_000u64;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = f.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88).time;
        }
        let gbps = sonuma_sim::stats::gbps(n * 88, last);
        // Wire rate is 32 GB/s = 256 Gbps; the 16-credit window over a
        // ~103 ns credit round trip sustains ~88% of it. Either way the
        // fabric must comfortably outrun one DDR3 channel (~77 Gbps).
        assert!(gbps > 200.0, "sustained {gbps} Gbps");
    }

    #[test]
    fn link_stats_are_sorted_and_complete() {
        let mut f = Fabric::new(FabricConfig::paper_crossbar(4));
        f.send(SimTime::ZERO, NodeId(2), NodeId(1), 0, 88);
        f.send(SimTime::ZERO, NodeId(0), NodeId(3), 1, 24);
        f.send(SimTime::ZERO, NodeId(0), NodeId(3), 1, 24);
        let stats = f.link_stats();
        assert_eq!(stats.len(), 2, "only links that carried traffic");
        assert_eq!((stats[0].src, stats[0].dst), (NodeId(0), NodeId(3)));
        assert_eq!((stats[0].bytes, stats[0].packets), (48, 2));
        assert_eq!((stats[1].src, stats[1].dst), (NodeId(2), NodeId(1)));
        assert_eq!(
            stats.iter().map(|l| l.bytes).sum::<u64>(),
            f.bytes_sent(),
            "per-link bytes must account for every byte sent"
        );
    }

    #[test]
    fn link_stats_ordering_matches_hashmap_reference() {
        // The dense layout must report exactly what the original
        // HashMap-keyed implementation did: one row per directed link that
        // carried traffic, sorted by (src, dst). The reference here
        // accumulates the same traffic into a HashMap and sorts its keys.
        use std::collections::HashMap;
        for config in [
            FabricConfig::paper_crossbar(6),
            FabricConfig::torus2d(3, 4),
            FabricConfig::torus3d(2, 3, 2),
        ] {
            let topo = config.topology.clone();
            let n = topo.nodes() as u16;
            let mut fabric = Fabric::new(config);
            let mut reference: HashMap<(u16, u16), (u64, u64)> = HashMap::new();
            let mut seed = 12345u64;
            for i in 0..500u64 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let src = (seed >> 33) as u16 % n;
                let dst = (seed >> 17) as u16 % n;
                if src == dst {
                    continue;
                }
                let bytes = if i % 3 == 0 { 24 } else { 88 };
                fabric.send(SimTime::from_ns(i), NodeId(src), NodeId(dst), 0, bytes);
                let mut prev = src;
                for hop in topo.route(NodeId(src), NodeId(dst)) {
                    let e = reference.entry((prev, hop.0)).or_default();
                    e.0 += bytes;
                    e.1 += 1;
                    prev = hop.0;
                }
            }
            let mut expected: Vec<((u16, u16), (u64, u64))> = reference.into_iter().collect();
            expected.sort_unstable_by_key(|&(k, _)| k);
            let stats = fabric.link_stats();
            assert_eq!(stats.len(), expected.len(), "{topo:?} link row count");
            for (row, ((src, dst), (bytes, packets))) in stats.iter().zip(expected) {
                assert_eq!((row.src.0, row.dst.0), (src, dst), "{topo:?} ordering");
                assert_eq!((row.bytes, row.packets), (bytes, packets), "{topo:?}");
            }
        }
    }

    fn plan_with(links: Vec<LinkFault>) -> FaultPlan {
        let mut plan = FaultPlan::new(42);
        plan.links = links;
        plan
    }

    #[test]
    fn send_faulty_without_link_faults_matches_send() {
        let mut clean = Fabric::new(FabricConfig::torus2d(4, 4));
        let mut faulty = Fabric::new(FabricConfig {
            faults: Some(FaultPlan::new(42)),
            ..FabricConfig::torus2d(4, 4)
        });
        for i in 0..50u64 {
            let (src, dst) = (NodeId((i % 16) as u16), NodeId(((i * 7 + 3) % 16) as u16));
            if src == dst {
                continue;
            }
            let t = SimTime::from_ns(i * 3);
            let a = clean.send(t, src, dst, (i % 2) as usize, 88);
            let (b, fate) = faulty.send_faulty(t, src, dst, (i % 2) as usize, 88, i);
            assert_eq!(a, b);
            assert_eq!(fate, PacketFate::Delivered);
        }
        assert_eq!(faulty.fault_stats(), FaultStats::default());
    }

    #[test]
    fn certain_drop_loses_the_packet_but_occupies_the_wire() {
        let mut f = LinkFault::on(NodeId(0), NodeId(1));
        f.drop_prob = 1.0;
        let mut fabric = Fabric::new(FabricConfig {
            faults: Some(plan_with(vec![f])),
            ..FabricConfig::paper_crossbar(4)
        });
        let (_, fate) = fabric.send_faulty(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88, 1);
        assert_eq!(fate, PacketFate::Dropped);
        assert_eq!(fabric.fault_stats().dropped, 1);
        // The dropped packet serialized onto the faulty link: a follow-up
        // on a *clean* link out of node 0 is undisturbed, but the faulty
        // link's serializer was busy.
        let (a, fate) = fabric.send_faulty(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88, 2);
        assert_eq!(fate, PacketFate::Dropped);
        assert!(a.time > SimTime::from_ns(50) + fabric.config().serialization(88));
    }

    #[test]
    fn certain_corruption_still_pays_full_wire_time() {
        let mut f = LinkFault::on(NodeId(0), NodeId(1));
        f.corrupt_prob = 1.0;
        let mut clean = Fabric::new(FabricConfig::paper_crossbar(4));
        let mut faulty = Fabric::new(FabricConfig {
            faults: Some(plan_with(vec![f])),
            ..FabricConfig::paper_crossbar(4)
        });
        let a = clean.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88);
        let (b, fate) = faulty.send_faulty(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88, 1);
        assert_eq!(fate, PacketFate::Corrupted);
        assert_eq!(a, b, "corruption must not change timing");
        assert_eq!(faulty.fault_stats().corrupted, 1);
    }

    #[test]
    fn derate_slows_only_the_faulty_link() {
        let mut f = LinkFault::on(NodeId(0), NodeId(1));
        f.derate = 4.0;
        let mut fabric = Fabric::new(FabricConfig {
            faults: Some(plan_with(vec![f])),
            ..FabricConfig::paper_crossbar(4)
        });
        let ser = fabric.config().serialization(88);
        let (slow, _) = fabric.send_faulty(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88, 1);
        let (fast, _) = fabric.send_faulty(SimTime::ZERO, NodeId(0), NodeId(2), 0, 88, 2);
        assert_eq!(slow.time, SimTime::from_ns(50) + ser * 4);
        assert_eq!(fast.time, SimTime::from_ns(50) + ser);
    }

    #[test]
    fn credit_loss_shrinks_the_pool() {
        let mut f = LinkFault::on(NodeId(0), NodeId(1));
        f.credit_loss = 15; // 16-credit pool -> 1 credit
        let mut fabric = Fabric::new(FabricConfig {
            faults: Some(plan_with(vec![f])),
            ..FabricConfig::paper_crossbar(4)
        });
        let (a0, _) = fabric.send_faulty(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88, 1);
        let (a1, _) = fabric.send_faulty(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88, 2);
        assert!(a1.time >= a0.time + fabric.config().credit_return);
        assert!(fabric.credit_stalls() >= 1);
    }

    #[test]
    fn dead_link_reroutes_and_revival_restores() {
        let mut f = LinkFault::on(NodeId(0), NodeId(1));
        f.kill_at = Some(SimTime::from_ns(100));
        f.revive_at = Some(SimTime::from_ns(200));
        let mut fabric = Fabric::new(FabricConfig {
            faults: Some(plan_with(vec![f])),
            ..FabricConfig::torus2d(4, 4)
        });
        // Before the kill: the direct one-hop route.
        let (before, fate) = fabric.send_faulty(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88, 1);
        assert_eq!((before.hops, fate), (1, PacketFate::Delivered));
        // During the outage: detour, still delivered.
        let (during, fate) =
            fabric.send_faulty(SimTime::from_ns(100), NodeId(0), NodeId(1), 0, 88, 2);
        assert_eq!(fate, PacketFate::Delivered);
        assert!(during.hops > 1, "must avoid the dead link");
        assert_eq!(fabric.fault_stats().rerouted, 1);
        // After revival: direct again.
        let (after, _) = fabric.send_faulty(SimTime::from_ns(200), NodeId(0), NodeId(1), 0, 88, 3);
        assert_eq!(after.hops, 1);
    }

    #[test]
    fn unreachable_destination_drops_at_source() {
        let mut plan = FaultPlan::new(7);
        for f in [
            LinkFault::on(NodeId(0), NodeId(1)),
            LinkFault::on(NodeId(1), NodeId(0)),
        ] {
            let mut f = f;
            f.kill_at = Some(SimTime::ZERO);
            plan.links.push(f);
        }
        let mut fabric = Fabric::new(FabricConfig {
            faults: Some(plan),
            ..FabricConfig::paper_crossbar(2)
        });
        let (a, fate) = fabric.send_faulty(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88, 1);
        assert_eq!(fate, PacketFate::Dropped);
        assert_eq!(a.hops, 0);
        assert_eq!(fabric.fault_stats().unreachable, 1);
    }

    #[test]
    fn crossbar_reroute_takes_a_two_hop_detour() {
        let mut f = LinkFault::on(NodeId(0), NodeId(1));
        f.kill_at = Some(SimTime::ZERO);
        let mut fabric = Fabric::new(FabricConfig {
            faults: Some(plan_with(vec![f])),
            ..FabricConfig::paper_crossbar(4)
        });
        let (a, fate) = fabric.send_faulty(SimTime::ZERO, NodeId(0), NodeId(1), 0, 88, 1);
        assert_eq!(fate, PacketFate::Delivered);
        assert_eq!(a.hops, 2, "crossbar detour goes through one peer");
    }

    #[test]
    fn fault_fates_are_time_salted() {
        // The same packet identity retransmitted at a new time gets an
        // independent draw: with p = 0.5 some salt must flip the fate.
        let mut f = LinkFault::on(NodeId(0), NodeId(1));
        f.drop_prob = 0.5;
        let mut fabric = Fabric::new(FabricConfig {
            faults: Some(plan_with(vec![f])),
            ..FabricConfig::paper_crossbar(2)
        });
        let fates: Vec<PacketFate> = (0..32)
            .map(|i| {
                fabric
                    .send_faulty(SimTime::from_ns(i), NodeId(0), NodeId(1), 0, 88, 900 + i)
                    .1
            })
            .collect();
        assert!(fates.contains(&PacketFate::Dropped));
        assert!(fates.contains(&PacketFate::Delivered));
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_panics() {
        let mut f = Fabric::new(FabricConfig::paper_crossbar(2));
        f.send(SimTime::ZERO, NodeId(0), NodeId(0), 0, 88);
    }

    #[test]
    #[should_panic(expected = "virtual lane")]
    fn bad_lane_panics() {
        let mut f = Fabric::new(FabricConfig::paper_crossbar(2));
        f.send(SimTime::ZERO, NodeId(0), NodeId(1), 2, 88);
    }
}
