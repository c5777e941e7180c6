//! Node-to-shard partitioning for conservative-parallel simulation.
//!
//! A [`ShardPlan`] splits the fabric's node id space into contiguous
//! ranges, one per shard. Contiguity matters twice over: shard membership
//! becomes a binary search over a handful of bounds, and — because node
//! ids enumerate the torus with dimension 0 varying fastest (the same
//! order `AdjIndex` uses for the dense link table) — a contiguous id range
//! is a contiguous slab of the torus, so most neighbor links stay
//! shard-internal. [`ShardPlan::for_topology`] additionally aligns shard
//! boundaries to whole planes (the nodes spanned by every dimension but
//! the last) when the torus allows it, which keeps the cut surface — and
//! with it cross-shard traffic — minimal.

use crate::topology::Topology;

/// A partition of nodes `0..n` into contiguous shard ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `shards + 1` strictly increasing bounds; shard `s` owns
    /// `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// An even contiguous split of `nodes` into `shards` ranges (shard
    /// counts above the node count are clamped down — a shard must own at
    /// least one node).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `shards` is zero.
    pub fn contiguous(nodes: usize, shards: usize) -> ShardPlan {
        assert!(nodes > 0, "cannot partition an empty cluster");
        assert!(shards > 0, "need at least one shard");
        let shards = shards.min(nodes);
        let bounds = (0..=shards).map(|s| s * nodes / shards).collect();
        ShardPlan { bounds }
    }

    /// A topology-aware contiguous split: torus boundaries snap to whole
    /// planes so shards cut the minimum number of links;
    /// crossbars (where every even split is equivalent) fall back to the
    /// even split.
    ///
    /// When the even bounds do not land on plane boundaries there are
    /// several plane-aligned candidates (snap each bound to the nearest,
    /// previous, or next plane); the candidate with the smallest
    /// [`ShardPlan::cut_links`] wins, ties broken toward nearest-snap so
    /// the historical choice is stable.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn for_topology(topology: &Topology, shards: usize) -> ShardPlan {
        let nodes = topology.nodes();
        let plane = match *topology {
            Topology::Crossbar { .. } => 1,
            Topology::Torus { dims, ndims } => dims[..ndims - 1].iter().product(),
        };
        let even = ShardPlan::contiguous(nodes, shards);
        if plane <= 1 {
            return even;
        }
        // Snap each interior bound to a plane boundary three ways (nearest,
        // floor, ceiling), pin the ends, and keep the candidates that stay
        // strictly increasing (enough planes to go around). If none
        // survive, the unaligned even split is the best we can do.
        let snapped = |round_up: usize| -> Option<ShardPlan> {
            let mut bounds: Vec<usize> = even
                .bounds
                .iter()
                .map(|&b| ((b + round_up) / plane) * plane)
                .collect();
            *bounds.first_mut().expect("nonempty bounds") = 0;
            *bounds.last_mut().expect("nonempty bounds") = nodes;
            bounds
                .windows(2)
                .all(|w| w[0] < w[1])
                .then_some(ShardPlan { bounds })
        };
        let mut candidates: Vec<ShardPlan> = [plane / 2, 0, plane - 1]
            .into_iter()
            .filter_map(snapped)
            .collect();
        candidates.dedup();
        candidates
            .into_iter()
            .min_by_key(|plan| plan.cut_links(topology))
            .unwrap_or(even)
    }

    /// A plan from explicit bounds (`bounds[0] == 0`, strictly
    /// increasing, last bound = node count). This is the surface the
    /// partition-equivalence property tests use to exercise *arbitrary*
    /// contiguous partitions.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn from_bounds(bounds: Vec<usize>) -> Result<ShardPlan, String> {
        if bounds.len() < 2 {
            return Err("a plan needs at least one shard (two bounds)".into());
        }
        if bounds[0] != 0 {
            return Err(format!("first bound must be 0, got {}", bounds[0]));
        }
        if !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("bounds must be strictly increasing: {bounds:?}"));
        }
        Ok(ShardPlan { bounds })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total nodes covered.
    pub fn nodes(&self) -> usize {
        *self.bounds.last().expect("nonempty bounds")
    }

    /// The node range shard `s` owns.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the plan.
    pub fn shard_of(&self, node: usize) -> usize {
        assert!(node < self.nodes(), "node {node} outside plan");
        // partition_point returns the count of bounds <= node, which is
        // exactly 1 + the owning shard index.
        self.bounds.partition_point(|&b| b <= node) - 1
    }

    /// Number of directed links (as used by the topology's routing) whose
    /// endpoints live in different shards under this plan — the cut
    /// surface cross-shard traffic must cross.
    ///
    /// Dimension-order routing only ever steps between distance-1
    /// neighbors, and for any adjacent pair the direct route uses the
    /// `(src, dst)` link itself, so the link set routing can use is exactly
    /// the set of ordered distance-1 pairs. Counting those per node makes
    /// this O(n · dimensions) — cheap enough to run over several candidate
    /// plans at rack4096 scale (the old next-hop-table walk was O(n²)).
    pub fn cut_links(&self, topology: &Topology) -> usize {
        match *topology {
            Topology::Crossbar { nodes } => {
                // Every ordered pair is a one-hop link; count the ordered
                // pairs whose endpoints live in different shards.
                (0..self.shards())
                    .map(|s| self.range(s).len() * (nodes - self.range(s).len()))
                    .sum()
            }
            Topology::Torus { .. } => {
                let mut cut = 0;
                for a in 0..topology.nodes() {
                    let sa = self.shard_of(a);
                    topology.for_each_neighbor(a, |b| {
                        if self.shard_of(b) != sa {
                            cut += 1;
                        }
                    });
                }
                cut
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_covers_everything_evenly() {
        let plan = ShardPlan::contiguous(10, 4);
        assert_eq!(plan.shards(), 4);
        assert_eq!(plan.nodes(), 10);
        let sizes: Vec<usize> = (0..4).map(|s| plan.range(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
        for n in 0..10 {
            let s = plan.shard_of(n);
            assert!(plan.range(s).contains(&n));
        }
    }

    #[test]
    fn shard_count_clamps_to_nodes() {
        let plan = ShardPlan::contiguous(2, 8);
        assert_eq!(plan.shards(), 2);
    }

    #[test]
    fn grid_plans_align_to_planes() {
        let topo = Topology::torus3d(4, 4, 8); // plane = 16, 8 planes
        let plan = ShardPlan::for_topology(&topo, 4);
        assert_eq!(plan.shards(), 4);
        for s in 0..4 {
            assert_eq!(plan.range(s).start % 16, 0, "shard {s} starts on a plane");
        }
        // Plane alignment means each shard cuts exactly its two boundary
        // planes (x and y rings are internal): fewer cut links than an
        // arbitrary split through the middle of a plane.
        let aligned_cut = plan.cut_links(&topo);
        let skewed = ShardPlan::from_bounds(vec![0, 30, 62, 94, 128]).expect("valid bounds");
        assert!(
            aligned_cut <= skewed.cut_links(&topo),
            "plane alignment must not increase the cut"
        );
    }

    /// The reference cut metric: materialize every route's links via the
    /// next-hop table (the pre-optimization O(n²) implementation) and count
    /// the cross-shard ones.
    fn cut_links_via_routes(plan: &ShardPlan, topology: &Topology) -> usize {
        use sonuma_protocol::NodeId;
        let table = topology.next_hop_table();
        let n = topology.nodes();
        let mut links = std::collections::BTreeSet::new();
        for a in 0..n {
            for d in 0..n {
                if a != d {
                    let hop = table.next_hop(NodeId(a as u16), NodeId(d as u16));
                    links.insert((a, hop.index()));
                }
            }
        }
        links
            .iter()
            .filter(|&&(a, b)| plan.shard_of(a) != plan.shard_of(b))
            .count()
    }

    #[test]
    fn cut_links_matches_the_route_table_reference() {
        for topo in [
            Topology::crossbar(10),
            Topology::torus2d(4, 4),
            Topology::torus2d(2, 6),
            Topology::torus3d(3, 4, 2),
            // Rings of 2 (one link to the other node) and of 1 (no link).
            Topology::torus2d(2, 1),
            Topology::torus2d(5, 1),
            Topology::torus3d(2, 3, 2),
            Topology::torus3d(4, 1, 3),
        ] {
            let n = topo.nodes();
            for plan in [
                ShardPlan::contiguous(n, 3),
                ShardPlan::for_topology(&topo, 4),
                ShardPlan::from_bounds(vec![0, 1, n]).expect("valid bounds"),
            ] {
                assert_eq!(
                    plan.cut_links(&topo),
                    cut_links_via_routes(&plan, &topo),
                    "{topo:?} {plan:?}"
                );
            }
        }
    }

    #[test]
    fn for_topology_picks_the_smallest_cut_among_aligned_candidates() {
        // 5 planes of 16 over 2 shards: even bound 40 snaps to plane 2 or
        // 3; both are valid plane-aligned candidates and for_topology must
        // do no worse than either.
        let topo = Topology::torus3d(4, 4, 5);
        let plan = ShardPlan::for_topology(&topo, 2);
        let chosen = plan.cut_links(&topo);
        for bounds in [vec![0, 32, 80], vec![0, 48, 80]] {
            let candidate = ShardPlan::from_bounds(bounds).expect("valid bounds");
            assert!(chosen <= candidate.cut_links(&topo));
        }
        assert_eq!(plan.range(0).start, 0);
        assert_eq!(plan.range(0).end % 16, 0, "boundary stays plane-aligned");
    }

    #[test]
    fn degenerate_grids_fall_back() {
        // 3 shards over 2 rows of 8: not enough planes, falls back to the
        // even split but still covers everything.
        let topo = Topology::torus2d(8, 2);
        let plan = ShardPlan::for_topology(&topo, 3);
        assert_eq!(plan.shards(), 3);
        assert_eq!(plan.nodes(), 16);
    }

    #[test]
    fn bad_bounds_are_rejected() {
        assert!(ShardPlan::from_bounds(vec![0]).is_err());
        assert!(ShardPlan::from_bounds(vec![1, 4]).is_err());
        assert!(ShardPlan::from_bounds(vec![0, 4, 4]).is_err());
        assert!(ShardPlan::from_bounds(vec![0, 4, 2]).is_err());
        assert!(ShardPlan::from_bounds(vec![0, 4, 8]).is_ok());
    }
}
