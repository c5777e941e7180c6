//! Fabric topologies and routing: the paper's full crossbar and the
//! k-ary n-cube (a 2D or 3D torus) it suggests for racks, both routed by
//! arithmetic on node ids.

use sonuma_protocol::NodeId;

/// A fabric topology with deterministic routing.
///
/// Routing is topology-based — "the router's forwarding logic directly maps
/// destination addresses to outgoing router ports" (§6) — so routes are
/// computed, never looked up: dimension-order on the torus, direct on the
/// crossbar. [`Topology::route_iter`] yields the hop sequence without
/// touching the heap (this is what [`crate::Fabric::send`] walks on every
/// packet); [`Topology::route`] is the allocating convenience wrapper for
/// tests and tools. Topologies whose routing is *not* arithmetic can be
/// served by a precomputed [`NextHopTable`] instead.
///
/// # Example
///
/// ```
/// use sonuma_fabric::Topology;
/// use sonuma_protocol::NodeId;
///
/// let torus = Topology::torus2d(4, 4);
/// let path = torus.route(NodeId(0), NodeId(10));
/// assert_eq!(path.last(), Some(&NodeId(10)));
/// assert!(path.len() <= 4); // at most half of each ring
/// // The allocation-free iterator yields the same hops.
/// assert!(torus.route_iter(NodeId(0), NodeId(10)).eq(path.into_iter()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Full crossbar: every pair one hop apart (the paper's simulated
    /// configuration).
    Crossbar {
        /// Number of nodes.
        nodes: usize,
    },
    /// k-ary n-cube with wraparound links and dimension-order routing —
    /// the "low-dimensional" rack fabric the paper suggests (§6). Node ids
    /// enumerate it with dimension 0 varying fastest. Built by
    /// [`Topology::torus2d`] and [`Topology::torus3d`].
    Torus {
        /// Ring size per dimension; entries past `ndims` are 1.
        dims: [usize; 3],
        /// Number of dimensions (2 or 3). It fixes the port and link-slot
        /// layout (`2 · ndims` ports per node), so a ring of 1 still counts.
        ndims: usize,
    },
}

impl Topology {
    /// Builds a crossbar over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn crossbar(nodes: usize) -> Self {
        assert!(nodes > 0, "empty fabric");
        Topology::Crossbar { nodes }
    }

    /// Builds a `width x height` 2D torus (X then Y routing).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn torus2d(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "empty torus");
        Topology::Torus {
            dims: [width, height, 1],
            ndims: 2,
        }
    }

    /// Builds an `x × y × z` 3D torus (X, then Y, then Z routing).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn torus3d(x: usize, y: usize, z: usize) -> Self {
        assert!(x > 0 && y > 0 && z > 0, "empty torus");
        Topology::Torus {
            dims: [x, y, z],
            ndims: 3,
        }
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> usize {
        match *self {
            Topology::Crossbar { nodes } => nodes,
            Topology::Torus { dims, ndims } => dims[..ndims].iter().product(),
        }
    }

    /// Allocation-free iterator over the nodes a packet visits after
    /// leaving `src`, ending at `dst`. Empty when `src == dst`. This is the
    /// hot-path form: every hop is computed arithmetically from fixed-size
    /// coordinate arrays, so routing a packet never touches the heap.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn route_iter(&self, src: NodeId, dst: NodeId) -> RouteIter {
        let n = self.nodes();
        assert!(src.index() < n && dst.index() < n, "node id out of range");
        let state = if src == dst {
            RouteState::Done
        } else {
            match *self {
                Topology::Crossbar { .. } => RouteState::Direct { dst: dst.0 },
                Topology::Torus { dims, ndims } => {
                    torus_state(&dims[..ndims], src.index(), dst.index())
                }
            }
        };
        RouteIter { state }
    }

    /// The sequence of nodes a packet visits after leaving `src`, ending at
    /// `dst`, as an owned `Vec`. Empty when `src == dst`. Allocating
    /// convenience form of [`Topology::route_iter`] for tests and tools —
    /// the fabric's per-packet path never calls this.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        self.route_iter(src, dst).collect()
    }

    /// Minimum hop count between two nodes, computed arithmetically
    /// (no route materialization).
    pub fn distance(&self, src: NodeId, dst: NodeId) -> u32 {
        let n = self.nodes();
        assert!(src.index() < n && dst.index() < n, "node id out of range");
        if src == dst {
            return 0;
        }
        match *self {
            Topology::Crossbar { .. } => 1,
            Topology::Torus { dims, ndims } => {
                let (mut s, mut d, mut hops) = (src.index(), dst.index(), 0);
                for &k in &dims[..ndims] {
                    hops += ring_distance(k, s, d);
                    s /= k;
                    d /= k;
                }
                hops
            }
        }
    }

    /// Builds the dense next-hop forwarding table for this topology (see
    /// [`NextHopTable`]). O(N²) space; the arithmetic topologies above
    /// never need it, but it is the routing structure of choice for
    /// topologies whose next hop is awkward to compute on the fly.
    pub fn next_hop_table(&self) -> NextHopTable {
        NextHopTable::build(self)
    }

    /// The physical neighbors of `v` — every node one link away, in
    /// ascending id order. For the crossbar that is every other node; on
    /// the torus, the ±1 step in each dimension.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> Vec<NodeId> {
        assert!(v.index() < self.nodes(), "node id out of range");
        let mut out = Vec::new();
        self.for_each_neighbor(v.index(), |u| out.push(NodeId(u as u16)));
        out.sort_unstable();
        out
    }

    /// Calls `f` once per distinct node one link from `v`, without
    /// allocating: every other node on the crossbar, the +1 then −1 step of
    /// each dimension on the torus (one call on a ring of 2, none on a ring
    /// of 1).
    pub(crate) fn for_each_neighbor(&self, v: usize, mut f: impl FnMut(usize)) {
        match *self {
            Topology::Crossbar { nodes } => (0..nodes).filter(|&u| u != v).for_each(f),
            Topology::Torus { dims, ndims } => {
                let mut stride = 1;
                for &k in &dims[..ndims] {
                    let c = (v / stride) % k;
                    let base = v - c * stride;
                    if k >= 2 {
                        f(base + (c + 1) % k * stride);
                    }
                    if k >= 3 {
                        f(base + (c + k - 1) % k * stride);
                    }
                    stride *= k;
                }
            }
        }
    }
}

/// Shortest directed hop count between positions `s` and `d` on a ring of
/// `k` (both taken modulo `k` after dividing out faster dimensions).
fn ring_distance(k: usize, s: usize, d: usize) -> u32 {
    let (s, d) = (s % k, d % k);
    let fwd = (d + k - s) % k;
    fwd.min(k - fwd) as u32
}

/// Initial dimension-order walk state on a k-ary n-cube: coordinates are
/// decomposed once into fixed-size arrays (dimension 0 varies fastest), so
/// iterating the route allocates nothing and divides nothing.
fn torus_state(dims: &[usize], src: usize, dst: usize) -> RouteState {
    let mut d = [1u16; 3];
    let mut strides = [0u16; 3];
    let mut cur = [0u16; 3];
    let mut goal = [0u16; 3];
    let (mut s, mut g, mut stride) = (src, dst, 1);
    for (i, &k) in dims.iter().enumerate() {
        d[i] = k as u16;
        strides[i] = stride as u16;
        cur[i] = (s % k) as u16;
        goal[i] = (g % k) as u16;
        s /= k;
        g /= k;
        stride *= k;
    }
    RouteState::Torus {
        dims: d,
        strides,
        ndims: dims.len() as u8,
        dim: 0,
        id: src as u16,
        cur,
        goal,
    }
}

/// Allocation-free route iterator (see [`Topology::route_iter`]).
///
/// Plain `Copy` data: the topology's parameters and the walker's current
/// position are captured in fixed-size arrays at construction, so cloning
/// or iterating never allocates.
#[derive(Debug, Clone, Copy)]
pub struct RouteIter {
    state: RouteState,
}

#[derive(Debug, Clone, Copy)]
enum RouteState {
    /// Route fully consumed (or `src == dst`).
    Done,
    /// Crossbar: one hop straight to the destination.
    Direct { dst: u16 },
    /// Dimension-order walk on a k-ary n-cube with wraparound: resolve
    /// each dimension fully (taking the shorter direction) before the
    /// next. `id` is the current node, `strides[i]` the id distance of one
    /// step in dimension `i`.
    Torus {
        dims: [u16; 3],
        strides: [u16; 3],
        ndims: u8,
        dim: u8,
        id: u16,
        cur: [u16; 3],
        goal: [u16; 3],
    },
}

impl RouteIter {
    /// The next node of the route and the output port the packet leaves
    /// the current node on — the router's "destination address to outgoing
    /// port" mapping (§6). Torus ports pair up per dimension, `2·dim` for
    /// the +1 direction and `2·dim + 1` for −1, numbered exactly as the
    /// fabric's link table numbers its slots; the crossbar has no ports
    /// and reports 0. Compares and adds only: no division on the hop path.
    #[inline]
    pub(crate) fn step(&mut self) -> Option<(NodeId, u8)> {
        match &mut self.state {
            RouteState::Done => None,
            RouteState::Direct { dst } => {
                let hop = NodeId(*dst);
                self.state = RouteState::Done;
                Some((hop, 0))
            }
            RouteState::Torus {
                dims,
                strides,
                ndims,
                dim,
                id,
                cur,
                goal,
            } => {
                while *dim < *ndims && cur[*dim as usize] == goal[*dim as usize] {
                    *dim += 1;
                }
                if *dim >= *ndims {
                    self.state = RouteState::Done;
                    return None;
                }
                let i = *dim as usize;
                let (k, c, g, stride) = (dims[i], cur[i], goal[i], strides[i]);
                let fwd = if g >= c { g - c } else { g + k - c }; // hops going +1
                let (next, port) = if fwd <= k - fwd {
                    // (a ring of 2 only ever steps this way)
                    (if c + 1 == k { 0 } else { c + 1 }, 2 * *dim)
                } else {
                    (if c == 0 { k - 1 } else { c - 1 }, 2 * *dim + 1)
                };
                cur[i] = next;
                *id = *id - c * stride + next * stride;
                Some((NodeId(*id), port))
            }
        }
    }
}

impl Iterator for RouteIter {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.step().map(|(hop, _)| hop)
    }
}

/// Dense precomputed forwarding table: `next_hop(cur, dst)` is one array
/// load. This is the "forwarding logic directly maps destination addresses
/// to outgoing router ports" structure (§6) in table form, N×N `u16`s —
/// the fallback for topologies whose next hop is awkward to compute
/// arithmetically, and the reference the routing-equivalence tests check
/// [`RouteIter`] against.
#[derive(Debug, Clone)]
pub struct NextHopTable {
    n: usize,
    next: Vec<u16>,
}

impl NextHopTable {
    /// Precomputes every (current, destination) pair's next hop.
    pub fn build(topo: &Topology) -> Self {
        let n = topo.nodes();
        let mut next = vec![0u16; n * n];
        for cur in 0..n {
            for dst in 0..n {
                next[cur * n + dst] = if cur == dst {
                    cur as u16
                } else {
                    topo.route_iter(NodeId(cur as u16), NodeId(dst as u16))
                        .next()
                        .expect("nonempty route")
                        .0
                };
            }
        }
        NextHopTable { n, next }
    }

    /// Precomputes shortest-path next hops that avoid every directed link
    /// in `dead` — the adaptive re-routing structure a fabric switches to
    /// while links are down. One BFS per destination over the reversed
    /// live graph; ties break toward the lowest-id neighbor discovered
    /// first, so the table is a pure function of `(topology, dead set)`
    /// and identical on every shard of a partitioned run.
    ///
    /// Pairs the dead set disconnects keep `next_hop(cur, dst) == cur`
    /// (the same marker as "already there"); callers detect that before
    /// walking and treat the packet as lost.
    pub fn build_avoiding(topo: &Topology, dead: &[(NodeId, NodeId)]) -> Self {
        let n = topo.nodes();
        // Self-pointing default doubles as the unreachable marker.
        let mut next: Vec<u16> = (0..n)
            .flat_map(|cur| std::iter::repeat_n(cur as u16, n))
            .collect();
        let adj: Vec<Vec<NodeId>> = (0..n).map(|v| topo.neighbors(NodeId(v as u16))).collect();
        let alive = |from: NodeId, to: NodeId| !dead.contains(&(from, to));
        let mut dist = vec![u32::MAX; n];
        let mut queue = Vec::with_capacity(n);
        for dst in 0..n {
            dist.fill(u32::MAX);
            dist[dst] = 0;
            queue.clear();
            queue.push(dst);
            // BFS from the destination over reversed edges: discovering
            // `u` through `v` means the live link u->v starts a shortest
            // path, so `u` forwards to `v`.
            let mut head = 0;
            while let Some(&v) = queue.get(head) {
                head += 1;
                for &u in &adj[v] {
                    let u = u.index();
                    if dist[u] == u32::MAX && alive(NodeId(u as u16), NodeId(v as u16)) {
                        dist[u] = dist[v] + 1;
                        next[u * n + dst] = v as u16;
                        queue.push(u);
                    }
                }
            }
        }
        NextHopTable { n, next }
    }

    /// Number of nodes the table covers.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// The node a packet at `cur` forwards to on its way to `dst`
    /// (`cur` itself when already there).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn next_hop(&self, cur: NodeId, dst: NodeId) -> NodeId {
        NodeId(self.next[cur.index() * self.n + dst.index()])
    }

    /// The full hop sequence from `src` to `dst` via repeated table
    /// lookups — hop-for-hop identical to [`Topology::route_iter`] on the
    /// topology the table was built from.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst);
            path.push(cur);
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_routes_are_single_hop() {
        let t = Topology::crossbar(8);
        assert_eq!(t.nodes(), 8);
        assert_eq!(t.route(NodeId(0), NodeId(7)), vec![NodeId(7)]);
        assert_eq!(t.route(NodeId(3), NodeId(3)), vec![]);
        assert_eq!(t.distance(NodeId(1), NodeId(2)), 1);
    }

    #[test]
    fn torus2d_routes_are_dimension_ordered() {
        let t = Topology::torus2d(4, 4);
        // 0=(0,0) to 10=(2,2): X first (1, 2), then Y (6, 10).
        let path = t.route(NodeId(0), NodeId(10));
        assert_eq!(path, vec![NodeId(1), NodeId(2), NodeId(6), NodeId(10)]);
    }

    #[test]
    fn torus_wraparound_takes_short_way() {
        let t = Topology::torus2d(4, 1);
        // 0 -> 3 is one hop backwards around the ring, not three forward.
        assert_eq!(t.route(NodeId(0), NodeId(3)), vec![NodeId(3)]);
        let t8 = Topology::torus2d(8, 1);
        assert_eq!(t8.distance(NodeId(0), NodeId(6)), 2); // via 7
    }

    #[test]
    fn torus_routes_end_at_destination_and_respect_diameter() {
        let t = Topology::torus3d(3, 3, 3);
        for s in 0..27u16 {
            for d in 0..27u16 {
                let path = t.route(NodeId(s), NodeId(d));
                if s == d {
                    assert!(path.is_empty());
                } else {
                    assert_eq!(*path.last().unwrap(), NodeId(d));
                    assert!(path.len() <= 3, "longer than 3/2 + 3/2 + 3/2");
                }
            }
        }
    }

    #[test]
    fn torus_steps_are_neighbors() {
        let t = Topology::torus2d(4, 4);
        for s in 0..16u16 {
            for d in 0..16u16 {
                let mut prev = s as usize;
                for hop in t.route(NodeId(s), NodeId(d)) {
                    let (px, py) = (prev % 4, prev / 4);
                    let (hx, hy) = (hop.index() % 4, hop.index() / 4);
                    let dx = (px as i32 - hx as i32)
                        .rem_euclid(4)
                        .min((hx as i32 - px as i32).rem_euclid(4));
                    let dy = (py as i32 - hy as i32)
                        .rem_euclid(4)
                        .min((hy as i32 - py as i32).rem_euclid(4));
                    assert_eq!(dx + dy, 1, "non-neighbor step {prev}->{}", hop.index());
                    prev = hop.index();
                }
            }
        }
    }

    #[test]
    fn diameters() {
        let diameter = |t: Topology| {
            let nodes = || (0..t.nodes() as u16).map(NodeId);
            nodes()
                .flat_map(|s| nodes().map(move |d| (s, d)))
                .map(|(s, d)| t.distance(s, d))
                .max()
        };
        assert_eq!(diameter(Topology::torus2d(4, 4)), Some(4));
        assert_eq!(diameter(Topology::torus3d(4, 4, 4)), Some(6));
        assert_eq!(diameter(Topology::torus3d(3, 3, 3)), Some(3));
    }

    #[test]
    fn distance_is_arithmetic_and_matches_route_len() {
        for topo in [
            Topology::crossbar(9),
            Topology::torus2d(4, 4),
            Topology::torus3d(3, 4, 2),
        ] {
            let n = topo.nodes() as u16;
            for s in 0..n {
                for d in 0..n {
                    assert_eq!(
                        topo.distance(NodeId(s), NodeId(d)),
                        topo.route(NodeId(s), NodeId(d)).len() as u32,
                        "{topo:?} {s}->{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn next_hop_table_matches_route_iter() {
        for topo in [
            Topology::crossbar(6),
            Topology::torus2d(4, 3),
            Topology::torus3d(2, 3, 2),
        ] {
            let table = topo.next_hop_table();
            assert_eq!(table.nodes(), topo.nodes());
            let n = topo.nodes() as u16;
            for s in 0..n {
                assert_eq!(table.next_hop(NodeId(s), NodeId(s)), NodeId(s));
                for d in 0..n {
                    assert_eq!(
                        table.route(NodeId(s), NodeId(d)),
                        topo.route(NodeId(s), NodeId(d)),
                        "{topo:?} {s}->{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbors_are_symmetric_and_match_one_hop_routes() {
        for topo in [
            Topology::crossbar(5),
            Topology::torus2d(4, 3),
            Topology::torus3d(2, 3, 4),
            Topology::torus2d(2, 2), // rings of two: both directions coincide
            // A ring of one has no link at all.
            Topology::torus2d(2, 1),
            Topology::torus2d(5, 1),
            Topology::torus2d(1, 6),
            Topology::torus3d(4, 1, 2),
            Topology::torus3d(4, 2, 3),
        ] {
            let n = topo.nodes() as u16;
            for v in 0..n {
                let nbrs = topo.neighbors(NodeId(v));
                assert!(
                    nbrs.windows(2).all(|w| w[0] < w[1]),
                    "{topo:?} {v}: {nbrs:?} not strictly ascending"
                );
                for &u in &nbrs {
                    assert_eq!(topo.distance(NodeId(v), u), 1, "{topo:?} {v}->{u:?}");
                    assert!(
                        topo.neighbors(u).contains(&NodeId(v)),
                        "{topo:?} symmetry {v}<->{u:?}"
                    );
                }
                // Completeness: every node at distance 1 is listed.
                for u in 0..n {
                    if u != v && topo.distance(NodeId(v), NodeId(u)) == 1 {
                        assert!(nbrs.contains(&NodeId(u)), "{topo:?} missing {v}->{u}");
                    }
                }
            }
        }
    }

    #[test]
    fn build_avoiding_nothing_preserves_all_distances() {
        for topo in [
            Topology::crossbar(6),
            Topology::torus2d(4, 4),
            Topology::torus3d(2, 3, 2),
        ] {
            let table = NextHopTable::build_avoiding(&topo, &[]);
            let n = topo.nodes() as u16;
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    assert_eq!(
                        table.route(NodeId(s), NodeId(d)).len(),
                        topo.distance(NodeId(s), NodeId(d)) as usize,
                        "{topo:?} {s}->{d} must stay a shortest path"
                    );
                }
            }
        }
    }

    #[test]
    fn build_avoiding_detours_around_the_dead_link() {
        let topo = Topology::torus2d(4, 4);
        let dead = [(NodeId(0), NodeId(1))];
        let table = NextHopTable::build_avoiding(&topo, &dead);
        let n = topo.nodes() as u16;
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let route = table.route(NodeId(s), NodeId(d));
                let mut prev = NodeId(s);
                for &hop in &route {
                    assert!(
                        !dead.contains(&(prev, hop)),
                        "{s}->{d} crosses the dead link"
                    );
                    prev = hop;
                }
                assert_eq!(prev, NodeId(d), "{s}->{d} must still arrive");
                // Losing one link of a torus costs at most one extra hop
                // on routes that used it, and nothing on the rest.
                let min = topo.distance(NodeId(s), NodeId(d)) as usize;
                assert!(route.len() >= min);
                assert!(route.len() <= min + 2, "{s}->{d} detour too long");
            }
        }
        // The reverse direction is untouched (faults are directed).
        assert_eq!(table.next_hop(NodeId(1), NodeId(0)), NodeId(0));
    }

    #[test]
    fn build_avoiding_marks_disconnected_pairs_unreachable() {
        let topo = Topology::crossbar(2);
        let table = NextHopTable::build_avoiding(&topo, &[(NodeId(0), NodeId(1))]);
        // Self-pointing next hop is the unreachable marker.
        assert_eq!(table.next_hop(NodeId(0), NodeId(1)), NodeId(0));
        assert_eq!(table.next_hop(NodeId(1), NodeId(0)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        Topology::crossbar(2).route(NodeId(0), NodeId(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_distance_panics() {
        Topology::torus2d(2, 2).distance(NodeId(9), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "empty fabric")]
    fn empty_crossbar_panics() {
        Topology::crossbar(0);
    }
}
