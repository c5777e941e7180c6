//! Fabric topologies and routing.

use sonuma_protocol::NodeId;

/// A fabric topology with deterministic routing.
///
/// Routing is topology-based — "the router's forwarding logic directly maps
/// destination addresses to outgoing router ports" (§6) — so routes are
/// computed, never looked up: dimension-order for meshes and torii, direct
/// for the crossbar. [`Topology::route_iter`] yields the hop sequence
/// without touching the heap (this is what [`crate::Fabric::send`] walks on
/// every packet); [`Topology::route`] is the allocating convenience wrapper
/// for tests and tools. Topologies whose routing is *not* arithmetic can be
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
    /// 2D torus with wraparound links, dimension-order (X then Y) routing.
    Torus2D {
        /// Width (X dimension).
        width: usize,
        /// Height (Y dimension).
        height: usize,
    },
    /// 3D torus — the "low-dimensional k-ary n-cube" the paper suggests for
    /// rack-scale deployments (§6).
    Torus3D {
        /// X dimension.
        x: usize,
        /// Y dimension.
        y: usize,
        /// Z dimension.
        z: usize,
    },
    /// 2D mesh without wraparound links (e.g. a blade backplane where edge
    /// links are not closed into rings).
    Mesh2D {
        /// Width (X dimension).
        width: usize,
        /// Height (Y dimension).
        height: usize,
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

    /// Builds a `width x height` 2D torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn torus2d(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "empty torus");
        Topology::Torus2D { width, height }
    }

    /// Builds an `x par y par z` 3D torus.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn torus3d(x: usize, y: usize, z: usize) -> Self {
        assert!(x > 0 && y > 0 && z > 0, "empty torus");
        Topology::Torus3D { x, y, z }
    }

    /// Builds a `width x height` mesh (no wraparound). No scenario selects
    /// it: it is API for the routing-equivalence tests and the fabric
    /// bench, which need a topology whose edges differ from its middle.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh2d(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "empty mesh");
        Topology::Mesh2D { width, height }
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> usize {
        match *self {
            Topology::Crossbar { nodes } => nodes,
            Topology::Torus2D { width, height } => width * height,
            Topology::Torus3D { x, y, z } => x * y * z,
            Topology::Mesh2D { width, height } => width * height,
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
                Topology::Torus2D { width, height } => {
                    torus_state(&[width, height], src.index(), dst.index())
                }
                Topology::Torus3D { x, y, z } => torus_state(&[x, y, z], src.index(), dst.index()),
                Topology::Mesh2D { width, height } => RouteState::Mesh {
                    dims: [width as u16, height as u16],
                    id: src.0,
                    x: (src.index() % width) as u16,
                    y: (src.index() / width) as u16,
                    gx: (dst.index() % width) as u16,
                    gy: (dst.index() / width) as u16,
                },
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
            Topology::Torus2D { width, height } => {
                ring_distance(width, src.index(), dst.index())
                    + ring_distance(height, src.index() / width, dst.index() / width)
            }
            Topology::Torus3D { x, y, z } => {
                ring_distance(x, src.index(), dst.index())
                    + ring_distance(y, src.index() / x, dst.index() / x)
                    + ring_distance(z, src.index() / (x * y), dst.index() / (x * y))
            }
            Topology::Mesh2D { width, .. } => {
                let (sx, sy) = (src.index() % width, src.index() / width);
                let (dx, dy) = (dst.index() % width, dst.index() / width);
                (sx.abs_diff(dx) + sy.abs_diff(dy)) as u32
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
    /// ascending id order. For the crossbar that is every other node; for
    /// grids, the ±1 step in each dimension (deduplicated on rings of 2,
    /// where both directions land on the same node).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let n = self.nodes();
        assert!(v.index() < n, "node id out of range");
        let mut out: Vec<NodeId> = match *self {
            Topology::Crossbar { nodes } => (0..nodes as u16)
                .filter(|&p| p != v.0)
                .map(NodeId)
                .collect(),
            Topology::Torus2D { width, height } => {
                grid_neighbors(&[width, height], true, v.index())
            }
            Topology::Torus3D { x, y, z } => grid_neighbors(&[x, y, z], true, v.index()),
            Topology::Mesh2D { width, height } => {
                grid_neighbors(&[width, height], false, v.index())
            }
        };
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The grid neighbors of node id `v`: ±1 in every dimension, wrapping on
/// torii (`wraps`), clipped at the edges on meshes. May contain duplicates
/// on rings of 2 (the caller dedups).
fn grid_neighbors(dims: &[usize], wraps: bool, v: usize) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(2 * dims.len());
    let mut stride = 1usize;
    for &k in dims {
        let c = (v / stride) % k;
        if wraps {
            out.push(v - c * stride + ((c + 1) % k) * stride);
            out.push(v - c * stride + ((c + k - 1) % k) * stride);
        } else {
            if c + 1 < k {
                out.push(v + stride);
            }
            if c > 0 {
                out.push(v - stride);
            }
        }
        stride *= k;
    }
    out.into_iter().map(|id| NodeId(id as u16)).collect()
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
    /// Dimension-order (XY) walk on a mesh: no wraparound, so every step
    /// moves monotonically toward the destination coordinate.
    Mesh {
        dims: [u16; 2],
        id: u16,
        x: u16,
        y: u16,
        gx: u16,
        gy: u16,
    },
}

impl RouteIter {
    /// The next node of the route and the output port the packet leaves
    /// the current node on — the router's "destination address to outgoing
    /// port" mapping (§6). Grid ports pair up per dimension, `2·dim` for
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
            RouteState::Mesh {
                dims,
                id,
                x,
                y,
                gx,
                gy,
            } => {
                let port = if x != gx {
                    mesh_step(x, *gx, id, 1, dims[0])
                } else if y != gy {
                    2 + mesh_step(y, *gy, id, dims[0], dims[1])
                } else {
                    self.state = RouteState::Done;
                    return None;
                };
                Some((NodeId(*id), port))
            }
        }
    }
}

/// One mesh step of coordinate `c` toward `g` in a dimension of `k`
/// positions whose neighbors are `stride` ids apart; returns the port's
/// direction bit. With exactly two positions the −1 neighbor is also the
/// +1 neighbor modulo 2, and the link table files that link under the even
/// port.
#[inline]
fn mesh_step(c: &mut u16, g: u16, id: &mut u16, stride: u16, k: u16) -> u8 {
    if g > *c {
        *c += 1;
        *id += stride;
        0
    } else {
        *c -= 1;
        *id -= stride;
        u8::from(k != 2)
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
    fn mesh_routes_have_no_wraparound() {
        let m = Topology::mesh2d(4, 4);
        assert_eq!(m.nodes(), 16);
        // 0 -> 3 must walk the whole row (no ring shortcut).
        assert_eq!(
            m.route(NodeId(0), NodeId(3)),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
        // Corner to corner: Manhattan distance.
        assert_eq!(m.distance(NodeId(0), NodeId(15)), 6);
        // Every route ends at its destination.
        for s in 0..16u16 {
            for d in 0..16u16 {
                let path = m.route(NodeId(s), NodeId(d));
                if s != d {
                    assert_eq!(*path.last().unwrap(), NodeId(d));
                    assert!(path.len() <= 6, "longer than corner to corner");
                }
            }
        }
    }

    #[test]
    fn mesh_is_slower_than_torus_at_the_edges() {
        let mesh = Topology::mesh2d(4, 4);
        let torus = Topology::torus2d(4, 4);
        assert!(mesh.distance(NodeId(0), NodeId(3)) > torus.distance(NodeId(0), NodeId(3)));
    }

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
            Topology::mesh2d(5, 3),
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
            Topology::mesh2d(3, 4),
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
            Topology::mesh2d(3, 4),
            Topology::torus2d(2, 2), // rings of two: both directions coincide
        ] {
            let n = topo.nodes() as u16;
            for v in 0..n {
                let nbrs = topo.neighbors(NodeId(v));
                assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "{topo:?} sorted");
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
            Topology::mesh2d(3, 3),
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
