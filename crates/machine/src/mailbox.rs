//! Per-node outboxes: where a shard stages its fabric sends, and the one
//! place they are put in order.
//!
//! Every non-loopback packet a shard's node sends becomes a [`Departure`]
//! in that node's own queue of the shard's [`Mailbox`]. A node stages
//! almost in time order (a burst runs ahead of the clock, a reply lands
//! inside it, `stage_local` offsets swap neighbours), so a queue is kept
//! `(t, staging order)`-sorted on insert: a push at the back, or a binary
//! search and a shift of a few entries. Nothing is ever re-sorted: the
//! `SonumaBackend` commit takes each listed node's due
//! prefix into a [`CommitBatch`], which orders 16-byte keys — never the
//! departures — by `(t, src, seq)` exactly once.

use std::collections::VecDeque;

use sonuma_protocol::Packet;
use sonuma_sim::{LaneIndex, SimTime, RELEASE_ABOVE};

/// One fabric send staged for the epoch-barrier merge (shard mode).
///
/// The merge order is `(t, src, seq)`: `src` is `pkt.src` and `seq`, the
/// per-source staging order, is the departure's position in its node's
/// queue — a total order that depends only on the simulation's history,
/// never on how nodes are distributed over shards.
#[derive(Debug)]
struct Departure {
    /// Fabric injection time.
    t: SimTime,
    /// The packet itself (`pkt.src` staged it, `pkt.dst` receives it).
    pkt: Packet,
}

/// The staged departures of one shard: a queue per owned node, the list
/// of nodes that hold any, and the earliest inject time among them.
#[derive(Debug)]
pub(crate) struct Mailbox {
    /// Indexed by local node (`global id - node_base`); each sorted by
    /// `(t, staging order)`.
    queues: Vec<VecDeque<Departure>>,
    index: LaneIndex,
}

impl Mailbox {
    /// An empty mailbox for a shard of `nodes` nodes (allocates no queue).
    pub fn new(nodes: usize) -> Self {
        Mailbox {
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            index: LaneIndex::new(nodes),
        }
    }

    /// Inject time of the earliest staged departure: the outbox floor
    /// peers are fenced from until a commit applies it.
    pub fn floor(&self) -> Option<SimTime> {
        self.index.floor().map(SimTime::from_ps)
    }

    /// Stages `pkt`, sent by local node `node`, for injection at `t`.
    pub fn stage(&mut self, node: usize, t: SimTime, pkt: Packet) {
        let queue = &mut self.queues[node];
        self.index.note(node, t.as_ps(), queue.is_empty());
        let departure = Departure { t, pkt };
        if queue.back().is_none_or(|last| last.t <= t) {
            queue.push_back(departure);
        } else {
            // After every departure at or before `t`: equal times keep
            // their staging order.
            let at = queue.partition_point(|d| d.t <= t);
            queue.insert(at, departure);
        }
    }

    /// Moves every departure with `t <= frontier` into `batch`, visiting
    /// only nodes that hold staged traffic. A node whose queue drains
    /// after a burst grew it gives the storage back.
    pub fn take_due(&mut self, frontier: SimTime, batch: &mut CommitBatch) {
        let frontier = frontier.as_ps();
        if self.index.floor().is_none_or(|floor| floor > frontier) {
            return;
        }
        while let Some(node) = self.index.next_due(frontier) {
            let queue = &mut self.queues[node];
            while queue.front().is_some_and(|d| d.t.as_ps() <= frontier) {
                batch.push(queue.pop_front().expect("front was just read"));
            }
            if queue.is_empty() && queue.capacity() > RELEASE_ABOVE {
                *queue = VecDeque::new();
            }
            self.index.settle(queue.front().map(|d| d.t.as_ps()));
        }
    }
}

/// The departures one commit applies to the fabric, gathered from every
/// shard's [`Mailbox`] and ordered once.
#[derive(Debug, Default)]
pub(crate) struct CommitBatch {
    /// `(t in ps, src << 32 | index into pkts)`. A node's departures are
    /// taken in queue order, so the index stands in for `seq` and the
    /// 16-byte key sorts as `(t, src, seq)`.
    keys: Vec<(u64, u64)>,
    pkts: Vec<Packet>,
}

impl CommitBatch {
    /// Departures gathered so far.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Empties the batch, keeping its capacity for the next commit.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.pkts.clear();
    }

    fn push(&mut self, d: Departure) {
        let index = u32::try_from(self.pkts.len()).expect("under 2^32 departures per commit");
        self.keys
            .push((d.t.as_ps(), u64::from(d.pkt.src.0) << 32 | u64::from(index)));
        self.pkts.push(d.pkt);
    }

    /// The batch in global `(t, src, seq)` order — the serial send order.
    /// This sort is the only place departures are ordered across nodes.
    pub fn ordered(&mut self) -> impl Iterator<Item = (SimTime, Packet)> + '_ {
        self.keys.sort_unstable();
        self.keys
            .iter()
            .map(|&(t, meta)| (SimTime::from_ps(t), self.pkts[meta as u32 as usize]))
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;
    use sonuma_protocol::{CtxId, NodeId, RemoteOp, Tid};

    use super::*;

    /// A request from `src` whose `offset` carries the test's unique id.
    fn packet(src: usize, id: u64) -> Packet {
        Packet::request(
            NodeId(0),
            NodeId(src as u16),
            CtxId(0),
            Tid(0),
            RemoteOp::Read,
            id,
            0,
        )
    }

    /// The model: every staged, uncommitted departure as
    /// `(t, src, seq, id)`.
    #[derive(Default)]
    struct Model {
        pending: Vec<(u64, usize, u64, u64)>,
        seq: Vec<u64>,
        next_id: u64,
    }

    proptest! {
        /// Random per-node streams — mostly increasing `t`, small
        /// reorders, ties across nodes, bursts staged far past the
        /// frontier with later sends landing inside them — against a
        /// random nondecreasing frontier, over two shards' mailboxes
        /// feeding one batch.
        #[test]
        fn commits_are_the_global_sort_and_floors_are_exact(
            nodes in 2usize..7,
            split in 1usize..6,
            steps in vec(
                prop_oneof![
                    // (node, clock advance, step back, burst lines, burst spacing)
                    (0usize..6, 0u64..40, 0u64..12, Just(1usize), Just(0u64)),
                    (0usize..6, 0u64..40, 0u64..12, 2usize..200, 1u64..9),
                    // a commit `advance` past the last frontier (node == usize::MAX)
                    (Just(usize::MAX), 0u64..120, Just(0u64), Just(0usize), Just(0u64)),
                ],
                1..120,
            ),
        ) {
            let split = split.min(nodes - 1);
            let base = [0, split];
            let mut shards = [Mailbox::new(split), Mailbox::new(nodes - split)];
            let mut model = Model { seq: vec![0; nodes], ..Model::default() };
            let mut clock = vec![0u64; nodes];
            let mut frontier = 0u64;
            let mut batch = CommitBatch::default();
            let mut committed = Vec::new();
            let mut commit = |shards: &mut [Mailbox; 2], model: &mut Model, frontier: u64| {
                batch.clear();
                for shard in shards.iter_mut() {
                    shard.take_due(SimTime::from_ps(frontier), &mut batch);
                }
                let got: Vec<(u64, u64)> =
                    batch.ordered().map(|(t, pkt)| (t.as_ps(), pkt.offset)).collect();
                let mut due: Vec<_> =
                    model.pending.iter().copied().filter(|d| d.0 <= frontier).collect();
                due.sort_unstable();
                model.pending.retain(|d| d.0 > frontier);
                let want: Vec<(u64, u64)> = due.iter().map(|&(t, _, _, id)| (t, id)).collect();
                assert_eq!(got, want, "commit at {frontier} is not the (t, src, seq) sort");
                committed.extend(got.into_iter().map(|(_, id)| id));
            };
            for &(node, advance, back, lines, spacing) in &steps {
                if node == usize::MAX {
                    frontier += advance;
                    commit(&mut shards, &mut model, frontier);
                } else {
                    let node = node % nodes;
                    clock[node] += advance;
                    // Everything staged is past the commit frontier.
                    let t0 = clock[node].saturating_sub(back).max(frontier + 1);
                    for k in 0..lines as u64 {
                        let t = t0 + k * spacing;
                        let shard = usize::from(node >= split);
                        shards[shard].stage(node - base[shard], SimTime::from_ps(t), packet(node, model.next_id));
                        model.pending.push((t, node, model.seq[node], model.next_id));
                        model.seq[node] += 1;
                        model.next_id += 1;
                    }
                }
                for (s, shard) in shards.iter().enumerate() {
                    let owned = |d: &&(u64, usize, u64, u64)| usize::from(d.1 >= split) == s;
                    let brute = model.pending.iter().filter(owned).map(|d| d.0).min();
                    prop_assert_eq!(shard.floor().map(SimTime::as_ps), brute);
                }
            }
            commit(&mut shards, &mut model, u64::MAX);
            committed.sort_unstable();
            prop_assert_eq!(committed, (0..model.next_id).collect::<Vec<_>>(), "exactly once");
            for shard in &shards {
                prop_assert_eq!(shard.floor(), None);
                // Whatever a burst grew was released when its node drained.
                prop_assert!(shard.queues.iter().all(|q| q.capacity() <= RELEASE_ABOVE));
            }
        }
    }

    #[test]
    fn a_drained_node_releases_burst_storage_and_keeps_small_queues() {
        let mut mailbox = Mailbox::new(2);
        let mut batch = CommitBatch::default();
        for k in 0..500u64 {
            mailbox.stage(0, SimTime::from_ps(10 + k), packet(0, k));
        }
        mailbox.stage(1, SimTime::from_ps(5), packet(1, 500));
        assert!(mailbox.queues[0].capacity() >= 500);
        mailbox.take_due(SimTime::from_ps(300), &mut batch);
        assert!(mailbox.queues[0].capacity() >= 500, "still holds the tail");
        assert_eq!(mailbox.floor(), Some(SimTime::from_ps(301)));
        mailbox.take_due(SimTime::from_ps(1_000), &mut batch);
        assert_eq!(mailbox.queues[0].capacity(), 0);
        assert!(mailbox.queues[1].capacity() > 0);
        assert_eq!((mailbox.floor(), batch.len()), (None, 501));
    }
}
