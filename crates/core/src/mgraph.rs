//! Single-source multicast dissemination graphs.
//!
//! The paper's dissemination graphs are strictly unicast src→dst; the
//! many-flow workload (one feed, many subscribers) amortises one send
//! across N receivers sharing a source. A [`MulticastGraph`] is the
//! multicast analogue of [`crate::DisseminationGraph`]: an overlay
//! subgraph rooted at one source on which every receiver in a *set*
//! must be reachable. Forwarding semantics are identical — the source
//! sends once per out-edge in the graph, every node receiving a packet
//! for the first time forwards it on its out-edges in the graph, and
//! any node in the receiver set additionally delivers locally.
//!
//! Construction (see `GraphCache::multicast`) comes in three flavours
//! ([`MulticastKind`]): the shared shortest-path **tree**, the tree
//! with **targeted** redundancy branches grafted only at receivers
//! whose incident links currently look problematic, and the **robust**
//! variant that grafts branches at every receiver.

use crate::cache::splitmix64;
use crate::{CoreError, DisseminationGraph};
use dg_topology::{EdgeId, Graph, Micros, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

/// Which multicast construction to use (escalation order mirrors the
/// unicast targeted-redundancy modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MulticastKind {
    /// Union of the per-receiver tie-broken shortest usable paths —
    /// with unique tie-broken optima this union is a proper out-tree.
    Tree,
    /// The tree plus destination-problem-style redundancy branches
    /// grafted only at receivers with an unusable incident link.
    Targeted,
    /// The tree plus redundancy branches at *every* receiver — the
    /// multicast analogue of the unicast robust graph.
    Robust,
}

impl MulticastKind {
    /// All kinds, in escalation order.
    pub const ALL: [MulticastKind; 3] =
        [MulticastKind::Tree, MulticastKind::Targeted, MulticastKind::Robust];

    /// Short lowercase label, e.g. `"targeted"`.
    pub fn label(self) -> &'static str {
        match self {
            MulticastKind::Tree => "tree",
            MulticastKind::Targeted => "targeted",
            MulticastKind::Robust => "robust",
        }
    }
}

impl std::fmt::Display for MulticastKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Order-independent digest of a receiver set, used (together with the
/// source, kind, and deadline) as the cross-flow interning key: any
/// permutation or duplication of the same receivers digests
/// identically, so 10k flows sharing a source and receiver set hit one
/// cache entry. Collisions are guarded by comparing the stored
/// receiver set on every hit, so a (astronomically unlikely) digest
/// collision costs a recomputation, never a wrong graph.
pub fn receiver_digest(receivers: &[NodeId]) -> u64 {
    // Commutative mix: sum and xor of per-receiver hashes, finalized.
    let mut sum = 0u64;
    let mut xor = 0u64;
    let mut n = 0u64;
    for &r in receivers {
        let h = splitmix64(r.index() as u64 + 1);
        sum = sum.wrapping_add(h);
        xor ^= h.rotate_left(17);
        n += 1;
    }
    splitmix64(sum ^ xor.rotate_left(32) ^ n)
}

/// A single-source, multi-receiver dissemination graph.
///
/// # Invariants
///
/// Construction normalizes exactly like [`DisseminationGraph`]: edges
/// whose tail is unreachable from the source within the subgraph are
/// pruned, the rest are sorted and deduplicated, and *every* receiver
/// must be reachable. Receivers are sorted, deduplicated, never empty,
/// and never contain the source. Two graphs compare equal iff their
/// normalized edge sets, source, and receiver sets match.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MulticastGraph {
    source: NodeId,
    receivers: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl MulticastGraph {
    /// Builds a multicast graph from an edge set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MismatchedEndpoints`] when the receiver set
    /// is empty (after dropping the source from it),
    /// [`CoreError::Unreachable`] when some receiver cannot be reached
    /// from the source within the edge set, and topology errors for
    /// invalid ids.
    pub fn new(
        graph: &Graph,
        source: NodeId,
        receivers: Vec<NodeId>,
        edges: Vec<EdgeId>,
    ) -> Result<Self, CoreError> {
        graph.check_node(source)?;
        let mut receivers = receivers;
        for &r in &receivers {
            graph.check_node(r)?;
        }
        receivers.retain(|&r| r != source);
        receivers.sort();
        receivers.dedup();
        if receivers.is_empty() {
            return Err(CoreError::MismatchedEndpoints);
        }
        for &e in &edges {
            graph.check_edge(e)?;
        }
        let member: HashSet<EdgeId> = edges.iter().copied().collect();
        let mut reachable = HashSet::from([source]);
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            for &e in graph.out_edges(u) {
                if member.contains(&e) {
                    let v = graph.edge(e).dst;
                    if reachable.insert(v) {
                        queue.push_back(v);
                    }
                }
            }
        }
        if let Some(&missed) = receivers.iter().find(|r| !reachable.contains(r)) {
            return Err(CoreError::Unreachable { source, destination: missed });
        }
        let mut kept: Vec<EdgeId> =
            member.into_iter().filter(|&e| reachable.contains(&graph.edge(e).src)).collect();
        kept.sort();
        Ok(MulticastGraph { source, receivers, edges: kept })
    }

    /// The shared source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The receiver set, sorted and deduplicated.
    pub fn receivers(&self) -> &[NodeId] {
        &self.receivers
    }

    /// The normalized edge set, sorted by id.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// A multicast graph always connects the source to at least one
    /// receiver, so it always has edges; always `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if `edge` is part of the graph.
    pub fn contains(&self, edge: EdgeId) -> bool {
        self.edges.binary_search(&edge).is_ok()
    }

    /// True if `node` is in the receiver set.
    pub fn contains_receiver(&self, node: NodeId) -> bool {
        self.receivers.binary_search(&node).is_ok()
    }

    /// The interning key component for this graph's receiver set.
    pub fn digest(&self) -> u64 {
        receiver_digest(&self.receivers)
    }

    /// Edges on which `node` forwards packets of this group.
    pub fn forwarding_edges<'a>(
        &'a self,
        graph: &'a Graph,
        node: NodeId,
    ) -> impl Iterator<Item = EdgeId> + 'a {
        self.edges.iter().copied().filter(move |&e| graph.edge(e).src == node)
    }

    /// The paper's cost metric over the whole group: packets sent per
    /// message — the amortisation win is that this is paid once for N
    /// receivers instead of N times.
    pub fn cost(&self, graph: &Graph) -> u64 {
        graph.edge_set_cost(self.edges.iter().copied())
    }

    /// Latency of the fastest route to `receiver` through the graph at
    /// baseline conditions, or `Micros::MAX` if `receiver` is not a
    /// member.
    pub fn best_latency(&self, graph: &Graph, receiver: NodeId) -> Micros {
        if !self.contains_receiver(receiver) {
            return Micros::MAX;
        }
        dg_topology::algo::dijkstra::shortest_path_filtered(graph, self.source, receiver, |e| {
            self.contains(e)
        })
        .map(|p| p.latency(graph))
        .unwrap_or(Micros::MAX)
    }

    /// The unicast [`DisseminationGraph`] a single member receiver
    /// observes: the same edge set re-normalized against `receiver` as
    /// the destination. With one receiver this is exactly the group's
    /// graph, which is what pins the single-flow fast path byte-equal
    /// to the unicast path.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unreachable`] when `receiver` is not a member.
    pub fn unicast_view(
        &self,
        graph: &Graph,
        receiver: NodeId,
    ) -> Result<DisseminationGraph, CoreError> {
        if !self.contains_receiver(receiver) {
            return Err(CoreError::Unreachable { source: self.source, destination: receiver });
        }
        DisseminationGraph::new(graph, self.source, receiver, self.edges.clone())
    }

    /// Serializes membership as a bitmask over dense edge ids — the
    /// same LSB-first wire format as
    /// [`DisseminationGraph::to_bitmask`], so group packets reuse the
    /// unicast forwarding path unchanged.
    pub fn to_bitmask(&self, edge_count: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; edge_count.div_ceil(8)];
        for &e in &self.edges {
            bytes[e.index() / 8] |= 1 << (e.index() % 8);
        }
        bytes
    }
}

impl From<&DisseminationGraph> for MulticastGraph {
    /// The one-receiver multicast graph of a unicast route: the same
    /// source and normalized edge set, with the destination as the only
    /// receiver — the inverse of [`MulticastGraph::unicast_view`].
    fn from(unicast: &DisseminationGraph) -> Self {
        MulticastGraph {
            source: unicast.source(),
            receivers: vec![unicast.destination()],
            edges: unicast.edges().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::algo::dijkstra;
    use dg_topology::presets;

    fn setup() -> (Graph, NodeId, Vec<NodeId>) {
        let g = presets::north_america_12();
        let s = g.node_by_name("NYC").unwrap();
        let rs = ["SJC", "SEA", "LAX"].iter().map(|n| g.node_by_name(n).unwrap()).collect();
        (g, s, rs)
    }

    fn tree_edges(g: &Graph, s: NodeId, receivers: &[NodeId]) -> Vec<EdgeId> {
        receivers
            .iter()
            .flat_map(|&r| dijkstra::shortest_path(g, s, r).unwrap().edges().to_vec())
            .collect()
    }

    #[test]
    fn spans_all_receivers_and_normalizes() {
        let (g, s, rs) = setup();
        let edges = tree_edges(&g, s, &rs);
        let mg = MulticastGraph::new(&g, s, rs.clone(), edges).unwrap();
        assert_eq!(mg.source(), s);
        let mut sorted = rs.clone();
        sorted.sort();
        assert_eq!(mg.receivers(), sorted.as_slice());
        for &r in &rs {
            assert!(mg.contains_receiver(r));
            assert!(mg.best_latency(&g, r) < Micros::MAX);
        }
        assert!(!mg.is_empty());
        // Edges are sorted and deduplicated.
        let mut e = mg.edges().to_vec();
        e.dedup();
        assert_eq!(e.as_slice(), mg.edges());
        assert!(mg.edges().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn missing_receiver_is_rejected() {
        let (g, s, rs) = setup();
        // A path to only the first receiver cannot span the others.
        let edges = dijkstra::shortest_path(&g, s, rs[0]).unwrap().edges().to_vec();
        let err = MulticastGraph::new(&g, s, rs.clone(), edges).unwrap_err();
        assert!(matches!(err, CoreError::Unreachable { .. }));
    }

    #[test]
    fn empty_receiver_set_is_rejected() {
        let (g, s, _) = setup();
        assert_eq!(MulticastGraph::new(&g, s, vec![], vec![]), Err(CoreError::MismatchedEndpoints));
        // The source itself is dropped from the receiver set.
        assert_eq!(
            MulticastGraph::new(&g, s, vec![s], vec![]),
            Err(CoreError::MismatchedEndpoints)
        );
    }

    #[test]
    fn digest_is_order_independent_and_duplication_sensitive_only_to_set() {
        let (g, s, rs) = setup();
        let edges = tree_edges(&g, s, &rs);
        let a = MulticastGraph::new(&g, s, rs.clone(), edges.clone()).unwrap();
        let mut shuffled = rs.clone();
        shuffled.reverse();
        shuffled.push(rs[0]); // duplicate member
        let b = MulticastGraph::new(&g, s, shuffled, edges).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(receiver_digest(a.receivers()), a.digest());
        // A different set digests differently.
        let other = vec![rs[0]];
        assert_ne!(receiver_digest(&other), a.digest());
    }

    #[test]
    fn unicast_view_of_single_receiver_is_the_whole_graph() {
        let (g, s, rs) = setup();
        let one = vec![rs[0]];
        let edges = tree_edges(&g, s, &one);
        let mg = MulticastGraph::new(&g, s, one.clone(), edges).unwrap();
        let view = mg.unicast_view(&g, rs[0]).unwrap();
        assert_eq!(view.edges(), mg.edges());
        assert_eq!(view.source(), s);
        assert_eq!(view.destination(), rs[0]);
        assert!(mg.unicast_view(&g, s).is_err());
        assert_eq!(MulticastGraph::from(&view), mg, "a unicast route is the one-receiver group");
    }

    #[test]
    fn bitmask_matches_unicast_format() {
        let (g, s, rs) = setup();
        let edges = tree_edges(&g, s, &rs);
        let mg = MulticastGraph::new(&g, s, rs, edges).unwrap();
        let mask = mg.to_bitmask(g.edge_count());
        assert_eq!(mask.len(), g.edge_count().div_ceil(8));
        for e in g.edges() {
            let bit = mask[e.index() / 8] & (1 << (e.index() % 8)) != 0;
            assert_eq!(bit, mg.contains(e));
        }
    }

    #[test]
    fn serde_round_trip() {
        let (g, s, rs) = setup();
        let edges = tree_edges(&g, s, &rs);
        let mg = MulticastGraph::new(&g, s, rs, edges).unwrap();
        let json = serde_json::to_string(&mg).unwrap();
        assert_eq!(serde_json::from_str::<MulticastGraph>(&json).unwrap(), mg);
    }
}
