//! Consistent-hash ring over the content-addressed key space.
//!
//! Determinism makes sharding trivial: a result is a pure function of
//! its request, the request's `ContentKey` bytes are already
//! avalanche-mixed (`st_serve::hash`), so the first eight key bytes are
//! a uniform point on a `u64` circle. Each node projects [`VNODES`]
//! virtual points onto the same circle from nothing but its node id, so
//! **every node that knows the same membership derives the same ring**
//! — no coordinator, no negotiation, no persisted placement table.
//!
//! Placement: a key is owned by the node whose virtual point is the
//! first at-or-after the key's point (wrapping). Replication walks
//! clockwise to the next *distinct* nodes. Adding or removing one node
//! moves only the keys adjacent to that node's virtual points — the
//! classic consistent-hashing minimal-movement property, proven by the
//! tests below.

use crate::NodeId;
use st_conformance::{fnv1a64, mix64};

/// Virtual points each node projects onto the ring. 64 keeps the
/// per-node share within a few percent of fair at cluster sizes this
/// repo targets (≤ dozens of nodes) while a full rebuild stays O(n·64).
pub const VNODES: usize = 64;

/// The deterministic ring: every node with the same member list builds
/// byte-identical placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(point, node index)` sorted by point; ties broken by node id
    /// order so collisions cannot produce divergent rings.
    points: Vec<(u64, u32)>,
    nodes: Vec<NodeId>,
}

/// The ring point of a virtual node: node id hashed, then mixed with
/// the vnode ordinal so a node's points scatter independently.
fn vnode_point(node: &NodeId, vnode: usize) -> u64 {
    mix64(fnv1a64(node.0.as_bytes()) ^ mix64(vnode as u64 + 1))
}

/// The ring point of a content key: its first eight bytes, which
/// `ContentKey::of` already finished with a splitmix avalanche.
pub fn key_point(key: &[u8; 16]) -> u64 {
    u64::from_le_bytes(key[..8].try_into().expect("8 bytes"))
}

impl HashRing {
    /// Builds the ring for `nodes` (deduplicated, order-insensitive:
    /// the member *set* determines the ring).
    ///
    /// # Panics
    ///
    /// Panics on an empty node list — a ring with no owners cannot
    /// place anything.
    pub fn build(nodes: &[NodeId]) -> HashRing {
        let mut nodes: Vec<NodeId> = nodes.to_vec();
        nodes.sort();
        nodes.dedup();
        assert!(!nodes.is_empty(), "a hash ring needs at least one node");
        let mut points = Vec::with_capacity(nodes.len() * VNODES);
        for (i, node) in nodes.iter().enumerate() {
            for v in 0..VNODES {
                points.push((vnode_point(node, v), i as u32));
            }
        }
        // Sort by (point, node id) — the id tiebreak keeps even a
        // 64-bit point collision deterministic across nodes.
        points.sort_by(|a, b| (a.0, &nodes[a.1 as usize].0).cmp(&(b.0, &nodes[b.1 as usize].0)));
        HashRing { points, nodes }
    }

    /// The member list, sorted.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the ring has no members (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True when `node` is a member.
    pub fn contains(&self, node: &NodeId) -> bool {
        self.nodes.binary_search(node).is_ok()
    }

    /// Index of the first virtual point at-or-after `point`, wrapping.
    fn first_at_or_after(&self, point: u64) -> usize {
        self.points.partition_point(|&(p, _)| p < point) % self.points.len()
    }

    /// The node that owns `key`.
    pub fn owner(&self, key: &[u8; 16]) -> &NodeId {
        let at = self.first_at_or_after(key_point(key));
        &self.nodes[self.points[at].1 as usize]
    }

    /// The first `n` *distinct* nodes clockwise from `key`'s point —
    /// the owner first, then its replication successors. Returns fewer
    /// than `n` when the cluster is smaller than `n`.
    pub fn successors(&self, key: &[u8; 16], n: usize) -> Vec<&NodeId> {
        let mut out: Vec<&NodeId> = Vec::with_capacity(n.min(self.nodes.len()));
        let start = self.first_at_or_after(key_point(key));
        for step in 0..self.points.len() {
            let (_, idx) = self.points[(start + step) % self.points.len()];
            let node = &self.nodes[idx as usize];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == n.min(self.nodes.len()) {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(s: &str) -> NodeId {
        NodeId(s.to_owned())
    }

    fn key(i: u64) -> [u8; 16] {
        st_conformance::content_key16(&i.to_le_bytes())
    }

    #[test]
    fn ring_is_a_pure_function_of_the_member_set() {
        let a = HashRing::build(&[node("n1"), node("n2"), node("n3")]);
        let b = HashRing::build(&[node("n3"), node("n1"), node("n2"), node("n1")]);
        assert_eq!(a, b, "order and duplicates must not matter");
        for i in 0..256 {
            assert_eq!(a.owner(&key(i)), b.owner(&key(i)));
        }
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        let nodes: Vec<NodeId> = (0..4).map(|i| node(&format!("node-{i}"))).collect();
        let ring = HashRing::build(&nodes);
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..4096u64 {
            *counts.entry(ring.owner(&key(i)).clone()).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4, "every node owns some keys");
        for (n, c) in &counts {
            // Fair share is 1024; allow a generous band — the point is
            // that no node is starved or hot by an order of magnitude.
            assert!((300..=2200).contains(c), "{n:?} owns {c} of 4096");
        }
    }

    #[test]
    fn removing_a_node_only_moves_its_own_keys() {
        let full = HashRing::build(&[node("a"), node("b"), node("c"), node("d")]);
        let less = HashRing::build(&[node("a"), node("b"), node("c")]);
        let mut moved = 0usize;
        for i in 0..2048u64 {
            let k = key(i);
            let before = full.owner(&k);
            let after = less.owner(&k);
            if before != after {
                assert_eq!(
                    before,
                    &node("d"),
                    "only keys owned by the removed node may move"
                );
                moved += 1;
            }
        }
        assert!(moved > 0, "the removed node owned something");
        assert!(moved < 1024, "movement stays near the 1/4 fair share");
    }

    #[test]
    fn successors_are_distinct_start_with_the_owner_and_cap_at_cluster_size() {
        let ring = HashRing::build(&[node("a"), node("b"), node("c")]);
        for i in 0..64u64 {
            let k = key(i);
            let succ = ring.successors(&k, 2);
            assert_eq!(succ.len(), 2);
            assert_eq!(succ[0], ring.owner(&k));
            assert_ne!(succ[0], succ[1]);
            // Asking for more replicas than nodes caps cleanly.
            let all = ring.successors(&k, 9);
            assert_eq!(all.len(), 3);
            let mut sorted: Vec<&NodeId> = all.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "successors are distinct nodes");
        }
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let ring = HashRing::build(&[node("solo")]);
        for i in 0..32u64 {
            assert_eq!(ring.owner(&key(i)), &node("solo"));
            assert_eq!(ring.successors(&key(i), 3).len(), 1);
        }
    }
}
