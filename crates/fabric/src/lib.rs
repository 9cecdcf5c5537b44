//! # st-fabric — distributed campaign fabric primitives
//!
//! Synchro-Tokens' determinism makes every campaign result a pure
//! function of its configuration, so a result is fully identified by
//! the content key of its request — which makes a result store
//! trivially shardable (the key decides the owner), replicable (any
//! copy is as good as any other) and verifiable (the key *is* the
//! checksum). This crate holds the three pure pieces a multi-node
//! st-serve cluster is built from, in the masterless spirit of FATAL+
//! and PALS — no coordinator, no consensus, just deterministic
//! placement plus gossip:
//!
//! * [`ring`] — the consistent-hash ring: every node derives identical
//!   placement from the member set alone.
//! * [`gossip`] — the membership state machine: direct/relayed
//!   evidence, suspicion and eviction timeouts, epochs that signal
//!   ring rebuilds.
//! * [`wire`] — the fail-closed peer frame: key echo + payload
//!   checksum + optional chained witness record, rejected whole on any
//!   disagreement.
//!
//! Everything here is std-only pure data with injected clocks; the
//! sockets, threads and HTTP live in `st-serve`'s `cluster` module.

#![forbid(unsafe_code)]

pub mod gossip;
pub mod ring;
pub mod wire;

pub use gossip::{Health, Membership, PeerEntry, Timeouts};
pub use ring::{key_point, HashRing, VNODES};
pub use wire::{Frame, FrameError};

/// A node's stable identity within the cluster. Ordered so member
/// lists sort deterministically — the ring is a pure function of the
/// sorted member set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub String);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}
