//! Cluster fabric: the st-serve side of the multi-node campaign
//! cluster.
//!
//! `st-fabric` holds the pure pieces (ring, membership, wire frame);
//! this module owns everything with a socket or a thread in it:
//!
//! * **Routing** ([`Cluster::try_remote`]) — called from the worker's
//!   `run_job` path, never an HTTP connection thread, so forwarding
//!   can block on a peer without stalling request intake. A non-owner
//!   probes the owner's cache (`/peer/get`), falls back to remote
//!   execution (`/peer/execute` + status polling), then to replica
//!   probes, and finally *steals* the job — executes it locally —
//!   when the owner is unreachable. Determinism makes every fallback
//!   byte-identical to the path it replaces (ST-CLU-014).
//! * **Replication** ([`Cluster::replicate`]) — after a local
//!   execution the result is pushed to the key's successor nodes in
//!   [`Frame`] envelopes; receivers verify fail-closed (ST-CLU-015).
//! * **Gossip** ([`Cluster::gossip_round`]) — periodic peer exchange
//!   of membership (PALS-style neighbourhood gossip: no master), with
//!   suspicion/eviction driven by [`st_fabric::Membership`].
//! * **Leave** ([`Cluster::leave_and_handoff`]) — a clean departure
//!   hands memory-resident entries to their new owners and tells the
//!   peers goodbye; disk-resident or missed entries are safe to drop
//!   because determinism recomputes identical bytes on demand.
//!
//! Configuration comes from `--peers`/`--node-id` or the `ST_PEERS`
//! environment knob, with the same tolerate-and-warn contract as the
//! `*_THREADS` variables: malformed entries are dropped loudly, never
//! silently obeyed.

use crate::hash::ContentKey;
use crate::http::request;
use crate::job::JobRequest;
use crate::json::Json;
use crate::service::JobService;
use st_conformance::WitnessRecord;
use st_fabric::{Frame, HashRing, Membership, NodeId, Timeouts};
use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use synchro_tokens::CancelToken;

/// How long a forwarder waits for a remote execution before stealing
/// the job, when the submission carries no deadline of its own.
const REMOTE_WAIT_DEFAULT: Duration = Duration::from_secs(120);
/// Poll cadence against the owner's `/status` during remote execution.
const REMOTE_POLL: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------------
// Peer-list parsing: the ST_PEERS / --peers contract
// ---------------------------------------------------------------------------

/// Splits a peer list into accepted `host:port` entries and rejected
/// raw entries. The pure core of [`parse_peers`], separated so the
/// corner cases test without stderr capture:
///
/// * entries are comma-separated and whitespace-trimmed,
/// * empty entries (from `"a,,b"`, trailing commas, or an all-blank
///   list) vanish silently — they carry no intent to warn about,
/// * an entry must be `host:port` with a non-empty host and a valid
///   decimal port (1..=65535); anything else is rejected,
/// * duplicates keep their first occurrence only.
pub fn split_peers(src: &str) -> (Vec<String>, Vec<String>) {
    let mut accepted: Vec<String> = Vec::new();
    let mut rejected = Vec::new();
    for raw in src.split(',') {
        let entry = raw.trim();
        if entry.is_empty() {
            continue;
        }
        let valid = entry.rsplit_once(':').is_some_and(|(host, port)| {
            !host.is_empty() && port.parse::<u16>().map(|p| p > 0).unwrap_or(false)
        });
        if !valid {
            rejected.push(entry.to_owned());
        } else if !accepted.iter().any(|a| a == entry) {
            accepted.push(entry.to_owned());
        }
    }
    (accepted, rejected)
}

/// Parses a `--peers`/`ST_PEERS` list with the workspace's
/// tolerate-and-warn knob policy: valid entries are kept (deduplicated,
/// order preserved), malformed ones are dropped with a stderr warning
/// naming the rejected value — a silently ignored peer is worse than a
/// noisy one.
pub fn parse_peers(src: &str) -> Vec<String> {
    let (accepted, rejected) = split_peers(src);
    for bad in rejected {
        eprintln!("warning: ignoring malformed peer {bad:?} (want host:port)");
    }
    accepted
}

/// Resolves the `ST_PEERS` environment knob: unset returns `None`
/// (the caller decides whether to cluster at all); set — even to an
/// empty or entirely malformed list — returns `Some` with whatever
/// survived [`parse_peers`], so an explicitly-set knob always opts the
/// node into cluster mode.
pub fn peers_from_env(var: &str) -> Option<Vec<String>> {
    std::env::var(var).ok().map(|v| parse_peers(&v))
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Cluster tunables, resolved once at startup.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's stable identity. Must differ from every peer's.
    pub node_id: String,
    /// Seed peer addresses (`host:port`) gossiped with at join time.
    pub seeds: Vec<String>,
    /// Replication factor R: each entry lives on the owner plus R-1
    /// ring successors.
    pub replicas: usize,
    /// Background gossip cadence. `None` disables the thread — the
    /// test mode, driven by explicit [`Cluster::gossip_round`] calls,
    /// mirroring the job service's `workers: 0` manual stepping.
    pub gossip_interval: Option<Duration>,
    /// Suspicion/eviction timeouts for the membership layer.
    pub timeouts: Timeouts,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            node_id: String::new(),
            seeds: Vec::new(),
            replicas: 2,
            gossip_interval: Some(Duration::from_millis(500)),
            timeouts: Timeouts::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Per-peer traffic counters, reported by `/cluster`.
#[derive(Debug, Default, Clone)]
pub struct PeerCounters {
    /// `/peer/get` probes answered with a valid frame.
    pub hits: u64,
    /// `/peer/get` probes answered 404.
    pub misses: u64,
    /// Jobs forwarded to this peer for execution.
    pub forwards: u64,
    /// Connections to this peer that failed.
    pub failures: u64,
}

/// Cluster-level counters (the store's `corrupt_discards` ledger also
/// counts network-path discards; it lives in `StoreStats`).
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Jobs routed to a remote owner (served or executed there).
    pub forwards: AtomicU64,
    /// Results served from a peer's store.
    pub peer_hits: AtomicU64,
    /// Owner cache probes that missed (forcing remote execution).
    pub peer_misses: AtomicU64,
    /// Jobs executed locally despite a remote owner (owner down).
    pub steals: AtomicU64,
    /// Entries successfully pushed to a replica.
    pub replications: AtomicU64,
    /// Entries pushed to new owners during a clean leave.
    pub handoffs: AtomicU64,
    /// Gossip rounds initiated.
    pub gossip_rounds: AtomicU64,
    /// Peer connections that failed.
    pub peer_failures: AtomicU64,
    per_peer: Mutex<BTreeMap<String, PeerCounters>>,
}

impl ClusterStats {
    fn peer<F: FnOnce(&mut PeerCounters)>(&self, id: &NodeId, f: F) {
        let mut map = self.per_peer.lock().unwrap();
        f(map.entry(id.0.clone()).or_default());
    }

    /// Snapshot of the per-peer counters.
    pub fn per_peer(&self) -> BTreeMap<String, PeerCounters> {
        self.per_peer.lock().unwrap().clone()
    }
}

// ---------------------------------------------------------------------------
// The cluster
// ---------------------------------------------------------------------------

/// A result served from a peer instead of computed locally.
pub struct ServedRemote {
    /// The verified result bytes (frame-checked against the key).
    pub bytes: Vec<u8>,
    /// The requirement IDs from the executing node's witness record,
    /// when the remote actually executed (a plain peer cache hit mints
    /// no witness, mirroring local cache hits).
    pub witness_ids: Option<Vec<String>>,
}

enum PeerGet {
    Hit(Frame),
    Miss,
    /// A frame arrived but failed verification — already counted into
    /// the corrupt-discard ledger by the caller of record.
    Corrupt,
    Unreachable,
}

/// The live cluster state attached to a [`JobService`].
pub struct Cluster {
    config: ClusterConfig,
    self_id: NodeId,
    self_addr: SocketAddr,
    service: Weak<JobService>,
    membership: Mutex<Membership>,
    /// `(membership epoch, ring)` — rebuilt lazily when the epoch moves.
    ring_cache: Mutex<(u64, Arc<HashRing>)>,
    /// Counters for `/cluster` and `/metrics`.
    pub stats: ClusterStats,
    stop: Arc<AtomicBool>,
    gossiper: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("node_id", &self.self_id)
            .field("addr", &self.self_addr)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds the cluster layer for a bound server and starts the
    /// gossip thread (when an interval is configured). The caller must
    /// follow with [`JobService::attach_cluster`] so workers route
    /// through it.
    pub fn start(
        config: ClusterConfig,
        self_addr: SocketAddr,
        service: &Arc<JobService>,
    ) -> Arc<Cluster> {
        let self_id = NodeId(config.node_id.clone());
        let membership = Membership::new(self_id.clone(), self_addr.to_string(), config.timeouts);
        let ring = Arc::new(HashRing::build(std::slice::from_ref(&self_id)));
        let cluster = Arc::new(Cluster {
            config,
            self_id,
            self_addr,
            service: Arc::downgrade(service),
            membership: Mutex::new(membership),
            ring_cache: Mutex::new((0, ring)),
            stats: ClusterStats::default(),
            stop: Arc::new(AtomicBool::new(false)),
            gossiper: Mutex::new(None),
        });
        if let Some(interval) = cluster.config.gossip_interval {
            let me = Arc::clone(&cluster);
            let stop = Arc::clone(&cluster.stop);
            let handle = std::thread::Builder::new()
                .name("st-serve-gossip".to_owned())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        me.gossip_round();
                        // Sleep in slices so shutdown is prompt.
                        let deadline = Instant::now() + interval;
                        while Instant::now() < deadline && !stop.load(Ordering::Acquire) {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    }
                })
                .expect("spawn gossip thread");
            *cluster.gossiper.lock().unwrap() = Some(handle);
        }
        cluster
    }

    /// This node's identity.
    pub fn node_id(&self) -> &NodeId {
        &self.self_id
    }

    /// This node's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.self_addr
    }

    /// The replication factor in force.
    pub fn replicas(&self) -> usize {
        self.config.replicas
    }

    /// The current ring, rebuilt when membership changed.
    pub fn ring(&self) -> Arc<HashRing> {
        let m = self.membership.lock().unwrap();
        let epoch = m.epoch();
        let mut cache = self.ring_cache.lock().unwrap();
        if cache.0 != epoch {
            *cache = (epoch, Arc::new(HashRing::build(&m.ring_nodes())));
        }
        Arc::clone(&cache.1)
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.membership.lock().unwrap().epoch()
    }

    // -- gossip ------------------------------------------------------------

    /// Our half of a gossip exchange: who we are plus everything we
    /// know, with evidence ages (instants do not serialize; ages do).
    fn snapshot_json(&self) -> Json {
        let m = self.membership.lock().unwrap();
        let now = Instant::now();
        let members: Vec<Json> = m
            .peers()
            .map(|p| {
                Json::obj([
                    ("id", Json::Str(p.id.0.clone())),
                    ("addr", Json::Str(p.addr.clone())),
                    ("health", Json::str(p.health.name())),
                    ("age_ms", Json::UInt(p.age(now).as_millis() as u64)),
                ])
            })
            .collect();
        Json::obj([
            (
                "from",
                Json::obj([
                    ("id", Json::Str(self.self_id.0.clone())),
                    ("addr", Json::Str(m.self_addr().to_owned())),
                ]),
            ),
            ("members", Json::Arr(members)),
        ])
    }

    /// Folds a gossip payload (a request we received, or a reply to
    /// one we sent) into membership: the sender is direct evidence,
    /// its member list is relayed evidence.
    fn learn(&self, payload: &Json) {
        let now = Instant::now();
        let mut m = self.membership.lock().unwrap();
        if let Some(from) = payload.get("from") {
            if let (Some(id), Some(addr)) = (
                from.get("id").and_then(Json::as_str),
                from.get("addr").and_then(Json::as_str),
            ) {
                m.observe_direct(&NodeId(id.to_owned()), addr, now);
            }
        }
        for member in payload.get("members").and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(id), Some(addr), Some(age_ms)) = (
                member.get("id").and_then(Json::as_str),
                member.get("addr").and_then(Json::as_str),
                member.get("age_ms").and_then(Json::as_u64),
            ) {
                m.observe_relayed(
                    &NodeId(id.to_owned()),
                    addr,
                    Duration::from_millis(age_ms),
                    now,
                );
            }
        }
    }

    /// Serves a peer's `POST /peer/gossip`: learn from its payload,
    /// answer with ours.
    pub fn handle_gossip(&self, body: &Json) -> Json {
        self.learn(body);
        self.snapshot_json()
    }

    /// Serves a peer's `POST /peer/leave`.
    pub fn handle_leave(&self, id: &str) -> bool {
        self.membership
            .lock()
            .unwrap()
            .remove(&NodeId(id.to_owned()))
    }

    /// One gossip round: exchange membership with every known peer and
    /// every not-yet-identified seed, then advance the failure clocks.
    /// The background thread calls this on its cadence; tests call it
    /// directly for deterministic convergence.
    pub fn gossip_round(&self) {
        self.stats.gossip_rounds.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot_json().encode().into_bytes();
        // Targets: known peers by id, plus seed addresses we have not
        // identified yet (their reply introduces them).
        let (mut targets, self_addr_str) = {
            let m = self.membership.lock().unwrap();
            let known: Vec<(Option<NodeId>, String)> = m
                .peers()
                .map(|p| (Some(p.id.clone()), p.addr.clone()))
                .collect();
            (known, m.self_addr().to_owned())
        };
        for seed in &self.config.seeds {
            if *seed != self_addr_str && !targets.iter().any(|(_, a)| a == seed) {
                targets.push((None, seed.clone()));
            }
        }
        for (id, addr) in targets {
            let Some(sock) = resolve(&addr) else { continue };
            match request(sock, "POST", "/peer/gossip", &snapshot) {
                Ok((200, body)) => {
                    if let Ok(reply) = Json::parse(&String::from_utf8_lossy(&body)) {
                        self.learn(&reply);
                    }
                }
                _ => {
                    self.stats.peer_failures.fetch_add(1, Ordering::Relaxed);
                    if let Some(id) = &id {
                        self.stats.peer(id, |c| c.failures += 1);
                        self.membership.lock().unwrap().mark_failed(id);
                    }
                }
            }
        }
        self.membership.lock().unwrap().tick(Instant::now());
    }

    // -- routing -----------------------------------------------------------

    /// Attempts to serve `key` remotely. `None` means "execute
    /// locally" — we own the key, the cluster is degenerate, or every
    /// remote path failed (a steal, already counted). Called from the
    /// worker's `run_job`, so blocking here never stalls HTTP intake.
    pub fn try_remote(
        &self,
        request_: &JobRequest,
        key: ContentKey,
        cancel: &CancelToken,
        deadline: Option<Instant>,
    ) -> Option<ServedRemote> {
        let ring = self.ring();
        if ring.len() <= 1 {
            return None;
        }
        let owner = ring.owner(&key.0).clone();
        if owner == self.self_id {
            return None;
        }
        self.stats.forwards.fetch_add(1, Ordering::Relaxed);
        self.stats.peer(&owner, |c| c.forwards += 1);

        let owner_suspect = {
            let m = self.membership.lock().unwrap();
            m.get(&owner).map(|p| p.health) != Some(st_fabric::Health::Alive)
        };
        if !owner_suspect {
            if let Some(addr) = self.addr_of(&owner) {
                match self.peer_get(&owner, addr, key) {
                    PeerGet::Hit(frame) => {
                        return Some(ServedRemote {
                            bytes: frame.payload,
                            witness_ids: frame.witness.map(|w| w.ids),
                        })
                    }
                    PeerGet::Miss => {
                        self.stats.peer_misses.fetch_add(1, Ordering::Relaxed);
                        if let Some(served) =
                            self.peer_execute(&owner, addr, request_, key, cancel, deadline)
                        {
                            return Some(served);
                        }
                    }
                    // A corrupt frame from the owner: do not trust it
                    // with execution either; fall to replicas/steal.
                    PeerGet::Corrupt | PeerGet::Unreachable => {}
                }
            }
        }
        // Owner out of reach (or suspect): a replica may hold the
        // bytes. Replicas are only probed, never asked to execute —
        // execution lands here if nothing has the result.
        for node in ring.successors(&key.0, self.config.replicas) {
            if *node == self.self_id || *node == owner {
                continue;
            }
            let node = node.clone();
            if let Some(addr) = self.addr_of(&node) {
                if let PeerGet::Hit(frame) = self.peer_get(&node, addr, key) {
                    return Some(ServedRemote {
                        bytes: frame.payload,
                        witness_ids: frame.witness.map(|w| w.ids),
                    });
                }
            }
        }
        self.stats.steals.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Probes one peer's store for `key` and verifies whatever comes
    /// back. Frame verification failures count into the *store's*
    /// corrupt-discard ledger: the network path and the disk path share
    /// one fail-closed counter (ST-CLU-015).
    fn peer_get(&self, id: &NodeId, addr: SocketAddr, key: ContentKey) -> PeerGet {
        let path = format!("/peer/get/{}", key.to_hex());
        match request(addr, "GET", &path, b"") {
            Ok((200, body)) => match decode_verified(&body, key) {
                Ok(frame) => {
                    self.stats.peer_hits.fetch_add(1, Ordering::Relaxed);
                    self.stats.peer(id, |c| c.hits += 1);
                    PeerGet::Hit(frame)
                }
                Err(e) => {
                    if let Some(svc) = self.service.upgrade() {
                        svc.store
                            .stats
                            .corrupt_discards
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    eprintln!("st-serve: discarding corrupt frame from {id}: {e}");
                    PeerGet::Corrupt
                }
            },
            Ok((404, _)) => {
                self.stats.peer(id, |c| c.misses += 1);
                PeerGet::Miss
            }
            Ok(_) => PeerGet::Miss,
            Err(_) => {
                self.stats.peer_failures.fetch_add(1, Ordering::Relaxed);
                self.stats.peer(id, |c| c.failures += 1);
                self.membership.lock().unwrap().mark_failed(id);
                PeerGet::Unreachable
            }
        }
    }

    /// Executes the job on the owner: submit with `/peer/execute`
    /// (which forbids re-forwarding, so transient ring disagreement
    /// cannot loop), poll its status, then fetch the verified bytes.
    fn peer_execute(
        &self,
        id: &NodeId,
        addr: SocketAddr,
        request_: &JobRequest,
        key: ContentKey,
        cancel: &CancelToken,
        deadline: Option<Instant>,
    ) -> Option<ServedRemote> {
        let body = request_.to_json().encode().into_bytes();
        let submitted = match request(addr, "POST", "/peer/execute", &body) {
            Ok((202, reply)) => Json::parse(&String::from_utf8_lossy(&reply)).ok()?,
            Ok(_) => return None,
            Err(_) => {
                self.stats.peer_failures.fetch_add(1, Ordering::Relaxed);
                self.stats.peer(id, |c| c.failures += 1);
                self.membership.lock().unwrap().mark_failed(id);
                return None;
            }
        };
        // The owner must agree on the key — a disagreement means the
        // request bytes did not survive the wire; trust nothing.
        if submitted.get("key").and_then(Json::as_str) != Some(key.to_hex().as_str()) {
            return None;
        }
        let job_id = submitted.get("id").and_then(Json::as_u64)?;
        let wait_until = deadline.unwrap_or_else(|| Instant::now() + REMOTE_WAIT_DEFAULT);
        loop {
            if cancel.is_cancelled() || Instant::now() >= wait_until {
                return None;
            }
            let status = match request(addr, "GET", &format!("/status/{job_id}"), b"") {
                Ok((200, body)) => Json::parse(&String::from_utf8_lossy(&body)).ok()?,
                Ok(_) => return None,
                Err(_) => {
                    self.stats.peer_failures.fetch_add(1, Ordering::Relaxed);
                    self.stats.peer(id, |c| c.failures += 1);
                    self.membership.lock().unwrap().mark_failed(id);
                    return None;
                }
            };
            match status.get("status").and_then(Json::as_str) {
                Some("done") => break,
                Some("queued" | "running") => std::thread::sleep(REMOTE_POLL),
                // Cancelled/expired/failed remotely (or unparsable): steal.
                _ => return None,
            }
        }
        match self.peer_get(id, addr, key) {
            PeerGet::Hit(frame) => Some(ServedRemote {
                bytes: frame.payload,
                witness_ids: frame.witness.map(|w| w.ids),
            }),
            _ => None,
        }
    }

    // -- replication and handoff -------------------------------------------

    /// Pushes a freshly computed entry to the key's replica successors
    /// (everyone in the first R ring positions except ourselves).
    pub fn replicate(&self, key: ContentKey, bytes: &[u8], witness: Option<&WitnessRecord>) {
        let ring = self.ring();
        if ring.len() <= 1 {
            return;
        }
        let frame = Frame {
            key: key.0,
            payload: bytes.to_vec(),
            witness: witness.cloned(),
        }
        .encode();
        for node in ring.successors(&key.0, self.config.replicas) {
            if *node == self.self_id {
                continue;
            }
            let node = node.clone();
            if let Some(addr) = self.addr_of(&node) {
                self.push_entry(&node, addr, key, &frame, &self.stats.replications);
            }
        }
    }

    /// A clean departure: hand every memory-resident entry to its
    /// owner in the ring *without us*, tell the peers goodbye, and
    /// stop gossiping. Returns the number of entries handed off.
    /// Entries this misses (disk-resident, or a failed push) are safe
    /// to lose: determinism recomputes identical bytes on demand.
    pub fn leave_and_handoff(&self) -> usize {
        let Some(svc) = self.service.upgrade() else {
            return 0;
        };
        let remaining: Vec<NodeId> = {
            let m = self.membership.lock().unwrap();
            m.ring_nodes()
                .into_iter()
                .filter(|n| *n != self.self_id)
                .collect()
        };
        let mut handed = 0usize;
        if !remaining.is_empty() {
            let ring = HashRing::build(&remaining);
            for key in svc.store.mem_keys() {
                let Some(bytes) = svc.store.get(key) else {
                    continue;
                };
                let witness = svc.witness_for_key(key);
                let frame = Frame {
                    key: key.0,
                    payload: bytes,
                    witness,
                }
                .encode();
                let owner = ring.owner(&key.0).clone();
                if let Some(addr) = self.addr_of(&owner) {
                    if self.push_entry(&owner, addr, key, &frame, &self.stats.handoffs) {
                        handed += 1;
                    }
                }
            }
        }
        // Goodbye: peers drop us immediately, no suspicion window.
        let bye = Json::obj([("id", Json::Str(self.self_id.0.clone()))])
            .encode()
            .into_bytes();
        let peers: Vec<(NodeId, String)> = {
            let m = self.membership.lock().unwrap();
            m.peers().map(|p| (p.id.clone(), p.addr.clone())).collect()
        };
        for (id, addr) in peers {
            if let Some(sock) = resolve(&addr) {
                if request(sock, "POST", "/peer/leave", &bye).is_err() {
                    self.stats.peer_failures.fetch_add(1, Ordering::Relaxed);
                    self.stats.peer(&id, |c| c.failures += 1);
                }
            }
        }
        self.stop_gossip();
        handed
    }

    fn push_entry(
        &self,
        id: &NodeId,
        addr: SocketAddr,
        key: ContentKey,
        frame: &[u8],
        counter: &AtomicU64,
    ) -> bool {
        let path = format!("/peer/put/{}", key.to_hex());
        match request(addr, "POST", &path, frame) {
            Ok((200, _)) => {
                counter.fetch_add(1, Ordering::Relaxed);
                true
            }
            Ok(_) => false,
            Err(_) => {
                self.stats.peer_failures.fetch_add(1, Ordering::Relaxed);
                self.stats.peer(id, |c| c.failures += 1);
                self.membership.lock().unwrap().mark_failed(id);
                false
            }
        }
    }

    // -- observability ------------------------------------------------------

    /// The `/cluster` endpoint body: identity, ring, peers, counters.
    pub fn cluster_json(&self) -> Json {
        let ring = self.ring();
        let (peers, epoch) = {
            let m = self.membership.lock().unwrap();
            let now = Instant::now();
            let peers: Vec<Json> = m
                .peers()
                .map(|p| {
                    Json::obj([
                        ("id", Json::Str(p.id.0.clone())),
                        ("addr", Json::Str(p.addr.clone())),
                        ("health", Json::str(p.health.name())),
                        ("age_ms", Json::UInt(p.age(now).as_millis() as u64)),
                    ])
                })
                .collect();
            (peers, m.epoch())
        };
        let r = |a: &AtomicU64| Json::UInt(a.load(Ordering::Relaxed));
        let per_peer: Vec<Json> = self
            .stats
            .per_peer()
            .into_iter()
            .map(|(id, c)| {
                Json::obj([
                    ("id", Json::Str(id)),
                    ("hits", Json::UInt(c.hits)),
                    ("misses", Json::UInt(c.misses)),
                    ("forwards", Json::UInt(c.forwards)),
                    ("failures", Json::UInt(c.failures)),
                ])
            })
            .collect();
        Json::obj([
            ("clustered", Json::Bool(true)),
            ("node_id", Json::Str(self.self_id.0.clone())),
            ("addr", Json::Str(self.self_addr.to_string())),
            ("epoch", Json::UInt(epoch)),
            ("replicas", Json::UInt(self.config.replicas as u64)),
            (
                "ring",
                Json::obj([
                    (
                        "nodes",
                        Json::Arr(
                            ring.nodes()
                                .iter()
                                .map(|n| Json::Str(n.0.clone()))
                                .collect(),
                        ),
                    ),
                    ("vnodes", Json::UInt(st_fabric::VNODES as u64)),
                ]),
            ),
            ("peers", Json::Arr(peers)),
            (
                "stats",
                Json::obj([
                    ("forwards", r(&self.stats.forwards)),
                    ("peer_hits", r(&self.stats.peer_hits)),
                    ("peer_misses", r(&self.stats.peer_misses)),
                    ("steals", r(&self.stats.steals)),
                    ("replications", r(&self.stats.replications)),
                    ("handoffs", r(&self.stats.handoffs)),
                    ("gossip_rounds", r(&self.stats.gossip_rounds)),
                    ("peer_failures", r(&self.stats.peer_failures)),
                    ("per_peer", Json::Arr(per_peer)),
                ]),
            ),
        ])
    }

    /// Stops the background gossip thread. Idempotent.
    pub fn stop_gossip(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.gossiper.lock().unwrap().take() {
            let _ = h.join();
        }
    }

    fn addr_of(&self, node: &NodeId) -> Option<SocketAddr> {
        let addr = self.membership.lock().unwrap().get(node)?.addr.clone();
        resolve(&addr)
    }
}

/// Decodes a peer frame against the expected key and cross-checks any
/// carried witness record against the payload: the record's config
/// must be the request key and its result digest must match the bytes
/// actually carried — a frame that lies about its provenance is as
/// corrupt as one that fails its checksum.
pub(crate) fn decode_verified(body: &[u8], key: ContentKey) -> Result<Frame, String> {
    let frame = Frame::decode(body, &key.0).map_err(|e| e.to_string())?;
    if let Some(w) = &frame.witness {
        if w.config != key.0 {
            return Err("witness config does not match the request key".to_owned());
        }
        if w.result != ContentKey::of(&frame.payload).0 {
            return Err("witness result does not match the carried bytes".to_owned());
        }
    }
    Ok(frame)
}

fn resolve(addr: &str) -> Option<SocketAddr> {
    addr.to_socket_addrs().ok()?.next()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ST_PEERS corner suite, mirroring the ST_THREADS
    // env-knob contract tests: the pure split is exercised on every
    // corner, and exactly one test owns the environment variable.

    #[test]
    fn peer_lists_drop_empty_and_whitespace_entries_silently() {
        assert_eq!(split_peers(""), (vec![], vec![]));
        assert_eq!(split_peers("   "), (vec![], vec![]));
        assert_eq!(split_peers(",,,"), (vec![], vec![]));
        assert_eq!(split_peers(" , \t ,"), (vec![], vec![]));
        let (ok, bad) = split_peers(" 10.0.0.1:7878 , ,host:99,");
        assert_eq!(ok, vec!["10.0.0.1:7878", "host:99"]);
        assert!(bad.is_empty());
    }

    #[test]
    fn malformed_peer_entries_are_rejected_not_obeyed() {
        let (ok, bad) = split_peers("nocolon,:7878,host:,host:port,host:0,host:70000,a:1");
        assert_eq!(ok, vec!["a:1"]);
        assert_eq!(
            bad,
            vec![
                "nocolon",
                ":7878",
                "host:",
                "host:port",
                "host:0",
                "host:70000"
            ]
        );
        // IPv6-ish entries with multiple colons parse on the last one.
        let (ok, bad) = split_peers("::1:7878");
        assert_eq!(ok, vec!["::1:7878"]);
        assert!(bad.is_empty());
    }

    #[test]
    fn duplicate_peers_keep_first_occurrence_only() {
        let (ok, bad) = split_peers("a:1,b:2,a:1,b:2,a:1,c:3");
        assert_eq!(ok, vec!["a:1", "b:2", "c:3"]);
        assert!(bad.is_empty());
        // Whitespace variants of the same entry still deduplicate.
        let (ok, _) = split_peers("a:1,  a:1 ,a:1\t");
        assert_eq!(ok, vec!["a:1"]);
    }

    #[test]
    fn st_peers_env_distinguishes_unset_from_set_but_useless() {
        // This test owns ST_PEERS (the only reader/mutator in this
        // binary; env mutation must not race other tests).
        std::env::remove_var("ST_PEERS");
        assert_eq!(peers_from_env("ST_PEERS"), None, "unset: not clustered");
        std::env::set_var("ST_PEERS", "n1:7878, n2:7879,n1:7878,garbage");
        assert_eq!(
            peers_from_env("ST_PEERS"),
            Some(vec!["n1:7878".to_owned(), "n2:7879".to_owned()])
        );
        // Set-but-empty still opts in (with zero peers): the caller
        // clusters, it just starts alone.
        std::env::set_var("ST_PEERS", "");
        assert_eq!(peers_from_env("ST_PEERS"), Some(vec![]));
        std::env::set_var("ST_PEERS", "all,of,these,are,bad");
        assert_eq!(peers_from_env("ST_PEERS"), Some(vec![]));
        std::env::remove_var("ST_PEERS");
    }

    #[test]
    fn corrupt_frames_fail_decode_verified() {
        let key = ContentKey::of(b"req");
        let payload = b"result bytes".to_vec();
        let ok = Frame {
            key: key.0,
            payload: payload.clone(),
            witness: None,
        };
        assert!(decode_verified(&ok.encode(), key).is_ok());

        // A witness whose result digest disagrees with the payload is
        // rejected even though the frame itself is internally valid.
        let mut log = st_conformance::WitnessLog::new();
        let lying = log.append(&["ST-DET-001"], key.0, ContentKey::of(b"other bytes").0);
        let framed = Frame {
            key: key.0,
            payload,
            witness: Some(lying),
        };
        let err = decode_verified(&framed.encode(), key).unwrap_err();
        assert!(err.contains("witness result"), "{err}");
    }
}
