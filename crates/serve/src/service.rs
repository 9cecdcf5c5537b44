//! The job service: a bounded queue, a worker pool, in-flight
//! coalescing, per-job deadlines, and service-level metrics.
//!
//! One [`JobService`] is shared by every HTTP connection thread. Its
//! invariants:
//!
//! * **Backpressure** — the queue is bounded; a submission that would
//!   exceed [`ServiceConfig::queue_cap`] is rejected immediately
//!   (HTTP 503) rather than buffered without bound.
//! * **Coalescing** — a submission whose [`ContentKey`] matches a job
//!   already queued or running returns that job's id instead of
//!   enqueueing a duplicate. Determinism makes this safe: the two
//!   executions could only ever produce identical bytes.
//! * **Deadlines** — each job may carry a wall-clock deadline; the
//!   worker trips the job's [`CancelToken`] from the progress hook the
//!   moment it passes, and the job classifies as `expired`.
//! * **Cancellation** — `/cancel/<id>` trips the same token; a still-
//!   queued job dies without ever starting.
//! * **Bounded memory** — the job registry holds every queued and
//!   running job, plus the newest [`TERMINAL_WINDOW`] terminal ones with
//!   only what `/status`, `/result` and `/witness` read. An older id
//!   answers as unknown (HTTP 404). The per-key witness index is bounded
//!   by the same window.

use crate::hash::ContentKey;
use crate::job::{execute, JobRequest};
use crate::store::ResultStore;
use st_conformance::{WitnessLog, WitnessRecord};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use synchro_tokens::{threads_from_env, CancelToken, RunHooks};

/// Monotonic job identifier, unique within one service instance.
pub type JobId = u64;

/// The largest canonical result a job may produce: 1 GiB. A job whose
/// result is larger ends [`JobStatus::Failed`] instead of being stored,
/// so every entry this service stores or serves fits the HTTP client's
/// reply cap, which is derived from it.
pub const MAX_RESULT_BYTES: usize = 1 << 30;

/// Where a job currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; its result is in the store under the job's key.
    Done,
    /// Cancelled via [`JobService::cancel`] before completion.
    Cancelled,
    /// Its wall-clock deadline passed before completion.
    Expired,
    /// It ran, but its result exceeds [`MAX_RESULT_BYTES`].
    Failed,
}

impl JobStatus {
    /// Wire name used by `/status`.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Expired => "expired",
            JobStatus::Failed => "failed",
        }
    }

    /// True once the job can never change state again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Cancelled | JobStatus::Expired | JobStatus::Failed
        )
    }
}

/// What [`JobService::submit`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// The result already existed in the store; the job was registered
    /// directly as [`JobStatus::Done`] — no execution happens.
    Cached(JobId),
    /// An identical request is already in flight; `JobId` is *that*
    /// job's id and no new work was enqueued.
    Coalesced(JobId),
    /// A fresh job was enqueued.
    Queued(JobId),
    /// The queue is full — retry later (backpressure).
    QueueFull,
}

/// Tunables, resolved once at construction.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads. `0` is the test/drive-by-hand mode: nothing
    /// executes until [`JobService::step`] is called.
    pub workers: usize,
    /// Simulation threads each worker fans a job out over.
    pub threads_per_job: usize,
    /// Maximum queued (not yet running) jobs.
    pub queue_cap: usize,
    /// Memory LRU capacity, in results.
    pub cache_entries: usize,
    /// Optional persistence directory for the result store.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            threads_per_job: 1,
            queue_cap: 64,
            cache_entries: 256,
            cache_dir: None,
        }
    }
}

impl ServiceConfig {
    /// Applies the environment knobs documented in EXPERIMENTS.md:
    /// `ST_SERVE_THREADS` (worker count, same clamp-and-warn contract
    /// as `ST_THREADS` via [`threads_from_env`]) and
    /// `ST_SERVE_CACHE_DIR` (persistence directory; empty disables).
    pub fn from_env(mut self) -> Self {
        if let Some(n) = threads_from_env("ST_SERVE_THREADS") {
            self.workers = n;
        }
        match std::env::var("ST_SERVE_CACHE_DIR") {
            Ok(dir) if !dir.is_empty() => self.cache_dir = Some(dir.into()),
            _ => {}
        }
        self
    }
}

/// What only a queued or running job needs. A job drops it when it
/// ends, so a terminal entry is small.
struct LiveJob {
    request: Arc<JobRequest>,
    cancel: CancelToken,
    deadline: Option<Instant>,
    /// Set on jobs arriving via `/peer/execute`: this node must run
    /// the job itself, never re-forward it — the loop-prevention
    /// guarantee under transient ring disagreement.
    local_only: bool,
}

struct JobEntry {
    key: ContentKey,
    status: JobStatus,
    /// `Some` exactly while the job is queued or running.
    live: Option<LiveJob>,
    error: Option<String>,
    /// The chained witness record minted when this job completed.
    /// `None` until `Done`, and forever for cached/coalesced
    /// registrations — only an actual execution bears witness.
    witness: Option<WitnessRecord>,
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<JobId>,
    /// The job registry: every queued and running job, plus the terminal
    /// jobs named in `terminal`.
    jobs: HashMap<JobId, JobEntry>,
    /// Terminal job ids, oldest first, at most [`TERMINAL_WINDOW`].
    terminal: VecDeque<JobId>,
    /// Terminal jobs dropped from the registry so far.
    evicted: u64,
    /// In-flight (queued or running) jobs by key — the coalescing index.
    inflight: HashMap<ContentKey, JobId>,
    /// Per key, the latest witness record a completion minted on this
    /// node. A key executed again after a store eviction mints a second
    /// record; this index holds the newer one.
    witnessed: HashMap<ContentKey, WitnessRecord>,
    /// `(key, record seq)` per `witnessed` write, oldest first, at most
    /// [`TERMINAL_WINDOW`]. A key's entry goes when its newest write
    /// leaves the window.
    witness_order: VecDeque<(ContentKey, u64)>,
    next_id: JobId,
    /// Wall-clock microseconds of recently completed jobs, newest last,
    /// bounded to [`LATENCY_WINDOW`]; feeds the p50/p99 gauges.
    latencies_us: VecDeque<u64>,
}

impl QueueState {
    fn push_latency(&mut self, us: u64) {
        if self.latencies_us.len() >= LATENCY_WINDOW {
            self.latencies_us.pop_front();
        }
        self.latencies_us.push_back(us);
    }

    /// Adds a job under a fresh id. `live` is `None` for a job that is
    /// terminal on arrival (a cache hit), which enters the window now.
    fn register(&mut self, key: ContentKey, status: JobStatus, live: Option<LiveJob>) -> JobId {
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            JobEntry {
                key,
                status,
                live,
                error: None,
                witness: None,
            },
        );
        if status.is_terminal() {
            self.retire(id);
        }
        id
    }

    /// Ends a queued or running job: records its terminal `status`,
    /// drops its live part and enters it into the window.
    fn finish(
        &mut self,
        id: JobId,
        status: JobStatus,
        error: Option<String>,
        witness: Option<WitnessRecord>,
    ) {
        let Some(e) = self.jobs.get_mut(&id) else {
            return;
        };
        debug_assert!(status.is_terminal() && e.live.is_some());
        e.status = status;
        e.live = None;
        e.error = error;
        e.witness = witness;
        self.retire(id);
    }

    /// The window's eviction: `id` is the newest terminal job, and the
    /// oldest ones past [`TERMINAL_WINDOW`] leave the registry.
    fn retire(&mut self, id: JobId) {
        self.terminal.push_back(id);
        while self.terminal.len() > TERMINAL_WINDOW {
            let Some(old) = self.terminal.pop_front() else {
                break;
            };
            self.jobs.remove(&old);
            self.evicted += 1;
        }
    }

    /// Makes `record` the latest witness of `key`, dropping the oldest
    /// writes past [`TERMINAL_WINDOW`].
    fn remember_witness(&mut self, key: ContentKey, record: WitnessRecord) {
        self.witness_order.push_back((key, record.seq));
        self.witnessed.insert(key, record);
        while self.witness_order.len() > TERMINAL_WINDOW {
            let Some((old, seq)) = self.witness_order.pop_front() else {
                break;
            };
            // A later write of the same key is still in the window.
            if self.witnessed.get(&old).is_some_and(|r| r.seq == seq) {
                self.witnessed.remove(&old);
            }
        }
    }
}

const LATENCY_WINDOW: usize = 512;

/// How many of the most recent terminal jobs the registry keeps; ids
/// older than that answer as unknown. The witness index keeps the same
/// number of most recent writes.
pub const TERMINAL_WINDOW: usize = 1024;

/// Service-level counters (store counters live in [`ResultStore`]).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Jobs accepted as fresh work.
    pub submitted: AtomicU64,
    /// Submissions answered from the store without execution.
    pub served_cached: AtomicU64,
    /// Submissions coalesced onto an in-flight job.
    pub coalesced: AtomicU64,
    /// Submissions rejected by backpressure.
    pub rejected: AtomicU64,
    /// Jobs that ran to completion.
    pub done: AtomicU64,
    /// Jobs cancelled before completion.
    pub cancelled: AtomicU64,
    /// Jobs that outlived their deadline.
    pub expired: AtomicU64,
    /// Jobs that ran but failed: their result exceeds
    /// [`MAX_RESULT_BYTES`].
    pub failed: AtomicU64,
    /// TCP connections the HTTP front end has served.
    pub http_connections: AtomicU64,
    /// HTTP requests it has parsed and answered.
    pub http_requests: AtomicU64,
    /// HTTP connections open now.
    pub http_connections_open: AtomicU64,
}

/// The shared campaign service. Construct once, wrap in [`Arc`], hand
/// to the HTTP layer and (optionally) drive by hand with
/// [`step`](Self::step).
pub struct JobService {
    /// The content-addressed result store.
    pub store: ResultStore,
    /// Service counters for `/metrics`.
    pub stats: ServiceStats,
    state: Mutex<QueueState>,
    wake: Condvar,
    /// The hashed witness log; every executed job appends one record.
    witness: Mutex<WitnessLog>,
    /// The cluster layer, when this node is part of one. Attached
    /// after the server binds (the cluster needs the bound address);
    /// holds a `Weak` back-reference, so no cycle.
    cluster: Mutex<Option<Arc<crate::cluster::Cluster>>>,
    config: ServiceConfig,
    shutdown: AtomicBool,
    started: Instant,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for JobService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobService")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl JobService {
    /// Builds the service and spawns `config.workers` worker threads.
    pub fn start(config: ServiceConfig) -> Arc<JobService> {
        let store = match &config.cache_dir {
            Some(dir) => ResultStore::with_dir(config.cache_entries, dir.clone()),
            None => ResultStore::in_memory(config.cache_entries),
        };
        let svc = Arc::new(JobService {
            store,
            stats: ServiceStats::default(),
            state: Mutex::new(QueueState::default()),
            wake: Condvar::new(),
            witness: Mutex::new(WitnessLog::new()),
            cluster: Mutex::new(None),
            config,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = svc.workers.lock().unwrap();
        for i in 0..svc.config.workers {
            let me = Arc::clone(&svc);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("st-serve-worker-{i}"))
                    .spawn(move || me.worker_loop())
                    .expect("spawn worker"),
            );
        }
        drop(workers);
        svc
    }

    /// The service configuration in force.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Attaches the cluster layer. Call once, after the HTTP server
    /// binds; workers route through it from then on.
    pub fn attach_cluster(&self, cluster: Arc<crate::cluster::Cluster>) {
        *self.cluster.lock().unwrap() = Some(cluster);
    }

    /// The attached cluster layer, if this node is part of one.
    pub fn cluster(&self) -> Option<Arc<crate::cluster::Cluster>> {
        self.cluster.lock().unwrap().clone()
    }

    /// Submits a request. See [`Submission`] for the four outcomes.
    /// `deadline` is wall-clock time from *now*.
    pub fn submit(&self, request: JobRequest, deadline: Option<Duration>) -> Submission {
        self.submit_with(request, deadline, false)
    }

    /// Submits a request on behalf of a peer (`/peer/execute`): the
    /// job is pinned to this node — executed here, never re-forwarded,
    /// so two nodes with momentarily different rings cannot bounce a
    /// job between each other.
    pub fn submit_peer(&self, request: JobRequest, deadline: Option<Duration>) -> Submission {
        self.submit_with(request, deadline, true)
    }

    fn submit_with(
        &self,
        request: JobRequest,
        deadline: Option<Duration>,
        local_only: bool,
    ) -> Submission {
        let key = ContentKey::of(&request.to_canonical_bytes());
        let mut st = self.state.lock().unwrap();
        // Coalesce before anything else: an in-flight twin means the
        // bytes are already being computed.
        if let Some(&id) = st.inflight.get(&key) {
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            return Submission::Coalesced(id);
        }
        // A store hit needs no execution at all; register a terminal
        // job so /status and /result answer uniformly by id. In a
        // cluster this also serves replica-resident entries locally.
        if self.store.contains(key) {
            let id = st.register(key, JobStatus::Done, None);
            self.stats.served_cached.fetch_add(1, Ordering::Relaxed);
            return Submission::Cached(id);
        }
        if st.queue.len() >= self.config.queue_cap {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Submission::QueueFull;
        }
        let live = LiveJob {
            request: Arc::new(request),
            cancel: CancelToken::new(),
            deadline: deadline.map(|d| Instant::now() + d),
            local_only,
        };
        let id = st.register(key, JobStatus::Queued, Some(live));
        st.queue.push_back(id);
        st.inflight.insert(key, id);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.wake.notify_one();
        Submission::Queued(id)
    }

    /// The job's current status, key and (for failed runs) error text.
    /// `None` for an id never issued or evicted from the window.
    pub fn status(&self, id: JobId) -> Option<(JobStatus, ContentKey, Option<String>)> {
        let st = self.state.lock().unwrap();
        st.jobs.get(&id).map(|e| (e.status, e.key, e.error.clone()))
    }

    /// The witness record minted when job `id` executed to completion.
    /// `None` for unknown (or evicted) jobs, unfinished jobs, and
    /// cache-served registrations (which executed nothing).
    pub fn witness(&self, id: JobId) -> Option<WitnessRecord> {
        let st = self.state.lock().unwrap();
        st.jobs.get(&id).and_then(|e| e.witness.clone())
    }

    /// The witness record of the latest completed execution of `key`
    /// on this node, for attaching provenance to `/peer/get` frames.
    /// `None` when every local registration of the key was a cache hit,
    /// or when its record has left the index's window.
    pub fn witness_for_key(&self, key: ContentKey) -> Option<WitnessRecord> {
        self.state.lock().unwrap().witnessed.get(&key).cloned()
    }

    /// Snapshot of the witness log for `/conformance`: the chain head,
    /// the record count, and per-requirement witness tallies.
    pub fn witness_summary(&self) -> (u64, u64, Vec<(String, u64)>) {
        let log = self.witness.lock().unwrap();
        let counts = log.counts().map(|(id, n)| (id.to_owned(), n)).collect();
        (log.head(), log.len(), counts)
    }

    /// The job's result bytes, once [`JobStatus::Done`].
    pub fn result(&self, id: JobId) -> Option<Vec<u8>> {
        let key = {
            let st = self.state.lock().unwrap();
            let e = st.jobs.get(&id)?;
            if e.status != JobStatus::Done {
                return None;
            }
            e.key
        };
        self.store.get(key)
    }

    /// Requests cancellation. A queued job dies immediately; a running
    /// one stops at its next sub-job boundary. Returns `false` for
    /// unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.state.lock().unwrap();
        let Some(e) = st.jobs.get(&id) else {
            return false;
        };
        let Some(live) = &e.live else {
            return false; // terminal
        };
        live.cancel.cancel();
        if e.status == JobStatus::Queued {
            let key = e.key;
            st.finish(id, JobStatus::Cancelled, None, None);
            st.inflight.remove(&key);
            self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            // The id stays in `queue`; workers skip terminal and
            // evicted entries.
        }
        true
    }

    /// Executes one queued job on the calling thread. The test-mode
    /// companion to the worker pool (`workers: 0`): deterministic
    /// interleaving with no races to reason about. Returns `false` when
    /// the queue was empty.
    pub fn step(&self) -> bool {
        match self.claim() {
            Some(id) => {
                self.run_job(id);
                true
            }
            None => false,
        }
    }

    /// Current queue depth (queued, not yet claimed).
    pub fn queue_depth(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    fn claim(&self) -> Option<JobId> {
        let mut st = self.state.lock().unwrap();
        while let Some(id) = st.queue.pop_front() {
            let Some(e) = st.jobs.get_mut(&id) else {
                continue; // cancelled while queued, then evicted
            };
            if e.status != JobStatus::Queued {
                continue; // cancelled while queued
            }
            e.status = JobStatus::Running;
            return Some(id);
        }
        None
    }

    fn worker_loop(&self) {
        loop {
            let claimed = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if !st.queue.is_empty() {
                        break;
                    }
                    st = self.wake.wait(st).unwrap();
                }
                drop(st);
                self.claim()
            };
            if let Some(id) = claimed {
                // On a shared core, `submit` wakes this worker before
                // the submitting client has read its 202; yield once so
                // the reply goes out before the job takes the core.
                std::thread::yield_now();
                self.run_job(id);
            }
        }
    }

    fn run_job(&self, id: JobId) {
        self.run_job_capped(id, MAX_RESULT_BYTES);
    }

    /// [`run_job`](Self::run_job) with the result-size cap as an
    /// argument: a result over `max_result_bytes` fails the job. The
    /// service always passes [`MAX_RESULT_BYTES`]; unit tests pass a
    /// small cap to reach the over-cap branch.
    fn run_job_capped(&self, id: JobId, max_result_bytes: usize) {
        let (request, cancel, deadline, key, local_only) = {
            let st = self.state.lock().unwrap();
            let e = &st.jobs[&id];
            let live = e.live.as_ref().expect("a claimed job is running");
            (
                Arc::clone(&live.request),
                live.cancel.clone(),
                live.deadline,
                e.key,
                live.local_only,
            )
        };
        let started = Instant::now();
        // Cluster routing happens here, on the worker thread — HTTP
        // request handling never blocks on a peer. Peer-submitted jobs are
        // pinned local; everything else asks the ring who owns the key.
        if !local_only {
            if let Some(cluster) = self.cluster() {
                if let Some(served) = cluster.try_remote(&request, key, &cancel, deadline) {
                    self.finish_remote(id, key, served, started);
                    return;
                }
                // None: we own the key, or every remote path failed
                // (a steal) — fall through to local execution.
            }
        }
        // The deadline is enforced cooperatively: every completed
        // sub-job reports progress, and a report past the deadline
        // trips the job's own cancel token.
        let deadline_guard = {
            let cancel = cancel.clone();
            move |_done: usize, _total: usize| {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        cancel.cancel();
                    }
                }
            }
        };
        let expired_on_arrival = deadline.is_some_and(|d| Instant::now() >= d);
        let outcome = if expired_on_arrival {
            Err(crate::job::ExecCancelled)
        } else {
            let hooks = RunHooks {
                cancel: Some(&cancel),
                progress: Some(&deadline_guard),
            };
            execute(&request, self.config.threads_per_job, hooks)
        };
        let outcome = outcome.map(|result| result.to_canonical_bytes());
        let mut st = self.state.lock().unwrap();
        let elapsed_us = started.elapsed().as_micros() as u64;
        match outcome {
            Ok(bytes) if bytes.len() > max_result_bytes => {
                let error = format!(
                    "result of {} bytes exceeds the {max_result_bytes}-byte cap",
                    bytes.len()
                );
                st.finish(id, JobStatus::Failed, Some(error), None);
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(bytes) => {
                drop(st); // store I/O outside the lock
                let result_key = ContentKey::of(&bytes);
                self.store.put(key, bytes.clone());
                // Mint the chained witness record: this execution is
                // evidence for the request's conformance clauses.
                let record = {
                    let mut log = self.witness.lock().unwrap();
                    log.append(&request.witnessed_ids(), key.0, result_key.0)
                };
                // Push the fresh entry to the key's ring successors;
                // peers verify the frame fail-closed before storing.
                if let Some(cluster) = self.cluster() {
                    cluster.replicate(key, &bytes, Some(&record));
                }
                st = self.state.lock().unwrap();
                st.remember_witness(key, record.clone());
                st.finish(id, JobStatus::Done, None, Some(record));
                st.push_latency(elapsed_us);
                self.stats.done.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    let error = Some("deadline exceeded".to_owned());
                    st.finish(id, JobStatus::Expired, error, None);
                    self.stats.expired.fetch_add(1, Ordering::Relaxed);
                } else {
                    st.finish(id, JobStatus::Cancelled, None, None);
                    self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        st.inflight.remove(&key);
    }

    /// Completes a job whose verified bytes came from a peer. When the
    /// remote actually executed (its frame carried a witness record),
    /// an equivalent record — same requirement IDs, same config and
    /// result digests — is appended to *this* node's chained log, so
    /// local `/conformance` tallies remote executions too; a plain
    /// peer cache hit mints nothing, mirroring local cache hits.
    fn finish_remote(
        &self,
        id: JobId,
        key: ContentKey,
        served: crate::cluster::ServedRemote,
        started: Instant,
    ) {
        let result_key = ContentKey::of(&served.bytes);
        self.store.put(key, served.bytes);
        let record = served.witness_ids.map(|ids| {
            let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
            let mut log = self.witness.lock().unwrap();
            log.append(&refs, key.0, result_key.0)
        });
        let mut st = self.state.lock().unwrap();
        if let Some(record) = &record {
            st.remember_witness(key, record.clone());
        }
        st.finish(id, JobStatus::Done, None, record);
        st.push_latency(started.elapsed().as_micros() as u64);
        self.stats.done.fetch_add(1, Ordering::Relaxed);
        st.inflight.remove(&key);
    }

    /// Latency percentiles over the recent completion window, in whole
    /// milliseconds: `(p50, p99)`. Zeros before the first completion.
    pub fn latency_percentiles_ms(&self) -> (u64, u64) {
        let (p50, p99) = self.latency_percentiles_us();
        (p50 / 1000, p99 / 1000)
    }

    /// Latency percentiles over the recent completion window, in
    /// microseconds: `(p50, p99)`. Zeros before the first completion.
    pub fn latency_percentiles_us(&self) -> (u64, u64) {
        let mut sorted: Vec<u64> = {
            let st = self.state.lock().unwrap();
            st.latencies_us.iter().copied().collect()
        };
        if sorted.is_empty() {
            return (0, 0);
        }
        sorted.sort_unstable();
        let at = |q: f64| {
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx]
        };
        (at(0.50), (at(0.99)))
    }

    /// Renders the text `/metrics` exposition.
    pub fn metrics_text(&self) -> String {
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let done = r(&self.stats.done);
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let (p50_us, p99_us) = self.latency_percentiles_us();
        let (p50, p99) = (p50_us / 1000, p99_us / 1000);
        let mem_hits = r(&self.store.stats.mem_hits);
        let disk_hits = r(&self.store.stats.disk_hits);
        let misses = r(&self.store.stats.misses);
        let lookups = mem_hits + disk_hits + misses;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            (mem_hits + disk_hits) as f64 / lookups as f64
        };
        let (batches, lanes, groups, splits) = crate::job::batch_metrics();
        let occupancy = if groups == 0 {
            0.0
        } else {
            lanes as f64 / groups as f64
        };
        let (depth, tracked, evicted) = {
            let st = self.state.lock().unwrap();
            (st.queue.len(), st.jobs.len(), st.evicted)
        };
        let mut text = format!(
            "st_serve_queue_depth {depth}\n\
             st_serve_jobs_tracked {tracked}\n\
             st_serve_jobs_evicted_total {evicted}\n\
             st_serve_jobs_submitted_total {}\n\
             st_serve_jobs_done_total {done}\n\
             st_serve_jobs_cancelled_total {}\n\
             st_serve_jobs_expired_total {}\n\
             st_serve_jobs_failed_total {}\n\
             st_serve_jobs_rejected_total {}\n\
             st_serve_coalesced_total {}\n\
             st_serve_served_cached_total {}\n\
             st_serve_cache_mem_hits_total {mem_hits}\n\
             st_serve_cache_disk_hits_total {disk_hits}\n\
             st_serve_cache_misses_total {misses}\n\
             st_serve_cache_evictions_total {}\n\
             st_serve_cache_corrupt_discards_total {}\n\
             st_serve_cache_hit_ratio {hit_ratio:.4}\n\
             st_serve_jobs_per_second {:.4}\n\
             st_serve_job_latency_p50_ms {p50}\n\
             st_serve_job_latency_p99_ms {p99}\n\
             st_serve_job_latency_p50_us {p50_us}\n\
             st_serve_job_latency_p99_us {p99_us}\n\
             st_serve_batches_formed_total {batches}\n\
             st_serve_batch_lanes_total {lanes}\n\
             st_serve_batch_groups_total {groups}\n\
             st_serve_batch_splits_total {splits}\n\
             st_serve_batch_occupancy {occupancy:.4}\n\
             st_serve_http_connections_total {}\n\
             st_serve_http_requests_total {}\n\
             st_serve_http_connections_open {}\n",
            r(&self.stats.submitted),
            r(&self.stats.cancelled),
            r(&self.stats.expired),
            r(&self.stats.failed),
            r(&self.stats.rejected),
            r(&self.stats.coalesced),
            r(&self.stats.served_cached),
            r(&self.store.stats.evictions),
            r(&self.store.stats.corrupt_discards),
            done as f64 / elapsed,
            r(&self.stats.http_connections),
            r(&self.stats.http_requests),
            r(&self.stats.http_connections_open),
        );
        // Cluster series appear only on clustered nodes, so the
        // single-node exposition stays byte-stable.
        if let Some(cluster) = self.cluster() {
            let c = &cluster.stats;
            text.push_str(&format!(
                "st_serve_cluster_nodes {}\n\
                 st_serve_cluster_epoch {}\n\
                 st_serve_cluster_forwards_total {}\n\
                 st_serve_cluster_peer_hits_total {}\n\
                 st_serve_cluster_peer_misses_total {}\n\
                 st_serve_cluster_steals_total {}\n\
                 st_serve_cluster_replications_total {}\n\
                 st_serve_cluster_handoffs_total {}\n\
                 st_serve_cluster_gossip_rounds_total {}\n\
                 st_serve_cluster_peer_failures_total {}\n",
                cluster.ring().len(),
                cluster.epoch(),
                r(&c.forwards),
                r(&c.peer_hits),
                r(&c.peer_misses),
                r(&c.steals),
                r(&c.replications),
                r(&c.handoffs),
                r(&c.gossip_rounds),
                r(&c.peer_failures),
            ));
        }
        text
    }

    /// Stops the worker pool (and the cluster gossip thread, when
    /// attached). Running jobs are cancelled cooperatively; queued
    /// jobs never start. Idempotent.
    pub fn shutdown(&self) {
        if let Some(cluster) = self.cluster.lock().unwrap().clone() {
            cluster.stop_gossip();
        }
        self.shutdown.store(true, Ordering::Release);
        {
            let st = self.state.lock().unwrap();
            for live in st.jobs.values().filter_map(|e| e.live.as_ref()) {
                live.cancel.cancel();
            }
        }
        self.wake.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Scenario, SimRequest};
    use st_sim::time::SimDuration;
    use synchro_tokens::Backend;

    fn req(seed: u64) -> JobRequest {
        JobRequest::Sim(SimRequest {
            scenario: Scenario::PingPong,
            backend: Backend::Event,
            seeds: vec![seed],
            cycles: 20,
            trace_cycles: 20,
            budget_fs: SimDuration::us(2000).as_fs(),
        })
    }

    fn manual_service() -> Arc<JobService> {
        JobService::start(ServiceConfig {
            workers: 0,
            queue_cap: 2,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn submit_step_result_roundtrip_then_cache_hit() {
        let svc = manual_service();
        let Submission::Queued(id) = svc.submit(req(1), None) else {
            panic!("fresh request must queue")
        };
        assert_eq!(svc.status(id).unwrap().0, JobStatus::Queued);
        assert!(svc.step());
        assert_eq!(svc.status(id).unwrap().0, JobStatus::Done);
        let body = svc.result(id).unwrap();
        assert!(body.starts_with(crate::job::RESULT_MAGIC));
        // Identical resubmission: served from cache, no new work.
        let Submission::Cached(id2) = svc.submit(req(1), None) else {
            panic!("resubmission must hit the cache")
        };
        assert_eq!(svc.result(id2).unwrap(), body);
        assert!(!svc.step(), "nothing was queued for the cached submission");
        assert_eq!(svc.stats.served_cached.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn identical_inflight_submissions_coalesce() {
        let svc = manual_service();
        let Submission::Queued(id) = svc.submit(req(7), None) else {
            panic!()
        };
        let Submission::Coalesced(other) = svc.submit(req(7), None) else {
            panic!("in-flight twin must coalesce")
        };
        assert_eq!(other, id, "coalesced onto the queued job");
        // A *different* request does not coalesce.
        assert!(matches!(svc.submit(req(8), None), Submission::Queued(_)));
        assert!(svc.step());
        assert_eq!(svc.status(id).unwrap().0, JobStatus::Done);
    }

    #[test]
    fn full_queue_rejects() {
        let svc = manual_service(); // queue_cap 2
        assert!(matches!(svc.submit(req(1), None), Submission::Queued(_)));
        assert!(matches!(svc.submit(req(2), None), Submission::Queued(_)));
        assert_eq!(svc.submit(req(3), None), Submission::QueueFull);
        assert_eq!(svc.stats.rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cancelling_a_queued_job_prevents_execution() {
        let svc = manual_service();
        let Submission::Queued(id) = svc.submit(req(5), None) else {
            panic!()
        };
        assert!(svc.cancel(id));
        assert_eq!(svc.status(id).unwrap().0, JobStatus::Cancelled);
        assert!(!svc.step(), "cancelled job must not run");
        assert!(!svc.cancel(id), "terminal jobs cannot be re-cancelled");
        // The key is free again: resubmitting queues fresh work.
        assert!(matches!(svc.submit(req(5), None), Submission::Queued(_)));
    }

    #[test]
    fn elapsed_deadline_expires_instead_of_running() {
        let svc = manual_service();
        let Submission::Queued(id) = svc.submit(req(6), Some(Duration::ZERO)) else {
            panic!()
        };
        assert!(svc.step());
        assert_eq!(svc.status(id).unwrap().0, JobStatus::Expired);
        assert_eq!(svc.result(id), None);
        assert_eq!(svc.stats.expired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_pool_completes_jobs_without_manual_stepping() {
        let svc = JobService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let ids: Vec<JobId> = (0..4)
            .map(|s| match svc.submit(req(100 + s), None) {
                Submission::Queued(id) => id,
                other => panic!("expected queue, got {other:?}"),
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        for id in ids {
            while svc.status(id).unwrap().0 != JobStatus::Done {
                assert!(Instant::now() < deadline, "worker pool stalled");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        svc.shutdown();
        let metrics = svc.metrics_text();
        assert!(metrics.contains("st_serve_jobs_done_total 4"), "{metrics}");
    }

    #[test]
    fn executed_jobs_mint_chained_witness_records_but_cache_hits_do_not() {
        let svc = manual_service();
        let Submission::Queued(a) = svc.submit(req(21), None) else {
            panic!()
        };
        assert_eq!(svc.witness(a), None, "no witness before execution");
        assert!(svc.step());
        let ra = svc.witness(a).expect("done job carries a record");
        assert!(ra.verify(), "served record must verify offline");
        assert_eq!(ra.seq, 0);
        assert_eq!(ra.prev, st_conformance::witness_genesis());
        assert_eq!(
            ra.ids,
            vec!["ST-CAMP-005".to_owned(), "ST-DET-001".to_owned()]
        );
        // Cache-served registration: no execution, no record; the log
        // keeps chaining from where the real run left it.
        let Submission::Cached(b) = svc.submit(req(21), None) else {
            panic!()
        };
        assert_eq!(svc.witness(b), None);
        let Submission::Queued(c) = svc.submit(req(22), None) else {
            panic!()
        };
        assert!(svc.step());
        let rc = svc.witness(c).unwrap();
        assert_eq!(rc.seq, 1);
        assert_eq!(rc.prev, ra.chain, "records chain in execution order");
        let (head, len, counts) = svc.witness_summary();
        assert_eq!((head, len), (rc.chain, 2));
        assert!(counts.contains(&("ST-DET-001".to_owned(), 2)));
    }

    #[test]
    fn witness_for_key_answers_the_latest_execution() {
        let svc = JobService::start(ServiceConfig {
            workers: 0,
            cache_entries: 1,
            ..ServiceConfig::default()
        });
        let key = ContentKey::of(&req(31).to_canonical_bytes());
        let run = |seed| {
            let Submission::Queued(id) = svc.submit(req(seed), None) else {
                panic!("seed {seed} must execute")
            };
            assert!(svc.step());
            svc.witness(id).expect("an execution mints a record")
        };
        let first = run(31);
        assert_eq!(svc.witness_for_key(key), Some(first.clone()));
        run(32); // evicts seed 31 from the one-entry store
        let again = run(31);
        assert_ne!(again, first, "the re-execution mints a new record");
        for _ in 0..8 {
            assert_eq!(svc.witness_for_key(key), Some(again.clone()));
        }
    }

    #[test]
    fn metrics_render_all_series() {
        let svc = manual_service();
        svc.submit(req(1), None);
        svc.step();
        let text = svc.metrics_text();
        for series in [
            "st_serve_queue_depth",
            "st_serve_cache_hit_ratio",
            "st_serve_jobs_per_second",
            "st_serve_job_latency_p50_ms",
            "st_serve_job_latency_p99_ms",
            "st_serve_job_latency_p50_us",
            "st_serve_job_latency_p99_us",
            "st_serve_batch_splits_total",
            "st_serve_jobs_failed_total",
            "st_serve_jobs_tracked",
            "st_serve_jobs_evicted_total",
        ] {
            assert!(text.contains(series), "missing {series} in {text}");
        }
    }

    #[test]
    fn over_cap_results_fail_the_job_and_count() {
        let svc = manual_service();
        svc.submit(req(1), None);
        let id = svc.claim().expect("a queued job");
        svc.run_job_capped(id, 16);
        let (status, key, error) = svc.status(id).expect("known job");
        assert_eq!(status, JobStatus::Failed);
        assert!(error.is_some_and(|e| e.contains("exceeds the 16-byte cap")));
        assert_eq!(svc.store.get(key), None, "an over-cap result is not stored");
        assert_eq!(svc.stats.failed.load(Ordering::Relaxed), 1);
        assert_eq!(svc.stats.done.load(Ordering::Relaxed), 0);
        assert!(svc
            .metrics_text()
            .contains("st_serve_jobs_failed_total 1\n"));
        // Under the real cap a job completes and counts as done.
        svc.submit(req(2), None);
        assert!(svc.step());
        assert_eq!(svc.stats.failed.load(Ordering::Relaxed), 1);
        assert_eq!(svc.stats.done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn claim_skips_a_cancelled_job_evicted_from_the_window() {
        let svc = manual_service();
        let Submission::Queued(warm) = svc.submit(req(40), None) else {
            panic!()
        };
        assert!(svc.step());
        let Submission::Queued(cancelled) = svc.submit(req(41), None) else {
            panic!()
        };
        let Submission::Queued(next) = svc.submit(req(42), None) else {
            panic!()
        };
        assert!(svc.cancel(cancelled));
        // Cache hits are terminal on arrival: a window of them pushes
        // out the warm-up job and the cancelled one, still queued.
        for _ in 0..TERMINAL_WINDOW {
            assert!(matches!(svc.submit(req(40), None), Submission::Cached(_)));
        }
        assert_eq!(svc.status(warm), None);
        assert_eq!(svc.status(cancelled), None);
        assert_eq!(svc.queue_depth(), 2, "the evicted id is still queued");
        assert!(svc.step(), "the job queued behind it runs");
        assert_eq!(svc.status(next).unwrap().0, JobStatus::Done);
        assert!(!svc.step());
    }

    #[test]
    fn witness_index_keeps_a_rewritten_key_until_its_newest_write_leaves() {
        let mut st = QueueState::default();
        let key = |n: u64| ContentKey::of(&st_sim::canon::encode(&n));
        let mut seq = 0;
        let mut write = |st: &mut QueueState, k: ContentKey| {
            let record = WitnessRecord {
                seq,
                ids: Vec::new(),
                config: k.0,
                result: [0; 16],
                prev: 0,
                chain: seq,
            };
            seq += 1;
            st.remember_witness(k, record);
        };
        write(&mut st, key(0));
        for n in 1..TERMINAL_WINDOW as u64 {
            write(&mut st, key(n));
        }
        write(&mut st, key(0)); // rewrite; the window is full
        write(&mut st, key(1 << 20)); // pops the stale first write of key 0
        assert_eq!(st.witnessed.len(), TERMINAL_WINDOW);
        assert_eq!(st.witnessed[&key(0)].seq, TERMINAL_WINDOW as u64);
        assert!(
            !st.witnessed.contains_key(&key(1)),
            "the oldest live write left"
        );
        for n in 2..=TERMINAL_WINDOW as u64 {
            write(&mut st, key(1 << 21 | n));
        }
        assert!(
            !st.witnessed.contains_key(&key(0)),
            "its newest write left too"
        );
        assert_eq!(st.witness_order.len(), TERMINAL_WINDOW);
    }

    #[test]
    fn soak_holds_the_registry_and_witness_index_to_their_caps() {
        let cfg = ServiceConfig {
            workers: 0,
            queue_cap: 4,
            cache_entries: 16,
            ..ServiceConfig::default()
        };
        let svc = JobService::start(cfg.clone());
        // 100,000 submits: nearly all re-submit one of 8 warm keys, 1 in
        // 50 is a fresh job that runs, and 1 in 50 a fresh job cancelled
        // while queued (every other one left in the queue for the next
        // step to skip). 1 in 1,000 revisits one of 3 keys; the fresh
        // jobs between two visits overflow the 16-entry store, so every
        // revisit executes again and mints a newer record.
        const SUBMITS: u64 = 100_000;
        let mut fresh = 1_000;
        let mut reruns = 0;
        let mut last_run = None;
        let mut executed_first = None;
        for i in 0..SUBMITS {
            let seed = match i % 50 {
                0 | 25 => {
                    fresh += 1;
                    fresh
                }
                _ if i % 1000 == 10 => 900 + (i / 1000) % 3,
                _ => i % 8,
            };
            match svc.submit(req(seed), None) {
                Submission::Cached(_) => {}
                Submission::Queued(id) if i % 50 == 25 => {
                    assert!(svc.cancel(id));
                    // Every other one is left queued: the next step
                    // pops and skips it.
                    if i % 100 == 75 {
                        assert!(!svc.step(), "a cancelled job never runs");
                    }
                }
                Submission::Queued(id) => {
                    assert!(svc.step());
                    let record = svc.witness(id).expect("an execution mints a record");
                    let key = ContentKey::of(&req(seed).to_canonical_bytes());
                    assert_eq!(svc.witness_for_key(key), Some(record));
                    reruns += u64::from((900..903).contains(&seed));
                    executed_first.get_or_insert((id, key));
                    last_run = Some((id, key));
                }
                other => panic!("submit {i} was {other:?}"),
            }
            let st = svc.state.lock().unwrap();
            assert!(st.terminal.len() <= TERMINAL_WINDOW);
            assert!(st.jobs.len() <= TERMINAL_WINDOW + cfg.queue_cap);
            assert!(st.witnessed.len() <= TERMINAL_WINDOW);
            assert!(st.witness_order.len() <= TERMINAL_WINDOW);
        }
        assert_eq!(reruns, SUBMITS / 1000, "every revisit executed");
        // Every job ended in id order, so exactly the newest window of
        // ids answers.
        let last = svc.state.lock().unwrap().next_id - 1;
        assert_eq!(last + 1, SUBMITS);
        for id in 0..=last {
            let kept = id + TERMINAL_WINDOW as u64 > last;
            assert_eq!(svc.status(id).is_some(), kept, "job {id}");
            if !kept {
                assert_eq!(svc.result(id), None);
                assert_eq!(svc.witness(id), None);
            }
        }
        let (first_id, first_key) = executed_first.unwrap();
        assert_eq!(svc.status(first_id), None);
        assert_eq!(
            svc.witness_for_key(first_key),
            None,
            "left the index's window"
        );
        let (id, key) = last_run.unwrap();
        assert!(svc.result(id).is_some());
        assert_eq!(svc.witness_for_key(key), svc.witness(id));
        let text = svc.metrics_text();
        let evicted = SUBMITS - TERMINAL_WINDOW as u64;
        assert!(text.contains(&format!("st_serve_jobs_tracked {TERMINAL_WINDOW}\n")));
        assert!(text.contains(&format!("st_serve_jobs_evicted_total {evicted}\n")));
    }

    #[test]
    fn sub_millisecond_jobs_report_microsecond_latency() {
        let svc = manual_service();
        assert_eq!(svc.latency_percentiles_us(), (0, 0));
        svc.submit(req(1), None);
        svc.step();
        let (p50_us, p99_us) = svc.latency_percentiles_us();
        assert!(p50_us > 0, "a finished job has a nonzero latency");
        assert!(p99_us >= p50_us);
        // The whole-millisecond gauges truncate the same samples.
        assert_eq!(svc.latency_percentiles_ms(), (p50_us / 1000, p99_us / 1000));
        let text = svc.metrics_text();
        assert!(text.contains(&format!("st_serve_job_latency_p50_us {p50_us}\n")));
    }
}
