//! # st-serve — a campaign service with content-addressed result caching
//!
//! Every campaign this workspace can run — seed sweeps, §4.2 frequency
//! shmoos, chaos fault-injection — is *deterministic*: its result is a
//! pure function of (scenario, seeds, config). That is the paper's
//! central claim turned into a systems property, and this crate cashes
//! it in: if the result is a pure function of the request, then the
//! request's canonical bytes are a complete cache key, a cached result
//! never needs revalidation, and two concurrent identical submissions
//! can share one execution without ever comparing outputs.
//!
//! The pieces:
//!
//! * [`hash`] — stable FNV-1a/splitmix64 content keys (no
//!   `DefaultHasher`: keys persist on disk across Rust releases),
//! * [`json`] — a deterministic, dependency-free JSON codec for the
//!   wire protocol (`u64`-exact: seeds survive beyond 2⁵³),
//! * [`job`] — the request/result model, canonical encodings, and the
//!   executor over [`synchro_tokens::campaign::run_jobs`] /
//!   [`st_testkit`] entry points,
//! * [`store`] — the LRU + checksummed-disk result store,
//! * [`service`] — bounded queue, worker pool, coalescing, deadlines,
//!   cancellation, metrics,
//! * [`http`] — a std-only HTTP/1.1 front end (no tokio/hyper/serde:
//!   offline builds stay dependency-free),
//! * [`cluster`] — the multi-node fabric over `st-fabric`'s pure
//!   primitives: consistent-hash routing, replication, gossip
//!   membership, and the fail-closed peer protocol.
//!
//! ## Example
//!
//! ```
//! use st_serve::job::{JobRequest, Scenario, SimRequest};
//! use st_serve::service::{JobService, ServiceConfig, Submission};
//! use st_serve::http::{request, Server};
//! use synchro_tokens::Backend;
//!
//! # fn main() -> std::io::Result<()> {
//! let service = JobService::start(ServiceConfig::default());
//! let mut server = Server::bind("127.0.0.1:0", service)?;
//! let (code, body) = request(server.addr(), "GET", "/healthz", b"")?;
//! assert_eq!((code, body.as_slice()), (200, &br#"{"status":"ok"}"#[..]));
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod hash;
pub mod http;
pub mod job;
pub mod json;
pub mod service;
pub mod store;

pub use cluster::{Cluster, ClusterConfig};
pub use hash::ContentKey;
pub use http::Server;
pub use job::{run_sim_once, JobRequest, JobResult, Scenario};
pub use json::Json;
pub use service::{JobService, JobStatus, ServiceConfig, Submission};
pub use store::ResultStore;
