//! End-to-end tests over a real TCP socket: the served bytes must be
//! *byte-identical* to computing the same campaign directly through
//! `campaign::run_jobs`, on both backends; caching and coalescing must
//! be observable and must never recompute.

use st_serve::http::{request, Server};
use st_serve::job::{JobRequest, Scenario, SimRequest};
use st_serve::service::{JobService, ServiceConfig};
use st_serve::{JobResult, Json};
use st_sim::time::SimDuration;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use synchro_tokens::Backend;

fn sim_request(backend: Backend, seeds: Vec<u64>) -> SimRequest {
    SimRequest {
        scenario: Scenario::E1,
        backend,
        seeds,
        cycles: 40,
        trace_cycles: 40,
        budget_fs: SimDuration::us(2000).as_fs(),
    }
}

fn submit(addr: SocketAddr, req: &JobRequest) -> (String, u64) {
    let body = req.to_json().encode();
    let (code, reply) = request(addr, "POST", "/submit", body.as_bytes()).unwrap();
    assert_eq!(code, 202, "{}", String::from_utf8_lossy(&reply));
    let v = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    (
        v.get("status").unwrap().as_str().unwrap().to_owned(),
        v.get("id").unwrap().as_u64().unwrap(),
    )
}

fn wait_done(addr: SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, reply) = request(addr, "GET", &format!("/status/{id}"), b"").unwrap();
        assert_eq!(code, 200);
        let v = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        match v.get("status").unwrap().as_str().unwrap() {
            "done" => return,
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job {id} stalled");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("job {id} ended as {other}"),
        }
    }
}

fn fetch_result(addr: SocketAddr, id: u64) -> Vec<u8> {
    let (code, body) = request(addr, "GET", &format!("/result/{id}"), b"").unwrap();
    assert_eq!(code, 200, "{}", String::from_utf8_lossy(&body));
    body
}

fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (code, body) = request(addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(code, 200);
    let text = String::from_utf8(body).unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"))
}

/// The tentpole assertion: for each backend, the body served over HTTP
/// equals the canonical encoding of the same seeds fanned through
/// `campaign::run_jobs` directly — and the Event and Compiled bodies
/// equal *each other* (the traces a campaign produces are
/// backend-invariant; only the request encodings differ).
#[test]
fn served_results_are_byte_identical_to_direct_run_jobs_on_both_backends() {
    st_conformance::witnesses!(["ST-SERVE-010", "ST-CAMP-005"]);
    let service = JobService::start(ServiceConfig {
        workers: 1,
        threads_per_job: 2,
        ..ServiceConfig::default()
    });
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();
    let seeds = vec![11, 22, 33];

    let mut bodies = Vec::new();
    for backend in [Backend::Event, Backend::Compiled] {
        let req = sim_request(backend, seeds.clone());
        let (status, id) = submit(server.addr(), &JobRequest::Sim(req.clone()));
        assert_eq!(status, "queued");
        wait_done(server.addr(), id);
        let served = fetch_result(server.addr(), id);

        // Direct computation, no service anywhere in the path.
        let direct = JobResult::Sim(synchro_tokens::run_jobs(&seeds, 1, |_, &s| {
            st_serve::run_sim_once(&req, s)
        }))
        .to_canonical_bytes();
        assert_eq!(served, direct, "served bytes differ on {backend:?}");
        bodies.push(served);
    }
    assert_eq!(
        bodies[0], bodies[1],
        "Event and Compiled must serve identical campaign bytes"
    );
    server.shutdown();
}

#[test]
fn resubmission_is_a_cache_hit_served_without_recompute() {
    let service = JobService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();
    let req = JobRequest::Sim(sim_request(Backend::Event, vec![5, 6]));

    let (status, id) = submit(server.addr(), &req);
    assert_eq!(status, "queued");
    wait_done(server.addr(), id);
    let first = fetch_result(server.addr(), id);
    let done_before = metric(server.addr(), "st_serve_jobs_done_total");

    // Identical resubmission: answered from the store.
    let (status, id2) = submit(server.addr(), &req);
    assert_eq!(status, "cached");
    assert_ne!(id2, id, "a cached submission still gets its own job id");
    let second = fetch_result(server.addr(), id2);
    assert_eq!(second, first, "cache hit must serve identical bytes");

    // No recompute happened: the hit counter moved, the done counter
    // did not.
    assert_eq!(
        metric(server.addr(), "st_serve_jobs_done_total"),
        done_before
    );
    assert!(metric(server.addr(), "st_serve_served_cached_total") >= 1);
    assert!(metric(server.addr(), "st_serve_cache_mem_hits_total") >= 1);
    server.shutdown();
}

/// Coalescing, deterministically: with `workers: 0` nothing executes
/// until we say so, so the in-flight window is under test control
/// instead of a race.
#[test]
fn concurrent_identical_submissions_coalesce_onto_one_execution() {
    let service = JobService::start(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();
    let req = JobRequest::Sim(sim_request(Backend::Compiled, vec![42]));

    let (status, id) = submit(server.addr(), &req);
    assert_eq!(status, "queued");
    // Second submission lands while the first is in flight — even
    // racing HTTP clients funnel into the same coalescing check.
    let (status, id2) = submit(server.addr(), &req);
    assert_eq!(status, "coalesced");
    assert_eq!(id2, id, "coalesced submission shares the original job");
    assert_eq!(metric(server.addr(), "st_serve_coalesced_total"), 1);
    assert_eq!(
        metric(server.addr(), "st_serve_queue_depth"),
        1,
        "one queued execution for two submissions"
    );

    // Execute exactly one job; both ids now resolve to the same bytes.
    assert!(server.service().step());
    assert!(!server.service().step(), "no second execution exists");
    wait_done(server.addr(), id);
    let body = fetch_result(server.addr(), id);
    assert_eq!(fetch_result(server.addr(), id2), body);

    // After completion the flight is over: a third submission is a
    // cache hit, not a coalesce.
    let (status, _) = submit(server.addr(), &req);
    assert_eq!(status, "cached");
    assert_eq!(
        server.service().stats.done.load(Ordering::Relaxed),
        1,
        "exactly one execution for three submissions"
    );
    server.shutdown();
}

#[test]
fn cancel_over_http_stops_a_queued_job() {
    let service = JobService::start(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();
    let (status, id) = submit(
        server.addr(),
        &JobRequest::Sim(sim_request(Backend::Event, vec![9])),
    );
    assert_eq!(status, "queued");

    let (code, reply) = request(server.addr(), "POST", &format!("/cancel/{id}"), b"").unwrap();
    assert_eq!(code, 200);
    assert_eq!(reply, br#"{"cancelled":true}"#);

    let (code, reply) = request(server.addr(), "GET", &format!("/status/{id}"), b"").unwrap();
    assert_eq!(code, 200);
    let v = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("cancelled"));
    assert!(!server.service().step(), "cancelled job never runs");

    // Its result is gone for good — and a repeat cancel reports false.
    let (code, _) = request(server.addr(), "GET", &format!("/result/{id}"), b"").unwrap();
    assert_eq!(code, 409);
    let (_, reply) = request(server.addr(), "POST", &format!("/cancel/{id}"), b"").unwrap();
    assert_eq!(reply, br#"{"cancelled":false}"#);
    server.shutdown();
}

#[test]
fn full_queue_backpressure_is_http_503() {
    let service = JobService::start(ServiceConfig {
        workers: 0,
        queue_cap: 1,
        ..ServiceConfig::default()
    });
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();
    let (status, _) = submit(
        server.addr(),
        &JobRequest::Sim(sim_request(Backend::Event, vec![1])),
    );
    assert_eq!(status, "queued");
    let over = JobRequest::Sim(sim_request(Backend::Event, vec![2]));
    let (code, reply) = request(
        server.addr(),
        "POST",
        "/submit",
        over.to_json().encode().as_bytes(),
    )
    .unwrap();
    assert_eq!(code, 503, "{}", String::from_utf8_lossy(&reply));
    server.shutdown();
}

fn status_json(addr: SocketAddr, id: u64) -> Json {
    let (code, reply) = request(addr, "GET", &format!("/status/{id}"), b"").unwrap();
    assert_eq!(code, 200, "{}", String::from_utf8_lossy(&reply));
    Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap()
}

fn hex_to_16(s: &str) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (i, byte) in out.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
    }
    out
}

/// The witness surface end to end: a completed job's `/status` carries
/// a chained witness record that a client can verify *offline* — and
/// `/conformance` exposes the registry those IDs resolve in, with this
/// instance's runtime tallies and the matching chain head.
#[test]
fn served_witness_records_verify_offline_and_conformance_reports_them() {
    st_conformance::witnesses!(["ST-WIT-013"]);
    let service = JobService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();

    // A multi-seed Compiled sim: the batched-lane path, so the record
    // must name ST-EQ-003 alongside the always-witnessed clauses.
    let (status, id) = submit(
        server.addr(),
        &JobRequest::Sim(sim_request(Backend::Compiled, vec![71, 72])),
    );
    assert_eq!(status, "queued");
    wait_done(server.addr(), id);

    let v = status_json(server.addr(), id);
    let w = v.get("witness").expect("done job carries witness metadata");
    let ids: Vec<String> = w
        .get("requirements")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|j| j.as_str().unwrap().to_owned())
        .collect();
    assert_eq!(ids, ["ST-CAMP-005", "ST-DET-001", "ST-EQ-003"]);

    // Reconstruct the record from the wire fields alone and verify the
    // chain hash — no access to the server-side log.
    let record = st_conformance::WitnessRecord {
        seq: w.get("seq").unwrap().as_u64().unwrap(),
        ids: ids.clone(),
        config: hex_to_16(w.get("config").unwrap().as_str().unwrap()),
        result: hex_to_16(w.get("result").unwrap().as_str().unwrap()),
        prev: u64::from_str_radix(w.get("prev").unwrap().as_str().unwrap(), 16).unwrap(),
        chain: u64::from_str_radix(w.get("chain").unwrap().as_str().unwrap(), 16).unwrap(),
    };
    assert!(record.verify(), "served witness must verify offline");
    assert_eq!(record.seq, 0, "first execution on this instance");
    assert_eq!(record.prev, st_conformance::witness_genesis());
    // The record's config key is the job's content key — the same hex
    // the submit reply advertised.
    assert_eq!(
        st_conformance::key_hex(record.config),
        v.get("key").unwrap().as_str().unwrap()
    );

    // /conformance: full registry, runtime tallies, matching head.
    let (code, body) = request(server.addr(), "GET", "/conformance", b"").unwrap();
    assert_eq!(code, 200);
    let c = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let registry = st_conformance::Registry::builtin();
    assert_eq!(
        c.get("registry_hash").unwrap().as_str().unwrap(),
        st_conformance::key_hex(registry.content_hash())
    );
    assert_eq!(
        c.get("witness_head").unwrap().as_str().unwrap(),
        format!("{:016x}", record.chain),
        "the log head is this sole record's chain value"
    );
    assert_eq!(c.get("witness_records").unwrap().as_u64(), Some(1));
    let reqs = c.get("requirements").unwrap().as_arr().unwrap();
    assert_eq!(reqs.len(), registry.requirements.len());
    for r in reqs {
        let rid = r.get("id").unwrap().as_str().unwrap();
        let witnessed = r.get("witnessed").unwrap().as_u64().unwrap();
        if ids.iter().any(|i| i == rid) {
            assert_eq!(witnessed, 1, "{rid} was exercised by the job");
        } else {
            assert_eq!(witnessed, 0, "{rid} was not exercised");
        }
    }
    server.shutdown();
}

/// Negative paths over the real socket: every malformed or unserviceable
/// request must come back as a clean client error, never a hang or a
/// connection drop.
#[test]
fn malformed_requests_fail_clean_over_http() {
    let service = JobService::start(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();

    // Body that is not JSON at all.
    let (code, reply) = request(server.addr(), "POST", "/submit", b"{not json!").unwrap();
    assert_eq!(code, 400, "{}", String::from_utf8_lossy(&reply));
    let v = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(v.get("error").unwrap().as_str().unwrap().contains("JSON"));

    // Valid JSON, bogus job shape.
    let (code, _) = request(server.addr(), "POST", "/submit", br#"{"type":"warp"}"#).unwrap();
    assert_eq!(code, 400);

    // Unknown endpoint, and an id path that is not a number.
    let (code, _) = request(server.addr(), "GET", "/jobs/all", b"").unwrap();
    assert_eq!(code, 404);
    let (code, _) = request(server.addr(), "GET", "/status/banana", b"").unwrap();
    assert_eq!(code, 404);

    // A request line past MAX_HEAD: rejected promptly, not buffered
    // forever. The server answers 400 and closes with client bytes
    // still unread, so the client legitimately sees either the reply
    // or a reset — what it must never see is a hang or a 2xx.
    let huge = format!("/{}", "a".repeat(20 * 1024));
    match request(server.addr(), "GET", &huge, b"") {
        Ok((code, reply)) => assert_eq!(code, 400, "{}", String::from_utf8_lossy(&reply)),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected transport error: {e}"
        ),
    }

    // The server is still healthy after all of the abuse.
    let (code, _) = request(server.addr(), "GET", "/healthz", b"").unwrap();
    assert_eq!(code, 200);
    server.shutdown();
}

/// Keep-alive: one client thread's sequential requests share one TCP
/// connection, and `/metrics` counts connections and requests apart.
#[test]
fn sequential_requests_from_one_thread_share_one_connection() {
    let service = JobService::start(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();
    for _ in 0..100 {
        let (code, _) = request(server.addr(), "GET", "/healthz", b"").unwrap();
        assert_eq!(code, 200);
    }
    assert_eq!(metric(server.addr(), "st_serve_http_connections_total"), 1);
    // The 100 probes plus this `/metrics` request and the one before.
    assert_eq!(metric(server.addr(), "st_serve_http_requests_total"), 102);
    assert_eq!(metric(server.addr(), "st_serve_http_connections_open"), 1);
    server.shutdown();
}

/// Cancelling a job *while a worker is executing it*: the cooperative
/// token stops the campaign at a sub-job boundary, the job classifies
/// as `cancelled`, and its result is gone for good.
#[test]
fn cancel_mid_run_stops_an_executing_job() {
    let service = JobService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();
    // Enough independent seeds that the run is still in progress when
    // the cancel lands (each seed is one cooperative check point).
    let seeds: Vec<u64> = (0..3000).collect();
    let (status, id) = submit(
        server.addr(),
        &JobRequest::Sim(sim_request(Backend::Event, seeds)),
    );
    assert_eq!(status, "queued");

    // Catch it running, then cancel. If the machine is so fast the job
    // finishes first, the cancel returns false and we skip — but the
    // common path is the one under test.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let v = status_json(server.addr(), id);
        match v.get("status").unwrap().as_str().unwrap() {
            "running" => break,
            "queued" => assert!(Instant::now() < deadline, "job never started"),
            other => panic!("job reached {other} before it could be cancelled"),
        }
    }
    let (code, reply) = request(server.addr(), "POST", &format!("/cancel/{id}"), b"").unwrap();
    assert_eq!(code, 200);
    assert_eq!(reply, br#"{"cancelled":true}"#);

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let v = status_json(server.addr(), id);
        match v.get("status").unwrap().as_str().unwrap() {
            "cancelled" => break,
            "running" => {
                assert!(Instant::now() < deadline, "cancel never took effect");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("cancelled job ended as {other}"),
        }
    }
    let (code, _) = request(server.addr(), "GET", &format!("/result/{id}"), b"").unwrap();
    assert_eq!(code, 409, "a cancelled job has no result");
    assert_eq!(metric(server.addr(), "st_serve_jobs_cancelled_total"), 1);
    server.shutdown();
}

/// A submission whose deadline has already elapsed when a worker picks
/// it up: classified `expired`, with the error text on `/status` and a
/// 409 on `/result`.
#[test]
fn expired_deadline_classifies_and_serves_no_result() {
    let service = JobService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();
    let req = JobRequest::Sim(sim_request(Backend::Event, vec![314]));
    let mut body = match req.to_json() {
        Json::Obj(fields) => fields,
        other => panic!("job JSON must be an object, got {other:?}"),
    };
    body.push(("deadline_ms".to_owned(), Json::UInt(0)));
    let encoded = Json::Obj(body).encode();
    let (code, reply) = request(server.addr(), "POST", "/submit", encoded.as_bytes()).unwrap();
    assert_eq!(code, 202, "{}", String::from_utf8_lossy(&reply));
    let v = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    let id = v.get("id").unwrap().as_u64().unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let v = status_json(server.addr(), id);
        match v.get("status").unwrap().as_str().unwrap() {
            "expired" => {
                assert_eq!(
                    v.get("error").unwrap().as_str(),
                    Some("deadline exceeded"),
                    "expiry carries its reason"
                );
                assert!(v.get("witness").is_none(), "no witness for expired work");
                break;
            }
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job never expired");
                std::thread::sleep(Duration::from_millis(2));
            }
            other => panic!("zero-deadline job ended as {other}"),
        }
    }
    let (code, _) = request(server.addr(), "GET", &format!("/result/{id}"), b"").unwrap();
    assert_eq!(code, 409);
    assert_eq!(metric(server.addr(), "st_serve_jobs_expired_total"), 1);
    server.shutdown();
}

/// `ST_SERVE_THREADS` / `ST_SERVE_CACHE_DIR` resolution. One test owns
/// both variables — env mutation must not race other tests.
#[test]
fn serve_env_knobs_follow_the_st_threads_contract() {
    let base = || ServiceConfig {
        workers: 7,
        ..ServiceConfig::default()
    };
    std::env::remove_var("ST_SERVE_THREADS");
    std::env::remove_var("ST_SERVE_CACHE_DIR");
    let cfg = base().from_env();
    assert_eq!(cfg.workers, 7, "unset leaves the default");
    assert_eq!(cfg.cache_dir, None);

    std::env::set_var("ST_SERVE_THREADS", "3");
    assert_eq!(base().from_env().workers, 3);

    std::env::set_var("ST_SERVE_THREADS", "0");
    assert_eq!(base().from_env().workers, 1, "zero clamps to one");

    std::env::set_var("ST_SERVE_THREADS", "banana");
    assert_eq!(base().from_env().workers, 7, "garbage warns and is ignored");

    std::env::set_var("ST_SERVE_CACHE_DIR", "/tmp/st-serve-knob-test");
    assert_eq!(
        base().from_env().cache_dir.as_deref(),
        Some(std::path::Path::new("/tmp/st-serve-knob-test"))
    );
    std::env::set_var("ST_SERVE_CACHE_DIR", "");
    assert_eq!(base().from_env().cache_dir, None, "empty disables");

    std::env::remove_var("ST_SERVE_THREADS");
    std::env::remove_var("ST_SERVE_CACHE_DIR");
}
