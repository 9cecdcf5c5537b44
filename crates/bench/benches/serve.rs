//! Service-path benchmarks: what determinism-backed caching buys.
//!
//! Two numbers matter for st-serve:
//!
//! * `cache_hit_requests` — two HTTP round trips (POST /submit, GET
//!   /result) on the bench thread's kept-alive connection against a
//!   warm cache, as requests/s. This is the steady-state cost of
//!   *serving* a memoized campaign: pure protocol + store, zero
//!   simulation.
//! * `cold_job_e2e` — submit-to-result latency for a job that misses
//!   the cache, measured by driving the manual-step service (no HTTP,
//!   no worker wakeup jitter). Each iteration uses a fresh seed so
//!   every request really computes.
//!
//! Together they show where serving time goes: a hit costs protocol +
//! store lookup *independent of campaign size*, while a cold job
//! scales with the simulated work — so the hit path wins by a growing
//! margin as campaigns get bigger.

use st_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use st_serve::http::{request, Server};
use st_serve::job::{JobRequest, Scenario, SimRequest};
use st_serve::service::{JobService, ServiceConfig, Submission};
use st_sim::time::SimDuration;
use synchro_tokens::Backend;

fn sim(seeds: Vec<u64>) -> JobRequest {
    JobRequest::Sim(SimRequest {
        scenario: Scenario::PingPong,
        backend: Backend::Compiled,
        seeds,
        cycles: 40,
        trace_cycles: 40,
        budget_fs: SimDuration::us(2000).as_fs(),
    })
}

fn bench_cache_hits(c: &mut Criterion) {
    let service = JobService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut server = Server::bind("127.0.0.1:0", service).unwrap();
    let addr = server.addr();
    let req = sim(vec![1, 2, 3, 4]).to_json().encode();

    // Warm the cache and learn the job id once.
    let (code, reply) = request(addr, "POST", "/submit", req.as_bytes()).unwrap();
    assert_eq!(code, 202, "{}", String::from_utf8_lossy(&reply));
    loop {
        let (_, body) = request(addr, "GET", "/metrics", b"").unwrap();
        if String::from_utf8_lossy(&body).contains("st_serve_jobs_done_total 1") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let mut g = c.benchmark_group("serve");
    g.throughput(Throughput::Elements(1));
    g.bench_function("cache_hit_requests", |b| {
        b.iter(|| {
            let (code, reply) = request(addr, "POST", "/submit", req.as_bytes()).unwrap();
            assert_eq!(code, 202);
            let v = st_serve::Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
            assert_eq!(v.get("status").unwrap().as_str(), Some("cached"));
            let id = v.get("id").unwrap().as_u64().unwrap();
            let (code, body) = request(addr, "GET", &format!("/result/{id}"), b"").unwrap();
            assert_eq!(code, 200);
            body.len()
        })
    });
    g.finish();
    server.shutdown();
}

fn bench_cold_jobs(c: &mut Criterion) {
    let service = JobService::start(ServiceConfig {
        workers: 0,
        cache_entries: 4, // tiny LRU: old results fall out, stays cold
        ..ServiceConfig::default()
    });

    let mut g = c.benchmark_group("serve");
    g.throughput(Throughput::Elements(1));
    let mut seed = 0u64;
    g.bench_function("cold_job_e2e", |b| {
        b.iter(|| {
            // Fresh seeds -> guaranteed miss; same 4-seed shape as the
            // hit bench so the two rows compare like for like.
            seed += 4;
            let seeds = vec![seed, seed + 1, seed + 2, seed + 3];
            let Submission::Queued(id) = service.submit(sim(seeds), None) else {
                panic!("cold request must queue")
            };
            assert!(service.step());
            service.result(id).unwrap().len()
        })
    });
    g.finish();
    service.shutdown();
}

criterion_group!(benches, bench_cache_hits, bench_cold_jobs);
criterion_main!(benches);
