//! Literal pins of st-serve's byte formats: the `JobRequest` bytes a
//! content key covers, the `JobResult` bytes `/result` serves, and one
//! result-store disk entry. The chaos result is pinned in `job.rs`
//! (`served_chaos_bytes_are_pinned`).

use st_serve::hash::ContentKey;
use st_serve::job::{execute, ChaosRequest, JobRequest, Scenario, ShmooRequest, SimRequest};
use st_serve::store::ResultStore;
use st_sim::hash::fnv1a64;
use st_sim::time::SimDuration;
use synchro_tokens::{Backend, RunHooks};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn sim() -> JobRequest {
    JobRequest::Sim(SimRequest {
        scenario: Scenario::PingPong,
        backend: Backend::Compiled,
        seeds: vec![3, 9],
        cycles: 24,
        trace_cycles: 6,
        budget_fs: SimDuration::us(2000).as_fs(),
    })
}

fn shmoo() -> JobRequest {
    JobRequest::Shmoo(ShmooRequest {
        scenario: Scenario::Chain(3),
        backend: Backend::Event,
        sb: 1,
        periods_fs: vec![
            SimDuration::ns(14).as_fs(),
            SimDuration::ns(9).as_fs(),
            SimDuration::ps(1500).as_fs(),
        ],
        cycles: 30,
    })
}

fn chaos() -> JobRequest {
    JobRequest::Chaos(ChaosRequest {
        scenario: Scenario::E1,
        seeds: 4,
        cycles: 80,
        budget_fs: SimDuration::us(3000).as_fs(),
    })
}

#[test]
fn job_request_bytes_are_pinned() {
    // "STJR" | version | kind | scenario tag [| n u32] [| backend] | fields
    let pins = [
        (
            "sim",
            sim(),
            "53544a5201000101020000000000000003000000000000000900000000000000\
             18000000000000000600000000204aa9d1010000",
        ),
        (
            "shmoo",
            shmoo(),
            "53544a520101030300000000010000000300000000000000809fd50000000000\
             405489000000000060e31600000000001e00000000000000",
        ),
        (
            "chaos",
            chaos(),
            "53544a52010202040000000000000050000000000000000030ef7dba020000",
        ),
    ];
    for (name, req, want) in pins {
        assert_eq!(
            hex(&req.to_canonical_bytes()),
            want,
            "{name} request bytes moved"
        );
    }
}

#[test]
fn job_result_bytes_are_pinned() {
    for (name, req, want) in [
        ("sim", sim(), (720, 0x64f2_cd95_ffc8_26d4)),
        ("shmoo", shmoo(), (65, 0xbc5d_9f22_be02_0b12)),
    ] {
        let bytes = execute(&req, 1, RunHooks::default())
            .unwrap()
            .to_canonical_bytes();
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            want,
            "{name} result bytes moved"
        );
    }
}

#[test]
fn store_disk_entry_is_pinned() {
    let dir = std::env::temp_dir().join(format!("st-serve-canon-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = ContentKey::of(b"pinned request");
    ResultStore::with_dir(4, &dir).put(key, b"pinned result".to_vec());
    let entry = std::fs::read(dir.join(format!("{}.stres", key.to_hex()))).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    // "STRC" | version | key [16] | payload_len u64 | fnv1a64 u64 | payload
    assert_eq!(
        hex(&entry),
        "5354524301498f21e94127dee65ba290ee6ddae9330d000000000000004ce2d3\
         e0cdf5f75370696e6e656420726573756c74",
        "store disk entry moved"
    );
}
