//! System-level simulation throughput: the event-kernel backend vs the
//! compiled flat typed-event engine, on the workloads the ISSUE's
//! acceptance bar names — the two-SB ping-pong and the paper's 3-SB /
//! 6-FIFO E1 platform — plus the sparse one-way producer→consumer pair
//! for a low-traffic reference point. Both backends produce
//! byte-identical traces (asserted by `compiled_equiv`), so this
//! measures pure simulation overhead per local cycle.

use st_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use st_sim::prelude::*;
use synchro_tokens::prelude::*;
use synchro_tokens::scenarios::{
    build_e1_backend, build_pingpong_backend, e1_spec, producer_consumer_spec,
};

const CYCLES: u64 = 2_000;

fn build_pair(backend: Backend) -> AnySystem {
    SystemBuilder::new(producer_consumer_spec())
        .expect("valid spec")
        .with_logic(SbId(0), SequenceSource::new(100, 1))
        .with_logic(SbId(1), SinkCollect::new())
        .with_trace_limit(100)
        .build_backend(backend)
}

fn run(mut sys: AnySystem) -> u64 {
    let out = sys
        .run_until_cycles(CYCLES, SimDuration::us(3000))
        .expect("run");
    assert_eq!(out, RunOutcome::Reached);
    sys.cycles(SbId(0))
}

fn bench_system_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("system_sim");
    g.throughput(Throughput::Elements(CYCLES));

    g.bench_function("pingpong_2sb_event", |b| {
        b.iter(|| run(build_pingpong_backend(100, Backend::Event)))
    });
    g.bench_function("pingpong_2sb_compiled", |b| {
        let sys = build_pingpong_backend(100, Backend::Compiled);
        assert_eq!(sys.backend_kind(), BackendKind::Compiled);
        b.iter(|| run(build_pingpong_backend(100, Backend::Compiled)))
    });

    g.bench_function("pair_1way_event", |b| {
        b.iter(|| run(build_pair(Backend::Event)))
    });
    g.bench_function("pair_1way_compiled", |b| {
        let sys = build_pair(Backend::Compiled);
        assert_eq!(sys.backend_kind(), BackendKind::Compiled);
        b.iter(|| run(build_pair(Backend::Compiled)))
    });

    g.bench_function("e1_3sb_event", |b| {
        b.iter(|| run(build_e1_backend(e1_spec(), 0, 100, Backend::Event)))
    });
    g.bench_function("e1_3sb_compiled", |b| {
        let sys = build_e1_backend(e1_spec(), 0, 100, Backend::Compiled);
        assert_eq!(sys.backend_kind(), BackendKind::Compiled);
        b.iter(|| run(build_e1_backend(e1_spec(), 0, 100, Backend::Compiled)))
    });

    g.finish();
}

criterion_group!(benches, bench_system_sim);
criterion_main!(benches);
