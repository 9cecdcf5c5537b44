//! Microbenchmarks of the simulation substrate (kernel event throughput,
//! FIFO traffic) — the cost model behind every experiment's runtime.
use st_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use st_sim::prelude::*;

struct Toggler {
    out: BitSignal,
    half: SimDuration,
}
impl Component for Toggler {
    fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
        if matches!(cause, Wake::Start | Wake::Timer(_)) {
            ctx.toggle_bit(self.out, SimDuration::ZERO);
            ctx.set_timer(self.half, 0);
        }
    }
}

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    let events_per_run = 20_000u64;
    g.throughput(Throughput::Elements(events_per_run));
    g.bench_function("toggler_20k_events", |b| {
        b.iter(|| {
            let mut sb = SimBuilder::new();
            let s = sb.add_bit_signal_init("s", Bit::Zero);
            sb.add_component(
                "t",
                Toggler {
                    out: s,
                    half: SimDuration::ns(1),
                },
            );
            let mut sim = sb.build();
            sim.run_for(SimDuration::us(10)).expect("run");
            sim.events_scheduled()
        })
    });
    // Same-instant burst workload: 50 togglers sharing one period, so
    // every nanosecond fires a 100-event burst at a single instant and
    // queues 50 timers for the next one — a deep pending queue.
    g.bench_function("delta_storm_50_togglers", |b| {
        b.iter(|| {
            let mut sb = SimBuilder::new();
            for i in 0..50 {
                let s = sb.add_bit_signal_init(&format!("s{i}"), Bit::Zero);
                sb.add_component(
                    &format!("t{i}"),
                    Toggler {
                        out: s,
                        half: SimDuration::ns(1),
                    },
                );
            }
            let mut sim = sb.build();
            sim.run_for(SimDuration::ns(200)).expect("run");
            sim.events_scheduled()
        })
    });
    g.bench_function("fifo_1k_words", |b| {
        use st_channel::{FifoPorts, SelfTimedFifo};
        b.iter(|| {
            let mut sb = SimBuilder::new();
            let ports = FifoPorts::declare(&mut sb, "f");
            let _f = SelfTimedFifo::new(ports, 4, SimDuration::ns(1)).install(&mut sb, "f");
            let mut sim = sb.build();
            for i in 0..1000u64 {
                sim.drive(ports.put_data.id(), Value::Word(i), SimDuration::ns(10 * i));
                sim.drive(
                    ports.put_req.id(),
                    Value::from(i % 2 == 0),
                    SimDuration::ns(10 * i + 1),
                );
                sim.drive(
                    ports.get_ack.id(),
                    Value::from(i % 2 == 0),
                    SimDuration::ns(10 * i + 6),
                );
            }
            sim.run_for(SimDuration::us(11)).expect("run");
        })
    });
    g.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
