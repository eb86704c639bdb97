//! Benchmarks of the exact transient solver behind every droop capture and
//! di/dt analysis, so regressions in the propagator, the extreme search
//! or the settle horizon show up here before they show up as minutes in a
//! sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use dg_pdn::didt::{analyze, client_event_family};
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pdn::transient::{LoadStep, TransientSim};
use dg_pdn::units::{Amps, Seconds, Volts};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("transient_kernel");
    g.sample_size(10);

    let pdn = SkylakePdn::build(PdnVariant::Bypassed);
    let step = LoadStep::step(Amps::new(5.0), Amps::new(48.0), Seconds::from_us(1.0));

    // The served droop capture: a 6.4 ns grid to proven settling (~80 µs).
    let droop = TransientSim::droop_capture(Volts::new(1.0));
    g.bench_function("droop_capture", |b| {
        b.iter(|| black_box(droop.run(&pdn.ladder, step)))
    });

    // The full di/dt event-family analysis: five events on a 51.2 ns
    // grid, capped at 30 µs.
    let events = client_event_family();
    g.bench_function("didt_family_30us", |b| {
        b.iter(|| {
            black_box(analyze(
                &pdn.ladder,
                &events,
                Volts::new(1.0),
                Volts::new(0.85),
                Amps::new(10.0),
            ))
        })
    });

    // A short window capped before settling, on an 8 ns grid (0.5 ns ×
    // the default decimation of 16) —
    // guards the per-step cost of the propagator walk itself.
    let short = TransientSim::new(
        Volts::new(1.1),
        Seconds::from_ns(0.5),
        Seconds::from_us(2.0),
    )
    .unwrap();
    let short_step = LoadStep::step(Amps::new(5.0), Amps::new(45.0), Seconds::from_us(0.5));
    g.bench_function("short_2us_capped", |b| {
        b.iter(|| black_box(short.run(&pdn.ladder, short_step)))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
