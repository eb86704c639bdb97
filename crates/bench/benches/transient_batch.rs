//! Benchmarks of batched transient runs on the exact solver. Eight droop
//! captures run sequentially, as one eight-lane `run_batch` (one shared
//! unit response), and as `droops` (no waveforms), against the RK4 oracle
//! at the served 0.1 ns step over a 20 µs window — the fixed-step
//! integration the exact solver replaced.

use criterion::{criterion_group, criterion_main, Criterion};
use dg_pdn::oracle::rk4;
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pdn::transient::{LoadStep, TransientSim};
use dg_pdn::units::{Amps, Seconds, Volts};
use std::hint::black_box;

/// Eight load steps with distinct magnitudes and one step time and slew,
/// so a batch shares one unit response.
fn eight_steps() -> Vec<LoadStep> {
    (0..8)
        .map(|k| {
            LoadStep::step(
                Amps::new(5.0),
                Amps::new(20.0 + 6.0 * k as f64),
                Seconds::from_us(1.0),
            )
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("transient_batch");
    g.sample_size(10);

    let pdn = SkylakePdn::build(PdnVariant::Bypassed);
    let sim = TransientSim::droop_capture(Volts::new(1.0));
    let steps = eight_steps();

    g.bench_function("seq8_rk4_oracle_20us", |b| {
        b.iter(|| {
            let results: Vec<_> = steps
                .iter()
                .map(|s| rk4(&pdn.ladder, sim.source, *s, sim.dt, Seconds::from_us(20.0)))
                .collect();
            black_box(results)
        })
    });

    g.bench_function("seq8_exact_runs", |b| {
        b.iter(|| {
            let results: Vec<_> = steps.iter().map(|s| sim.run(&pdn.ladder, *s)).collect();
            black_box(results)
        })
    });

    g.bench_function("batch8_run_batch", |b| {
        b.iter(|| black_box(sim.run_batch(&pdn.ladder, &steps)))
    });

    g.bench_function("batch8_droops", |b| {
        b.iter(|| black_box(sim.droops(&pdn.ladder, &steps)))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
