//! `bench-pdn`: accuracy and throughput gate for the exact transient
//! solver, measured against the fixed-step RK4 oracle
//! ([`dg_pdn::oracle::rk4`]).
//!
//! Two rows, each exact-versus-oracle:
//!
//! * **Batch.** A 32-lane `run_batch` at the served `droop_capture`
//!   settings against 32 sequential oracle runs at the served 0.1 ns step,
//!   each run to the exact lane's settle time. Every lane must also be
//!   bit-identical to a scalar `run`.
//! * **Sweep.** A 2,048-lane `droop_sweep_with_progress` over a 5 µs
//!   window against the same lanes through the oracle, both fanned out
//!   over the `dg-engine` pool.
//!
//! The run fails when a batch lane is not bit-identical to its scalar run
//! or any droop or final voltage differs from the oracle by more than
//! [`ORACLE_TOL_V`]. `--check` also fails it when either speedup lands
//! below its floor ([`CHECK_FLOOR`], [`E2E_FLOOR`]).
//!
//! ```text
//! # Human-readable report:
//! cargo run --release -p dg-bench --bin bench-pdn
//!
//! # CI gate:
//! cargo run --release -p dg-bench --bin bench-pdn -- --check
//!
//! # The committed BENCH_pdn.json payload:
//! cargo run --release -p dg-bench --bin bench-pdn -- --json
//! ```

use dg_pdn::droop_sweep_with_progress;
use dg_pdn::oracle::{rk4, Rk4Run};
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pdn::transient::{LoadStep, TransientResult, TransientSim};
use dg_pdn::units::{Amps, Seconds, Volts};
use std::hint::black_box;

/// Lanes in the batch row: the `didt` sweep's group width.
const LANES: usize = 32;

/// Timing repetitions of the exact paths; the best (minimum) is reported.
/// The oracle runs once per row: it is slower by orders of magnitude, so
/// scheduler noise cannot move its ratio.
const REPS: usize = 5;

/// `--check` fails when the batch speedup over sequential oracle runs
/// lands below this (the floor the SIMD RK4 batch was held to).
const CHECK_FLOOR: f64 = 2.5;

/// Lanes in the end-to-end sweep.
const E2E_LANES: usize = 2048;

/// `--check` fails when the sweep speedup over the oracle sweep lands
/// below this.
const E2E_FLOOR: f64 = 1.15;

/// Largest droop or final-voltage difference from the oracle `--check`
/// accepts, in volts.
const ORACLE_TOL_V: f64 = 50e-6;

fn steps() -> Vec<LoadStep> {
    (0..LANES)
        .map(|k| {
            LoadStep::step(
                Amps::new(5.0),
                Amps::new(20.0 + 1.5 * k as f64),
                Seconds::from_us(1.0),
            )
        })
        .collect()
}

/// Compares every field and every waveform sample by bit pattern.
fn bit_identical(batch: &TransientResult, scalar: &TransientResult) -> bool {
    batch.v_min.value().to_bits() == scalar.v_min.value().to_bits()
        && batch.t_min.value().to_bits() == scalar.t_min.value().to_bits()
        && batch.v_initial.value().to_bits() == scalar.v_initial.value().to_bits()
        && batch.v_final.value().to_bits() == scalar.v_final.value().to_bits()
        && batch.samples.len() == scalar.samples.len()
        && batch
            .samples
            .iter()
            .zip(&scalar.samples)
            .all(|((tb, vb), (ts, vs))| {
                tb.value().to_bits() == ts.value().to_bits()
                    && vb.value().to_bits() == vs.value().to_bits()
            })
}

/// Wall-clock seconds of one call of `routine`, folded into `best`.
#[allow(clippy::disallowed_methods)]
fn timed<R>(best: &mut f64, routine: impl FnOnce() -> R) -> R {
    // dg-analyze: allow(determinism-hygiene, reason = "a throughput benchmark measures elapsed wall time by definition; the accuracy verdict does not depend on it")
    let started = std::time::Instant::now();
    let out = black_box(routine());
    *best = best.min(started.elapsed().as_secs_f64());
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let check = args.iter().any(|a| a == "--check");
    // Accuracy failures always fail the run; speed floors only under
    // `--check`.
    let mut failures: Vec<String> = Vec::new();
    let mut floors: Vec<String> = Vec::new();

    let pdn = SkylakePdn::build(PdnVariant::Bypassed);
    let ladder = &pdn.ladder;
    let sim = TransientSim::droop_capture(Volts::new(1.0));
    let steps = steps();

    // Batch row. Correctness first: every lane bit-identical to a scalar
    // run (this also warms the coefficient and propagator caches).
    let scalars: Vec<TransientResult> = steps.iter().map(|s| sim.run(ladder, *s)).collect();
    let mut batch_best = f64::INFINITY;
    let mut batched = Vec::new();
    for _ in 0..REPS {
        batched = timed(&mut batch_best, || sim.run_batch(ladder, &steps));
    }
    if !(batched.len() == scalars.len()
        && batched
            .iter()
            .zip(&scalars)
            .all(|(b, s)| bit_identical(b, s)))
    {
        failures.push("batch lanes are not bit-identical to scalar runs".into());
    }
    let mut oracle_seq = f64::INFINITY;
    let oracle: Vec<Rk4Run> = timed(&mut oracle_seq, || {
        steps
            .iter()
            .zip(&batched)
            .map(|(step, lane)| {
                let horizon = lane.samples.last().map_or(sim.duration, |s| s.0);
                rk4(ladder, sim.source, *step, sim.dt, horizon)
            })
            .collect()
    });
    let (batch_droop_gap, batch_final_gap) =
        batched
            .iter()
            .zip(&oracle)
            .fold((0.0f64, 0.0f64), |(d, v), (r, o)| {
                (
                    d.max((r.droop() - o.droop()).value().abs()),
                    v.max((r.v_final - o.v_final).value().abs()),
                )
            });
    let speedup = oracle_seq / batch_best;

    // Sweep row: a 5 µs window at the served step and grid.
    let sweep_sim = TransientSim {
        duration: Seconds::from_us(5.0),
        ..sim
    };
    let quiescent = Amps::new(5.0);
    let sweep_slew = Seconds::from_ns(10.0);
    #[allow(clippy::cast_precision_loss)]
    let deltas: Vec<Amps> = (0..E2E_LANES)
        .map(|k| Amps::new(1.0 + 0.05 * k as f64))
        .collect();
    let sweep_steps: Vec<LoadStep> = deltas
        .iter()
        .map(|&d| LoadStep {
            from: quiescent,
            to: quiescent + d,
            at: Seconds::from_us(1.0),
            slew: sweep_slew,
        })
        .collect();
    let mut sweep_best = f64::INFINITY;
    let mut swept = Vec::new();
    for _ in 0..3 {
        swept = timed(&mut sweep_best, || {
            droop_sweep_with_progress(
                ladder,
                &sweep_sim,
                quiescent,
                &deltas,
                sweep_slew,
                |_, _| {},
            )
        });
    }
    let mut oracle_sweep_s = f64::INFINITY;
    let oracle_sweep: Vec<Rk4Run> = timed(&mut oracle_sweep_s, || {
        dg_engine::par_map(&sweep_steps, |_, step| {
            rk4(
                ladder,
                sweep_sim.source,
                *step,
                sweep_sim.dt,
                sweep_sim.duration,
            )
        })
    });
    let sweep_droop_gap = swept
        .iter()
        .zip(&oracle_sweep)
        .map(|(d, o)| (*d - o.droop()).value().abs())
        .fold(0.0, f64::max);
    let e2e_speedup = oracle_sweep_s / sweep_best;
    #[allow(clippy::cast_precision_loss)]
    let lanes_per_sec = E2E_LANES as f64 / sweep_best;

    let worst_gap = batch_droop_gap.max(batch_final_gap).max(sweep_droop_gap);
    if worst_gap > ORACLE_TOL_V {
        failures.push(format!(
            "exact solver differs from the RK4 oracle by {:.3} µV (tolerance {:.0} µV)",
            worst_gap * 1e6,
            ORACLE_TOL_V * 1e6
        ));
    }
    if speedup < CHECK_FLOOR {
        floors.push(format!(
            "batch speedup {speedup:.2}x below the {CHECK_FLOOR}x floor"
        ));
    }
    if e2e_speedup < E2E_FLOOR {
        floors.push(format!(
            "sweep speedup {e2e_speedup:.2}x below the {E2E_FLOOR}x floor"
        ));
    }

    if json {
        println!(
            "{{\"bench\":\"dg-pdn-exact-vs-rk4\",\"lanes\":{LANES},\"reps\":{REPS},\
             \"bit_identical\":true,\"oracle_dt_ns\":{:.2},\"oracle_seq_ms\":{:.3},\
             \"batch_best_ms\":{:.3},\"speedup\":{speedup:.1},\"check_floor\":{CHECK_FLOOR},\
             \"droop_gap_uv\":{:.3},\"v_final_gap_uv\":{:.3},\"sweep\":{{\"lanes\":{E2E_LANES},\
             \"window_us\":5,\"oracle_ms\":{:.3},\"exact_ms\":{:.3},\"lanes_per_sec\":{lanes_per_sec:.0},\
             \"e2e_speedup\":{e2e_speedup:.2},\"e2e_floor\":{E2E_FLOOR},\"droop_gap_uv\":{:.3}}},\
             \"oracle_tol_uv\":{:.0}}}",
            sim.dt.value() * 1e9,
            oracle_seq * 1e3,
            batch_best * 1e3,
            batch_droop_gap * 1e6,
            batch_final_gap * 1e6,
            oracle_sweep_s * 1e3,
            sweep_best * 1e3,
            sweep_droop_gap * 1e6,
            ORACLE_TOL_V * 1e6,
        );
    } else {
        println!(
            "bench-pdn: exact solver vs RK4 oracle (dt {:.2} ns)",
            sim.dt.value() * 1e9
        );
        println!("  batch of {LANES} lanes, droop_capture settings");
        println!("    bit-identical to run : yes (all fields and samples, to_bits)");
        println!("    oracle, sequential   : {:.3} ms", oracle_seq * 1e3);
        println!(
            "    exact best-of-{REPS}      : {:.3} ms  ({speedup:.1}x, floor {CHECK_FLOOR}x)",
            batch_best * 1e3
        );
        println!(
            "    gap to oracle        : droop {:.3} µV, v_final {:.3} µV",
            batch_droop_gap * 1e6,
            batch_final_gap * 1e6
        );
        println!("  sweep of {E2E_LANES} lanes, 5 µs window, dg-engine pool");
        println!("    oracle               : {:.3} ms", oracle_sweep_s * 1e3);
        println!(
            "    exact best-of-3      : {:.3} ms  ({e2e_speedup:.2}x, floor {E2E_FLOOR}x, {lanes_per_sec:.0} lanes/s)",
            sweep_best * 1e3
        );
        println!(
            "    gap to oracle        : droop {:.3} µV",
            sweep_droop_gap * 1e6
        );
    }

    if check {
        failures.extend(floors);
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
