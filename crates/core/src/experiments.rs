//! The experiment harness: one entry point per figure/table of the paper's
//! evaluation. Each function returns structured rows so the bench binaries
//! can print them and the integration tests can assert the paper's shape.

use crate::architecture::DarkGates;
use dg_cstates::power::{GatingConfig, IdlePowerModel};
use dg_cstates::states::PackageCstate;
use dg_pdn::impedance::ImpedanceProfile;
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_power::units::{Volts, Watts};
use dg_soc::products::Product;
use dg_soc::run::{run_energy, run_graphics, run_spec};
use dg_workloads::energy::{energy_star, ready_mode, EnergyWorkload};
use dg_workloads::graphics::three_dmark_suite;
use dg_workloads::spec::{suite, SpecMode, SpecSuite};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------- Fig. 3

/// One bar of the motivational Fig. 3: the average SPEC gain on Broadwell
/// from a −100 mV guardband reduction, per TDP × suite × mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Row {
    /// TDP level (35/45/65/95 W).
    pub tdp: Watts,
    /// SPECint or SPECfp.
    pub suite: SpecSuite,
    /// base or rate mode.
    pub mode: SpecMode,
    /// Mean performance gain over the unmodified guardband.
    pub gain: f64,
}

/// Runs the Fig. 3 experiment: Broadwell, guardband reduced by 100 mV,
/// four TDP levels, SPECint/fp × base/rate.
///
/// The 16 grid cells are independent, so they fan out over the
/// [`dg_engine`] pool as one flat job list in row order; within a cell the
/// per-benchmark sum stays sequential in suite order, so the result is
/// bit-identical for any thread count.
pub fn fig3() -> Vec<Fig3Row> {
    let mut jobs = Vec::new();
    for tdp in Product::broadwell_tdp_levels() {
        for mode in [SpecMode::Base, SpecMode::Rate] {
            for suite_kind in [SpecSuite::Int, SpecSuite::Fp] {
                jobs.push((tdp, mode, suite_kind));
            }
        }
    }
    dg_engine::par_map(&jobs, |_, &(tdp, mode, suite_kind)| {
        let baseline = Product::broadwell(tdp, Volts::ZERO);
        let reduced = Product::broadwell(tdp, Volts::from_mv(-100.0));
        let benchmarks: Vec<_> = suite()
            .into_iter()
            .filter(|b| b.suite == suite_kind)
            .collect();
        let mut total = 0.0;
        for b in &benchmarks {
            let perf_red = run_spec(&reduced, b, mode).perf;
            let perf_base = run_spec(&baseline, b, mode).perf;
            total += perf_red / perf_base - 1.0;
        }
        Fig3Row {
            tdp,
            suite: suite_kind,
            mode,
            gain: total / benchmarks.len() as f64,
        }
    })
}

/// One point of the Fig. 3 guardband sweep: mean SPEC base gain on
/// Broadwell for a given guardband reduction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig3SweepPoint {
    /// TDP level.
    pub tdp: Watts,
    /// Guardband reduction in millivolts (positive number = reduction).
    pub reduction_mv: f64,
    /// Resulting frequency uplift in MHz (1-core fused ceiling).
    pub uplift_mhz: f64,
    /// Mean SPEC base gain.
    pub gain: f64,
}

/// The Fig. 3 x-axis sweep: performance improvement as the frequency
/// increases, i.e. as the guardband reduction deepens toward the paper's
/// 100 mV operating point. Rows run in (TDP, reduction) order.
///
/// One [`dg_engine`] job per TDP runs that TDP's baseline suite once and
/// shares it across every reduction; each point still sums
/// `reduced / base − 1` over the suite in suite order, so the rows are
/// bit-identical to a fresh baseline per point.
pub fn fig3_sweep() -> Vec<Fig3SweepPoint> {
    let all = suite();
    let per_tdp = dg_engine::par_map(&Product::broadwell_tdp_levels(), |_, &tdp| {
        let baseline = Product::broadwell(tdp, Volts::ZERO);
        let base_perfs: Vec<f64> = all
            .iter()
            .map(|b| run_spec(&baseline, b, SpecMode::Base).perf)
            .collect();
        [25.0, 50.0, 75.0, 100.0].map(|reduction_mv| {
            let reduced = Product::broadwell(tdp, Volts::from_mv(-reduction_mv));
            let gain: f64 = all
                .iter()
                .zip(&base_perfs)
                .map(|(b, base)| run_spec(&reduced, b, SpecMode::Base).perf / base - 1.0)
                .sum::<f64>()
                / all.len() as f64;
            Fig3SweepPoint {
                tdp,
                reduction_mv,
                uplift_mhz: reduced.fmax_1c().as_mhz() - baseline.fmax_1c().as_mhz(),
                gain,
            }
        })
    });
    per_tdp.into_iter().flatten().collect()
}

// ---------------------------------------------------------------- Fig. 4

/// The impedance–frequency comparison of Fig. 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Profile with power-gates in the path.
    pub gated: ImpedanceProfile,
    /// Profile with the gates bypassed.
    pub bypassed: ImpedanceProfile,
    /// Geometric-mean impedance ratio gated/bypassed across the sweep.
    pub mean_ratio: f64,
    /// Ratio of the profiles' peaks.
    pub peak_ratio: f64,
}

/// Runs the Fig. 4 experiment: AC impedance sweep of both topologies.
pub fn fig4() -> Fig4Result {
    let gated = SkylakePdn::build(PdnVariant::Gated).impedance_profile();
    let bypassed = SkylakePdn::build(PdnVariant::Bypassed).impedance_profile();
    let mean_ratio = gated.mean_ratio_over(&bypassed);
    let peak_ratio = gated.peak().1 / bypassed.peak().1;
    Fig4Result {
        gated,
        bypassed,
        mean_ratio,
        peak_ratio,
    }
}

// ---------------------------------------------------------------- Fig. 7

/// One bar of Fig. 7: a benchmark's gain at 91 W.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Which suite it belongs to.
    pub suite: SpecSuite,
    /// Its frequency-scalability factor.
    pub scalability: f64,
    /// DarkGates gain over the gated baseline.
    pub gain: f64,
}

/// The Fig. 7 result: per-benchmark gains at 91 W, base mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Per-benchmark rows, suite order.
    pub rows: Vec<Fig7Row>,
    /// Mean gain across the suite.
    pub average: f64,
    /// Largest gain.
    pub max: f64,
}

/// Runs the Fig. 7 experiment: SPEC base on Skylake-S vs. Skylake-H, 91 W.
///
/// Benchmarks fan out over the [`dg_engine`] pool; rows come back in suite
/// order and the average/max reductions run over that ordered list, so the
/// result is bit-identical for any thread count.
pub fn fig7() -> Fig7Result {
    let tdp = Watts::new(91.0);
    let s = DarkGates::desktop().product(tdp);
    let h = DarkGates::mobile().product(tdp);
    let benchmarks = suite();
    let rows = dg_engine::par_map(&benchmarks, |_, b| {
        let gain =
            run_spec(&s, b, SpecMode::Base).perf / run_spec(&h, b, SpecMode::Base).perf - 1.0;
        Fig7Row {
            benchmark: b.name.to_owned(),
            suite: b.suite,
            scalability: b.scalability,
            gain,
        }
    });
    let average = rows.iter().map(|r| r.gain).sum::<f64>() / rows.len() as f64;
    let max = rows.iter().map(|r| r.gain).fold(0.0, f64::max);
    Fig7Result { rows, average, max }
}

// ---------------------------------------------------------------- Fig. 8

/// One TDP column of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig8Cell {
    /// TDP level.
    pub tdp: Watts,
    /// Mean SPEC base gain.
    pub base_gain: f64,
    /// Mean SPEC rate gain.
    pub rate_gain: f64,
}

/// Runs the Fig. 8 experiment: average SPEC base/rate gains at
/// 35/45/65/91 W.
///
/// Each (TDP, mode) cell is an independent job on the [`dg_engine`] pool
/// (8 jobs instead of 4 threads, so the grid load-balances better); the
/// per-benchmark sum inside a cell stays sequential in suite order, and
/// cells are reassembled into TDP order, so the result is bit-identical
/// for any thread count.
pub fn fig8() -> Vec<Fig8Cell> {
    let tdps = Product::skylake_tdp_levels();
    let mut jobs = Vec::new();
    for &tdp in &tdps {
        for mode in [SpecMode::Base, SpecMode::Rate] {
            jobs.push((tdp, mode));
        }
    }
    let gains = dg_engine::par_map(&jobs, |_, &(tdp, mode)| {
        let s = DarkGates::desktop().product(tdp);
        let h = DarkGates::mobile().product(tdp);
        let all = suite();
        let total: f64 = all
            .iter()
            .map(|b| run_spec(&s, b, mode).perf / run_spec(&h, b, mode).perf - 1.0)
            .sum();
        total / all.len() as f64
    });
    tdps.iter()
        .zip(gains.chunks_exact(2))
        .map(|(&tdp, pair)| Fig8Cell {
            tdp,
            base_gain: pair[0],
            rate_gain: pair[1],
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 9

/// One TDP bar of Fig. 9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Row {
    /// TDP level.
    pub tdp: Watts,
    /// Mean 3DMark FPS degradation of DarkGates vs. the baseline
    /// (positive = slower).
    pub degradation: f64,
}

/// Runs the Fig. 9 experiment: 3DMark on Skylake-S vs. Skylake-H across
/// the TDP levels (one [`dg_engine`] job per TDP, scene sums sequential).
pub fn fig9() -> Vec<Fig9Row> {
    let tdps = Product::skylake_tdp_levels();
    dg_engine::par_map(&tdps, |_, &tdp| {
        let s = DarkGates::desktop().product(tdp);
        let h = DarkGates::mobile().product(tdp);
        let scenes = three_dmark_suite();
        let total: f64 = scenes
            .iter()
            .map(|w| 1.0 - run_graphics(&s, w).fps / run_graphics(&h, w).fps)
            .sum();
        Fig9Row {
            tdp,
            degradation: total / scenes.len() as f64,
        }
    })
}

// --------------------------------------------------------------- Fig. 10

/// One workload group of Fig. 10.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Workload name.
    pub workload: String,
    /// Average power of DarkGates clamped at package C7 (the reference).
    pub dg_c7_power: Watts,
    /// Average power of DarkGates with package C8 (the proposal).
    pub dg_c8_power: Watts,
    /// Average power of the gated baseline at package C7.
    pub non_dg_c7_power: Watts,
    /// Power reduction of DarkGates+C8 vs. DarkGates+C7.
    pub dg_c8_reduction: f64,
    /// Power reduction of Non-DarkGates+C7 vs. DarkGates+C7.
    pub non_dg_reduction: f64,
    /// Whether each configuration meets the program's power limit.
    pub dg_c7_meets_limit: bool,
    /// See [`Fig10Row::dg_c7_meets_limit`].
    pub dg_c8_meets_limit: bool,
    /// See [`Fig10Row::dg_c7_meets_limit`].
    pub non_dg_meets_limit: bool,
}

fn fig10_row(workload: &EnergyWorkload) -> Fig10Row {
    let model = IdlePowerModel::new();
    let bypassed = GatingConfig::skylake(true, 4);
    let gated = GatingConfig::skylake(false, 4);

    let dg_c7 = workload.average_power(&model, &bypassed, PackageCstate::C7);
    let dg_c8 = workload.average_power(&model, &bypassed, PackageCstate::C8);
    let non_dg_c7 = workload.average_power(&model, &gated, PackageCstate::C7);

    Fig10Row {
        workload: workload.name.to_owned(),
        dg_c7_power: dg_c7,
        dg_c8_power: dg_c8,
        non_dg_c7_power: non_dg_c7,
        dg_c8_reduction: 1.0 - dg_c8 / dg_c7,
        non_dg_reduction: 1.0 - non_dg_c7 / dg_c7,
        dg_c7_meets_limit: dg_c7 <= workload.limit,
        dg_c8_meets_limit: dg_c8 <= workload.limit,
        non_dg_meets_limit: non_dg_c7 <= workload.limit,
    }
}

/// Runs the Fig. 10 experiment: ENERGY STAR and RMT average power for
/// DarkGates+C8 and Non-DarkGates+C7, both relative to DarkGates+C7.
pub fn fig10() -> Vec<Fig10Row> {
    vec![fig10_row(&energy_star()), fig10_row(&ready_mode())]
}

// ---------------------------------------------------------------- Tables

/// Regenerates Table 1: every package C-state with its entry conditions.
pub fn table1() -> Vec<(PackageCstate, &'static str)> {
    PackageCstate::ALL
        .iter()
        .map(|s| (*s, s.entry_conditions()))
        .collect()
}

/// The Table 2 system-parameter summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// Desktop product name (the DarkGates part).
    pub desktop: String,
    /// Mobile product name (the gated baseline).
    pub mobile: String,
    /// Core frequency range, GHz.
    pub core_freq_ghz: (f64, f64),
    /// Graphics frequency range, MHz.
    pub gfx_freq_mhz: (f64, f64),
    /// TDP range, W.
    pub tdp_w: (f64, f64),
    /// Core count.
    pub cores: usize,
}

/// Regenerates Table 2 from the product catalog.
pub fn table2() -> Table2 {
    let tdp_hi = Watts::new(91.0);
    let s = DarkGates::desktop().product(tdp_hi);
    let h = DarkGates::mobile().product(tdp_hi);
    Table2 {
        desktop: s.name.clone(),
        mobile: h.name.clone(),
        core_freq_ghz: (s.table_1c.pn().frequency.as_ghz(), h.fmax_1c().as_ghz()),
        gfx_freq_mhz: (
            s.table_gfx.pn().frequency.as_mhz(),
            s.table_gfx.p0().frequency.as_mhz(),
        ),
        tdp_w: (35.0, 91.0),
        cores: s.core_count,
    }
}

// ----------------------------------------------------------- Full sweep

/// Every figure dataset of the evaluation, computed in one pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Fig. 3 grid rows.
    pub fig3: Vec<Fig3Row>,
    /// Fig. 3 guardband-reduction sweep.
    pub fig3_sweep: Vec<Fig3SweepPoint>,
    /// Fig. 4 impedance comparison.
    pub fig4: Fig4Result,
    /// Fig. 7 per-benchmark gains.
    pub fig7: Fig7Result,
    /// Fig. 8 TDP sweep.
    pub fig8: Vec<Fig8Cell>,
    /// Fig. 9 graphics sweep.
    pub fig9: Vec<Fig9Row>,
    /// Fig. 10 energy workloads.
    pub fig10: Vec<Fig10Row>,
}

/// Runs every figure experiment once and returns the combined datasets.
///
/// This is the single entry point the `validate` and `all` binaries use so
/// a full evaluation computes each dataset exactly once. The figures run
/// in sequence — each one already saturates the [`dg_engine`] pool
/// internally, and the shared substrate caches warmed by the first figure
/// (impedance profiles, guardband managers, finished products) feed all
/// later ones.
pub fn evaluate_all() -> Evaluation {
    Evaluation {
        fig3: fig3(),
        fig3_sweep: fig3_sweep(),
        fig4: fig4(),
        fig7: fig7(),
        fig8: fig8(),
        fig9: fig9(),
        fig10: fig10(),
    }
}

// ------------------------------------------------------------- Energy API

/// Convenience wrapper running both energy workloads on a full product
/// (exercising the `run_energy` path rather than the raw models).
pub fn energy_compliance(product: &Product) -> Vec<(String, Watts, bool)> {
    [energy_star(), ready_mode()]
        .into_iter()
        .map(|w| {
            let r = run_energy(product, &w);
            (r.workload, r.avg_power, r.meets_limit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full-scale experiment runs live in `tests/experiments.rs`; here we
    // keep the cheap structural checks.

    #[test]
    fn fig4_ratio_approximately_two() {
        let r = fig4();
        assert!((1.5..3.0).contains(&r.mean_ratio), "mean {}", r.mean_ratio);
        assert!((1.3..2.5).contains(&r.peak_ratio), "peak {}", r.peak_ratio);
    }

    #[test]
    fn fig10_reproduces_paper_relations() {
        let rows = fig10();
        assert_eq!(rows.len(), 2);
        let es = &rows[0];
        let rmt = &rows[1];
        assert!((0.25..0.42).contains(&es.dg_c8_reduction), "{es:?}");
        assert!((0.55..0.78).contains(&rmt.dg_c8_reduction), "{rmt:?}");
        for r in &rows {
            assert!(!r.dg_c7_meets_limit, "{}: C7 should miss", r.workload);
            assert!(r.dg_c8_meets_limit, "{}: C8 should meet", r.workload);
            assert!(r.non_dg_meets_limit);
            // Non-DarkGates edges out DarkGates+C8.
            assert!(r.non_dg_reduction >= r.dg_c8_reduction);
        }
    }

    #[test]
    fn table1_lists_all_states() {
        let t = table1();
        assert_eq!(t.len(), 8);
        assert_eq!(t[0].0, PackageCstate::C0);
        assert_eq!(t[7].0, PackageCstate::C10);
    }

    #[test]
    fn table2_matches_catalog() {
        let t = table2();
        assert_eq!(t.cores, 4);
        assert!((t.core_freq_ghz.0 - 0.8).abs() < 1e-9);
        assert!((t.core_freq_ghz.1 - 4.2).abs() < 1e-9);
        assert!(t.gfx_freq_mhz.1 >= 1150.0);
        assert!(t.desktop.contains("DarkGates"));
    }
}
