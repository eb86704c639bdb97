//! The exact transient solver against a fine-step RK4 oracle, and the
//! metamorphic properties an exact solution of a linear model must have.
//!
//! The oracle ([`dg_pdn::oracle::rk4`]) integrates the same chain model at
//! 0.01 ns, run past settling. The metamorphic checks hold the physics
//! fixed and move only solver settings (step time, duration cap, sample
//! grid) or scale the step: a served droop must not follow the settings,
//! and the model is linear in the step.

use dg_pdn::elements::{CapBank, SeriesBranch};
use dg_pdn::ladder::{Ladder, VrOutputModel};
use dg_pdn::oracle::rk4;
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pdn::transient::{LoadStep, TransientSim};
use dg_pdn::units::{Amps, Farads, Henries, Hertz, Ohms, Seconds, Volts};

/// Largest droop or final-voltage difference any check here accepts.
const TOL_V: f64 = 10e-6;

fn ladders() -> [(PdnVariant, Ladder); 2] {
    [PdnVariant::Gated, PdnVariant::Bypassed].map(|v| (v, SkylakePdn::build(v).ladder))
}

fn step(delta_a: f64, slew_ns: f64) -> LoadStep {
    LoadStep {
        from: Amps::new(10.0),
        to: Amps::new(10.0 + delta_a),
        at: Seconds::from_us(1.0),
        slew: Seconds::from_ns(slew_ns),
    }
}

fn sim() -> TransientSim {
    TransientSim::droop_capture(Volts::new(1.0))
}

/// A lightly damped single RLC section (ζ ≈ 0.018) behind an almost ideal
/// source: it rings far above its pre-step level after a load step.
fn ringing_ladder() -> Ladder {
    let vr = VrOutputModel::new(Ohms::from_mohm(1e-3), Hertz::from_ghz(100.0)).unwrap();
    let mut b = Ladder::builder("rlc", vr);
    b.series_with_decap(
        "section",
        SeriesBranch::new(Ohms::from_mohm(0.5), Henries::from_ph(100.0)).unwrap(),
        CapBank::new(Farads::from_nf(500.0), Ohms::ZERO, Henries::ZERO, 1).unwrap(),
    );
    b.build().unwrap()
}

#[test]
fn matches_fine_rk4_oracle_on_both_ladders() {
    let cases: Vec<(PdnVariant, Ladder, f64)> = ladders()
        .into_iter()
        .flat_map(|(v, l)| [0.0, 2.0, 15.0].map(|slew| (v, l.clone(), slew)))
        .collect();
    // Each oracle run is ten million RK4 steps; spread them over the pool.
    let failures: Vec<String> = dg_engine::par_map(&cases, |_, (variant, ladder, slew)| {
        let exact = sim().run(ladder, step(49.0, *slew));
        let oracle = rk4(
            ladder,
            Volts::new(1.0),
            step(49.0, *slew),
            Seconds::from_ns(0.01),
            Seconds::from_us(100.0),
        );
        let droop_gap = (exact.droop() - oracle.droop()).value().abs();
        let final_gap = (exact.v_final - oracle.v_final).value().abs();
        (droop_gap >= TOL_V || final_gap >= TOL_V).then(|| {
            format!(
                "{variant:?}, slew {slew} ns: droop {} vs oracle {} ({droop_gap:e} V), \
                 v_final {} vs oracle {} ({final_gap:e} V)",
                exact.droop(),
                oracle.droop(),
                exact.v_final,
                oracle.v_final
            )
        })
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn droop_ignores_step_time_duration_cap_and_sample_grid() {
    for (variant, ladder) in ladders() {
        for slew in [0.0, 2.0] {
            let base = sim().run(&ladder, step(49.0, slew));
            assert!(
                base.samples.last().is_some_and(|s| s.0 < sim().duration),
                "{variant:?}: the served cap must end past settling"
            );
            let shifted = sim().run(
                &ladder,
                LoadStep {
                    at: Seconds::from_us(3.7),
                    ..step(49.0, slew)
                },
            );
            let longer = TransientSim {
                duration: Seconds::from_us(1000.0),
                ..sim()
            }
            .run(&ladder, step(49.0, slew));
            let finer = TransientSim {
                dt: Seconds::from_ns(0.05),
                ..sim()
            }
            .run(&ladder, step(49.0, slew));
            let coarse_grid = TransientSim {
                decimate: 500,
                ..sim()
            }
            .run(&ladder, step(49.0, slew));
            let fine_grid = TransientSim {
                decimate: 16,
                ..sim()
            }
            .run(&ladder, step(49.0, slew));
            for (what, other) in [
                ("shifted step time", &shifted),
                ("longer duration cap", &longer),
                ("halved dt", &finer),
                ("decimate 500", &coarse_grid),
                ("decimate 16", &fine_grid),
            ] {
                let gap = (other.droop() - base.droop()).value().abs();
                assert!(
                    gap < TOL_V,
                    "{variant:?}, slew {slew} ns, {what}: droop moved by {gap:e} V"
                );
                let final_gap = (other.v_final - base.v_final).value().abs();
                assert!(
                    final_gap < TOL_V,
                    "{variant:?}, slew {slew} ns, {what}: v_final moved by {final_gap:e} V"
                );
            }
        }
    }
}

#[test]
fn droop_is_linear_in_the_step() {
    for (variant, ladder) in ladders() {
        let base = sim().run(&ladder, step(20.0, 2.0)).droop().value();
        for k in [0.5, 2.0, 3.7] {
            let scaled = sim().run(&ladder, step(20.0 * k, 2.0)).droop().value();
            let rel = (scaled - k * base).abs() / (k * base);
            assert!(
                rel < 1e-12,
                "{variant:?}: droop({k}·Δ) = {scaled} vs {k}·droop(Δ) = {} (rel {rel:e})",
                k * base
            );
        }
    }
}

#[test]
fn negative_step_reports_the_overshoot() {
    let ladder = ringing_ladder();
    let sim = TransientSim {
        source: Volts::new(1.0),
        dt: Seconds::from_ns(0.1),
        duration: Seconds::from_us(10.0),
        decimate: 8,
    };
    let rise = LoadStep::step(Amps::new(20.0), Amps::new(30.0), Seconds::from_us(0.5));
    let fall = LoadStep {
        to: Amps::new(10.0),
        ..rise
    };
    let droop = sim.run(&ladder, fall).droop().value();
    // The rail rings above its pre-step level after the rising step; a
    // falling step of the same size dips below it by exactly as much.
    let oracle_rise = rk4(
        &ladder,
        sim.source,
        rise,
        Seconds::from_ns(0.01),
        sim.duration,
    );
    let overshoot = (oracle_rise.v_max - oracle_rise.v_initial).value();
    assert!(overshoot > 1e-3, "the section must ring: {overshoot}");
    assert!(
        (droop - overshoot).abs() < TOL_V,
        "falling-step droop {droop} vs rising-step overshoot {overshoot}"
    );
    let oracle_fall = rk4(
        &ladder,
        sim.source,
        fall,
        Seconds::from_ns(0.01),
        sim.duration,
    );
    assert!(
        (droop - oracle_fall.droop().value()).abs() < TOL_V,
        "falling-step droop {droop} vs oracle {}",
        oracle_fall.droop()
    );
}
