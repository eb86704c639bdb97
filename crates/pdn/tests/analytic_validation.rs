//! Numerical validation: the exact transient solver against closed-form
//! series-RLC theory.
//!
//! A single-stage ladder (source → R–L branch → C node → load) is the
//! classic series RLC circuit. For a current step ΔI at the node, the
//! voltage deviation obeys a damped second-order response with
//!
//! * natural frequency `ω₀ = 1/√(LC)`,
//! * damping ratio `ζ = (R/2)·√(C/L)`,
//!
//! For a *current* step drawn from the capacitor node, the voltage rings
//! around the new IR level; at light damping the first droop peaks a
//! quarter period after the step (`t_peak ≈ π/(2·ω_d)`) with magnitude
//! `ΔV_peak ≈ ΔI·(R + √(L/C)·exp(−ζ·π/2))`. The simulator must reproduce
//! these approximations to their own accuracy, and the exact closed-form
//! waveform to within rounding.

use dg_pdn::elements::{CapBank, SeriesBranch};
use dg_pdn::ladder::{Ladder, VrOutputModel};
use dg_pdn::transient::{LoadStep, TransientSim};
use dg_pdn::units::{Amps, Farads, Henries, Hertz, Ohms, Seconds, Volts};

/// Builds a single-section ladder with the VR modeled as an almost-ideal
/// source (tiny load-line, huge bandwidth) so the section dominates.
fn rlc_ladder(r_mohm: f64, l_ph: f64, c_nf: f64) -> Ladder {
    let vr = VrOutputModel::new(Ohms::from_mohm(1e-3), Hertz::from_ghz(100.0)).unwrap();
    let mut b = Ladder::builder("rlc", vr);
    b.series_with_decap(
        "section",
        SeriesBranch::new(Ohms::from_mohm(r_mohm), Henries::from_ph(l_ph)).unwrap(),
        CapBank::new(Farads::from_nf(c_nf), Ohms::ZERO, Henries::ZERO, 1).unwrap(),
    );
    b.build().unwrap()
}

struct Theory {
    zeta: f64,
    omega0: f64,
    r: f64,
    char_imp: f64,
}

fn theory(r_mohm: f64, l_ph: f64, c_nf: f64) -> Theory {
    let r = r_mohm * 1e-3;
    let l = l_ph * 1e-12;
    let c = c_nf * 1e-9;
    Theory {
        zeta: (r / 2.0) * (c / l).sqrt(),
        omega0: 1.0 / (l * c).sqrt(),
        r,
        char_imp: (l / c).sqrt(),
    }
}

fn run_step(ladder: &Ladder, delta_a: f64) -> dg_pdn::transient::TransientResult {
    let sim = TransientSim {
        source: Volts::new(1.0),
        dt: Seconds::from_ns(0.01),
        // A cap past the lightest-damped case's settling.
        duration: Seconds::from_us(20.0),
        decimate: 8,
    };
    let step = LoadStep::step(Amps::ZERO, Amps::new(delta_a), Seconds::from_us(0.5));
    sim.run(ladder, step)
}

#[test]
fn underdamped_peak_matches_theory() {
    // R = 0.5 mΩ, L = 100 pH, C = 500 nF → ζ ≈ 0.018 (very underdamped).
    let (r, l, c) = (0.5, 100.0, 500.0);
    let th = theory(r, l, c);
    assert!(th.zeta < 0.1, "test expects light damping, ζ = {}", th.zeta);

    let ladder = rlc_ladder(r, l, c);
    let delta = 10.0;
    let result = run_step(&ladder, delta);

    // First droop at a quarter period: IR level plus the decayed
    // characteristic-impedance swing.
    let decay = (-th.zeta * std::f64::consts::FRAC_PI_2).exp();
    let expected = delta * (th.r + th.char_imp * decay);
    let measured = result.droop().value();
    let err = (measured - expected).abs() / expected;
    assert!(
        err < 0.08,
        "droop {measured:.6} V vs theory {expected:.6} V (err {err:.3})"
    );

    // Peak time ≈ π/(2·ω_d) after the step.
    let omega_d = th.omega0 * (1.0 - th.zeta * th.zeta).sqrt();
    let t_peak_theory = std::f64::consts::FRAC_PI_2 / omega_d;
    let t_peak_measured = result.t_min.value() - 0.5e-6;
    assert!(
        (t_peak_measured - t_peak_theory).abs() < 0.2 * t_peak_theory,
        "t_peak {t_peak_measured:.3e} vs theory {t_peak_theory:.3e}"
    );
}

#[test]
fn overdamped_step_has_no_overshoot() {
    // R = 20 mΩ, L = 20 pH, C = 2000 nF → ζ ≈ 3.2 (overdamped).
    let (r, l, c) = (20.0, 20.0, 2000.0);
    let th = theory(r, l, c);
    assert!(th.zeta > 1.0);

    let ladder = rlc_ladder(r, l, c);
    let delta = 10.0;
    let result = run_step(&ladder, delta);

    // No resonant overshoot: the droop settles to exactly the IR drop.
    let ir = delta * (th.r + 1e-6); // section R + the tiny source R
    let measured = result.droop().value();
    assert!(
        (measured - ir).abs() / ir < 0.05,
        "droop {measured:.6} vs IR {ir:.6}"
    );
    // Minimum equals the final value: monotone approach.
    assert!((result.v_min - result.v_final).abs().value() < 1e-4);
}

#[test]
fn dc_shift_is_exact_for_any_damping() {
    for (r, l, c) in [
        (0.5, 100.0, 500.0),
        (2.0, 50.0, 1000.0),
        (5.0, 20.0, 2000.0),
    ] {
        let ladder = rlc_ladder(r, l, c);
        let delta = 20.0;
        let result = run_step(&ladder, delta);
        let expected = delta * (r * 1e-3 + 1e-6);
        let measured = result.dc_shift().value();
        assert!(
            (measured - expected).abs() < 0.02 * expected,
            "R={r}: dc shift {measured:.6} vs {expected:.6}"
        );
    }
}

#[test]
fn impedance_peak_matches_rlc_resonance() {
    // The AC analyzer's resonant peak must sit at f₀ = ω₀/2π for a lightly
    // damped section.
    use dg_pdn::impedance::ImpedanceAnalyzer;
    let (r, l, c) = (0.2, 100.0, 500.0);
    let th = theory(r, l, c);
    let f0 = th.omega0 / (2.0 * std::f64::consts::PI);
    let ladder = rlc_ladder(r, l, c);
    let analyzer =
        ImpedanceAnalyzer::new(Hertz::new(f0 / 30.0), Hertz::new(f0 * 30.0), 1200).unwrap();
    let profile = analyzer.profile(&ladder);
    let (f_peak, _) = profile.peak();
    assert!(
        (f_peak.value() - f0).abs() < 0.1 * f0,
        "peak at {} vs theory {f0}",
        f_peak.value()
    );
}

/// The exact deviation `v(t) − v(0)` of the section's node after an ideal
/// current step `delta` at `t = 0`, underdamped case: with `α = R/2L`,
/// `ω_d = √(1/LC − α²)`, the error `e = v + R·Δ` obeys
/// `e'' + 2α·e' + ω₀²·e = 0` from `e(0) = R·Δ`, `e'(0) = −Δ/C`.
fn closed_form(r: f64, l: f64, c: f64, delta: f64, t: f64) -> f64 {
    let alpha = r / (2.0 * l);
    let omega_d = (1.0 / (l * c) - alpha * alpha).sqrt();
    let a = r * delta;
    let b = (-delta / c + alpha * a) / omega_d;
    -r * delta + (-alpha * t).exp() * (a * (omega_d * t).cos() + b * (omega_d * t).sin())
}

#[test]
fn underdamped_waveform_and_droop_match_closed_form() {
    let (r_mohm, l_ph, c_nf) = (0.5, 100.0, 500.0);
    let ladder = rlc_ladder(r_mohm, l_ph, c_nf);
    // The section plus the VR's own load-line and output inductance,
    // exactly as the chain model lumps them.
    let vr = ladder.vr();
    let r = r_mohm * 1e-3 + vr.loadline.value();
    let l = l_ph * 1e-12 + vr.equivalent_inductance();
    let c = c_nf * 1e-9;
    let delta = 10.0;
    let result = run_step(&ladder, delta);
    let t_step = 0.5e-6;

    // Every sample after the step sits on the closed-form waveform.
    let v0 = result.v_initial.value();
    for &(t, v) in &result.samples {
        if t.value() > t_step {
            let want = closed_form(r, l, c, delta, t.value() - t_step);
            let got = v.value() - v0;
            assert!(
                (got - want).abs() < 1e-9,
                "t = {:e}: {got:e} vs closed form {want:e}",
                t.value()
            );
        }
    }

    // The first trough is the global minimum: e' = 0 where
    // tan(ω_d·t) = (ω_d·B − α·A)/(α·B + ω_d·A).
    let alpha = r / (2.0 * l);
    let omega_d = (1.0 / (l * c) - alpha * alpha).sqrt();
    let a = r * delta;
    let b = (-delta / c + alpha * a) / omega_d;
    let phase = (omega_d * b - alpha * a).atan2(alpha * b + omega_d * a);
    let first = phase.rem_euclid(std::f64::consts::PI) / omega_d;
    let (t_min, v_min) = (0..4)
        .map(|k| {
            let t = first + f64::from(k) * std::f64::consts::PI / omega_d;
            (t, closed_form(r, l, c, delta, t))
        })
        .fold(
            (0.0, 0.0),
            |best, cur| if cur.1 < best.1 { cur } else { best },
        );
    assert!(t_min > 0.0 && v_min < -r * delta, "a ringing first trough");
    let droop = result.droop().value();
    assert!(
        (droop + v_min).abs() < 1e-7,
        "droop {droop:e} vs closed form {:e}",
        -v_min
    );
    let t_measured = result.t_min.value() - t_step;
    assert!(
        (t_measured - t_min).abs() < 20e-12,
        "t_min {t_measured:e} vs closed form {t_min:e}"
    );
    // Settled: the final voltage is the exact DC value.
    assert!((result.dc_shift().value() - r * delta).abs() < 1e-12);
}
