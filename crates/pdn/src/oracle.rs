//! Fixed-step RK4 reference for the exact transient solver.
//!
//! Integrates [`LadderCoeffs::derivative`] with classical RK4 from the DC
//! steady state and tracks the die voltage's extremes at every step. It is
//! the oracle the exact solver is validated and benchmarked against; no
//! served number comes from it. Its accuracy is whatever `dt` and
//! `horizon` buy: the solver tests run it at 0.01 ns to past settling.

use crate::ladder::Ladder;
use crate::transient::{LadderCoeffs, LoadStep};
use crate::units::{Seconds, Volts};

/// What one reference run saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rk4Run {
    /// Die voltage before the step.
    pub v_initial: Volts,
    /// Lowest die voltage over the run.
    pub v_min: Volts,
    /// When the lowest die voltage occurred.
    pub t_min: Seconds,
    /// Highest die voltage over the run.
    pub v_max: Volts,
    /// Die voltage at the horizon.
    pub v_final: Volts,
}

impl Rk4Run {
    /// Worst droop below the pre-step level, as
    /// [`crate::transient::TransientResult::droop`] defines it.
    #[must_use]
    pub fn droop(&self) -> Volts {
        (self.v_initial - self.v_min).max(Volts::ZERO)
    }
}

/// Integrates `step` on `ladder`, with the VR at `source`, by RK4 at a
/// fixed `dt` from t = 0 until `horizon`.
#[must_use]
pub fn rk4(
    ladder: &Ladder,
    source: Volts,
    step: LoadStep,
    dt: Seconds,
    horizon: Seconds,
) -> Rk4Run {
    let coeffs = LadderCoeffs::from_ladder(ladder);
    let dim = 2 * coeffs.nodes();
    let die = dim - 1;
    let src = source.value();
    let h = dt.value();
    let mut x = coeffs.steady_state(source, step.from);
    let (mut k1, mut k2, mut k3, mut k4, mut tmp) = (
        vec![0.0; dim],
        vec![0.0; dim],
        vec![0.0; dim],
        vec![0.0; dim],
        vec![0.0; dim],
    );
    let v_initial = x[die];
    let (mut v_min, mut t_min, mut v_max) = (v_initial, 0.0, v_initial);
    let load = |t: f64| step.current_at(Seconds::new(t)).value();
    // A step count is a small positive ratio of two durations.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let steps = (horizon.value() / h).ceil() as u64;
    for s in 0..steps {
        #[allow(clippy::cast_precision_loss)]
        let t = s as f64 * h;
        coeffs.derivative(src, &x, load(t), &mut k1);
        axpy(&x, &k1, 0.5 * h, &mut tmp);
        coeffs.derivative(src, &tmp, load(t + 0.5 * h), &mut k2);
        axpy(&x, &k2, 0.5 * h, &mut tmp);
        coeffs.derivative(src, &tmp, load(t + 0.5 * h), &mut k3);
        axpy(&x, &k3, h, &mut tmp);
        coeffs.derivative(src, &tmp, load(t + h), &mut k4);
        for ((((xi, a), b), c), d) in x.iter_mut().zip(&k1).zip(&k2).zip(&k3).zip(&k4) {
            *xi += h / 6.0 * (a + 2.0 * b + 2.0 * c + d);
        }
        let v = x[die];
        if v < v_min {
            v_min = v;
            t_min = t + h;
        }
        v_max = v_max.max(v);
    }
    Rk4Run {
        v_initial: Volts::new(v_initial),
        v_min: Volts::new(v_min),
        t_min: Seconds::new(t_min),
        v_max: Volts::new(v_max),
        v_final: Volts::new(x[die]),
    }
}

/// `out = x + a · scale`.
fn axpy(x: &[f64], a: &[f64], scale: f64, out: &mut [f64]) {
    for ((o, xi), ai) in out.iter_mut().zip(x).zip(a) {
        *o = xi + ai * scale;
    }
}
