//! Exact transient response of the linear chain model.
//!
//! [`LadderCoeffs`] describes a linear, time-invariant RLC chain driven by
//! a piecewise-linear load current, so its response needs no time-stepping
//! error at all. This module computes it exactly:
//!
//! * **Unit response.** The state starts at the DC solution for the
//!   pre-step load, so its deviation from that point obeys
//!   `y' = A·y + b·Δ·r(t)` with `r` rising from 0 to 1 over the ramp. The
//!   deviation is `Δ` times the response to a one-amp step, which depends
//!   only on the ladder, the step time, the slew and the simulator
//!   settings. [`UnitResponse::compute`] produces that one-amp response
//!   and every lane scales it.
//! * **Energy coordinates.** States are scaled to `√L·δi` and `√C·δv`.
//!   There the stored energy is half the squared Euclidean norm, and with
//!   no input change it never increases (the resistors only dissipate).
//! * **Propagator.** The state is augmented with the load deviation `a`
//!   and its slope `σ`, giving the constant generator `M` of
//!   `[y; a; σ]' = M·[y; a; σ]`. A step of width `h` is exactly
//!   `exp(M·h)` ([`crate::expm`]), memoized per ladder content and width
//!   in [`crate::cache::propagator`]. Each input segment (the ramp, then
//!   the constant post-ramp load) is walked on the sample grid.
//! * **Extremes.** Inside a segment, `w = y' − g·σ` (with `g` the DC state
//!   per amp) obeys `w' = A·w`, so `‖w‖` and `‖A·w‖` never increase. They
//!   bound the die voltage's slope and curvature for the rest of the
//!   segment. Each grid interval is checked against these bounds and
//!   bisected only where it could hold a new minimum or maximum, down to
//!   [`REFINE_FLOOR_S`]. The ladder's own dynamics thus set how finely each
//!   stretch is searched; there is no fine-step setting.
//! * **Horizon.** After the ramp, the deviation from the post-step DC
//!   state bounds the die deviation for all later time:
//!   `|δv_die| ≤ ‖y − g‖ / √C_die`. Once that bound is inside the settle
//!   band the run stops and the final voltage is the analytic DC value.

use crate::cache;
use crate::expm::Mat;
use crate::transient::{LadderCoeffs, TransientSim};
use crate::units::{Amps, Volts};
use std::sync::Arc;

/// Settle band half-width, relative to the step's DC shift (`Δ·R_dc`).
const SETTLE_REL_TOL: f64 = 1e-4;

/// An interval is searched for a new extreme unless its bounds prove it
/// cannot beat the current one by more than this fraction of the DC
/// shift.
const REFINE_REL_TOL: f64 = 1e-6;

/// Extremes are bracketed in time to this width.
const REFINE_FLOOR_S: f64 = 10e-12;

/// The chain model in energy coordinates, augmented with the load
/// deviation and its slope.
#[derive(Debug)]
struct Chain {
    /// State variables of the chain (two per node).
    dim: usize,
    /// `(dim + 2)`-square generator of `[y; a; σ]`.
    generator: Mat,
    /// DC state per amp of load, in energy coordinates.
    dc_per_amp: Vec<f64>,
    /// `1 / √C` of the die node.
    inv_sqrt_c_die: f64,
    /// Series resistance from the source to the die: the DC shift per amp.
    r_dc: f64,
}

impl Chain {
    /// Builds the generator column by column from
    /// [`LadderCoeffs::derivative`], so the exact solver and the reference
    /// recurrence share one model definition.
    fn new(coeffs: &LadderCoeffs) -> Self {
        let dim = 2 * coeffs.nodes();
        let scale: Vec<f64> = coeffs
            .inv_l
            .iter()
            .map(|inv_l| 1.0 / inv_l.sqrt())
            .chain(coeffs.c.iter().map(|c| c.sqrt()))
            .collect();
        let mut generator = Mat::zeros(dim + 2);
        let mut unit = vec![0.0; dim];
        let mut column = vec![0.0; dim];
        for j in 0..=dim {
            // Column `dim` is the load input: zero state, one amp.
            let load = if j == dim { 1.0 } else { 0.0 };
            if j < dim {
                unit[j] = 1.0;
            }
            coeffs.derivative(0.0, &unit, load, &mut column);
            let from = if j < dim { scale[j] } else { 1.0 };
            for (i, (&d, &s)) in column.iter().zip(&scale).enumerate() {
                generator.set(i, j, s * d / from);
            }
            if j < dim {
                unit[j] = 0.0;
            }
        }
        // a' = σ; σ is constant within a segment.
        generator.set(dim, dim + 1, 1.0);
        let dc_per_amp = coeffs
            .steady_state(Volts::ZERO, Amps::new(1.0))
            .iter()
            .zip(&scale)
            .map(|(x, s)| x * s)
            .collect();
        Chain {
            dim,
            generator,
            dc_per_amp,
            inv_sqrt_c_die: scale.last().map_or(0.0, |s| 1.0 / s),
            r_dc: coeffs.r.iter().sum(),
        }
    }

    /// Die-voltage deviation per amp of the augmented state `z`.
    fn die(&self, z: &[f64]) -> f64 {
        z[self.dim - 1] * self.inv_sqrt_c_die
    }

    /// Bound on the die deviation from its post-step DC value, for all
    /// later time, once the load has reached its final value.
    fn settle_bound(&self, z: &[f64]) -> f64 {
        let dev: f64 = z
            .iter()
            .zip(&self.dc_per_amp)
            .map(|(y, g)| (y - g) * (y - g))
            .sum();
        dev.sqrt() * self.inv_sqrt_c_die
    }
}

fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// The pre-step point: zero deviation at t = 0.
const ORIGIN: Extreme = Extreme { u: 0.0, t: 0.0 };

/// An extreme of the unit response: die deviation per amp, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Extreme {
    /// Die-voltage deviation per amp of step, V/A.
    pub(crate) u: f64,
    /// Absolute time, s.
    pub(crate) t: f64,
}

/// The die-voltage response to a one-amp load step.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UnitResponse {
    /// Lowest deviation (the droop of a rising load).
    pub(crate) min: Extreme,
    /// Highest deviation (the droop of a falling load).
    pub(crate) max: Extreme,
    /// Deviation where the run stopped: proven settling or the duration
    /// cap.
    pub(crate) u_end: f64,
    /// Whether the run stopped on proven settling.
    pub(crate) settled: bool,
    /// `(time, deviation)` on the sample grid, when recorded.
    pub(crate) samples: Vec<(f64, f64)>,
}

impl UnitResponse {
    /// The one-amp response of `coeffs` to a step at `at` with ramp
    /// `slew`, under `sim`'s sample interval (`dt · decimate`) and
    /// duration cap. `ladder_key` identifies the ladder content for the
    /// propagator memo; `record` keeps the sampled waveform.
    pub(crate) fn compute(
        coeffs: &LadderCoeffs,
        ladder_key: u64,
        sim: &TransientSim,
        at: f64,
        slew: f64,
        record: bool,
    ) -> Self {
        let t_cap = sim.duration.value();
        let t0 = at.max(0.0);
        let mut out = UnitResponse {
            min: ORIGIN,
            max: ORIGIN,
            u_end: 0.0,
            settled: false,
            samples: Vec::new(),
        };
        if record {
            out.samples.push((0.0, 0.0));
        }
        // A window that ends before the step sees a flat rail and needs no
        // propagator.
        if t0 >= t_cap || t_cap.is_nan() {
            if record && t_cap > 0.0 {
                out.samples.push((t_cap, 0.0));
            }
            return out;
        }
        if record && t0 > 0.0 {
            out.samples.push((t0, 0.0));
        }
        #[allow(clippy::cast_precision_loss)]
        let grid = sim.dt.value() * sim.decimate.max(1) as f64;
        let grid = if grid > 0.0 && grid.is_finite() {
            grid
        } else {
            t_cap - t0
        };
        let chain = Chain::new(coeffs);
        let dim = chain.dim;
        let mut walk = Walk {
            eps: REFINE_REL_TOL * chain.r_dc,
            w: vec![0.0; dim],
            aw: vec![0.0; dim],
            chain,
            ladder_key,
            grid,
            levels: Vec::new(),
            mids: Vec::new(),
            out,
            record,
        };
        let mut z = vec![0.0; dim + 2];
        let mut t = t0;
        let ramp_end = at + slew;
        if slew > 0.0 && t0 < ramp_end {
            // Load progress at t0 is nonzero only for a ramp that began
            // before the window did.
            z[dim] = (t0 - at) / slew;
            z[dim + 1] = 1.0 / slew;
            t = ramp_end.min(t_cap);
            walk.segment(&mut z, t0, t, false);
        }
        if t < t_cap {
            z[dim] = 1.0;
            z[dim + 1] = 0.0;
            walk.segment(&mut z, t, t_cap, true);
        }
        let mut out = walk.out;
        out.u_end = walk.chain.die(&z);
        out
    }

    /// Die voltage and time of the lowest point of a lane stepping by
    /// `delta` amps from the DC voltage `v_initial`: the scaled minimum
    /// for a rising load, the scaled maximum for a falling one.
    pub(crate) fn lane_min(&self, v_initial: f64, delta: f64) -> (f64, f64) {
        let e = if delta > 0.0 {
            self.min
        } else if delta < 0.0 {
            self.max
        } else {
            ORIGIN
        };
        (v_initial + delta * e.u, e.t)
    }
}

/// State of one unit-response computation.
struct Walk {
    chain: Chain,
    ladder_key: u64,
    /// Sample grid interval, s.
    grid: f64,
    /// Propagators by step width: `(width bits, [Φ(w), Φ(w/2), …])`.
    levels: Vec<(u64, Vec<Arc<Mat>>)>,
    /// Extremes closer than this to the current ones are not searched for.
    eps: f64,
    /// Scratch: `w` of the slope bound and `A·w` of the curvature bound.
    w: Vec<f64>,
    aw: Vec<f64>,
    /// Scratch: the midpoint state at each bisection depth.
    mids: Vec<Vec<f64>>,
    out: UnitResponse,
    record: bool,
}

impl Walk {
    fn observe(&mut self, t: f64, u: f64) {
        if u < self.out.min.u {
            self.out.min = Extreme { u, t };
        }
        if u > self.out.max.u {
            self.out.max = Extreme { u, t };
        }
    }

    /// `exp(M · width / 2^halvings)`, memoized.
    fn phi(&mut self, width: f64, halvings: usize) -> Arc<Mat> {
        let bits = width.to_bits();
        let slot = match self.levels.iter().position(|(b, _)| *b == bits) {
            Some(i) => i,
            None => {
                self.levels.push((bits, Vec::new()));
                self.levels.len() - 1
            }
        };
        let (key, generator) = (self.ladder_key, &self.chain.generator);
        let table = &mut self.levels[slot].1;
        while table.len() <= halvings {
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            let h = width * 0.5f64.powi(table.len() as i32);
            table.push(cache::propagator(key, h, || generator.scaled(h).exp()));
        }
        Arc::clone(&table[halvings])
    }

    /// Walks `z` from `start` to `stop` on the sample grid. With `settle`,
    /// stops early at the first grid point where settling is proven.
    fn segment(&mut self, z: &mut Vec<f64>, start: f64, stop: f64, settle: bool) {
        let tol = SETTLE_REL_TOL * self.chain.r_dc;
        let grid = self.grid;
        let full = self.phi(grid, 0);
        let mut next = vec![0.0; z.len()];
        let mut t = start;
        let mut u = self.chain.die(z);
        let mut k = 0u32;
        loop {
            let remaining = stop - t;
            if remaining <= 0.0 || remaining.is_nan() {
                break;
            }
            // The last step takes whatever is left, absorbing rounding so
            // no sliver step follows a grid point that lands just short.
            let (width, t_next) = if remaining > grid * (1.0 + 1e-9) {
                full.mul_vec(z, &mut next);
                (grid, start + f64::from(k + 1) * grid)
            } else {
                self.phi(remaining, 0).mul_vec(z, &mut next);
                (remaining, stop)
            };
            let u_next = self.chain.die(&next);
            self.observe(t_next, u_next);
            if self.record {
                self.out.samples.push((t_next, u_next));
            }
            self.refine(t, z, u, u_next, width, 0);
            std::mem::swap(z, &mut next);
            t = t_next;
            u = u_next;
            k += 1;
            if settle && self.chain.settle_bound(z) <= tol {
                self.out.settled = true;
                break;
            }
        }
    }

    /// Searches `[t0, t0 + width/2^halvings]`, whose ends hold `u0` and
    /// `u1`, for a point beating the current extremes, bisecting only
    /// where the slope and curvature bounds leave room for one.
    fn refine(&mut self, t0: f64, z0: &[f64], u0: f64, u1: f64, width: f64, halvings: usize) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
        let h = width * 0.5f64.powi(halvings as i32);
        if h <= REFINE_FLOOR_S || self.excluded(z0, u0, u1, h) {
            return;
        }
        if self.mids.len() <= halvings {
            self.mids.resize(halvings + 1, Vec::new());
        }
        let mut zm = std::mem::take(&mut self.mids[halvings]);
        zm.resize(z0.len(), 0.0);
        self.phi(width, halvings + 1).mul_vec(z0, &mut zm);
        let um = self.chain.die(&zm);
        let tm = t0 + 0.5 * h;
        self.observe(tm, um);
        self.refine(t0, z0, u0, um, width, halvings + 1);
        self.refine(tm, &zm, um, u1, width, halvings + 1);
        self.mids[halvings] = zm;
    }

    /// Whether the die voltage over an interval of width `h` starting at
    /// state `z0` (ends `u0`, `u1`) provably stays within `eps` of the
    /// current extremes: a Lipschitz bound from the slope first, then,
    /// if that is not enough, the chord-minus-sag bound from the
    /// curvature.
    fn excluded(&mut self, z0: &[f64], u0: f64, u1: f64, h: f64) -> bool {
        let (floor, ceil) = (self.out.min.u - self.eps, self.out.max.u + self.eps);
        let chain = &self.chain;
        let sigma = z0[chain.dim + 1];
        chain.generator.mul_vec(z0, &mut self.w);
        for (wi, gi) in self.w.iter_mut().zip(&chain.dc_per_amp) {
            *wi -= gi * sigma;
        }
        let slope = norm(&self.w) * chain.inv_sqrt_c_die + chain.r_dc * sigma.abs();
        let mid = 0.5 * (u0 + u1);
        let (lo, hi) = (mid - 0.5 * slope * h, mid + 0.5 * slope * h);
        if lo >= floor && hi <= ceil {
            return true;
        }
        // Rows and columns past `dim` are the input; `w` has none.
        chain.generator.mul_vec(&self.w, &mut self.aw);
        let sag = 0.125 * norm(&self.aw) * chain.inv_sqrt_c_die * h * h;
        lo.max(u0.min(u1) - sag) >= floor && hi.min(u0.max(u1) + sag) <= ceil
    }
}
