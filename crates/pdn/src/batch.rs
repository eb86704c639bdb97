//! Batched transient runs: lanes that share one unit response.
//!
//! The chain model is linear, so a lane's deviation from its pre-step DC
//! point is its step size times the one-amp response for its step time and
//! slew ([`crate::exact`]). [`TransientSim::run_batch`] computes that
//! response once per distinct `(at, slew)` in the batch and scales it for
//! every lane; [`TransientSim::run`] is a one-lane batch, so a lane of any
//! batch is bit-identical to a scalar run.

use crate::cache;
use crate::exact::UnitResponse;
use crate::ladder::Ladder;
use crate::transient::{LadderCoeffs, LoadStep, TransientResult, TransientSim};
use crate::units::{Amps, Seconds, Volts};

impl TransientSim {
    /// Runs `steps.len()` load-step scenarios against `ladder`, returning
    /// one [`TransientResult`] per input step, in input order.
    ///
    /// Lanes with the same step time and slew share one unit response, so
    /// a batch costs one exact simulation per distinct `(at, slew)` plus a
    /// scaled copy of the waveform per lane. An empty slice returns an
    /// empty vector.
    #[must_use]
    pub fn run_batch(&self, ladder: &Ladder, steps: &[LoadStep]) -> Vec<TransientResult> {
        let coeffs = cache::ladder_coeffs(ladder);
        let (responses, shared) = self.unit_responses(ladder, &coeffs, steps, true);
        steps
            .iter()
            .zip(shared)
            .map(|(step, i)| self.lane(ladder, &coeffs, &responses[i], step))
            .collect()
    }

    /// The worst droop of each step: `run_batch(ladder, steps)` reduced to
    /// [`TransientResult::droop`], bit for bit, without building the
    /// per-lane waveforms.
    #[must_use]
    pub fn droops(&self, ladder: &Ladder, steps: &[LoadStep]) -> Vec<Volts> {
        let coeffs = cache::ladder_coeffs(ladder);
        let (responses, shared) = self.unit_responses(ladder, &coeffs, steps, false);
        steps
            .iter()
            .zip(shared)
            .map(|(step, i)| {
                let v_initial = initial_voltage(ladder, &coeffs, self.source, step.from);
                lane_droop(&responses[i], v_initial, step)
            })
            .collect()
    }

    /// One unit response per distinct `(at, slew)` of `steps`, and the
    /// index of each step's response.
    fn unit_responses(
        &self,
        ladder: &Ladder,
        coeffs: &LadderCoeffs,
        steps: &[LoadStep],
        record: bool,
    ) -> (Vec<UnitResponse>, Vec<usize>) {
        let key = cache::ladder_key(ladder);
        let mut shapes: Vec<(u64, u64)> = Vec::new();
        let mut responses = Vec::new();
        let shared = steps
            .iter()
            .map(|step| {
                let shape = (step.at.value().to_bits(), step.slew.value().to_bits());
                shapes.iter().position(|s| *s == shape).unwrap_or_else(|| {
                    shapes.push(shape);
                    responses.push(UnitResponse::compute(
                        coeffs,
                        key,
                        self,
                        step.at.value(),
                        step.slew.value(),
                        record,
                    ));
                    responses.len() - 1
                })
            })
            .collect();
        (responses, shared)
    }

    /// Scales `response` to the lane `step`.
    fn lane(
        &self,
        ladder: &Ladder,
        coeffs: &LadderCoeffs,
        response: &UnitResponse,
        step: &LoadStep,
    ) -> TransientResult {
        let v_initial = initial_voltage(ladder, coeffs, self.source, step.from);
        let delta = (step.to - step.from).value();
        let (v_min, t_min) = response.lane_min(v_initial, delta);
        let v_final = if response.settled {
            coeffs.die_steady_voltage(self.source, step.to)
        } else {
            v_initial + delta * response.u_end
        };
        TransientResult {
            samples: response
                .samples
                .iter()
                .map(|&(t, u)| (Seconds::new(t), Volts::new(v_initial + delta * u)))
                .collect(),
            v_min: Volts::new(v_min),
            t_min: Seconds::new(t_min),
            v_initial: Volts::new(v_initial),
            v_final: Volts::new(v_final),
        }
    }
}

/// The droop of the lane `step` from `response`, bit-identical to
/// [`TransientResult::droop`] of the same lane's full result.
fn lane_droop(response: &UnitResponse, v_initial: f64, step: &LoadStep) -> Volts {
    let (v_min, _) = response.lane_min(v_initial, (step.to - step.from).value());
    (Volts::new(v_initial) - Volts::new(v_min)).max(Volts::ZERO)
}

/// The die's DC voltage under the pre-step load `from`, through the
/// operating-point cache (sweeps share one quiescent point).
fn initial_voltage(ladder: &Ladder, coeffs: &LadderCoeffs, source: Volts, from: Amps) -> f64 {
    cache::dc_steady_state(ladder, source.value(), from.value(), || {
        coeffs.steady_state(source, from)
    })
    .last()
    .copied()
    .unwrap_or_else(|| source.value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{CapBank, SeriesBranch};
    use crate::ladder::VrOutputModel;
    use crate::units::{Farads, Henries, Hertz, Ohms};

    fn small_ladder() -> Ladder {
        let vr = VrOutputModel::new(Ohms::from_mohm(1.6), Hertz::new(300e3)).unwrap();
        let mut b = Ladder::builder("t", vr);
        b.series_with_decap(
            "board",
            SeriesBranch::new(Ohms::from_mohm(0.3), Henries::from_ph(150.0)).unwrap(),
            CapBank::new(
                Farads::from_uf(500.0),
                Ohms::from_mohm(5.0),
                Henries::from_nh(2.0),
                1,
            )
            .unwrap(),
        );
        b.series_with_decap(
            "die",
            SeriesBranch::new(Ohms::from_mohm(0.4), Henries::from_ph(20.0)).unwrap(),
            CapBank::new(
                Farads::from_nf(200.0),
                Ohms::from_mohm(0.3),
                Henries::from_ph(1.0),
                1,
            )
            .unwrap(),
        );
        b.build().unwrap()
    }

    fn assert_results_bit_identical(a: &TransientResult, b: &TransientResult) {
        assert_eq!(a.v_initial.value().to_bits(), b.v_initial.value().to_bits());
        assert_eq!(a.v_final.value().to_bits(), b.v_final.value().to_bits());
        assert_eq!(a.v_min.value().to_bits(), b.v_min.value().to_bits());
        assert_eq!(a.t_min.value().to_bits(), b.t_min.value().to_bits());
        assert_eq!(a.samples.len(), b.samples.len());
        for ((ta, va), (tb, vb)) in a.samples.iter().zip(&b.samples) {
            assert_eq!(ta.value().to_bits(), tb.value().to_bits());
            assert_eq!(va.value().to_bits(), vb.value().to_bits());
        }
    }

    #[test]
    fn empty_batch_returns_empty() {
        let sim = TransientSim::droop_capture(Volts::new(1.0));
        assert!(sim.run_batch(&small_ladder(), &[]).is_empty());
    }

    #[test]
    fn batch_matches_scalar_lane_for_lane() {
        let ladder = small_ladder();
        let sim = TransientSim {
            source: Volts::new(1.05),
            dt: Seconds::from_ns(0.5),
            duration: Seconds::from_us(20.0),
            decimate: 64,
        };
        // Two slews and a null step: lanes share a unit response only
        // within their (at, slew) group.
        let steps: Vec<LoadStep> = [
            (2.0, 10.0),
            (45.0, 3.0),
            (0.0, 10.0),
            (18.0, 3.0),
            (30.0, 10.0),
        ]
        .iter()
        .map(|&(delta, slew_ns)| LoadStep {
            from: Amps::new(5.0),
            to: Amps::new(5.0 + delta),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(slew_ns),
        })
        .collect();
        let batch = sim.run_batch(&ladder, &steps);
        assert_eq!(batch.len(), steps.len());
        for (step, got) in steps.iter().zip(&batch) {
            let scalar = sim.run(&ladder, *step);
            assert_results_bit_identical(&scalar, got);
        }
    }

    #[test]
    fn single_lane_batch_matches_scalar() {
        let ladder = small_ladder();
        let sim = TransientSim::droop_capture(Volts::new(1.0));
        let step = LoadStep::step(Amps::new(1.0), Amps::new(40.0), Seconds::from_us(1.0));
        let batch = sim.run_batch(&ladder, &[step]);
        assert_eq!(batch.len(), 1);
        assert_results_bit_identical(&sim.run(&ladder, step), &batch[0]);
    }

    #[test]
    fn final_sample_timestamps_are_unique() {
        let ladder = small_ladder();
        let sim = TransientSim {
            source: Volts::new(1.0),
            dt: Seconds::from_ns(0.5),
            duration: Seconds::from_us(30.0),
            decimate: 1,
        };
        let step = LoadStep {
            from: Amps::new(5.0),
            to: Amps::new(25.0),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(10.0),
        };
        for r in sim.run_batch(&ladder, &[step]) {
            for pair in r.samples.windows(2) {
                assert!(
                    pair[0].0.value() < pair[1].0.value(),
                    "sample timestamps not increasing at {}",
                    pair[0].0.value()
                );
            }
        }
    }
}
