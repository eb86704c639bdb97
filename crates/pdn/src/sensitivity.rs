//! Impedance sensitivity analysis.
//!
//! Which PDN element should a designer spend budget on? This module
//! computes the relative sensitivity of the peak impedance (and of the
//! impedance at any chosen frequency) to each element value — the analysis
//! the related work (Engin, TEMC 2010; paper Sec. 8) performs to optimize
//! delivery networks against a target impedance.
//!
//! Sensitivities are logarithmic finite differences:
//! `S = (ΔZ/Z) / (Δp/p)`, evaluated with a small relative perturbation.

use crate::didt::DidtEvent;
use crate::impedance::ImpedanceAnalyzer;
use crate::ladder::Ladder;
use crate::transient::{LoadStep, TransientSim};
use crate::units::{Amps, Hertz, Ohms, Seconds, Volts};
use serde::{Deserialize, Serialize};

/// Relative perturbation used for the finite difference.
const REL_DELTA: f64 = 0.01;

/// Which element of a stage is perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElementKind {
    /// The series resistance.
    SeriesR,
    /// The series inductance.
    SeriesL,
    /// The shunt bank's total capacitance.
    ShuntC,
    /// The shunt bank's ESR.
    ShuntEsr,
}

impl ElementKind {
    /// All perturbable kinds.
    pub const ALL: [ElementKind; 4] = [
        ElementKind::SeriesR,
        ElementKind::SeriesL,
        ElementKind::ShuntC,
        ElementKind::ShuntEsr,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ElementKind::SeriesR => "series R",
            ElementKind::SeriesL => "series L",
            ElementKind::ShuntC => "shunt C",
            ElementKind::ShuntEsr => "shunt ESR",
        }
    }
}

/// One sensitivity entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sensitivity {
    /// Stage name.
    pub stage: String,
    /// Which element was perturbed.
    pub element: ElementKind,
    /// Logarithmic sensitivity of the peak impedance to this element
    /// (positive: growing the element grows the peak).
    pub peak_sensitivity: f64,
}

/// Scales one element of a stage by `factor`, returning `None` if the
/// stage lacks that element (e.g. no shunt bank) or the element is zero
/// (a log-sensitivity to a zero value is undefined).
fn scaled(ladder: &Ladder, stage: &str, kind: ElementKind, factor: f64) -> Option<Ladder> {
    let original = ladder.stage(stage)?;
    match kind {
        ElementKind::SeriesR if original.series.resistance.value() == 0.0 => return None,
        ElementKind::SeriesL if original.series.inductance.value() == 0.0 => return None,
        ElementKind::ShuntC | ElementKind::ShuntEsr => match &original.shunt {
            None => return None,
            Some(bank) if kind == ElementKind::ShuntEsr && bank.esr.value() == 0.0 => return None,
            Some(_) => {}
        },
        _ => {}
    }
    ladder.with_mapped_stage(stage, |s| match kind {
        ElementKind::SeriesR => s.series.resistance = s.series.resistance * factor,
        ElementKind::SeriesL => s.series.inductance = s.series.inductance * factor,
        ElementKind::ShuntC => {
            if let Some(bank) = &mut s.shunt {
                bank.capacitance = bank.capacitance * factor;
            }
        }
        ElementKind::ShuntEsr => {
            if let Some(bank) = &mut s.shunt {
                bank.esr = bank.esr * factor;
            }
        }
    })
}

/// Computes the peak-impedance sensitivity of every element of every
/// stage, sorted by descending magnitude.
pub fn peak_sensitivities(ladder: &Ladder, analyzer: &ImpedanceAnalyzer) -> Vec<Sensitivity> {
    let base_peak = analyzer.profile(ladder).peak().1.value();
    let mut out = Vec::new();
    for stage in ladder.stages() {
        for kind in ElementKind::ALL {
            let Some(perturbed) = scaled(ladder, &stage.name, kind, 1.0 + REL_DELTA) else {
                continue;
            };
            let new_peak = analyzer.profile(&perturbed).peak().1.value();
            let s = ((new_peak - base_peak) / base_peak) / REL_DELTA;
            out.push(Sensitivity {
                stage: stage.name.clone(),
                element: kind,
                peak_sensitivity: s,
            });
        }
    }
    out.sort_by(|a, b| {
        b.peak_sensitivity
            .abs()
            .total_cmp(&a.peak_sensitivity.abs())
    });
    out
}

/// Droop sensitivities of one di/dt event: how strongly the worst droop
/// responds to the event's step magnitude and ramp time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DroopSensitivity {
    /// Event name.
    pub event: String,
    /// Worst droop of the unperturbed event.
    pub base_droop: Volts,
    /// Logarithmic sensitivity of the droop to the step magnitude, or
    /// `None` when it is undefined (zero-delta event or zero base droop).
    pub delta_sensitivity: Option<f64>,
    /// Logarithmic sensitivity of the droop to the ramp time, or `None`
    /// when it is undefined (ideal step or zero base droop).
    pub slew_sensitivity: Option<f64>,
}

/// Logarithmic finite-difference sensitivity, `None` when the base value
/// cannot anchor a relative difference.
fn log_sensitivity(base: f64, perturbed: f64) -> Option<f64> {
    if base == 0.0 {
        return None;
    }
    Some(((perturbed - base) / base) / REL_DELTA)
}

/// Computes the droop sensitivity of every event in `events` on `ladder`,
/// in input order.
///
/// Each event contributes three lanes — unperturbed, step magnitude
/// scaled by `1 + REL_DELTA`, ramp time scaled by `1 + REL_DELTA` — and
/// the whole grid runs as **one** [`TransientSim::droops`] call, so the
/// ladder's coefficients and DC operating point are derived once, lanes
/// with one slew share a unit response, and the per-lane results are
/// bit-identical to sequential scalar runs.
pub fn droop_sensitivities(
    ladder: &Ladder,
    sim: &TransientSim,
    quiescent: Amps,
    events: &[DidtEvent],
) -> Vec<DroopSensitivity> {
    let mut steps = Vec::with_capacity(events.len() * 3);
    for event in events {
        let base = LoadStep {
            from: quiescent,
            to: quiescent + event.delta,
            at: Seconds::from_us(1.0),
            slew: event.slew,
        };
        steps.push(base);
        steps.push(LoadStep {
            to: quiescent + event.delta * (1.0 + REL_DELTA),
            ..base
        });
        steps.push(LoadStep {
            slew: event.slew * (1.0 + REL_DELTA),
            ..base
        });
    }
    let droops = sim.droops(ladder, &steps);
    events
        .iter()
        .zip(droops.chunks_exact(3))
        .map(|(event, lanes)| {
            let (base, delta_run, slew_run) = match lanes {
                [b, d, s] => (b.value(), d.value(), s.value()),
                // chunks_exact(3) yields exactly 3 lanes; keep the map total.
                _ => (0.0, 0.0, 0.0),
            };
            DroopSensitivity {
                event: event.name.clone(),
                base_droop: Volts::new(base),
                delta_sensitivity: if event.delta.value() == 0.0 {
                    None
                } else {
                    log_sensitivity(base, delta_run)
                },
                slew_sensitivity: if event.slew.value() == 0.0 {
                    None
                } else {
                    log_sensitivity(base, slew_run)
                },
            }
        })
        .collect()
}

/// The target impedance `Z_target = V_ripple / ΔI` (classic PDN design
/// rule): the allowed voltage ripple divided by the worst-case transient
/// current.
pub fn target_impedance(v_ripple: Volts, delta_i: Amps) -> Ohms {
    v_ripple / delta_i
}

/// Frequencies (from the analyzer's sweep) at which the ladder violates a
/// target impedance.
pub fn violations(
    ladder: &Ladder,
    analyzer: &ImpedanceAnalyzer,
    target: Ohms,
) -> Vec<(Hertz, Ohms)> {
    analyzer
        .profile(ladder)
        .points()
        .iter()
        .copied()
        .filter(|(_, z)| *z > target)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skylake::{PdnVariant, SkylakePdn};

    fn analyzer() -> ImpedanceAnalyzer {
        ImpedanceAnalyzer::new(Hertz::new(10e3), Hertz::from_mhz(500.0), 200).unwrap()
    }

    #[test]
    fn sensitivities_are_finite_and_sorted() {
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        let s = peak_sensitivities(&pdn.ladder, &analyzer());
        assert!(!s.is_empty());
        for w in s.windows(2) {
            assert!(w[0].peak_sensitivity.abs() >= w[1].peak_sensitivity.abs());
        }
        for e in &s {
            assert!(e.peak_sensitivity.is_finite());
        }
    }

    #[test]
    fn power_gate_resistance_is_influential_when_gated() {
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        let s = peak_sensitivities(&pdn.ladder, &analyzer());
        let gate = s
            .iter()
            .find(|e| e.stage == "power-gate" && e.element == ElementKind::SeriesR)
            .expect("gate sensitivity present");
        // The peak of the gated profile is the die anti-resonance behind
        // the gate; the gate's resistance *damps* it, so the sensitivity is
        // negative — but substantial either way.
        assert!(
            gate.peak_sensitivity.abs() > 0.02,
            "S = {}",
            gate.peak_sensitivity
        );
        // Meanwhile the mid-band (resistive region) impedance rises with
        // the gate resistance, which is what costs guardband at DC.
        let perturbed = scaled(&pdn.ladder, "power-gate", ElementKind::SeriesR, 1.5)
            .expect("gate stage perturbable");
        let f = Hertz::new(100e3);
        assert!(perturbed.impedance_magnitude(f) > pdn.ladder.impedance_magnitude(f));
    }

    #[test]
    fn growing_die_capacitance_lowers_peak() {
        let pdn = SkylakePdn::build(PdnVariant::Bypassed);
        let s = peak_sensitivities(&pdn.ladder, &analyzer());
        let die_c = s
            .iter()
            .find(|e| e.stage == "die" && e.element == ElementKind::ShuntC)
            .expect("die capacitance sensitivity present");
        assert!(
            die_c.peak_sensitivity < 0.0,
            "S = {}",
            die_c.peak_sensitivity
        );
    }

    #[test]
    fn target_impedance_rule() {
        let t = target_impedance(Volts::from_mv(50.0), Amps::new(25.0));
        assert!((t.as_mohm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gated_violates_tighter_target_than_bypassed() {
        let gated = SkylakePdn::build(PdnVariant::Gated);
        let bypassed = SkylakePdn::build(PdnVariant::Bypassed);
        let a = analyzer();
        let target = Ohms::from_mohm(4.0);
        let vg = violations(&gated.ladder, &a, target);
        let vb = violations(&bypassed.ladder, &a, target);
        assert!(
            vg.len() > vb.len(),
            "gated {} vs bypassed {}",
            vg.len(),
            vb.len()
        );
    }

    #[test]
    fn zero_valued_elements_are_skipped() {
        // The gated topology's "ungated-domain" stage has a zero-length
        // series branch: perturbing it must be skipped, not divide by zero.
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        let s = peak_sensitivities(&pdn.ladder, &analyzer());
        assert!(!s
            .iter()
            .any(|e| e.stage == "ungated-domain" && e.element == ElementKind::SeriesR));
    }

    #[test]
    fn droop_sensitivities_reflect_physics() {
        let pdn = SkylakePdn::build(PdnVariant::Bypassed);
        let sim = TransientSim {
            source: Volts::new(1.0),
            dt: Seconds::from_ns(0.5),
            duration: Seconds::from_us(20.0),
            decimate: 128,
        };
        let events = vec![
            DidtEvent {
                name: "burst".to_owned(),
                delta: Amps::new(30.0),
                slew: Seconds::from_ns(5.0),
            },
            DidtEvent {
                name: "ideal".to_owned(),
                delta: Amps::new(20.0),
                slew: Seconds::ZERO,
            },
            DidtEvent {
                name: "null".to_owned(),
                delta: Amps::ZERO,
                slew: Seconds::from_ns(5.0),
            },
        ];
        let s = droop_sensitivities(&pdn.ladder, &sim, Amps::new(5.0), &events);
        assert_eq!(s.len(), events.len());
        // A bigger step droops more: positive magnitude sensitivity.
        let burst = &s[0];
        assert!(burst.base_droop > Volts::ZERO);
        assert!(burst.delta_sensitivity.unwrap_or(0.0) > 0.0);
        // An ideal step has no ramp to perturb.
        assert_eq!(s[1].slew_sensitivity, None);
        assert!(s[1].delta_sensitivity.is_some());
        // A zero-delta event has no droop and no defined sensitivities.
        assert_eq!(s[2].delta_sensitivity, None);
        // And the base droop matches a scalar run bit-for-bit.
        let scalar = sim
            .run(
                &pdn.ladder,
                LoadStep {
                    from: Amps::new(5.0),
                    to: Amps::new(35.0),
                    at: Seconds::from_us(1.0),
                    slew: Seconds::from_ns(5.0),
                },
            )
            .droop();
        assert_eq!(burst.base_droop.value().to_bits(), scalar.value().to_bits());
    }

    #[test]
    fn element_labels() {
        assert_eq!(ElementKind::SeriesR.label(), "series R");
        assert_eq!(ElementKind::ShuntC.label(), "shunt C");
    }
}
