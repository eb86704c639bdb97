//! Property-based equivalence between batched and scalar transient runs.
//!
//! A batch shares one unit response among lanes with the same step time
//! and slew, and promises *bit-identical* results lane-for-lane: for any
//! ladder, any mix of load steps, and any batch size, `run_batch`,
//! `droops` and the droop sweep must produce exactly what per-lane `run`
//! calls would.

use dg_pdn::didt;
use dg_pdn::elements::{CapBank, SeriesBranch};
use dg_pdn::ladder::{Ladder, VrOutputModel};
use dg_pdn::transient::{LoadStep, TransientResult, TransientSim};
use dg_pdn::units::{Amps, Farads, Henries, Hertz, Ohms, Seconds, Volts};
use proptest::prelude::*;

/// One lane's step expressed in plain numbers for proptest generation.
#[derive(Debug, Clone, Copy)]
struct LaneSpec {
    from_a: f64,
    to_a: f64,
    at_us: f64,
    slew_ns: f64,
}

fn lane_spec() -> impl Strategy<Value = LaneSpec> {
    (0.0..60.0f64, 0.0..120.0f64, 0.1..1.0f64, 0.0..50.0f64).prop_map(
        |(from_a, to_a, at_us, slew_ns)| LaneSpec {
            from_a,
            to_a,
            at_us,
            slew_ns,
        },
    )
}

fn build_ladder(r_board: f64, l_board: f64, c_bulk: f64, r_die: f64, c_die: f64) -> Ladder {
    let vr = VrOutputModel::new(Ohms::from_mohm(1.6), Hertz::new(300e3)).unwrap();
    let mut b = Ladder::builder("prop-batch", vr);
    b.series_with_decap(
        "board",
        SeriesBranch::new(Ohms::from_mohm(r_board), Henries::from_ph(l_board)).unwrap(),
        CapBank::new(
            Farads::from_uf(c_bulk),
            Ohms::from_mohm(5.0),
            Henries::from_nh(2.0),
            3,
        )
        .unwrap(),
    );
    b.series_with_decap(
        "die",
        SeriesBranch::new(Ohms::from_mohm(r_die), Henries::from_ph(5.0)).unwrap(),
        CapBank::new(
            Farads::from_nf(c_die),
            Ohms::from_mohm(1.0),
            Henries::from_ph(1.0),
            1,
        )
        .unwrap(),
    );
    b.build().unwrap()
}

fn assert_lane_bit_identical(
    lane: usize,
    batch: &TransientResult,
    scalar: &TransientResult,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        batch.v_min.value().to_bits(),
        scalar.v_min.value().to_bits(),
        "lane {} v_min",
        lane
    );
    prop_assert_eq!(
        batch.t_min.value().to_bits(),
        scalar.t_min.value().to_bits(),
        "lane {} t_min",
        lane
    );
    prop_assert_eq!(
        batch.v_initial.value().to_bits(),
        scalar.v_initial.value().to_bits(),
        "lane {} v_initial",
        lane
    );
    prop_assert_eq!(
        batch.v_final.value().to_bits(),
        scalar.v_final.value().to_bits(),
        "lane {} v_final",
        lane
    );
    prop_assert_eq!(
        batch.samples.len(),
        scalar.samples.len(),
        "lane {} sample count",
        lane
    );
    for (k, ((tb, vb), (ts, vs))) in batch.samples.iter().zip(&scalar.samples).enumerate() {
        prop_assert_eq!(
            tb.value().to_bits(),
            ts.value().to_bits(),
            "lane {} sample {} time",
            lane,
            k
        );
        prop_assert_eq!(
            vb.value().to_bits(),
            vs.value().to_bits(),
            "lane {} sample {} voltage",
            lane,
            k
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random ladders, random step mixes, and random batch sizes, the
    /// batch reproduces the scalar path bit-for-bit on every lane.
    #[test]
    fn batch_is_bit_identical_to_scalar(
        r_board in 0.05..2.0f64,
        l_board in 1.0..500.0f64,
        c_bulk in 10.0..2000.0f64,
        r_die in 0.01..1.0f64,
        c_die in 10.0..2000.0f64,
        lanes in prop::collection::vec(lane_spec(), 1..7),
        dur_us in 1.5..6.0f64,
        decimate in 1..64usize,
    ) {
        let ladder = build_ladder(r_board, l_board, c_bulk, r_die, c_die);
        let mut sim = TransientSim::new(
            Volts::new(1.0),
            Seconds::from_ns(1.0),
            Seconds::from_us(dur_us),
        ).unwrap();
        sim.decimate = decimate;
        let steps: Vec<LoadStep> = lanes
            .iter()
            .map(|l| LoadStep {
                from: Amps::new(l.from_a),
                to: Amps::new(l.to_a),
                at: Seconds::from_us(l.at_us),
                slew: Seconds::from_ns(l.slew_ns),
            })
            .collect();
        let batched = sim.run_batch(&ladder, &steps);
        prop_assert_eq!(batched.len(), steps.len());
        for (lane, (batch, step)) in batched.iter().zip(&steps).enumerate() {
            let scalar = sim.run(&ladder, *step);
            assert_lane_bit_identical(lane, batch, &scalar)?;
        }
    }

    /// Lanes with wildly different step magnitudes, including null steps,
    /// share one unit response; each still has to come out bit-identical
    /// to its scalar run and in input order.
    #[test]
    fn early_exit_lanes_stay_bit_identical(
        big in 40.0..150.0f64,
        small in 0.5..5.0f64,
        slew_ns in 0.0..20.0f64,
    ) {
        let ladder = build_ladder(0.4, 120.0, 500.0, 0.2, 400.0);
        let sim = TransientSim::new(
            Volts::new(1.0),
            Seconds::from_ns(1.0),
            Seconds::from_us(8.0),
        ).unwrap();
        let quiescent = Amps::new(5.0);
        // Null step, small step, big step, and a second null step.
        let deltas = [0.0, small, big, 0.0];
        let steps: Vec<LoadStep> = deltas
            .iter()
            .map(|d| LoadStep {
                from: quiescent,
                to: quiescent + Amps::new(*d),
                at: Seconds::from_us(1.0),
                slew: Seconds::from_ns(slew_ns),
            })
            .collect();
        let batched = sim.run_batch(&ladder, &steps);
        prop_assert_eq!(batched.len(), steps.len());
        for (lane, (batch, step)) in batched.iter().zip(&steps).enumerate() {
            let scalar = sim.run(&ladder, *step);
            assert_lane_bit_identical(lane, batch, &scalar)?;
        }
    }

    /// For any lane count and mix of step times and slews, `droops` (no
    /// waveforms) equals `run_batch` reduced to droops, bit for bit.
    #[test]
    fn droops_match_run_batch_for_any_lane_count(
        lanes in prop::collection::vec(lane_spec(), 1..12),
        dur_us in 1.5..4.0f64,
    ) {
        let ladder = build_ladder(0.3, 100.0, 400.0, 0.1, 300.0);
        let sim = TransientSim::new(
            Volts::new(1.0),
            Seconds::from_ns(1.0),
            Seconds::from_us(dur_us),
        ).unwrap();
        let steps: Vec<LoadStep> = lanes
            .iter()
            .map(|l| LoadStep {
                from: Amps::new(l.from_a),
                to: Amps::new(l.to_a),
                at: Seconds::from_us(l.at_us),
                slew: Seconds::from_ns(l.slew_ns),
            })
            .collect();
        let batch = sim.run_batch(&ladder, &steps);
        let droops = sim.droops(&ladder, &steps);
        prop_assert_eq!(droops.len(), steps.len());
        for (lane, (full, droop)) in batch.iter().zip(&droops).enumerate() {
            prop_assert_eq!(
                full.droop().value().to_bits(),
                droop.value().to_bits(),
                "lane {}",
                lane
            );
        }
    }

    /// `didt::droop_sweep` (the engine behind `/v1/droop_sweep`) is
    /// bit-identical to per-lane scalar `run` calls for population sizes
    /// around the sweep's group size — including counts that leave
    /// remainder lanes in the last group.
    #[test]
    fn droop_sweep_matches_per_lane_scalar_runs(
        n_small in 1usize..12,
        straddle in prop::bool::ANY,
        quiescent in 1.0..20.0f64,
        slew_ns in 0.0..20.0f64,
    ) {
        // Half the cases stay inside one 32-lane group; the other half
        // straddle the group boundary (29..=39 lanes) so the last group
        // is a remainder narrower than SWEEP_LANES.
        let n_deltas = if straddle { n_small + 28 } else { n_small };
        let ladder = build_ladder(0.4, 120.0, 500.0, 0.2, 400.0);
        let sim = TransientSim::new(
            Volts::new(1.0),
            Seconds::from_ns(1.0),
            Seconds::from_us(3.0),
        ).unwrap();
        let deltas: Vec<Amps> = (0..n_deltas)
            .map(|i| Amps::new(1.0 + 2.0 * i as f64))
            .collect();
        let quiescent = Amps::new(quiescent);
        let slew = Seconds::from_ns(slew_ns);
        let sweep = didt::droop_sweep(&ladder, &sim, quiescent, &deltas, slew);
        prop_assert_eq!(sweep.len(), deltas.len());
        for (lane, (droop, delta)) in sweep.iter().zip(&deltas).enumerate() {
            let scalar = sim.run(&ladder, LoadStep {
                from: quiescent,
                to: quiescent + *delta,
                at: Seconds::from_us(1.0),
                slew,
            });
            prop_assert_eq!(
                droop.value().to_bits(),
                scalar.droop().value().to_bits(),
                "lane {}",
                lane
            );
        }
    }
}
