//! The `droop-sweep` workload: population-scale droop sweeps through
//! `didt::droop_sweep_with_progress` at the served `droop_capture`
//! settings, plus the droop-accuracy metrics and the `dg-pdn` and
//! `dg-engine` layer probes.

use crate::stats::{median, percentile, tail_supported};
use crate::{uniform, Ctx, Layer, Metrics};
use darkgates::pdn::didt::droop_sweep_with_progress;
use darkgates::pdn::impedance::ImpedanceAnalyzer;
use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
use darkgates::pdn::transient::{LoadStep, TransientResult, TransientSim};
use darkgates::pdn::units::{Amps, Seconds, Volts};
use dg_serve::client::Lcg;
use dg_serve::routes::delta_grid;
use std::hint::black_box;
use std::time::Instant;

/// Lanes in the `run_batch` probe, the engine's group width.
const BATCH_LANES: usize = 32;

/// The reference the accuracy metrics compare against: RK4 at half the
/// served step over five times the served window.
fn reference_sim() -> TransientSim {
    let mut sim = TransientSim::droop_capture(Volts::new(1.0));
    sim.dt = Seconds::from_ns(0.05);
    sim.duration = Seconds::from_us(100.0);
    sim
}

/// The served settings every workload's droop numbers come from.
fn served_sim() -> TransientSim {
    TransientSim::droop_capture(Volts::new(1.0))
}

/// The two documented `/v1/droop_sweep` requests the workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The population-sweep recipe of EXPERIMENTS.md: quiescent 8 A, slew
    /// 2 ns, deltas 1 to 120 A over 1,024 lanes.
    Recipe,
    /// The route's defaults (`droop_sweep_params` in dg-serve's routes):
    /// quiescent 10 A, zero slew, deltas 1 to 50 A over 64 lanes.
    Default,
}

impl Kind {
    /// `(quiescent_a, slew_ns, start_a, stop_a, points)`.
    const fn params(self) -> (f64, f64, f64, f64, usize) {
        match self {
            Kind::Recipe => (8.0, 2.0, 1.0, 120.0, 1_024),
            Kind::Default => (10.0, 0.0, 1.0, 50.0, 64),
        }
    }
}

/// One sweep request, as a `/v1/droop_sweep` grid would send it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSpec {
    pub kind: Kind,
    pub variant: PdnVariant,
    pub start_a: f64,
    pub stop_a: f64,
}

impl SweepSpec {
    /// The lane deltas, expanded exactly as the server expands a grid.
    pub fn deltas(&self) -> Vec<Amps> {
        delta_grid(self.start_a, self.stop_a, self.kind.params().4)
            .into_iter()
            .map(Amps::new)
            .collect()
    }

    fn quiescent(&self) -> Amps {
        Amps::new(self.kind.params().0)
    }

    fn slew(&self) -> Seconds {
        Seconds::from_ns(self.kind.params().1)
    }

    /// The load step one lane of the sweep integrates (as `didt` builds it).
    fn step_of(&self, delta: Amps) -> LoadStep {
        LoadStep {
            from: self.quiescent(),
            to: self.quiescent() + delta,
            at: Seconds::from_us(1.0),
            slew: self.slew(),
        }
    }
}

/// Sweeps run in rounds of four: each documented request on each ladder.
/// A round's lane times then hold 128 one-wave lanes and 512 lanes of each
/// of the recipe's four 256-lane waves, so its median and p90 each fall
/// inside a group of waves rather than on the boundary between two.
const ROUND: [(Kind, PdnVariant); 4] = [
    (Kind::Recipe, PdnVariant::Gated),
    (Kind::Default, PdnVariant::Gated),
    (Kind::Recipe, PdnVariant::Bypassed),
    (Kind::Default, PdnVariant::Bypassed),
];

/// The `i`-th sweep of the seeded population: kinds and ladders follow
/// [`ROUND`], and each grid's bounds are drawn within an ampere of its
/// documented ones, so no two sweeps share a delta.
pub fn sweep_spec(seed: u64, i: usize) -> SweepSpec {
    let mut rng = Lcg::new(seed ^ 0xd5_0a11);
    let mut spec = None;
    for k in 0..=i {
        let (kind, variant) = ROUND[k % ROUND.len()];
        let (_, _, start, stop, _) = kind.params();
        spec = Some(SweepSpec {
            kind,
            variant,
            start_a: uniform(&mut rng, start - 0.5, start + 0.5),
            stop_a: uniform(&mut rng, stop - 1.0, stop),
        });
    }
    spec.expect("the loop runs at least once")
}

/// Droop and final-voltage error of the served settings, in mV: the
/// largest absolute difference from [`reference_sim`] over a seeded lane
/// subset — in the first round, the largest step of each sweep plus one
/// seeded lane of it, each ladder's lanes run as one batch. A pure
/// function of the seed.
pub fn accuracy(seed: u64) -> (f64, f64) {
    let mut rng = Lcg::new(seed ^ 0xacc);
    let mut lanes: Vec<(SweepSpec, LoadStep)> = Vec::new();
    for i in 0..ROUND.len() {
        let spec = sweep_spec(seed, i);
        let deltas = spec.deltas();
        let pick = usize::try_from(rng.below(deltas.len() as u64)).unwrap_or(0);
        lanes.push((spec, spec.step_of(deltas[deltas.len() - 1])));
        lanes.push((spec, spec.step_of(deltas[pick])));
    }
    let mut droop_err: f64 = 0.0;
    let mut v_final_err: f64 = 0.0;
    for variant in [PdnVariant::Gated, PdnVariant::Bypassed] {
        let (specs, steps): (Vec<SweepSpec>, Vec<LoadStep>) =
            lanes.iter().filter(|(s, _)| s.variant == variant).copied().unzip();
        let ladder = SkylakePdn::build(variant).ladder;
        let served = served_sim().run_batch(&ladder, &steps);
        let reference = reference_sim().run_batch(&ladder, &steps);
        for (((s, r), spec), step) in served.iter().zip(&reference).zip(&specs).zip(&steps) {
            let droop = (s.droop() - r.droop()).as_mv().abs();
            let v_final = (s.v_final - r.v_final).as_mv().abs();
            eprintln!(
                "accuracy: {:?} request on {variant:?}, {:.1} A step: droop {droop:.3} mV, v_final {v_final:.3} mV",
                spec.kind,
                (step.to - step.from).value(),
            );
            droop_err = droop_err.max(droop);
            v_final_err = v_final_err.max(v_final);
        }
    }
    (droop_err, v_final_err)
}

/// Everything the in-process set-up builds before the first timed sweep:
/// both ladders, the first round's deltas, and each ladder's chain-model
/// coefficients and quiescent DC state, which a one-step run of each
/// sweep's first lane computes and caches. Integrating whole lanes is
/// left to the timed sweeps.
pub fn setup(seed: u64) {
    let mut one_step = served_sim();
    one_step.duration = one_step.dt;
    for i in 0..ROUND.len() {
        let spec = sweep_spec(seed, i);
        let ladder = SkylakePdn::build(spec.variant).ladder;
        let deltas = spec.deltas();
        black_box(one_step.run(&ladder, spec.step_of(deltas[0])));
    }
}

/// What one timed sweep left behind.
struct SweepRun {
    spec: SweepSpec,
    droops: Vec<Volts>,
    /// Seconds from the call to each progress wave.
    waves: Vec<f64>,
    /// Lanes each progress wave delivered.
    wave_lanes: Vec<usize>,
    wall: f64,
}

/// Runs sweep `i` of the population, timing each progress wave.
fn timed_sweep(ctx: &Ctx, i: usize) -> SweepRun {
    let spec = sweep_spec(ctx.seed, i);
    let ladder = SkylakePdn::build(spec.variant).ladder;
    let deltas = spec.deltas();
    let sim = served_sim();
    let mut waves = Vec::new();
    let mut wave_lanes = Vec::new();
    let req = i as u64;
    let start = Instant::now();
    let droops = ctx
        .tracer
        .span(Layer::Engine, "droop_sweep_with_progress", 0, req, |id| {
            droop_sweep_with_progress(
                &ladder,
                &sim,
                spec.quiescent(),
                &deltas,
                spec.slew(),
                |_, fresh| {
                    ctx.tracer.span(Layer::Bench, "progress", id, req, |_| {
                        let t = start.elapsed().as_secs_f64();
                        waves.push(t);
                        wave_lanes.push(fresh.len());
                    });
                },
            )
        });
    SweepRun {
        spec,
        droops,
        waves,
        wave_lanes,
        wall: start.elapsed().as_secs_f64(),
    }
}

/// Set-ups timed per run, each in a fresh process so that its caches
/// start cold. The figure is the time the set-up took inside that
/// process; the spawn and exit around it are the host's, not the
/// program's, and vary by half from one to the next on a shared host.
const SETUPS: usize = 15;

/// Set-ups timed before each round.
const SETUPS_PER_ROUND: usize = 3;

/// The timed loop: whole rounds until `seconds` have passed (at least
/// one). Fresh-process set-ups are timed before each round, and after
/// the last until there are [`SETUPS`], so that the set-up figure, too,
/// samples the whole run rather than its first second.
fn sweep_loop(ctx: &Ctx, seconds: f64, setup_s: &mut Vec<f64>) -> Result<Vec<SweepRun>, String> {
    let seed = ctx.seed.to_string();
    let setup = |into: &mut Vec<f64>| -> Result<(), String> {
        into.push(crate::probes::run_probe(&["setup-droop", &seed])?.1 / 1e3);
        Ok(())
    };
    let mut runs = Vec::new();
    let mut measured = 0.0;
    while runs.is_empty() || measured < seconds {
        for _ in 0..SETUPS_PER_ROUND {
            setup(setup_s)?;
        }
        let start = Instant::now();
        for _ in 0..ROUND.len() {
            runs.push(timed_sweep(ctx, runs.len()));
        }
        measured += start.elapsed().as_secs_f64();
    }
    while setup_s.len() < SETUPS {
        setup(setup_s)?;
    }
    Ok(runs)
}

/// The run's typical round: each wave of a sweep of a given kind on a
/// given ladder arrives at the median, over the run's sweeps of that kind
/// on that ladder, of that wave's arrival time. Returns the round's lanes
/// per second and its per-lane times to result. Medians keep a burst of
/// contention on the host from moving the figures of a whole run.
fn typical_round(runs: &[SweepRun]) -> (f64, Vec<f64>) {
    let mut round_wall = 0.0;
    let mut latency = Vec::new();
    for (kind, variant) in ROUND {
        let same: Vec<&SweepRun> = runs
            .iter()
            .filter(|r| (r.spec.kind, r.spec.variant) == (kind, variant))
            .collect();
        let lanes = &same[0].wave_lanes;
        for (k, &n) in lanes.iter().enumerate() {
            let at: Vec<f64> = same
                .iter()
                .filter_map(|r| r.waves.get(k).copied())
                .collect();
            latency.extend(std::iter::repeat_n(median(&at), n));
        }
        round_wall += median(&same.iter().map(|r| r.wall).collect::<Vec<_>>());
    }
    #[allow(clippy::cast_precision_loss)]
    let rate = latency.len() as f64 / round_wall;
    (rate, latency)
}

/// The `droop-sweep` workload's end-to-end measurement.
pub fn measure(
    ctx: &mut Ctx,
    seconds: f64,
    setup_s: &mut Vec<f64>,
    out: &mut Metrics,
) -> Result<(), String> {
    let runs = sweep_loop(ctx, seconds, setup_s)?;
    let (rate, latency) = typical_round(&runs);
    let tail = tail_supported(latency.len()).ok_or("too few lanes for a percentile")?;
    let lanes: usize = runs.iter().map(|r| r.droops.len()).sum();
    eprintln!(
        "droop-sweep: {} sweeps, {lanes} lanes; typical round of {} lanes, tail p{tail}",
        runs.len(),
        latency.len()
    );
    ctx.ops(lanes as u64, 0);
    out.put("ops_per_s", rate, "1/s");
    out.put("p50_ms", median(&latency) * 1e3, "ms");
    out.put("tail_ms", percentile(&latency, tail) * 1e3, "ms");
    out.put("peak_rss_mb", crate::self_peak_rss_mb(), "MB");
    check_sweeps(ctx, &runs);
    if ctx.tracer.enabled() {
        engine_metrics(&runs, out);
    }
    Ok(())
}

/// Output checks: seeded lanes of the first round must be bit-identical
/// to scalar `TransientSim::run`, and a seeded slice of up to 64 lanes
/// must come out bit-identical at one worker thread and at the default
/// thread count.
fn check_sweeps(ctx: &mut Ctx, runs: &[SweepRun]) {
    let mut rng = Lcg::new(ctx.seed ^ 0xc4ec);
    let sim = served_sim();
    for run in runs.iter().take(ROUND.len()) {
        let ladder = SkylakePdn::build(run.spec.variant).ladder;
        let deltas = run.spec.deltas();
        for _ in 0..2 {
            let i = usize::try_from(rng.below(deltas.len() as u64)).unwrap_or(0);
            let scalar = ctx.tracer.span(Layer::Pdn, "run", 0, i as u64, |_| {
                sim.run(&ladder, run.spec.step_of(deltas[i])).droop()
            });
            ctx.check(
                "sweep lane equals scalar TransientSim::run",
                scalar.value().to_bits() == run.droops[i].value().to_bits(),
                &format!("lane {i}: sweep {:?}, scalar {scalar:?}", run.droops[i]),
            );
        }
    }
    let run = &runs[usize::try_from(rng.below(runs.len() as u64)).unwrap_or(0)];
    let ladder = SkylakePdn::build(run.spec.variant).ladder;
    let deltas = run.spec.deltas();
    let n = deltas.len().min(64);
    let lo = usize::try_from(rng.below((deltas.len() - n + 1) as u64)).unwrap_or(0);
    let slice = &deltas[lo..lo + n];
    let sweep = |threads: Option<usize>| {
        let _guard = threads.map(dg_engine::set_thread_override);
        droop_sweep_with_progress(
            &ladder,
            &sim,
            run.spec.quiescent(),
            slice,
            run.spec.slew(),
            |_, _| {},
        )
    };
    let bits = |v: &[Volts]| v.iter().map(|d| d.value().to_bits()).collect::<Vec<_>>();
    let one = bits(&sweep(Some(1)));
    let default = bits(&sweep(None));
    ctx.check(
        "sweep identical at 1 thread and the default thread count",
        one == default && one == bits(&run.droops[lo..lo + n]),
        &format!("lanes {lo}..{}", lo + n),
    );
}

/// `dg-engine` metrics from the progress callbacks of timed sweeps. The
/// wave figures come from the recipe's sweeps, the only ones with more
/// than one wave; the utilization counts every sweep.
fn engine_metrics(runs: &[SweepRun], out: &mut Metrics) {
    let recipe: Vec<&SweepRun> = runs.iter().filter(|r| r.spec.kind == Kind::Recipe).collect();
    let firsts: Vec<f64> = recipe
        .iter()
        .filter_map(|r| r.waves.first().copied())
        .collect();
    let max_gap = recipe
        .iter()
        .flat_map(|r| r.waves.windows(2).map(|w| w[1] - w[0]))
        .fold(0.0, f64::max);
    #[allow(clippy::cast_precision_loss)]
    let waves = recipe.iter().map(|r| r.waves.len()).sum::<usize>() as f64 / recipe.len() as f64;
    out.put("engine.first_wave_ms", median(&firsts) * 1e3, "ms");
    out.put("engine.max_wave_gap_ms", max_gap * 1e3, "ms");
    out.put("engine.waves", waves, "count");
    // Busy share of the pool: lane groups times the cost of one group on
    // one thread, over the wall time every thread had. Needs
    // `pdn.batch32_ms`, so it is filled in by `pdn_probe`.
    let groups: usize = runs
        .iter()
        .map(|r| r.droops.len().div_ceil(BATCH_LANES))
        .sum();
    let wall: f64 = runs.iter().map(|r| r.wall).sum();
    #[allow(clippy::cast_precision_loss)]
    out.put(
        "engine.groups_per_thread_s",
        groups as f64 / (wall * dg_engine::num_threads() as f64),
        "1/s",
    );
}

/// The `dg-engine` metrics for a workload that runs no sweeps of its own:
/// one timed round of the seeded population.
pub fn engine_probe(ctx: &Ctx, out: &mut Metrics) {
    let runs: Vec<SweepRun> = (0..ROUND.len()).map(|i| timed_sweep(ctx, i)).collect();
    engine_metrics(&runs, out);
}

/// Per-call costs of `dg-pdn`, on lanes of the seeded population.
pub fn pdn_probe(ctx: &Ctx, out: &mut Metrics) {
    let spec = sweep_spec(ctx.seed, 0);
    let ladder = SkylakePdn::build(spec.variant).ladder;
    let steps: Vec<LoadStep> = spec
        .deltas()
        .iter()
        .take(BATCH_LANES)
        .map(|&d| spec.step_of(d))
        .collect();
    let sim = served_sim();
    let mut batch_ms = Vec::new();
    let mut results: Vec<TransientResult> = Vec::new();
    for k in 0..3 {
        results = timed_ms(&mut batch_ms, || {
            ctx.tracer.span(Layer::Pdn, "run_batch", 0, k, |_| {
                sim.run_batch(&ladder, &steps)
            })
        });
    }
    let mut lane_ms = Vec::new();
    for (k, step) in steps.iter().take(3).enumerate() {
        timed_ms(&mut lane_ms, || {
            ctx.tracer
                .span(Layer::Pdn, "run", 0, k as u64, |_| sim.run(&ladder, *step))
        });
    }
    let mut profile_ms = Vec::new();
    for k in 0..3 {
        timed_ms(&mut profile_ms, || {
            ctx.tracer.span(Layer::Pdn, "impedance_profile", 0, k, |_| {
                ImpedanceAnalyzer::default().profile(&ladder)
            })
        });
    }
    #[allow(clippy::cast_precision_loss)]
    let per_lane = |f: &dyn Fn(&TransientResult) -> f64| {
        results.iter().map(f).sum::<f64>() / results.len() as f64
    };
    let batch32 = median(&batch_ms);
    out.put("pdn.batch32_ms", batch32, "ms");
    out.put("pdn.lane_ms", median(&lane_ms), "ms");
    out.put(
        "pdn.sim_us_per_lane",
        per_lane(&|r| r.samples.last().map_or(0.0, |s| s.0.value() * 1e6)),
        "us",
    );
    #[allow(clippy::cast_precision_loss)]
    out.put(
        "pdn.samples_per_lane",
        per_lane(&|r| r.samples.len() as f64),
        "count",
    );
    out.put("pdn.impedance_profile_ms", median(&profile_ms), "ms");
    if let Some(rate) = out.take("engine.groups_per_thread_s") {
        out.put("engine.utilization", rate * batch32 / 1e3, "ratio");
    }
}

/// Runs `f`, appending its wall time in milliseconds to `into`.
pub fn timed_ms<R>(into: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = black_box(f());
    into.push(start.elapsed().as_secs_f64() * 1e3);
    out
}
