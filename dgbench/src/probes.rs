//! Layer probes that time single calls into the `darkgates`, `dg-soc` and
//! `dg-explore` public functions, and the fresh-process entry points the
//! benchmark re-runs itself through.

use crate::droop::timed_ms;
use crate::proc::run_fresh;
use crate::stats::median;
use crate::{Ctx, Layer, Metrics};
use darkgates::experiments;
use darkgates::units::Watts;
use darkgates::DarkGates;
use std::hint::black_box;
use std::time::Instant;

/// The first-call probes of `darkgates`, each in a fresh process so its
/// substrate caches start cold.
const CORE_PROBES: [(&str, &str); 8] = [
    ("fig3", "core.fig3_ms"),
    ("fig3_sweep", "core.fig3_sweep_ms"),
    ("fig4", "core.fig4_ms"),
    ("fig7", "core.fig7_ms"),
    ("fig8", "core.fig8_ms"),
    ("fig9", "core.fig9_ms"),
    ("fig10", "core.fig10_ms"),
    ("claims", "core.claims_ms"),
];

/// Runs the `probe` subcommand in this (fresh) process: times one call
/// and prints its milliseconds on standard output.
pub fn fresh_process(args: &[String]) -> Result<(), String> {
    let start = Instant::now();
    match args.first().map(String::as_str) {
        Some("fig3") => drop(black_box(experiments::fig3())),
        Some("fig3_sweep") => drop(black_box(experiments::fig3_sweep())),
        Some("fig4") => drop(black_box(experiments::fig4())),
        Some("fig7") => drop(black_box(experiments::fig7())),
        Some("fig8") => drop(black_box(experiments::fig8())),
        Some("fig9") => drop(black_box(experiments::fig9())),
        Some("fig10") => drop(black_box(experiments::fig10())),
        Some("claims") => {
            let data = darkgates::claims::ClaimData::compute();
            drop(black_box(darkgates::claims::grade(&data)));
        }
        Some("setup-droop") => {
            let seed = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("setup-droop needs a seed")?;
            crate::droop::setup(seed);
        }
        other => return Err(format!("unknown probe {other:?}")),
    }
    println!("{}", start.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// Runs `probe <args>` in a fresh copy of this executable; returns its
/// spawn-to-exit wall time in seconds and the milliseconds it printed.
pub fn run_probe(args: &[&str]) -> Result<(f64, f64), String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut full = vec!["probe"];
    full.extend_from_slice(args);
    let done = run_fresh(&me, &full)?;
    let printed = String::from_utf8_lossy(&done.stdout).trim().parse::<f64>();
    match (done.ok, printed) {
        (true, Ok(ms)) => Ok((done.wall.as_secs_f64(), ms)),
        _ => Err(format!("probe {args:?} failed")),
    }
}

/// First-call times of the paper experiments and claims.
pub fn core_probe(ctx: &Ctx, out: &mut Metrics) -> Result<(), String> {
    for (k, (probe, metric)) in CORE_PROBES.iter().enumerate() {
        let (_, ms) = ctx
            .tracer
            .span(Layer::Core, "first_call", 0, k as u64, |_| {
                run_probe(&[probe])
            })?;
        out.put(metric, ms, "ms");
    }
    Ok(())
}

/// Warm per-call costs of the two `dg-soc` runs behind the paper's
/// performance figures, both of which solve DVFS through `dg-pmu`.
pub fn soc_probe(ctx: &Ctx, out: &mut Metrics) -> Result<(), String> {
    use darkgates::soc::run::{run_graphics, run_spec};
    use darkgates::workloads::graphics::three_dmark_suite;
    use darkgates::workloads::spec::{by_name, SpecMode};
    let product = DarkGates::desktop().product(Watts::new(91.0));
    let bench = by_name("444.namd").ok_or("444.namd missing from the SPEC suite")?;
    let scene = three_dmark_suite()
        .into_iter()
        .next()
        .ok_or("empty 3DMark suite")?;
    let mut spec_ms = Vec::new();
    let mut gfx_ms = Vec::new();
    for k in 0..200 {
        timed_ms(&mut spec_ms, || {
            ctx.tracer.span(Layer::Soc, "run_spec", 0, k, |_| {
                run_spec(&product, &bench, SpecMode::Base)
            })
        });
        timed_ms(&mut gfx_ms, || {
            ctx.tracer.span(Layer::Soc, "run_graphics", 0, k, |_| {
                run_graphics(&product, &scene)
            })
        });
    }
    out.put("soc.run_spec_us", median(&spec_ms) * 1e3, "us");
    out.put("soc.run_graphics_us", median(&gfx_ms) * 1e3, "us");
    Ok(())
}

/// In-process `dg_explore::run` over the seeded `charm_full` grid.
pub fn explore_probe(ctx: &Ctx, out: &mut Metrics) -> Result<(), String> {
    let path = crate::paper::seeded_spec(ctx)?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec = dg_explore::ExploreSpec::from_text(&text).map_err(|e| format!("spec: {e}"))?;
    let mut ms = Vec::new();
    let mut result = None;
    for k in 0..3 {
        result = Some(timed_ms(&mut ms, || {
            ctx.tracer
                .span(Layer::Explore, "run", 0, k, |_| dg_explore::run(&spec))
        }));
    }
    let result = result
        .ok_or("no explore run")?
        .map_err(|e| format!("explore: {e}"))?;
    #[allow(clippy::cast_precision_loss)]
    let points = result.total_points as f64;
    out.put("explore.points_per_s", points / (median(&ms) / 1e3), "1/s");
    #[allow(clippy::cast_precision_loss)]
    out.put(
        "explore.frontier_size",
        result.frontier.len() as f64,
        "count",
    );
    Ok(())
}
