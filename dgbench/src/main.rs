//! The DarkGates reproduction's benchmark: four seeded workloads, each
//! measured end to end, with its outputs checked, and in a separate traced
//! run layer by layer.
//!
//! ```text
//! dgbench --workload droop-sweep|serve-hot|serve-cold|paper
//!         --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Progress and per-phase accounting go to standard error.
//! See README.md beside this package for what each workload and metric is.

// The workspace's clippy.toml bans clock reads to keep the simulation
// deterministic and asks for timing to come from the harness. This
// package is that harness: timing is all it does.
#![allow(clippy::disallowed_methods)]

mod droop;
mod paper;
mod probes;
mod proc;
mod serve;
mod stats;
mod trace;

use dg_serve::client::Lcg;
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::{self_time_ms, Layer, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DroopSweep,
    ServeHot,
    ServeCold,
    Paper,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "droop-sweep" => Workload::DroopSweep,
            "serve-hot" => Workload::ServeHot,
            "serve-cold" => Workload::ServeCold,
            "paper" => Workload::Paper,
            _ => return None,
        })
    }
}

/// A uniform draw from `[lo, hi)` (`Lcg` words carry 53 random bits).
#[allow(clippy::cast_precision_loss)]
pub(crate) fn uniform(rng: &mut Lcg, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_u64() as f64 / (1u64 << 53) as f64
}

/// This process's peak resident set, in MiB.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn self_peak_rss_mb() -> f64 {
    proc::vm_hwm_kb(std::process::id()).unwrap_or(0) as f64 / 1024.0
}

/// Metrics by name, each with its unit.
#[derive(Debug, Default)]
pub(crate) struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub(crate) fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }

    pub(crate) fn take(&mut self, name: &str) -> Option<f64> {
        self.0.remove(name).map(|(v, _)| v)
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }
}

/// State shared by a run's measurements.
pub(crate) struct Ctx {
    pub seed: u64,
    pub tracer: Tracer,
    /// Scratch space inside the build directory, removed at the end.
    pub work_dir: PathBuf,
    attempted: u64,
    failed: u64,
    failed_checks: u64,
}

impl Ctx {
    /// Books `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Books one output check; a failed check is a failed operation.
    pub fn check(&mut self, what: &str, ok: bool, detail: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks += 1;
            eprintln!("CHECK FAILED: {what}: {detail}");
        }
    }
}

/// Runs one measurement of `workload` for `seconds`, appending its set-up
/// times to `setup_s`.
fn measure(
    ctx: &mut Ctx,
    workload: Workload,
    seconds: f64,
    setup_s: &mut Vec<f64>,
    out: &mut Metrics,
) -> Result<(), String> {
    match workload {
        Workload::DroopSweep => droop::measure(ctx, seconds, setup_s, out),
        Workload::ServeHot => serve::measure(ctx, serve::Mix::Hot, seconds, setup_s, out),
        Workload::ServeCold => serve::measure(ctx, serve::Mix::Cold, seconds, setup_s, out),
        Workload::Paper => paper::measure(ctx, seconds, setup_s, out),
    }
}

/// The per-layer probes a workload's own traffic does not already cover.
fn probe_layers(ctx: &Ctx, workload: Workload, out: &mut Metrics) -> Result<(), String> {
    if workload != Workload::DroopSweep {
        droop::engine_probe(ctx, out);
    }
    droop::pdn_probe(ctx, out);
    probes::core_probe(ctx, out)?;
    probes::soc_probe(ctx, out)?;
    probes::explore_probe(ctx, out)?;
    let own = match workload {
        Workload::ServeCold => serve::stream(serve::Mix::Cold, ctx.seed, 24),
        _ => serve::hot_bodies(ctx.seed),
    };
    let mut reqs = serve::stream(serve::Mix::Cold, ctx.seed ^ 0xf4e5, 6);
    reqs.extend(own);
    serve::serve_probe(ctx, &reqs, 6, out);
    if !matches!(workload, Workload::ServeHot | Workload::ServeCold) {
        serve::fleet_probe(ctx, out)?;
    }
    if workload != Workload::Paper {
        paper::paper_probe(ctx, out)?;
    }
    Ok(())
}

/// The end-to-end metric names, in report order.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mb",
    "ops_per_s",
    "p50_ms",
    "tail_ms",
    "droop_err_mv",
    "v_final_err_mv",
];

fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Ctx, Metrics), String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let work_dir = target
        .join("dgbench-work")
        .join(format!("{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("mkdir {}: {e}", work_dir.display()))?;
    let mut ctx = Ctx {
        seed,
        tracer: Tracer::new(false),
        work_dir,
        attempted: 0,
        failed: 0,
        failed_checks: 0,
    };
    let mut out = Metrics::default();
    let result = if traced {
        traced_run(&mut ctx, workload, seconds, &target, &mut out)
    } else {
        let mut setup_s = Vec::new();
        measure(&mut ctx, workload, seconds, &mut setup_s, &mut out).map(|()| {
            out.put("setup_s", stats::median(&setup_s), "s");
            let (droop_err, v_final_err) = droop::accuracy(seed);
            out.put("droop_err_mv", droop_err, "mV");
            out.put("v_final_err_mv", v_final_err, "mV");
        })
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    result.map(|()| (ctx, out))
}

/// The traced run: the workload once untraced and once traced (their
/// difference is the tracing overhead), then every layer probe, with the
/// spans written to the build directory.
fn traced_run(
    ctx: &mut Ctx,
    workload: Workload,
    seconds: f64,
    target: &std::path::Path,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut plain = Metrics::default();
    measure(ctx, workload, seconds, &mut Vec::new(), &mut plain)?;
    ctx.tracer = Tracer::new(true);
    measure(ctx, workload, seconds, &mut Vec::new(), out)?;
    let (traced, untraced) = (out.get("p50_ms"), plain.get("p50_ms"));
    if let (Some(t), Some(u)) = (traced, untraced) {
        out.put("trace.overhead_pct", (t - u) / u * 100.0, "%");
    }
    probe_layers(ctx, workload, out)?;
    for name in END_TO_END {
        out.take(name);
    }
    let spans = ctx.tracer.spans();
    let self_ms = self_time_ms(&spans);
    for layer in Layer::ALL {
        let ms = self_ms.get(&layer).copied().unwrap_or(0.0);
        out.put(&format!("self_ms.{}", layer.name()), ms, "ms");
    }
    let dir = target.join("dgbench-traces");
    let path = dir.join(format!("{workload:?}-seed{}.jsonl", ctx.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| ctx.tracer.write_jsonl(&path))
        .map_err(|e| format!("write trace {}: {e}", path.display()))?;
    eprintln!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(())
}

/// Renders the result line.
fn result_json(ctx: &Ctx, metrics: &Metrics, correct: bool) -> String {
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ctx.attempted.max(1),
        ctx.failed,
        fields.join(",")
    )
}

fn usage() -> ! {
    eprintln!("usage: dgbench --workload droop-sweep|serve-hot|serve-cold|paper --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("probe") {
        if let Err(e) = probes::fresh_process(&args[1..]) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                opts.insert(&flag[2..], value);
            }
            _ => usage(),
        }
    }
    let workload = opts.get("workload").and_then(|w| Workload::parse(w));
    let seed = opts.get("seed").and_then(|s| s.parse::<u64>().ok());
    let seconds = opts
        .get("seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0);
    let traced = match opts.get("trace").copied() {
        Some("1") => true,
        Some("0") | None => false,
        Some(_) => usage(),
    };
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    match run(workload, seed, seconds, traced) {
        Ok((mut ctx, mut metrics)) => {
            let bad: Vec<String> = metrics
                .0
                .iter()
                .filter(|(_, (v, _))| !v.is_finite())
                .map(|(k, _)| k.clone())
                .collect();
            for name in bad {
                ctx.check("metric is a finite number", false, &name);
                metrics.put(&name, 0.0, "invalid");
            }
            let correct = ctx.failed_checks == 0;
            println!("{}", result_json(&ctx, &metrics, correct));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
