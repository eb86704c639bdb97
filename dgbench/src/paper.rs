//! The `paper` workload: what a CLI user pays for the paper pipeline —
//! fresh-process runs of `validate`, `all` and `dg-explore` over the
//! `charm_full` grid — plus the per-layer probes of the crates only this
//! pipeline reaches.

use crate::proc::{binary, run_fresh, Finished};
use crate::stats::{median, percentile, tail_min_samples, tail_supported};
use crate::{Ctx, Layer, Metrics};
use dg_serve::client::Lcg;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The design-space spec the explore command runs, relative to the
/// checkout root the benchmark runs from.
const CHARM_SPEC: &str = "crates/explore/specs/charm_full.json";

/// Writes `charm_full` with its evaluation-order seed drawn from `seed`
/// (the grid, and so the frontier, is unchanged) and returns its path.
pub fn seeded_spec(ctx: &Ctx) -> Result<PathBuf, String> {
    let text =
        std::fs::read_to_string(CHARM_SPEC).map_err(|e| format!("read {CHARM_SPEC}: {e}"))?;
    let seed = Lcg::new(ctx.seed ^ 0x5bec).below(1 << 32);
    let seeded = text.replacen("\"seed\": 0,", &format!("\"seed\": {seed},"), 1);
    if seeded == text {
        return Err(format!(
            "{CHARM_SPEC} has no `\"seed\": 0,` field to reseed"
        ));
    }
    let path = ctx.work_dir.join("charm_seeded.json");
    std::fs::write(&path, seeded).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Untimed passes the set-up figure is the median of.
const SETUPS: u64 = 9;

/// How long the timed passes may go on to reach the passes a tail
/// percentile needs, so that a slow build still gets its figures and a
/// traced run, which measures twice, still ends within three minutes.
const PASS_DEADLINE_S: f64 = 70.0;

/// The three commands of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Validate,
    All,
    Explore,
}

/// One pass's outputs.
struct Pass {
    /// Per-command wall time in seconds, in [`Command`] order.
    walls: [f64; 3],
    wall: f64,
    max_rss_kb: u64,
    validate_ok: bool,
    all_ok: bool,
    explore_doc: Option<Vec<u8>>,
}

struct Binaries {
    validate: PathBuf,
    all: PathBuf,
    explore: PathBuf,
}

impl Binaries {
    fn find() -> Result<Self, String> {
        Ok(Binaries {
            validate: binary("validate")?,
            all: binary("all")?,
            explore: binary("dg-explore")?,
        })
    }
}

fn run_command(
    ctx: &Ctx,
    bins: &Binaries,
    cmd: Command,
    spec: &Path,
    doc: &Path,
    parent: u64,
    req: u64,
) -> Result<Finished, String> {
    let spec = spec.display().to_string();
    let doc = doc.display().to_string();
    match cmd {
        Command::Validate => ctx.tracer.span(Layer::Core, "validate", parent, req, |_| {
            run_fresh(&bins.validate, &[])
        }),
        Command::All => ctx.tracer.span(Layer::Core, "all", parent, req, |_| {
            run_fresh(&bins.all, &[])
        }),
        Command::Explore => ctx
            .tracer
            .span(Layer::Explore, "dg-explore", parent, req, |_| {
                run_fresh(&bins.explore, &["--spec", &spec, "--json", &doc, "--quiet"])
            }),
    }
}

/// Runs the three commands once, in a seeded order.
fn pass(ctx: &Ctx, bins: &Binaries, spec: &Path, rng: &mut Lcg, req: u64) -> Result<Pass, String> {
    let mut order = [Command::Validate, Command::All, Command::Explore];
    for i in (1..3).rev() {
        let j = usize::try_from(rng.below(i as u64 + 1)).unwrap_or(0);
        order.swap(i, j);
    }
    let doc = ctx.work_dir.join("explore.json");
    let _ = std::fs::remove_file(&doc);
    let start = Instant::now();
    ctx.tracer.span(Layer::Paper, "pass", 0, req, |id| {
        let mut p = Pass {
            walls: [0.0; 3],
            wall: 0.0,
            max_rss_kb: 0,
            validate_ok: false,
            all_ok: false,
            explore_doc: None,
        };
        for cmd in order {
            let done = run_command(ctx, bins, cmd, spec, &doc, id, req)?;
            p.max_rss_kb = p.max_rss_kb.max(done.max_rss_kb);
            let slot = cmd as usize;
            p.walls[slot] = done.wall.as_secs_f64();
            match cmd {
                Command::Validate => {
                    let text = String::from_utf8_lossy(&done.stdout);
                    let last = text.lines().last().unwrap_or("");
                    p.validate_ok = done.ok && last.starts_with("12/12 claims hold");
                }
                Command::All => p.all_ok = done.ok && !done.stdout.is_empty(),
                Command::Explore => {
                    p.explore_doc = done.ok.then(|| std::fs::read(&doc).ok()).flatten();
                }
            }
        }
        p.wall = start.elapsed().as_secs_f64();
        Ok(p)
    })
}

/// The `paper` workload's measurement.
pub fn measure(
    ctx: &mut Ctx,
    seconds: f64,
    setup_s: &mut Vec<f64>,
    out: &mut Metrics,
) -> Result<(), String> {
    let bins = Binaries::find()?;
    let mut rng = Lcg::new(ctx.seed ^ 0x9a9e);
    // Set-up: writing the seeded spec and one untimed pass, which loads
    // the three binaries.
    let mut spec = PathBuf::new();
    for k in 0..SETUPS {
        let start = Instant::now();
        spec = seeded_spec(ctx)?;
        pass(ctx, &bins, &spec, &mut rng, 1_000 + k)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let short = passes.len() < tail_min_samples();
        if (!short && elapsed >= seconds) || elapsed >= PASS_DEADLINE_S {
            break;
        }
        passes.push(pass(ctx, &bins, &spec, &mut rng, passes.len() as u64)?);
    }
    let total = start.elapsed().as_secs_f64();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let tail = tail_supported(walls.len()).ok_or("too few passes for a percentile")?;
    eprintln!("paper: {} passes, tail p{tail}", passes.len());
    ctx.ops(3 * passes.len() as u64, 0);
    // Passes per second: the median over slices of ten passes, so that a
    // burst of contention on the host moves one slice, not the run.
    #[allow(clippy::cast_precision_loss)]
    let rates: Vec<f64> = walls
        .chunks(10)
        .filter(|c| c.len() == 10)
        .map(|c| c.len() as f64 / c.iter().sum::<f64>())
        .collect();
    eprintln!("paper: {:.1} s for {} passes", total, passes.len());
    out.put("ops_per_s", median(&rates), "1/s");
    out.put("p50_ms", median(&walls) * 1e3, "ms");
    // The tail, like the rate, is a median over slices: of each slice's
    // tail, in slices of the fewest passes that support one.
    let slice = tail_min_samples();
    let tails: Vec<f64> = walls
        .chunks(slice)
        .filter(|c| c.len() == slice)
        .map(|c| percentile(c, tail))
        .collect();
    out.put("tail_ms", median(&tails) * 1e3, "ms");
    // The peak a pass's largest command reaches, as the median over
    // passes: the multi-threaded explore command's peak varies with how
    // its threads interleave, so the largest over hundreds of passes is
    // an extreme, not what a run costs.
    #[allow(clippy::cast_precision_loss)]
    let rss_mb: Vec<f64> = passes
        .iter()
        .map(|p| p.max_rss_kb as f64 / 1024.0)
        .collect();
    out.put("peak_rss_mb", median(&rss_mb), "MB");

    // Output checks: every validate grades 12/12, every `all` succeeds,
    // and every explore document is non-empty and byte-identical to the
    // first — and to a run at one worker thread.
    let first = passes[0].explore_doc.clone().unwrap_or_default();
    ctx.check(
        "validate reports 12/12 on every pass",
        passes.iter().all(|p| p.validate_ok),
        "",
    );
    ctx.check(
        "all succeeds on every pass",
        passes.iter().all(|p| p.all_ok),
        "",
    );
    ctx.check(
        "explore document non-empty and identical on every pass",
        !first.is_empty()
            && passes
                .iter()
                .all(|p| p.explore_doc.as_deref() == Some(&first[..])),
        "",
    );
    let doc1 = ctx.work_dir.join("explore_t1.json");
    let one = run_fresh(
        &bins.explore,
        &[
            "--spec",
            &spec.display().to_string(),
            "--json",
            &doc1.display().to_string(),
            "--quiet",
            "--threads",
            "1",
        ],
    )?;
    ctx.check(
        "explore document identical at --threads 1",
        one.ok && std::fs::read(&doc1).is_ok_and(|d| d == first),
        "",
    );

    if ctx.tracer.enabled() {
        for (k, name) in ["paper.validate_ms", "paper.all_ms", "paper.explore_ms"]
            .iter()
            .enumerate()
        {
            let v: Vec<f64> = passes.iter().map(|p| p.walls[k] * 1e3).collect();
            out.put(name, median(&v), "ms");
        }
    }
    Ok(())
}

/// One fresh-process run of each paper command, for a workload that runs
/// none of its own.
pub fn paper_probe(ctx: &Ctx, out: &mut Metrics) -> Result<(), String> {
    let bins = Binaries::find()?;
    let spec = seeded_spec(ctx)?;
    let doc = ctx.work_dir.join("explore.json");
    ctx.tracer.span(Layer::Paper, "pass", 0, 0, |id| {
        for (cmd, name) in [
            (Command::Validate, "paper.validate_ms"),
            (Command::All, "paper.all_ms"),
            (Command::Explore, "paper.explore_ms"),
        ] {
            let done = run_command(ctx, &bins, cmd, &spec, &doc, id, 0)?;
            if !done.ok {
                return Err(format!("{name}: command failed"));
            }
            out.put(name, done.wall.as_secs_f64() * 1e3, "ms");
        }
        Ok(())
    })
}
