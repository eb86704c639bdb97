//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer — the program under test carries no instrumentation — and kept
//! in memory until the run ends, when they are written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer a span's call goes into: one per crate the benchmark calls,
/// plus the load generator, the paper commands, and the benchmark's own
/// code (progress callbacks and checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Pdn,
    Engine,
    Core,
    Soc,
    Explore,
    Serve,
    Router,
    Load,
    Paper,
    Bench,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Pdn,
        Layer::Engine,
        Layer::Core,
        Layer::Soc,
        Layer::Explore,
        Layer::Serve,
        Layer::Router,
        Layer::Load,
        Layer::Paper,
        Layer::Bench,
    ];

    /// The layer's name in metrics and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pdn => "pdn",
            Layer::Engine => "engine",
            Layer::Core => "core",
            Layer::Soc => "soc",
            Layer::Explore => "explore",
            Layer::Serve => "serve",
            Layer::Router => "router",
            Layer::Load => "load",
            Layer::Paper => "paper",
            Layer::Bench => "bench",
        }
    }
}

/// One finished span, times in microseconds from the recorder's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span this one was called from (0 for a root).
    pub parent: u64,
    /// The layer the spanned call goes into.
    pub layer: Layer,
    /// What was called.
    pub name: &'static str,
    /// The request or lane group this span serves.
    pub req: u64,
    /// Start time.
    pub start_us: f64,
    /// End time.
    pub end_us: f64,
}

/// A span recorder; a disabled recorder times nothing and keeps nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// own child spans on (0 when tracing is off).
    pub fn span<R>(
        &self,
        layer: Layer,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now_us();
        let out = f(id);
        let end = self.now_us();
        self.push(Span {
            id,
            parent,
            layer,
            name,
            req,
            start_us: start,
            end_us: end,
        });
        out
    }

    /// Records a span whose interval was measured by the caller, as
    /// `Instant`s, returning its id (0 when tracing is off).
    pub fn record(
        &self,
        layer: Layer,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.push(Span {
            id,
            parent,
            layer,
            name,
            req,
            start_us: us(start),
            end_us: us(end),
        });
        id
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(span);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"req\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.parent, s.layer.name(), s.name, s.req, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Each layer's self time in milliseconds: every span's duration minus the
/// part of its interval that its child spans cover (overlapping children,
/// as from parallel workers, are counted once), summed per layer.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<Layer, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    let mut out: BTreeMap<Layer, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0.0, |kids| covered_us(s.start_us, s.end_us, kids));
        *out.entry(s.layer).or_default() += (s.end_us - s.start_us - covered).max(0.0) / 1e3;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_us(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: Layer, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            req: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // 10 ms parent with a 3 ms and a 2 ms child, and a grandchild of
        // 1 ms inside the 3 ms child.
        let spans = [
            span(1, 0, Layer::Load, 0.0, 10_000.0),
            span(2, 1, Layer::Router, 1_000.0, 4_000.0),
            span(3, 1, Layer::Router, 6_000.0, 8_000.0),
            span(4, 2, Layer::Serve, 2_000.0, 3_000.0),
        ];
        let t = self_time_ms(&spans);
        assert!((t[&Layer::Load] - 5.0).abs() < 1e-9);
        assert!((t[&Layer::Router] - 4.0).abs() < 1e-9);
        assert!((t[&Layer::Serve] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span(1, 0, Layer::Engine, 0.0, 10_000.0),
            span(2, 1, Layer::Pdn, 1_000.0, 6_000.0),
            span(3, 1, Layer::Pdn, 4_000.0, 7_000.0),
            // Runs past its parent's end: only the inside part counts.
            span(4, 1, Layer::Pdn, 9_000.0, 12_000.0),
        ];
        let t = self_time_ms(&spans);
        assert!((t[&Layer::Engine] - 3.0).abs() < 1e-9);
        assert!((t[&Layer::Pdn] - 11.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let t = Tracer::new(false);
        let v = t.span(Layer::Pdn, "x", 0, 0, |id| id + 41);
        assert_eq!(v, 41);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        let parent = on.span(Layer::Load, "outer", 0, 7, |id| {
            on.span(Layer::Router, "inner", id, 7, |_| ());
            id
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans
            .iter()
            .any(|s| s.parent == parent && s.layer == Layer::Router));
    }
}
