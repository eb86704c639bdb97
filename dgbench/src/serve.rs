//! The `serve-hot` and `serve-cold` workloads: an open loop at a ladder of
//! fixed rates against `dg-router` in front of two disk-cached `dg-serve`
//! shards, then a closed-loop saturation phase; plus the in-process
//! `dg-serve` layer probes and the router hop.

use crate::proc::Fleet;
use crate::stats::{
    max_passing_rung, median, percentile, phase_meets, tail_percentile, tail_supported, Sample,
    TAIL_P,
};
use crate::{uniform, Ctx, Layer, Metrics};
use darkgates::json::{self, Json};
use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
use darkgates::pdn::transient::{LoadStep, TransientSim};
use darkgates::pdn::units::{Amps, Seconds, Volts};
use dg_serve::client::{read_framed_reply, KeepAliveClient, Lcg};
use dg_serve::http::{write_response, ParserLimits, Request, RequestParser};
use dg_serve::metrics::Metrics as ServeMetrics;
use dg_serve::proxy::RouterConfig;
use dg_serve::ring::HashRing;
use dg_serve::routes::{content_key_of, Router};
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client threads and connections, and every server pool's size: the
/// benchmark host's two cores.
pub const THREADS: usize = 2;

/// One request of a mix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Req {
    pub method: &'static str,
    pub path: &'static str,
    pub body: String,
}

impl Req {
    fn new(method: &'static str, path: &'static str, body: String) -> Self {
        Req { method, path, body }
    }

    /// The key the router hashes and the shard caches under.
    pub fn key(&self) -> u64 {
        content_key_of(self.method, self.path, self.body.as_bytes())
    }

    /// Whether some cache layer answers a repeat of this request.
    pub fn cacheable(&self) -> bool {
        !matches!(self.path, "/healthz" | "/metrics")
    }

    /// The request as an HTTP/1.1 message.
    fn raw(&self) -> Vec<u8> {
        format!(
            "{} {} HTTP/1.1\r\nHost: dg-serve\r\nContent-Length: {}\r\n\r\n{}",
            self.method,
            self.path,
            self.body.len(),
            self.body
        )
        .into_bytes()
    }

    fn parsed(&self) -> Request {
        Request {
            method: self.method.to_owned(),
            target: self.path.to_owned(),
            headers: Vec::new(),
            body: self.body.clone().into_bytes(),
        }
    }
}

/// The route slots of dg-load's valid mix, with its weights out of 17.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Healthz,
    Claims,
    Droop,
    Sweep,
    ProductSpec,
    ProductEnergy,
    Metrics,
    Batch,
    Explore,
    DroopSweep,
}

const SLOTS: [Slot; 17] = [
    Slot::Healthz,
    Slot::Healthz,
    Slot::Claims,
    Slot::Droop,
    Slot::Droop,
    Slot::Droop,
    Slot::Droop,
    Slot::Sweep,
    Slot::Sweep,
    Slot::Sweep,
    Slot::ProductSpec,
    Slot::ProductSpec,
    Slot::ProductEnergy,
    Slot::Metrics,
    Slot::Batch,
    Slot::Explore,
    Slot::DroopSweep,
];

/// The slot order: blocks of the 17 slots, each block a seeded
/// permutation, so every block carries the mix's exact route proportions.
fn slot_order(rng: &mut Lcg, n: usize) -> Vec<Slot> {
    let mut out = Vec::with_capacity(n + SLOTS.len());
    while out.len() < n {
        let mut block = SLOTS;
        for i in (1..block.len()).rev() {
            let j = usize::try_from(rng.below(i as u64 + 1)).unwrap_or(0);
            block.swap(i, j);
        }
        out.extend_from_slice(&block);
    }
    out.truncate(n);
    out
}

fn variant(rng: &mut Lcg) -> &'static str {
    if rng.below(2) == 0 {
        "gated"
    } else {
        "bypassed"
    }
}

/// A hot request: one of the 18 distinct bodies of dg-load's valid mix.
fn hot_req(slot: Slot, rng: &mut Lcg) -> Req {
    match slot {
        Slot::Healthz => Req::new("GET", "/healthz", String::new()),
        Slot::Claims => Req::new("GET", "/v1/claims", String::new()),
        Slot::Metrics => Req::new("GET", "/metrics", String::new()),
        Slot::Droop => Req::new(
            "POST",
            "/v1/droop",
            format!("{{\"variant\":\"gated\",\"from_a\":10,\"to_a\":{}}}", 40 + 10 * rng.below(4)),
        ),
        Slot::Sweep => Req::new(
            "POST",
            "/v1/sweep",
            format!("{{\"variant\":\"{}\",\"points\":128,\"decimate\":16}}", variant(rng)),
        ),
        Slot::ProductSpec => Req::new(
            "POST",
            "/v1/product",
            "{\"design\":\"desktop\",\"tdp_w\":91,\"workload\":{\"kind\":\"spec\",\"benchmark\":\"444.namd\",\"mode\":\"base\"}}".to_owned(),
        ),
        Slot::ProductEnergy => Req::new(
            "POST",
            "/v1/product",
            "{\"design\":\"mobile\",\"tdp_w\":45,\"workload\":{\"kind\":\"energy\",\"name\":\"energy-star\"}}".to_owned(),
        ),
        Slot::Batch => {
            let steps: Vec<String> = (0..2 + rng.below(3))
                .map(|k| format!("{{\"from_a\":10,\"to_a\":{}}}", 40 + 10 * k))
                .collect();
            Req::new(
                "POST",
                "/v1/droop_batch",
                format!("{{\"variant\":\"gated\",\"steps\":[{}]}}", steps.join(",")),
            )
        }
        Slot::Explore => Req::new(
            "POST",
            "/v1/explore",
            format!(
                "{{\"seed\":{},\"tech_nodes\":[45,22],\"tdp_w\":[45,91],\"big_perf\":[20],\"small_perf\":[2],\"fraction_parallelism\":[0.9]}}",
                rng.below(2)
            ),
        ),
        Slot::DroopSweep => Req::new(
            "POST",
            "/v1/droop_sweep",
            format!(
                "{{\"variant\":\"gated\",\"quiescent_a\":10,\"delta\":{{\"start_a\":20,\"stop_a\":40,\"points\":{}}}}}",
                2 + rng.below(2)
            ),
        ),
    }
}

/// Every `/v1/product` body the cold mix can send, in a seeded order:
/// design × catalog TDP × workload, each used at most once per run.
fn product_deck(rng: &mut Lcg) -> Vec<String> {
    let mut workloads: Vec<String> = Vec::new();
    for bench in darkgates::workloads::spec::suite() {
        for mode in ["base", "rate"] {
            workloads.push(format!(
                "{{\"kind\":\"spec\",\"benchmark\":\"{}\",\"mode\":\"{mode}\"}}",
                bench.name
            ));
        }
    }
    for name in ["energy-star", "rmt", "video-conferencing", "web-browsing"] {
        workloads.push(format!("{{\"kind\":\"energy\",\"name\":\"{name}\"}}"));
    }
    for scene in darkgates::workloads::graphics::three_dmark_suite() {
        workloads.push(format!(
            "{{\"kind\":\"graphics\",\"scene\":\"{}\"}}",
            scene.name
        ));
    }
    let mut deck = Vec::new();
    for design in ["desktop", "mobile"] {
        for tdp in darkgates::soc::products::Product::skylake_tdp_levels() {
            for w in &workloads {
                deck.push(format!(
                    "{{\"design\":\"{design}\",\"tdp_w\":{},\"workload\":{w}}}",
                    tdp.value()
                ));
            }
        }
    }
    for i in (1..deck.len()).rev() {
        let j = usize::try_from(rng.below(i as u64 + 1)).unwrap_or(0);
        deck.swap(i, j);
    }
    deck
}

/// A cold request for `slot`: the hot mix's route with its continuous
/// parameters drawn from the seed. `GET /v1/claims` has no parameters,
/// so it cannot miss twice; its slot sends a product request instead.
fn cold_req(slot: Slot, rng: &mut Lcg, deck: &mut Vec<String>) -> Req {
    match slot {
        Slot::Healthz => Req::new("GET", "/healthz", String::new()),
        Slot::Metrics => Req::new("GET", "/metrics", String::new()),
        Slot::Claims | Slot::ProductSpec | Slot::ProductEnergy => match deck.pop() {
            Some(body) => Req::new("POST", "/v1/product", body),
            None => cold_req(Slot::Droop, rng, deck),
        },
        Slot::Droop => {
            let (from, to, slew) = (
                uniform(rng, 5.0, 15.0),
                uniform(rng, 40.0, 70.0),
                uniform(rng, 0.0, 20.0),
            );
            Req::new(
                "POST",
                "/v1/droop",
                format!(
                    "{{\"variant\":\"{}\",\"from_a\":{from},\"to_a\":{to},\"slew_ns\":{slew}}}",
                    variant(rng)
                ),
            )
        }
        Slot::Sweep => {
            let (start, stop) = (uniform(rng, 1e4, 2e4), uniform(rng, 0.9e9, 1e9));
            Req::new(
                "POST",
                "/v1/sweep",
                format!(
                    "{{\"variant\":\"{}\",\"start_hz\":{start},\"stop_hz\":{stop},\"points\":128,\"decimate\":16}}",
                    variant(rng)
                ),
            )
        }
        Slot::Batch => {
            let lanes = 2 + rng.below(3);
            let steps: Vec<String> = (0..lanes)
                .map(|_| format!("{{\"from_a\":10,\"to_a\":{}}}", uniform(rng, 40.0, 70.0)))
                .collect();
            Req::new(
                "POST",
                "/v1/droop_batch",
                format!(
                    "{{\"variant\":\"{}\",\"steps\":[{}]}}",
                    variant(rng),
                    steps.join(",")
                ),
            )
        }
        Slot::Explore => {
            let (lo, hi, fp) = (
                uniform(rng, 30.0, 60.0),
                uniform(rng, 80.0, 120.0),
                uniform(rng, 0.8, 0.99),
            );
            Req::new(
                "POST",
                "/v1/explore",
                format!(
                    "{{\"seed\":{},\"tech_nodes\":[45,22],\"tdp_w\":[{lo},{hi}],\"big_perf\":[20],\"small_perf\":[2],\"fraction_parallelism\":[{fp}]}}",
                    rng.below(1 << 20)
                ),
            )
        }
        Slot::DroopSweep => {
            let (start, stop) = (uniform(rng, 10.0, 20.0), uniform(rng, 30.0, 60.0));
            Req::new(
                "POST",
                "/v1/droop_sweep",
                format!(
                    "{{\"variant\":\"{}\",\"quiescent_a\":10,\"slew_ns\":{},\"delta\":{{\"start_a\":{start},\"stop_a\":{stop},\"points\":{}}}}}",
                    variant(rng),
                    uniform(rng, 0.0, 20.0),
                    2 + rng.below(2)
                ),
            )
        }
    }
}

/// Which traffic a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The 18 distinct bodies of dg-load's valid mix, warmed before timing.
    Hot,
    /// The same routes and proportions with no cache key ever repeated.
    Cold,
}

/// `n` requests of `mix` for `seed`, in send order. A cold stream never
/// repeats the cache key of a cacheable request.
pub fn stream(mix: Mix, seed: u64, n: usize) -> Vec<Req> {
    let mut rng = Lcg::new(seed ^ if mix == Mix::Hot { 0x407 } else { 0xc01d });
    let mut deck = product_deck(&mut rng);
    let mut seen = HashSet::new();
    slot_order(&mut rng, n)
        .into_iter()
        .map(|slot| match mix {
            Mix::Hot => hot_req(slot, &mut rng),
            Mix::Cold => loop {
                let req = cold_req(slot, &mut rng, &mut deck);
                if !req.cacheable() || seen.insert(req.key()) {
                    break req;
                }
            },
        })
        .collect()
}

/// The distinct requests of the hot mix (18), in first-seen order.
pub fn hot_bodies(seed: u64) -> Vec<Req> {
    let mut seen = HashSet::new();
    let mut distinct = stream(Mix::Hot, seed, 17 * 12);
    distinct.retain(|r| seen.insert(r.clone()));
    distinct
}

/// The plan of a serve workload's run.
struct Plan {
    /// Offered open-loop rates in requests per second, ascending.
    rungs: &'static [f64],
    /// The rung end-to-end latency is reported at.
    reference: usize,
    /// Share of the run each other rung gets, once, before the rounds.
    rung_share: f64,
    /// Share of the run the reference rate gets, spread over the rounds.
    reference_share: f64,
    /// Rounds of one reference slice and one saturation slice, which
    /// share the rest of the run. Interleaving them spreads both figures
    /// over the whole run, so a few seconds of contention on the host
    /// move a few slices of each, not all of one.
    rounds: usize,
    /// The latency limit the tail must meet for a rung to count.
    limit_s: f64,
    /// Requests drawn per second of saturation: far above what the
    /// connections complete (hot requests repeat anyway, so the hot mix
    /// cycles through fewer).
    saturation_rps: f64,
}

fn plan(mix: Mix) -> Plan {
    match mix {
        Mix::Hot => Plan {
            rungs: &[800.0, 1600.0, 3200.0, 6400.0, 12800.0],
            reference: 1,
            rung_share: 0.05,
            reference_share: 0.5,
            rounds: 8,
            limit_s: 0.005,
            saturation_rps: 1_000.0,
        },
        Mix::Cold => Plan {
            rungs: &[5.0, 10.0, 20.0, 40.0],
            reference: 1,
            rung_share: 0.07,
            reference_share: 0.55,
            rounds: 8,
            limit_s: 0.5,
            saturation_rps: 400.0,
        },
    }
}

/// p50 and [`TAIL_P`] latency of the reference slices: the median over
/// slices of each slice's figure when every slice supports the tail,
/// else the figures of all slices pooled.
fn reference_latency(slices: &[Vec<Outcome>]) -> Option<(f64, f64)> {
    let lat = |o: &[Outcome]| o.iter().map(|x| x.sample.latency()).collect::<Vec<f64>>();
    if slices.iter().all(|s| tail_supported(s.len()).is_some()) {
        let p50s: Vec<f64> = slices.iter().map(|s| median(&lat(s))).collect();
        let tails: Vec<f64> = slices.iter().map(|s| percentile(&lat(s), TAIL_P)).collect();
        return Some((median(&p50s), median(&tails)));
    }
    let pooled: Vec<f64> = slices.iter().flat_map(|s| lat(s)).collect();
    tail_supported(pooled.len())?;
    Some((median(&pooled), percentile(&pooled, TAIL_P)))
}

/// What one request of a phase came back with.
#[derive(Debug, Clone)]
struct Outcome {
    sample: Sample,
    /// False for an open-loop request still unsent when its window ended.
    sent: bool,
    /// HTTP status, or 0 for a transport failure.
    status: u16,
    body: String,
}

/// Sends `reqs` to `addr` in an open loop from [`THREADS`] keep-alive
/// connections: request `i` is due `i / rate` seconds after the start, a
/// late reply delays later sends, and the delay is charged to them.
/// Requests still unsent when `window` ends count as failed.
fn run_phase(
    ctx: &Ctx,
    addr: SocketAddr,
    reqs: &[Req],
    rate: f64,
    window: f64,
    tag: u64,
) -> Vec<Outcome> {
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Outcome)>> = Mutex::new(Vec::with_capacity(reqs.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let mut client = KeepAliveClient::with_timeout(addr, Duration::from_secs(10));
                let mut mine = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    #[allow(clippy::cast_precision_loss)]
                    let due = i as f64 / rate;
                    let now = start.elapsed().as_secs_f64();
                    if due >= window {
                        break;
                    }
                    if now >= window {
                        let sample = Sample {
                            due,
                            sent: now,
                            done: None,
                        };
                        mine.push((
                            i,
                            Outcome {
                                sample,
                                sent: false,
                                status: 0,
                                body: String::new(),
                            },
                        ));
                        continue;
                    }
                    if due > now {
                        std::thread::sleep(Duration::from_secs_f64(due - now));
                    }
                    let sent_at = Instant::now();
                    let sent = start.elapsed().as_secs_f64();
                    let body = (req.method == "POST").then_some(req.body.as_str());
                    let reply = client.request(req.method, req.path, body);
                    let done_at = Instant::now();
                    let done = start.elapsed().as_secs_f64();
                    let (status, text) = reply.map_or((0, String::new()), |r| (r.status, r.body));
                    if ctx.tracer.enabled() {
                        let due_at = start + Duration::from_secs_f64(due);
                        let req_id = (tag << 32) | i as u64;
                        let parent =
                            ctx.tracer
                                .record(Layer::Load, "request", 0, req_id, due_at, done_at);
                        ctx.tracer.record(
                            Layer::Router,
                            "forward",
                            parent,
                            req_id,
                            sent_at,
                            done_at,
                        );
                    }
                    let sample = Sample {
                        due,
                        sent,
                        done: (status == 200).then_some(done),
                    };
                    mine.push((
                        i,
                        Outcome {
                            sample,
                            sent: true,
                            status,
                            body: text,
                        },
                    ));
                }
                results
                    .lock()
                    .expect("result buffer lock poisoned by a panicking client")
                    .extend(mine);
            });
        }
    });
    let mut all = results
        .into_inner()
        .expect("result buffer lock poisoned by a panicking client");
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, o)| o).collect()
}

/// Requests each connection keeps in flight in the saturation phase.
const PIPELINE_DEPTH: usize = 8;

/// The closed-loop saturation phase: [`THREADS`] connections, each
/// writing [`PIPELINE_DEPTH`] requests back to back (HTTP/1.1 pipelining)
/// and reading their replies before sending the next batch, cycling
/// through `reqs` until `window` ends. With only two connections and one
/// request in flight on each, throughput would measure thread wake-ups
/// rather than capacity. When a server closes the connection (its
/// per-connection request cap), the unanswered rest of the batch is sent
/// again on a fresh one.
fn saturate(addr: SocketAddr, reqs: &[Req], window: f64) -> Vec<Outcome> {
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let connect = || -> Option<TcpStream> {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nodelay(true).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok()?;
        Some(stream)
    };
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut leftover = Vec::new();
                let mut pending: Vec<usize> = Vec::new();
                let mut stream = connect();
                // Whether the current connection has answered anything.
                let mut used = false;
                while let Some(conn) = stream.as_mut() {
                    if pending.is_empty() {
                        if start.elapsed().as_secs_f64() >= window {
                            break;
                        }
                        let first = cursor.fetch_add(PIPELINE_DEPTH, Ordering::Relaxed);
                        pending.extend(first..first + PIPELINE_DEPTH);
                    }
                    let batch: Vec<u8> = pending
                        .iter()
                        .flat_map(|&i| reqs[i % reqs.len()].raw())
                        .collect();
                    let sent = start.elapsed().as_secs_f64();
                    let mut answered = 0;
                    let mut closed = conn.write_all(&batch).is_err();
                    while !closed && answered < pending.len() {
                        let Ok(reply) = read_framed_reply(conn, &mut leftover) else {
                            closed = true;
                            break;
                        };
                        let done = start.elapsed().as_secs_f64();
                        let sample = Sample {
                            due: sent,
                            sent,
                            done: (reply.status == 200).then_some(done),
                        };
                        mine.push(Outcome {
                            sample,
                            sent: true,
                            status: reply.status,
                            body: String::new(),
                        });
                        answered += 1;
                        closed = reply
                            .header("connection")
                            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                    }
                    pending.drain(..answered);
                    used |= answered > 0;
                    if closed {
                        leftover.clear();
                        // A fresh connection that answered nothing is a
                        // failure, not a request cap: give the batch up.
                        if !used {
                            let sample = Sample {
                                due: sent,
                                sent,
                                done: None,
                            };
                            mine.extend(pending.drain(..).map(|_| Outcome {
                                sample,
                                sent: true,
                                status: 0,
                                body: String::new(),
                            }));
                            break;
                        }
                        stream = connect();
                        used = false;
                    }
                }
                results
                    .lock()
                    .expect("result buffer lock poisoned by a panicking client")
                    .extend(mine);
            });
        }
    });
    results
        .into_inner()
        .expect("result buffer lock poisoned by a panicking client")
}

/// Counter totals from a `/metrics` page, summed over shard labels;
/// `cacheable_2xx` totals the shards' successful cacheable-route replies.
fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Ok(reply) = dg_serve::client::http_request(addr, "GET", "/metrics", None) else {
        return out;
    };
    for line in reply.body.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let name = series.split('{').next().unwrap_or(series);
        *out.entry(name.to_owned()).or_insert(0.0) += value;
        let cacheable = [
            "droop",
            "droop_batch",
            "sweep",
            "product",
            "explore",
            "droop_sweep",
            "claims",
        ]
        .iter()
        .any(|r| series.contains(&format!("route=\"{r}\"")));
        if name == "dg_requests_total" && series.contains("class=\"2xx\"") && cacheable {
            *out.entry("cacheable_2xx".to_owned()).or_insert(0.0) += value;
        }
    }
    out
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// One phase's accounting.
#[derive(Debug, Default)]
struct PhaseReport {
    sent: usize,
    ok: usize,
    failed: usize,
    shed: usize,
    lag_mean_s: f64,
    counters: BTreeMap<String, f64>,
}

fn account(
    outcomes: &[Outcome],
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> PhaseReport {
    let sent: Vec<&Outcome> = outcomes.iter().filter(|o| o.sent).collect();
    let names = [
        "dg_resp_cache_hits_total",
        "cacheable_2xx",
        "dg_disk_cache_hits_total",
        "dg_disk_cache_stores_total",
        "dg_coalesced_total",
        "dg_shed_total",
        "dg_router_shed_total",
        "dg_router_cache_hits_total",
        "dg_router_requests_total",
        "dg_router_retries_total",
    ];
    #[allow(clippy::cast_precision_loss)]
    let lag_mean_s = sent.iter().map(|o| o.sample.lag()).sum::<f64>() / sent.len().max(1) as f64;
    PhaseReport {
        sent: sent.len(),
        ok: sent.iter().filter(|o| o.status == 200).count(),
        failed: sent.iter().filter(|o| o.status != 200).count(),
        shed: sent.iter().filter(|o| o.status == 503).count(),
        lag_mean_s,
        counters: names
            .iter()
            .map(|&n| (n.to_owned(), delta(before, after, n)))
            .collect(),
    }
}

/// Spawns the fleet and readies it: `/healthz` through the router, and
/// for the hot mix every distinct body once (the second send of each
/// fills the router's reply cache from the shard's).
fn ready_fleet(ctx: &Ctx, mix: Mix, k: usize) -> Result<Fleet, String> {
    let fleet = Fleet::spawn(&ctx.work_dir.join(format!("fleet{k}")), THREADS)?;
    if mix == Mix::Hot {
        let mut client = KeepAliveClient::new(fleet.router.addr);
        let distinct = hot_bodies(ctx.seed);
        for _ in 0..2 {
            for r in &distinct {
                let body = (r.method == "POST").then_some(r.body.as_str());
                let reply = client
                    .request(r.method, r.path, body)
                    .map_err(|e| format!("warm-up: {e}"))?;
                if reply.status != 200 {
                    return Err(format!(
                        "warm-up {} {} answered {}",
                        r.method, r.path, reply.status
                    ));
                }
            }
        }
    }
    Ok(fleet)
}

/// A serve workload's measurement.
pub fn measure(
    ctx: &mut Ctx,
    mix: Mix,
    seconds: f64,
    setup_s: &mut Vec<f64>,
    out: &mut Metrics,
) -> Result<(), String> {
    let plan = plan(mix);
    // Set-up: five fresh fleets, readied; the last one is measured.
    let mut fleet = None;
    for k in 0..5 {
        drop(fleet.take());
        let start = Instant::now();
        fleet = Some(ready_fleet(ctx, mix, k)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let fleet = fleet.ok_or("no fleet")?;
    let addr = fleet.router.addr;

    // The phases: every other rung once, then the interleaved rounds.
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Rung(usize),
        Reference,
        Saturation,
    }
    let reference_rate = plan.rungs[plan.reference];
    #[allow(clippy::cast_precision_loss)]
    let rounds = plan.rounds as f64;
    let mut phases: Vec<(Kind, f64)> = (0..plan.rungs.len())
        .filter(|&i| i != plan.reference)
        .map(|i| (Kind::Rung(i), plan.rung_share * seconds))
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let saturation_share =
        1.0 - plan.reference_share - plan.rung_share * (plan.rungs.len() - 1) as f64;
    for _ in 0..plan.rounds {
        phases.push((Kind::Reference, plan.reference_share * seconds / rounds));
        phases.push((Kind::Saturation, saturation_share * seconds / rounds));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let count = |kind: Kind, window: f64| -> usize {
        let rate = match kind {
            Kind::Rung(i) => plan.rungs[i],
            Kind::Reference => reference_rate,
            Kind::Saturation => plan.saturation_rps,
        };
        (rate * window).ceil() as usize
    };
    let total: usize = phases.iter().map(|&(k, w)| count(k, w)).sum();
    let reqs = stream(mix, ctx.seed, total);

    let mut rung_verdicts = vec![false; plan.rungs.len()];
    let mut reference: Vec<Vec<Outcome>> = Vec::new();
    let mut reference_reqs: Vec<Req> = Vec::new();
    let mut goodputs = Vec::new();
    let mut sums = PhaseReport::default();
    let mut lags = Vec::new();
    let mut offset = 0;
    for (p, &(kind, window)) in phases.iter().enumerate() {
        let slice = &reqs[offset..offset + count(kind, window)];
        offset += slice.len();
        let before = scrape(addr);
        let outcomes = match kind {
            Kind::Rung(i) => run_phase(ctx, addr, slice, plan.rungs[i], window, p as u64),
            Kind::Reference => run_phase(ctx, addr, slice, reference_rate, window, p as u64),
            Kind::Saturation => saturate(addr, slice, window),
        };
        let after = scrape(addr);
        let report = account(&outcomes, &before, &after);
        let lat: Vec<f64> = outcomes.iter().map(|o| o.sample.latency()).collect();
        let label = match kind {
            Kind::Rung(i) => format!("{} rps", plan.rungs[i]),
            Kind::Reference => format!("{reference_rate} rps (reference)"),
            Kind::Saturation => "saturation".to_owned(),
        };
        eprintln!(
            "{label}: sent {} ok {} failed {} shed {} | p50 {:.3} ms p{TAIL_P} {:.3} ms | lag {:.3} ms | {:?}",
            report.sent,
            report.ok,
            report.failed,
            report.shed,
            median(&lat) * 1e3,
            percentile(&lat, TAIL_P) * 1e3,
            report.lag_mean_s * 1e3,
            report.counters
        );
        match kind {
            Kind::Rung(i) => {
                let samples: Vec<Sample> = outcomes.iter().map(|o| o.sample).collect();
                let tail = tail_percentile(samples.len()).unwrap_or(50.0);
                rung_verdicts[i] = phase_meets(&samples, tail, plan.limit_s);
            }
            Kind::Reference => {
                lags.extend(outcomes.iter().map(|o| o.sample.lag()));
                reference_reqs.extend_from_slice(&slice[..outcomes.len()]);
                reference.push(outcomes);
            }
            // Only replies completed inside the window count: a batch
            // still in flight when it ends would otherwise add whole
            // batches and quantize the figure.
            #[allow(clippy::cast_precision_loss)]
            Kind::Saturation => goodputs.push(
                outcomes
                    .iter()
                    .filter(|o| o.sample.done.is_some_and(|d| d <= window))
                    .count() as f64
                    / window,
            ),
        }
        sums.sent += report.sent;
        sums.ok += report.ok;
        sums.failed += report.failed;
        sums.shed += report.shed;
        for (k, v) in report.counters {
            *sums.counters.entry(k).or_insert(0.0) += v;
        }
    }
    ctx.ops(sums.sent as u64, sums.failed as u64);

    let (p50, tail) = reference_latency(&reference).ok_or("too few reference-rate samples")?;
    let reference: Vec<Outcome> = reference.into_iter().flatten().collect();
    eprintln!(
        "reference {reference_rate} rps: {} samples, tail p{TAIL_P}",
        reference.len()
    );
    out.put("ops_per_s", median(&goodputs), "1/s");
    out.put("p50_ms", p50 * 1e3, "ms");
    out.put("tail_ms", tail * 1e3, "ms");
    out.put("peak_rss_mb", fleet.peak_rss_mb(), "MB");

    check_replies(ctx, &reference_reqs, &reference);

    if ctx.tracer.enabled() {
        let samples: Vec<Sample> = reference.iter().map(|o| o.sample).collect();
        let tail = tail_percentile(samples.len()).unwrap_or(50.0);
        rung_verdicts[plan.reference] = phase_meets(&samples, tail, plan.limit_s);
        let max_rps = max_passing_rung(&rung_verdicts).map_or(0.0, |i| plan.rungs[i]);
        out.put("load.max_rps", max_rps, "1/s");
        load_metrics(&sums, &lags, out);
        hop(ctx, &fleet, &reference_reqs, reference_rate, out);
    }
    Ok(())
}

/// Per-layer accounting of the load generator, the shards and the router.
#[allow(clippy::cast_precision_loss)]
fn load_metrics(sums: &PhaseReport, lags: &[f64], out: &mut Metrics) {
    let c = |n: &str| sums.counters.get(n).copied().unwrap_or(0.0);
    out.put(
        "load.lag_ms",
        lags.iter().sum::<f64>() / lags.len().max(1) as f64 * 1e3,
        "ms",
    );
    out.put("load.sent", sums.sent as f64, "count");
    out.put("load.succeeded", sums.ok as f64, "count");
    out.put("load.failed", sums.failed as f64, "count");
    out.put("load.shed", sums.shed as f64, "count");
    out.put(
        "serve.resp_cache_hit_ratio",
        c("dg_resp_cache_hits_total") / c("cacheable_2xx").max(1.0),
        "ratio",
    );
    out.put(
        "serve.disk_cache_hits",
        c("dg_disk_cache_hits_total"),
        "count",
    );
    out.put(
        "serve.disk_cache_stores",
        c("dg_disk_cache_stores_total"),
        "count",
    );
    out.put("serve.coalesced", c("dg_coalesced_total"), "count");
    out.put(
        "serve.shed",
        c("dg_shed_total") + c("dg_router_shed_total"),
        "count",
    );
    out.put(
        "router.reply_cache_hit_ratio",
        c("dg_router_cache_hits_total") / c("dg_router_requests_total").max(1.0),
        "ratio",
    );
    out.put("router.retries", c("dg_router_retries_total"), "count");
}

/// The router's hop: the reference rung's requests replayed at the
/// reference rate through the router, then straight to each request's
/// owning shard; p50 of the first minus p50 of the second.
fn hop(ctx: &Ctx, fleet: &Fleet, reqs: &[Req], rate: f64, out: &mut Metrics) {
    let n = reqs.len().min(600);
    #[allow(clippy::cast_precision_loss)]
    let window = n as f64 / rate + 1.0;
    let via_router = run_phase(ctx, fleet.router.addr, &reqs[..n], rate, window, 100);
    let ring = HashRing::new(fleet.shards.len(), RouterConfig::default().replicas);
    let mut direct = Vec::new();
    for (s, shard) in fleet.shards.iter().enumerate() {
        let mine: Vec<Req> = reqs[..n]
            .iter()
            .filter(|r| ring.route(r.key(), |_| true) == Some(s))
            .cloned()
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let shard_rate = rate * mine.len() as f64 / n as f64;
        direct.extend(run_phase(
            ctx,
            shard.addr,
            &mine,
            shard_rate.max(1.0),
            window,
            101 + s as u64,
        ));
    }
    let p50 = |o: &[Outcome]| median(&o.iter().map(|x| x.sample.latency()).collect::<Vec<_>>());
    out.put(
        "router.hop_ms",
        (p50(&via_router) - p50(&direct)) * 1e3,
        "ms",
    );
}

/// Output checks on a seeded sample of replies: each must be
/// byte-identical to the dg-serve library's own handler for the same
/// request, and a droop reply's numbers must be bit-identical to a
/// direct `TransientSim::run`.
fn check_replies(ctx: &mut Ctx, reqs: &[Req], outcomes: &[Outcome]) {
    let mut rng = Lcg::new(ctx.seed ^ 0x5e7);
    let router = library_router();
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < 8.min(outcomes.len()) {
        let i = usize::try_from(rng.below(outcomes.len() as u64)).unwrap_or(0);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    for i in picked {
        let (req, got) = (&reqs[i], &outcomes[i]);
        if got.status != 200 {
            ctx.check(
                "sampled reply is 200",
                false,
                &format!("{} {} -> {}", req.method, req.path, got.status),
            );
            continue;
        }
        match req.path {
            "/healthz" | "/metrics" => {
                ctx.check(
                    "status reply is well-formed",
                    !got.body.is_empty(),
                    req.path,
                );
            }
            _ => {
                let (_, expected) = router.handle(&req.parsed());
                let served = got.body.trim_end().lines().last().unwrap_or("");
                ctx.check(
                    "reply equals the library handler's body",
                    served == expected.body.trim_end(),
                    &format!("{} {} {}", req.method, req.path, req.body),
                );
                if req.path == "/v1/droop" {
                    ctx.check(
                        "droop reply equals TransientSim::run",
                        droop_matches(req, served),
                        &req.body,
                    );
                }
            }
        }
    }
}

/// An in-process dg-serve router: the library the replies must match.
fn library_router() -> Router {
    Router::new(
        Arc::new(ServeMetrics::default()),
        Arc::new(AtomicBool::new(false)),
        false,
    )
}

/// Whether a served `/v1/droop` reply carries exactly the droop and final
/// voltage a direct library call computes.
fn droop_matches(req: &Req, served: &str) -> bool {
    let (Ok(params), Ok(reply)) = (json::parse(&req.body), json::parse(served)) else {
        return false;
    };
    let num = |v: &Json, k: &str, d: f64| v.get(k).and_then(Json::as_f64).unwrap_or(d);
    let variant = match params.get("variant").and_then(Json::as_str) {
        Some("bypassed") => PdnVariant::Bypassed,
        _ => PdnVariant::Gated,
    };
    let r = TransientSim::droop_capture(Volts::new(num(&params, "source_v", 1.0))).run(
        &SkylakePdn::build(variant).ladder,
        LoadStep {
            from: Amps::new(num(&params, "from_a", 10.0)),
            to: Amps::new(num(&params, "to_a", 60.0)),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(num(&params, "slew_ns", 0.0)),
        },
    );
    let Some(result) = reply.get("result") else {
        return false;
    };
    num(result, "droop_mv", f64::NAN).to_bits() == r.droop().as_mv().to_bits()
        && num(result, "v_final", f64::NAN).to_bits() == r.v_final.value().to_bits()
}

/// Per-call costs of the dg-serve library on `reqs`: parsing, the
/// memory-tier cache lookup, rendering, and the handler on a fresh key
/// (the first `fresh` requests, which no cache has seen).
pub fn serve_probe(ctx: &Ctx, reqs: &[Req], fresh: usize, out: &mut Metrics) {
    let router = library_router();
    let mut parse_us = Vec::new();
    let mut handle_us = Vec::new();
    let mut lookup_us = Vec::new();
    let mut render_us = Vec::new();
    for (k, req) in reqs.iter().enumerate() {
        let raw = req.raw();
        let mut parsed = None;
        for _ in 0..20 {
            let start = Instant::now();
            let mut parser = RequestParser::new(ParserLimits::default());
            parsed = std::hint::black_box(parser.feed(&raw)).ok().flatten();
            parse_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let Some(parsed) = parsed else { continue };
        let start = Instant::now();
        let (_, resp) = ctx.tracer.span(Layer::Serve, "handle", 0, k as u64, |_| {
            router.handle(&parsed)
        });
        if k < fresh {
            handle_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        for _ in 0..20 {
            let start = Instant::now();
            let hit = std::hint::black_box(router.cached_response(&parsed));
            if hit.is_some() {
                lookup_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            let start = Instant::now();
            std::hint::black_box(write_response(
                resp.status,
                resp.reason,
                resp.content_type,
                &[],
                resp.body.as_bytes(),
                false,
            ));
            render_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.put("serve.parse_us", median(&parse_us), "us");
    out.put("serve.cache_lookup_us", median(&lookup_us), "us");
    out.put("serve.render_us", median(&render_us), "us");
    out.put("serve.handle_us", median(&handle_us), "us");
}

/// The fleet-side per-layer metrics for a workload that serves nothing
/// itself: a fresh fleet, the hot bodies warmed, one short open-loop
/// phase of the cold mix and the hot hop.
pub fn fleet_probe(ctx: &Ctx, out: &mut Metrics) -> Result<(), String> {
    let fleet = ready_fleet(ctx, Mix::Hot, 9)?;
    let addr = fleet.router.addr;
    let cold = stream(Mix::Cold, ctx.seed, 17);
    let before = scrape(addr);
    let outcomes = run_phase(ctx, addr, &cold, 10.0, 2.0, 200);
    let after = scrape(addr);
    let report = account(&outcomes, &before, &after);
    let lags: Vec<f64> = outcomes.iter().map(|o| o.sample.lag()).collect();
    load_metrics(&report, &lags, out);
    let hot = stream(Mix::Hot, ctx.seed, 400);
    hop(ctx, &fleet, &hot, 400.0, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_stream_never_repeats_a_cache_key() {
        for seed in [1, 7, 42] {
            let reqs = stream(Mix::Cold, seed, 2_000);
            let keys: Vec<u64> = reqs
                .iter()
                .filter(|r| r.cacheable())
                .map(Req::key)
                .collect();
            let distinct: HashSet<u64> = keys.iter().copied().collect();
            assert_eq!(keys.len(), distinct.len(), "seed {seed}");
            assert!(keys.len() > 1_500);
        }
    }

    #[test]
    fn streams_are_seeded_and_keep_route_proportions() {
        assert_eq!(stream(Mix::Cold, 3, 200), stream(Mix::Cold, 3, 200));
        assert_ne!(stream(Mix::Cold, 3, 200), stream(Mix::Cold, 4, 200));
        let hot = stream(Mix::Hot, 5, 17 * 40);
        let droops = hot.iter().filter(|r| r.path == "/v1/droop").count();
        assert_eq!(droops, 4 * 40);
        assert_eq!(hot_bodies(5).len(), 18);
    }
}
