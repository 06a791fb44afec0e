//! The `serve-mix` workload: one `smpq serve --workers 2` process with its
//! default cache and admission settings, driven by two closed-loop
//! `QueryClient` connections over a query stream generated from the seed.
//!
//! The stream draws models from a catalog larger than the server's
//! compiled-model LRU, mixing small non-exponential voting models with two
//! all-exponential models that `engine=auto` routes to uniformization.  It
//! comes in blocks of ten queries: eight repeat one of two fixed grids per
//! model (any measure kind), two use a fresh grid (a density or CDF
//! curve), so the share of cold queries is the same for every
//! seed and every run length.
//!
//! The mix is an assumption, not a sample of real traffic: no query log or
//! service trace fixes the fresh-grid share (2 in 10), the uniform draws of
//! model and measure kind, or the warm-up with every fixed-grid query before
//! the measured phase.  They are chosen so that both the warm path and the
//! cold path are exercised in every run; latency, throughput and CPU per
//! query on this workload, and the cache metrics of its traced run, depend
//! on them.

use crate::oneshot::exited_cleanly;
use crate::procfs;
use crate::reference::{check, Frozen, Table, Verdict};
use crate::report::Outcome;
use crate::stats::{median, percentile, reportable_tail};
use crate::trace::Tracer;
use crate::Ctx;
use smp_suite::core::{Engine, MeasureReport, MeasureRequest};
use smp_suite::laplace::InversionMethod;
use smp_suite::numeric::stats::linspace;
use smp_suite::pipeline::transport::splitmix64;
use smp_suite::pipeline::{
    uniformization_applies, AnalyticEngine, CompiledSetCache, ModelSpec, QueryClient, QueryError,
    QueryRequest, UniformizationEngine,
};
use smp_suite::smspn::StateSpace;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `smpq serve`'s default compiled-model-set LRU capacity (`--cache-models`).
pub const MODEL_LRU_CAPACITY: usize = 8;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Server start-ups timed per run (the last one serves the run).
const SETUPS: usize = 31;
/// Measured queries a run completes at least: 100 leave 10 beyond p90.
const MIN_QUERIES: usize = 110;
/// Queries generated per run; far more than a run completes.
const STREAM_LEN: usize = 60_000;
/// Queries per generator block, and the fresh-grid queries in each.
const BLOCK: usize = 10;
const FRESH_PER_BLOCK: usize = 2;
/// The seed whose stream is frozen in `reference/serve-mix.ref`.
pub const DEFAULT_SEED: u64 = 1;
/// Queries of the default seed's stream that are frozen.
pub const FROZEN_QUERIES: usize = 2_000;
/// Failed queries listed individually in a run's notes.
const MAX_PROBLEM_NOTES: usize = 20;
/// A run stops issuing queries after this long even if short of
/// [`MIN_QUERIES`].
const HARD_STOP: Duration = Duration::from_secs(100);

/// One model of the catalog.
#[derive(Debug, Clone)]
pub struct CatalogModel {
    /// Short label used in reference keys.
    pub label: &'static str,
    /// The model.
    pub model: ModelSpec,
    /// Target predicate of its measures.
    pub target: &'static str,
    /// Time scale of its grids.
    pub horizon: f64,
}

/// The catalog: eight non-exponential voting models and two all-exponential
/// models (ten models against an LRU of eight).
pub fn catalog() -> Vec<CatalogModel> {
    let voting = |label, voters, polling, central, target| CatalogModel {
        label,
        model: ModelSpec::Voting {
            voters,
            polling,
            central,
        },
        target,
        horizon: 5.0 * f64::from(voters),
    };
    vec![
        voting("voting-3-1-1", 3, 1, 1, "p2>=3"),
        voting("voting-3-2-1", 3, 2, 1, "p2>=3"),
        voting("voting-4-1-1", 4, 1, 1, "p2>=4"),
        voting("voting-4-2-1", 4, 2, 1, "p2>=4"),
        voting("voting-4-2-2", 4, 2, 2, "p2>=4"),
        voting("voting-5-1-1", 5, 1, 1, "p2>=5"),
        voting("voting-5-2-1", 5, 2, 1, "p2>=5"),
        voting("voting-5-2-2", 5, 2, 2, "p2>=5"),
        CatalogModel {
            label: "voting-exp",
            model: ModelSpec::Dnamaca(
                include_str!("../../tests/corpus/voting_exp.mod").to_string(),
            ),
            target: "p2>=3",
            horizon: 10.0,
        },
        CatalogModel {
            label: "ring-exp",
            model: ModelSpec::Dnamaca(include_str!("../../tests/corpus/ring_exp.mod").to_string()),
            target: "c>=1",
            horizon: 10.0,
        },
    ]
}

/// Measure kinds of repeated-grid queries.
const KINDS: [&str; 5] = ["density", "cdf", "transient", "quantile", "mean"];
/// Measure kinds of fresh-grid queries: the cheap curves, so a run's live
/// check of every fresh table stays short.
const FRESH_KINDS: [&str; 2] = ["density", "cdf"];
/// Fixed grids per model.
const FIXED_GRIDS: usize = 2;

/// One generated query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Catalog index.
    pub model: usize,
    /// Measure in `smpq` syntax.
    pub measure: String,
    /// Time grid.
    pub grid: Vec<f64>,
    /// Whether the grid is fresh (not one of the model's fixed grids).
    pub fresh: bool,
}

impl Query {
    /// The reference key: model label, measure and grid bit patterns.
    pub fn key(&self, catalog: &[CatalogModel]) -> String {
        format!(
            "{}|{}|{}",
            catalog[self.model].label,
            self.measure,
            crate::reference::encode_bits(&self.grid)
        )
    }

    /// The query as sent to the server (`engine=auto`, Euler inversion, no
    /// deadline).
    pub fn request(&self, catalog: &[CatalogModel]) -> QueryRequest {
        QueryRequest {
            model: catalog[self.model].model.clone(),
            engine: "auto".to_string(),
            method: "euler".to_string(),
            deadline: None,
            t_points: self.grid.clone(),
            measures: vec![self.measure.clone()],
        }
    }
}

fn measure_text(kind: &str, target: &str) -> String {
    if kind == "quantile" {
        format!("quantile:{target}@0.5,0.9")
    } else {
        format!("{kind}:{target}")
    }
}

fn fixed_grid(horizon: f64, which: usize) -> Vec<f64> {
    match which {
        0 => linspace(horizon / 10.0, horizon, 10),
        _ => linspace(horizon / 4.0, 2.0 * horizon, 8),
    }
}

/// A splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The first `len` queries of the stream of `seed`.
pub fn stream(seed: u64, len: usize) -> Vec<Query> {
    let catalog = catalog();
    let mut rng = Rng(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut fresh = [false; BLOCK];
        let mut placed = 0;
        while placed < FRESH_PER_BLOCK {
            let slot = rng.below(BLOCK);
            if !fresh[slot] {
                fresh[slot] = true;
                placed += 1;
            }
        }
        for is_fresh in fresh {
            let model = rng.below(catalog.len());
            let m = &catalog[model];
            let query = if is_fresh {
                let kind = FRESH_KINDS[rng.below(FRESH_KINDS.len())];
                let start = m.horizon * (0.05 + 0.25 * rng.unit());
                let stop = start + m.horizon * (0.5 + 1.5 * rng.unit());
                let count = 6 + rng.below(7);
                Query {
                    model,
                    measure: measure_text(kind, m.target),
                    grid: linspace(start, stop, count),
                    fresh: true,
                }
            } else {
                let kind = KINDS[rng.below(KINDS.len())];
                Query {
                    model,
                    measure: measure_text(kind, m.target),
                    grid: fixed_grid(m.horizon, rng.below(FIXED_GRIDS)),
                    fresh: false,
                }
            };
            out.push(query);
        }
    }
    out.truncate(len);
    out
}

/// Every repeated-grid query the generator can produce (model × kind ×
/// fixed grid) — the set the server is warmed with before the measured
/// phase.
pub fn fixed_queries() -> Vec<Query> {
    let catalog = catalog();
    let mut out = Vec::new();
    for (model, m) in catalog.iter().enumerate() {
        for kind in KINDS {
            for which in 0..FIXED_GRIDS {
                out.push(Query {
                    model,
                    measure: measure_text(kind, m.target),
                    grid: fixed_grid(m.horizon, which),
                    fresh: false,
                });
            }
        }
    }
    out
}

/// The one-shot answer to a query: what `smpq --engine auto` computes
/// locally — uniformization for all-exponential models, Laplace inversion
/// (bitwise identical to the distributed pipeline) otherwise.
/// Compiled model sets may come from `compiled`: a cache changes no value.
pub fn one_shot_answer(
    query: &Query,
    catalog: &[CatalogModel],
    compiled: &Arc<CompiledSetCache>,
) -> Result<Vec<MeasureReport>, String> {
    let model = catalog[query.model].model.clone();
    let request = MeasureRequest::parse(&query.measure)?.with_t_points(&query.grid);
    let reports = if uniformization_applies(&model) {
        UniformizationEngine::new(model).solve(&[request])
    } else {
        AnalyticEngine::new(model, InversionMethod::euler())
            .with_compiled_cache(Arc::clone(compiled))
            .solve(&[request])
    };
    reports.map_err(|e| e.to_string())
}

/// A running `smpq serve` process; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `smpq serve --listen 127.0.0.1:0 --workers 2` and waits for
    /// its listening address.
    fn start(smpq: &std::path::Path) -> Result<Server, String> {
        let mut child = Command::new(smpq)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", smpq.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel::<String>();
        // Reads the server's stderr to its end, so the pipe never fills.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            stderr: Some(reader),
        };
        loop {
            let line = rx
                .recv_timeout(Duration::from_secs(20))
                .map_err(|_| "smpq serve did not report its address".to_string())?;
            if let Some(rest) = line.split("listening on ").nth(1) {
                server.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                return Ok(server);
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to drain and exit, and reaps it.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = QueryClient::connect(&self.addr)
            .and_then(QueryClient::shutdown)
            .map_err(|e| format!("shutdown failed: {e}"));
        let exited = exited_cleanly(&mut self.child, Instant::now() + Duration::from_secs(30));
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        asked?;
        exited
            .then_some(())
            .ok_or_else(|| "smpq serve did not exit cleanly".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// Starts the server and connects the clients: the deployment's set-up.
fn deploy(smpq: &std::path::Path) -> Result<(Server, Vec<QueryClient>), String> {
    let server = Server::start(smpq)?;
    let clients = (0..CLIENTS)
        .map(|_| QueryClient::connect(&server.addr).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((server, clients))
}

/// What the server said about one answered query.
#[derive(Debug, Clone)]
struct Served {
    table: Table,
    wall: f64,
    queue_wait: f64,
    evaluations: usize,
    cache_hits: usize,
    model_cache_hits: usize,
    model_cache_misses: usize,
    uniform: bool,
}

/// One query as the client saw it.
#[derive(Debug, Clone)]
struct Record {
    index: usize,
    warmup: bool,
    traced: bool,
    latency: f64,
    outcome: Result<Served, (bool, String)>,
}

fn served(reports: &[MeasureReport]) -> Result<Served, (bool, String)> {
    let [report] = reports else {
        return Err((false, format!("expected one report, got {}", reports.len())));
    };
    let p = &report.provenance;
    Ok(Served {
        table: Table::of(report),
        wall: p.wall.as_secs_f64(),
        queue_wait: p.queue_wait.as_secs_f64(),
        evaluations: p.evaluations,
        cache_hits: p.cache_hits,
        model_cache_hits: p.model_cache_hits,
        model_cache_misses: p.model_cache_misses,
        uniform: p.engine == "uniformization",
    })
}

/// Sends one query, frozen-checks the reply, and records it.
fn send(
    client: &mut QueryClient,
    queries: &[Query],
    index: usize,
    warmup: bool,
    catalog: &[CatalogModel],
    frozen: &Frozen,
    tracer: &mut Tracer,
) -> Record {
    let query = &queries[index];
    let traced = tracer.enabled();
    tracer.next_request();
    let started = Instant::now();
    tracer.enter("query");
    let reply = tracer.span("client.query", |_| client.query(&query.request(catalog)));
    let outcome = tracer.span("check", |_| match reply {
        Ok(reports) => served(&reports).and_then(|s| match frozen.get(&query.key(catalog)) {
            Some(f) if !s.table.within_frozen(f) => Err((
                false,
                format!("{} drifted from the frozen reference", query.key(catalog)),
            )),
            _ => Ok(s),
        }),
        Err(QueryError::Refused(refusal)) => Err((true, refusal.to_string())),
        Err(e) => Err((false, e.to_string())),
    });
    tracer.exit();
    Record {
        index,
        warmup,
        traced,
        latency: started.elapsed().as_secs_f64(),
        outcome,
    }
}

/// One closed-loop phase: the queries to send in order, and when to stop.
#[derive(Clone, Copy)]
struct Phase<'a> {
    queries: &'a [Query],
    warmup: bool,
    seconds: f64,
    min_queries: usize,
    trace: bool,
}

/// Closed-loop clients: each sends its next query only after the previous
/// reply arrived, taking the phase's queries in order.  Stops after
/// `seconds` once `min_queries` have completed (or at the end of the list).
fn drive(
    clients: &mut [QueryClient],
    phase: &Phase<'_>,
    frozen: &Frozen,
    origin: Instant,
) -> (Vec<Record>, Vec<Tracer>) {
    let Phase {
        queries,
        warmup,
        seconds,
        min_queries,
        trace,
    } = *phase;
    let catalog = catalog();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (next, done, catalog) = (&next, &done, &catalog);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    let mut tracer = Tracer::with_origin(false, origin);
                    let mut traced = Tracer::with_origin(true, origin);
                    loop {
                        let elapsed = started.elapsed();
                        let enough = done.load(Ordering::Relaxed) >= min_queries;
                        if (elapsed.as_secs_f64() >= seconds && enough) || elapsed >= HARD_STOP {
                            break;
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= queries.len() {
                            break;
                        }
                        // A traced run traces every other query, so the
                        // difference of the medians is the tracing overhead.
                        let t = if trace && index % 2 == 1 {
                            &mut traced
                        } else {
                            &mut tracer
                        };
                        records.push(send(client, queries, index, warmup, catalog, frozen, t));
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    (records, traced)
                })
            })
            .collect();
        let mut records = Vec::new();
        let mut tracers = Vec::new();
        for handle in handles {
            let (r, t) = handle.join().expect("client thread panicked");
            records.extend(r);
            tracers.push(t);
        }
        records.sort_by_key(|r| (r.warmup, r.index));
        (records, tracers)
    })
}

/// Computes the one-shot answers of `queries` on two threads.
fn live_answers(queries: &[&Query]) -> BTreeMap<String, Result<Table, String>> {
    let catalog = catalog();
    let mut keyed: Vec<(String, &Query)> = queries.iter().map(|q| (q.key(&catalog), *q)).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    let half = keyed.len().div_ceil(2);
    let compiled = Arc::new(CompiledSetCache::new(2 * catalog.len()));
    std::thread::scope(|scope| {
        let handles: Vec<_> = keyed
            .chunks(half.max(1))
            .map(|part| {
                let (catalog, compiled) = (&catalog, &compiled);
                scope.spawn(move || {
                    part.iter()
                        .map(|(key, q)| {
                            let table = one_shot_answer(q, catalog, compiled).and_then(|r| {
                                r.first()
                                    .map(Table::of)
                                    .ok_or_else(|| "no report".to_string())
                            });
                            (key.clone(), table)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Runs `serve-mix` once.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let catalog = catalog();
    let frozen = Frozen::load("serve-mix")?;
    let queries = stream(ctx.seed, STREAM_LEN);
    let warm = fixed_queries();
    let mut outcome = Outcome::default();
    let origin = Instant::now();

    // Set-up: start the server and attach the clients, several times.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut deployed = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let (server, clients) = deploy(&ctx.smpq)?;
        setups.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(clients);
            server.shutdown()?;
        } else {
            deployed = Some((server, clients));
        }
    }
    let (server, mut clients) = deployed.expect("at least one set-up");

    // Warm the caches with every repeated-grid query, then measure.
    let warmup_started = Instant::now();
    let warm_phase = Phase {
        queries: &warm,
        warmup: true,
        seconds: 0.0,
        min_queries: warm.len(),
        trace: false,
    };
    let (mut records, _) = drive(&mut clients, &warm_phase, &frozen, origin);
    let warmup_s = warmup_started.elapsed().as_secs_f64();
    let server_before = procfs::read_stat(&server.pid()).map_err(|e| e.to_string())?;
    let self_before = procfs::read_stat("self").map_err(|e| e.to_string())?;
    let started = Instant::now();
    let measured_phase = Phase {
        queries: &queries,
        warmup: false,
        seconds: ctx.seconds,
        min_queries: MIN_QUERIES,
        trace: ctx.trace,
    };
    let (measured, tracers) = drive(&mut clients, &measured_phase, &frozen, origin);
    let timed = started.elapsed().as_secs_f64();
    let server_after = procfs::read_stat(&server.pid()).map_err(|e| e.to_string())?;
    let self_after = procfs::read_stat("self").map_err(|e| e.to_string())?;
    let peak_kib = procfs::read_vm_hwm_kib(&server.pid()).map_err(|e| e.to_string())?;
    drop(clients);
    server.shutdown()?;
    records.extend(measured);

    // The live check of every reply, after the measured phase.
    let asked: Vec<&Query> = records
        .iter()
        .map(|r| {
            if r.warmup {
                &warm[r.index]
            } else {
                &queries[r.index]
            }
        })
        .collect();
    let check_started = Instant::now();
    let live = live_answers(&asked);
    let check_s = check_started.elapsed().as_secs_f64();
    let mut failed = 0u64;
    let mut refusals = 0usize;
    let mut problems = Vec::new();
    for (record, query) in records.iter().zip(&asked) {
        let key = query.key(&catalog);
        let verdict = match (&record.outcome, &live[&key]) {
            (Ok(s), Ok(want)) => check(&s.table, want, frozen.get(&key)),
            (Err((refused, message)), _) => {
                refusals += usize::from(*refused);
                problems.push(format!("query {key} failed: {message}"));
                Verdict::LiveMismatch
            }
            (Ok(_), Err(message)) => {
                problems.push(format!("reference for {key} failed: {message}"));
                Verdict::LiveMismatch
            }
        };
        if verdict != Verdict::Pass {
            failed += 1;
            if record.outcome.is_ok() {
                problems.push(format!("query {key}: {verdict:?}"));
            }
        }
    }
    outcome.attempted = records.len() as u64;
    outcome.failed = failed;
    if problems.len() > MAX_PROBLEM_NOTES {
        let more = problems.len() - MAX_PROBLEM_NOTES;
        problems.truncate(MAX_PROBLEM_NOTES);
        problems.push(format!("... and {more} more failed queries"));
    }
    outcome.notes.extend(problems);

    let measured: Vec<&Record> = records.iter().filter(|r| !r.warmup).collect();
    let answered: Vec<&Served> = measured
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    let untraced: Vec<f64> = measured
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.latency)
        .collect();
    let fresh = measured.iter().filter(|r| queries[r.index].fresh).count();
    let tail = reportable_tail(untraced.len(), 10);
    outcome.note(format!(
        "samples: {} measured queries in {timed:.3} s ({} untraced, {fresh} fresh-grid) after \
         {} warm-up queries ({warmup_s:.3} s); live check of every table {check_s:.3} s; the \
         tail rule allows p{}; catalog of {} models against a model LRU of \
         {MODEL_LRU_CAPACITY}",
        measured.len(),
        untraced.len(),
        warm.len(),
        tail.map_or("-".to_string(), |p| p.to_string()),
        catalog.len()
    ));
    if !ctx.trace {
        outcome.end_to_end("setup_s", median(&setups).unwrap_or(0.0));
        outcome.end_to_end("latency_s.p50", median(&untraced).unwrap_or(0.0));
        outcome.end_to_end("latency_s.p90", percentile(&untraced, 90.0).unwrap_or(0.0));
        outcome.end_to_end("throughput_per_s", measured.len() as f64 / timed);
        let cpu = server_after.own_seconds() - server_before.own_seconds()
            + self_after.own_seconds()
            - self_before.own_seconds();
        outcome.end_to_end("cpu_s_per_request", cpu / measured.len().max(1) as f64);
        outcome.end_to_end("peak_rss_mb", peak_kib as f64 / 1024.0);
        return Ok(outcome);
    }

    let mut tracer = Tracer::with_origin(true, origin);
    for t in tracers {
        tracer.absorb(t);
    }
    let (states, transitions) = tracer.span("replay", |t| explore_catalog(&catalog, t))?;
    let own = tracer.self_seconds();
    let traced: Vec<f64> = measured
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.latency)
        .collect();
    let waits: Vec<f64> = answered.iter().map(|s| s.queue_wait).collect();
    let overheads: Vec<f64> = measured
        .iter()
        .filter_map(|r| {
            r.outcome
                .as_ref()
                .ok()
                .map(|s| r.latency - s.wall - s.queue_wait)
        })
        .collect();
    let uniform: Vec<f64> = answered
        .iter()
        .filter(|s| s.uniform)
        .map(|s| s.wall)
        .collect();
    let warm_count = answered
        .iter()
        .filter(|s| s.evaluations == 0 && s.model_cache_misses == 0)
        .count();
    let evaluations: usize = answered.iter().map(|s| s.evaluations).sum();
    let cache_hits: usize = answered.iter().map(|s| s.cache_hits).sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    outcome.layer("explore.s", own.get("explore").copied().unwrap_or(0.0));
    outcome.layer("explore.states", states as f64);
    outcome.layer("explore.transitions", transitions as f64);
    outcome.layer(
        "result_cache.hit_ratio",
        ratio(cache_hits as f64, (cache_hits + evaluations) as f64),
    );
    outcome.layer(
        "model_cache.hits",
        answered.iter().map(|s| s.model_cache_hits).sum::<usize>() as f64,
    );
    outcome.layer(
        "model_cache.misses",
        answered.iter().map(|s| s.model_cache_misses).sum::<usize>() as f64,
    );
    outcome.layer("server.queue_wait_s.p50", median(&waits).unwrap_or(0.0));
    outcome.layer(
        "server.queue_wait_s.p90",
        percentile(&waits, 90.0).unwrap_or(0.0),
    );
    outcome.layer(
        "server.warm_fraction",
        ratio(warm_count as f64, answered.len() as f64),
    );
    outcome.layer("server.refusals", refusals as f64);
    outcome.layer("server.catalog_models", catalog.len() as f64);
    outcome.layer("server.model_lru_capacity", MODEL_LRU_CAPACITY as f64);
    outcome.layer("client.overhead_s", median(&overheads).unwrap_or(0.0));
    outcome.layer(
        "uniform.s_per_query",
        ratio(uniform.iter().sum::<f64>(), uniform.len() as f64),
    );
    outcome.layer(
        "trace.overhead_s",
        median(&traced).unwrap_or(0.0) - median(&untraced).unwrap_or(0.0),
    );
    crate::oneshot::write_trace(&tracer, ctx, "serve-mix", &mut outcome);
    Ok(outcome)
}

/// Parses and explores every catalog model inside `explore` spans; returns
/// the summed states and transitions.
fn explore_catalog(
    catalog: &[CatalogModel],
    tracer: &mut Tracer,
) -> Result<(usize, usize), String> {
    let mut totals = (0, 0);
    for m in catalog {
        let space = tracer.span("explore", |_| -> Result<StateSpace, String> {
            let net =
                smp_suite::dnamaca::parse_model(&m.model.source()).map_err(|e| e.to_string())?;
            StateSpace::explore(&net).map_err(|e| e.to_string())
        })?;
        totals.0 += space.num_states();
        totals.1 += space.num_edges();
    }
    Ok(totals)
}

/// Freezes the serve-mix reference: every repeated-grid query plus the
/// first [`FROZEN_QUERIES`] of the default seed's stream.
pub fn freeze() -> Result<Frozen, String> {
    let fixed = fixed_queries();
    let default = stream(DEFAULT_SEED, FROZEN_QUERIES);
    let all: Vec<&Query> = fixed.iter().chain(&default).collect();
    let mut frozen = Frozen::default();
    for (key, table) in live_answers(&all) {
        frozen.insert(key, table?);
    }
    Ok(frozen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generator_is_deterministic_for_a_seed() {
        let a = stream(7, 500);
        let b = stream(7, 500);
        assert_eq!(a, b);
        let c = stream(8, 500);
        assert_ne!(a, c);
        // The prefix of a longer stream is the shorter stream.
        assert_eq!(stream(7, 1000)[..500], a[..]);
    }

    #[test]
    fn every_block_has_the_same_fresh_share() {
        for seed in [1, 2, 3] {
            let s = stream(seed, 1000);
            for block in s.chunks(BLOCK) {
                assert_eq!(block.iter().filter(|q| q.fresh).count(), FRESH_PER_BLOCK);
            }
            for q in &s {
                assert!(q.grid.len() >= 2 && q.grid.iter().all(|t| *t > 0.0));
                if !q.fresh {
                    assert!(fixed_queries().contains(q));
                }
            }
        }
    }

    #[test]
    fn the_catalog_outgrows_the_model_cache() {
        let catalog = catalog();
        assert!(catalog.len() > MODEL_LRU_CAPACITY);
        let exponential = catalog
            .iter()
            .filter(|m| uniformization_applies(&m.model))
            .count();
        assert_eq!(exponential, 2);
    }
}
