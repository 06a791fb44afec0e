//! The one-shot workloads: every request is a complete `DistributedEngine`
//! solve that pays model exploration itself, as a user of a one-shot `smpq`
//! run does.  `fleet-curve` dispatches to two `smpq worker` processes over
//! TCP, `quantile-transient` to two in-process worker threads, and
//! `shard-curve` to two loopback row shards.

use crate::layers::{self, DispatchLog, Recording};
use crate::ledger::{self, Counters};
use crate::procfs;
use crate::reference::{check, Frozen, Table, Verdict};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Ctx;
use smp_suite::core::{Engine, MeasureReport, MeasureRequest};
use smp_suite::laplace::InversionMethod;
use smp_suite::numeric::stats::linspace;
use smp_suite::pipeline::{
    AnalyticEngine, DistributedEngine, InProcess, ModelSpec, PipelineOptions, TcpTransport,
};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Workers, worker processes or shards of every deployment (sized for a
/// 2-core machine).
pub const WORKERS: usize = 2;

/// Requests a run makes at least, however long they take.
const MIN_REQUESTS: usize = 3;

/// Set-ups are timed back to back in rounds of this many seconds, one
/// round before the measured phase and one after every request; `setup_s`
/// is the median of them all.  An in-process set-up takes about 0.1 ms,
/// nearly all of it parsing the model, and its speed drifts between phases
/// of the machine lasting from a fraction of a second to minutes, so
/// set-ups are sampled for about two seconds spread over the whole run
/// rather than in a few short bursts.  The rounds are left out of the
/// measured phase's wall and CPU time.
const SETUP_ROUND_S: f64 = 0.25;

/// How a one-shot workload reaches its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Two `smpq worker` processes dialing ephemeral TCP rendezvous ports.
    Fleet,
    /// Two in-process worker threads.
    InProcess,
    /// Two in-process loopback row shards with halo exchange.
    Sharded,
}

/// A one-shot workload: a fixed request set against one model.
#[derive(Debug, Clone)]
pub struct OneShot {
    /// Workload name.
    pub name: &'static str,
    /// The model.
    pub model: ModelSpec,
    /// Measures in `smpq --measure` syntax.
    pub measures: &'static [&'static str],
    /// Output time grid: first point, last point, count.
    pub grid: (f64, f64, usize),
    /// How the solve is distributed.
    pub deployment: Deployment,
}

fn voting(voters: u32, polling: u32, central: u32) -> ModelSpec {
    ModelSpec::Voting {
        voters,
        polling,
        central,
    }
}

/// `voting 30,10,3`: density and CDF on 12 points over a TCP worker fleet.
pub fn fleet_curve() -> OneShot {
    OneShot {
        name: "fleet-curve",
        model: voting(30, 10, 3),
        measures: &["density:p2>=30", "cdf:p2>=30"],
        grid: (20.0, 140.0, 12),
        deployment: Deployment::Fleet,
    }
}

/// `voting 8,3,2`: three quantiles, the mean and a transient curve on two
/// in-process workers.
pub fn quantile_transient() -> OneShot {
    OneShot {
        name: "quantile-transient",
        model: voting(8, 3, 2),
        measures: &[
            "quantile:p2>=8@0.5,0.9,0.99",
            "mean:p2>=8",
            "transient:p2>=8",
        ],
        grid: (2.0, 40.0, 12),
        deployment: Deployment::InProcess,
    }
}

/// `voting 18,6,3` (the paper's system 0): a CDF on 6 points over two
/// loopback row shards.
pub fn shard_curve() -> OneShot {
    OneShot {
        name: "shard-curve",
        model: voting(18, 6, 3),
        measures: &["cdf:p2>=18"],
        grid: (20.0, 120.0, 6),
        deployment: Deployment::Sharded,
    }
}

impl OneShot {
    /// The workload's requests, built as `smpq` builds them.
    pub fn requests(&self) -> Result<Vec<MeasureRequest>, String> {
        let (start, stop, count) = self.grid;
        let ts = linspace(start, stop, count);
        self.measures
            .iter()
            .map(|m| MeasureRequest::parse(m).map(|r| r.with_t_points(&ts)))
            .collect()
    }
}

/// `smpq worker` processes of one fleet; killed and reaped on drop if they
/// have not exited by then.
struct Fleet {
    children: Vec<Child>,
}

impl Fleet {
    fn spawn(smpq: &Path, addrs: &[SocketAddr]) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            children: Vec::new(),
        };
        for addr in addrs {
            let child = Command::new(smpq)
                .args(["worker", "--connect", &addr.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", smpq.display()))?;
            fleet.children.push(child);
        }
        Ok(fleet)
    }

    /// Waits for every worker to exit (they do once the master releases
    /// them); a worker still running after `timeout` is killed and reported.
    fn reap(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        let mut clean = true;
        for child in &mut self.children {
            clean &= exited_cleanly(child, deadline);
        }
        self.children.clear();
        clean
            .then_some(())
            .ok_or_else(|| "an smpq worker failed or did not exit after its job".to_string())
    }
}

/// Waits for `child` to exit, killing it once `deadline` passes.  Returns
/// whether it exited successfully on its own.
pub fn exited_cleanly(child: &mut Child, deadline: Instant) -> bool {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A deployment ready for its first request.
struct Deployed {
    engine: DistributedEngine,
    fleet: Option<Fleet>,
}

/// Brings a deployment up: the steps a one-shot `smpq` run takes before it
/// solves (generate and parse the model, parse the measures, build the
/// engine), plus binding the rendezvous ports and spawning the workers for
/// the fleet.  With `log`, the engine's transport is wrapped to record every
/// dispatch round.
fn deploy(
    w: &OneShot,
    smpq: &Path,
    log: Option<&DispatchLog>,
) -> Result<(Deployed, Vec<MeasureRequest>), String> {
    smp_suite::dnamaca::parse_model(&w.model.source()).map_err(|e| e.to_string())?;
    let requests = w.requests()?;
    let options = PipelineOptions::with_workers(WORKERS);
    let method = InversionMethod::euler();
    let model = w.model.clone();
    let deployed = match w.deployment {
        Deployment::InProcess => {
            let engine = match log {
                Some(log) => DistributedEngine::with_transport(
                    model,
                    method,
                    options,
                    Box::new(Recording::new(InProcess::new(WORKERS), log.clone())),
                ),
                None => DistributedEngine::in_process(model, method, options),
            };
            Deployed {
                engine,
                fleet: None,
            }
        }
        Deployment::Sharded => Deployed {
            engine: DistributedEngine::sharded(model, method, options, WORKERS),
            fleet: None,
        },
        Deployment::Fleet => {
            let transport = TcpTransport::bind(&["127.0.0.1:0"; WORKERS])
                .map_err(|e| format!("cannot bind rendezvous ports: {e}"))?;
            let fleet = Fleet::spawn(smpq, &transport.local_addrs())?;
            let engine = match log {
                Some(log) => DistributedEngine::with_transport(
                    model,
                    method,
                    options,
                    Box::new(Recording::new(transport, log.clone())),
                ),
                None => {
                    DistributedEngine::with_transport(model, method, options, Box::new(transport))
                }
            };
            Deployed {
                engine,
                fleet: Some(fleet),
            }
        }
    };
    Ok((deployed, requests))
}

/// Times one set-up: [`deploy`], which for the fleet binds the rendezvous
/// ports and spawns the workers.  The workers' attach is not included: its
/// time is a race between worker start-up and the master's 10 ms accept
/// poll, and a measured request pays it inside its solve.  A fleet set up
/// here is attached untimed and released without work.
fn time_setup(w: &OneShot, smpq: &Path) -> Result<f64, String> {
    let started = Instant::now();
    if w.deployment != Deployment::Fleet {
        let deployed = deploy(w, smpq, None)?;
        let elapsed = started.elapsed().as_secs_f64();
        drop(deployed);
        return Ok(elapsed);
    }
    smp_suite::dnamaca::parse_model(&w.model.source()).map_err(|e| e.to_string())?;
    w.requests()?;
    let transport = TcpTransport::bind(&["127.0.0.1:0"; WORKERS])
        .map_err(|e| format!("cannot bind rendezvous ports: {e}"))?;
    let fleet = Fleet::spawn(smpq, &transport.local_addrs())?;
    let elapsed = started.elapsed().as_secs_f64();
    let attached = transport
        .accept_slice_channels()
        .map_err(|e| e.to_string())?;
    drop(attached);
    drop(transport);
    fleet.reap(Duration::from_secs(30))?;
    Ok(elapsed)
}

/// One measured request.
struct Sample {
    latency: f64,
    traced: bool,
    tables: Vec<Table>,
    counters: Counters,
}

/// Deploys, solves and frozen-checks one request; the live check happens
/// after the measured phase.  Returns the sample, or an error message for a
/// failed request.
fn one_request(
    w: &OneShot,
    ctx: &Ctx,
    frozen: &Frozen,
    log: Option<&DispatchLog>,
    tracer: &mut Tracer,
) -> Result<Sample, String> {
    tracer.next_request();
    let traced = log.is_some();
    tracer.enter("request");
    let deployed = tracer.span("setup", |_| deploy(w, &ctx.smpq, log));
    let (deployed, requests) = match deployed {
        Ok(d) => d,
        Err(e) => {
            tracer.exit();
            return Err(e);
        }
    };
    let solve_started = Instant::now();
    tracer.enter("solve");
    let solved = deployed.engine.solve(&requests);
    if let Some(log) = log {
        for round in log.lock().expect("dispatch log poisoned").iter() {
            if round.start >= solve_started {
                tracer.record("dispatch", round.start, round.end);
            }
        }
    }
    tracer.exit();
    let checked = tracer.span("check", |_| {
        solved.map_err(|e| e.to_string()).and_then(|reports| {
            let tables: Vec<Table> = reports.iter().map(Table::of).collect();
            for (report, table) in reports.iter().zip(&tables) {
                if let Some(f) = frozen.get(&report.name) {
                    if !table.within_frozen(f) {
                        return Err(format!("{} drifted from the frozen reference", report.name));
                    }
                }
            }
            Ok((tables, Counters::of(&reports)))
        })
    });
    let latency = solve_started.elapsed().as_secs_f64();
    tracer.exit();
    let Deployed { engine, fleet } = deployed;
    drop(engine);
    let reaped = match fleet {
        Some(fleet) => fleet.reap(Duration::from_secs(30)),
        None => Ok(()),
    };
    let (tables, counters) = checked?;
    reaped?;
    Ok(Sample {
        latency,
        traced,
        tables,
        counters,
    })
}

/// The one-shot reference: the analytic engine's answer to the same
/// requests, with its wall time and total evaluations.
fn live_reference(
    w: &OneShot,
    requests: &[MeasureRequest],
    tracer: &mut Tracer,
) -> Result<(Vec<MeasureReport>, f64), String> {
    let started = Instant::now();
    let reports = tracer.span("baseline.analytic", |_| {
        AnalyticEngine::new(w.model.clone(), InversionMethod::euler()).solve(requests)
    });
    Ok((
        reports.map_err(|e| e.to_string())?,
        started.elapsed().as_secs_f64(),
    ))
}

/// Runs one one-shot workload for `ctx.seconds` (at least
/// [`MIN_REQUESTS`] requests) and reports its metrics.
pub fn run(w: &OneShot, ctx: &Ctx) -> Result<Outcome, String> {
    let frozen = Frozen::load(w.name)?;
    let requests = w.requests()?;
    let mut tracer = Tracer::new(ctx.trace);
    let log: DispatchLog = Arc::new(Mutex::new(Vec::new()));
    let mut outcome = Outcome::default();

    let mut setups = Vec::new();
    // One round of set-ups; returns the wall and CPU seconds it took.
    let mut set_up = || -> Result<(Duration, f64), String> {
        let cpu = procfs::read_stat("self").map_err(|e| e.to_string())?;
        let started = Instant::now();
        loop {
            setups.push(time_setup(w, &ctx.smpq)?);
            if started.elapsed().as_secs_f64() >= SETUP_ROUND_S {
                break;
            }
        }
        let spent = procfs::read_stat("self").map_err(|e| e.to_string())?;
        Ok((
            started.elapsed(),
            spent.total_seconds() - cpu.total_seconds(),
        ))
    };
    set_up()?;

    let cpu_before = procfs::read_stat("self").map_err(|e| e.to_string())?;
    let machine_before = procfs::read_cpu_line().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let (mut paused, mut paused_cpu) = (Duration::ZERO, 0.0);
    let mut samples: Vec<Sample> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut index = 0usize;
    while index < MIN_REQUESTS || (started.elapsed() - paused).as_secs_f64() < ctx.seconds {
        // A traced run alternates untraced and traced requests, so the
        // difference of their medians is the tracing overhead.
        let traced = ctx.trace && index % 2 == 1;
        match one_request(w, ctx, &frozen, traced.then_some(&log), &mut tracer) {
            Ok(sample) => samples.push(sample),
            Err(e) => errors.push(e),
        }
        index += 1;
        if errors.len() > MIN_REQUESTS {
            break;
        }
        let (wall, cpu) = set_up()?;
        paused += wall;
        paused_cpu += cpu;
    }
    let timed = (started.elapsed() - paused).as_secs_f64();
    let cpu = procfs::read_stat("self").map_err(|e| e.to_string())?;
    let machine = procfs::read_cpu_line().map_err(|e| e.to_string())?;
    let peak_kib = match w.deployment {
        Deployment::Fleet => procfs::reaped_children_max_rss_kib(),
        _ => procfs::read_vm_hwm_kib("self"),
    }
    .map_err(|e| e.to_string())?;
    let attempted = index as u64;

    // The live check: every received table against the reference engine's
    // answer, bit for bit.
    let (live, analytic_s) = live_reference(w, &requests, &mut tracer)?;
    let live_tables: Vec<Table> = live.iter().map(Table::of).collect();
    // The counters are deterministic: a request that does not repeat the
    // first request's counts exactly has failed, like a wrong table.
    let counters: Vec<Counters> = samples.iter().map(|s| s.counters.clone()).collect();
    let repeated = ledger::repeats_first(&counters);
    let mut failed = errors.len() as u64;
    let (mut live_misses, mut unrepeated) = (0usize, None);
    for (sample, repeats) in samples.iter().zip(&repeated) {
        let live_ok =
            sample.tables.len() == live_tables.len()
                && sample.tables.iter().zip(&live_tables).zip(&live).all(
                    |((got, want), report)| {
                        check(got, want, frozen.get(&report.name)) == Verdict::Pass
                    },
                );
        live_misses += usize::from(!live_ok);
        if !repeats {
            unrepeated.get_or_insert(&sample.counters);
        }
        if !live_ok || !repeats {
            failed += 1;
        }
    }
    outcome.attempted = attempted;
    outcome.failed = failed;
    for e in &errors {
        outcome.note(format!("request failed: {e}"));
    }
    if live_misses > 0 {
        outcome.note(format!(
            "{live_misses} table set(s) differ from the analytic engine's live answer"
        ));
    }
    if let Some(other) = unrepeated {
        outcome.note(format!(
            "{} request(s) did not repeat the first request's counters: {} vs {}",
            repeated.iter().filter(|r| !**r).count(),
            counters[0].render(),
            other.render()
        ));
    }

    let untraced: Vec<f64> = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.latency)
        .collect();
    let traced: Vec<f64> = samples
        .iter()
        .filter(|s| s.traced)
        .map(|s| s.latency)
        .collect();
    outcome.note(format!(
        "samples: {} request(s) in {timed:.3} s ({} untraced, {} traced); p90 over fewer than \
         100 samples is the tail of a small sample",
        samples.len(),
        untraced.len(),
        traced.len()
    ));
    outcome.note(format!(
        "latencies_s: {}; host steal {:.1}% of CPU time",
        samples
            .iter()
            .map(|s| format!("{:.4}", s.latency))
            .collect::<Vec<_>>()
            .join(" "),
        steal_percent(machine_before, machine)
    ));
    outcome.note(setup_note(&setups));
    let counters = counters.first().cloned().unwrap_or_default();
    outcome.note(ledger::compare(w.name, &counters));

    if !ctx.trace {
        let n = samples.len().max(1) as f64;
        outcome.end_to_end("setup_s", median(&setups).unwrap_or(0.0));
        outcome.end_to_end("latency_s.p50", median(&untraced).unwrap_or(0.0));
        outcome.end_to_end("latency_s.p90", percentile(&untraced, 90.0).unwrap_or(0.0));
        outcome.end_to_end("throughput_per_s", samples.len() as f64 / timed);
        outcome.end_to_end(
            "cpu_s_per_request",
            (cpu.total_seconds() - cpu_before.total_seconds() - paused_cpu) / n,
        );
        outcome.end_to_end("peak_rss_mb", peak_kib as f64 / 1024.0);
        return Ok(outcome);
    }

    // Traced run: replay the request through each layer, then derive the
    // per-layer metrics from the spans and the counters.
    tracer.next_request();
    let method = InversionMethod::euler();
    let replay = tracer.span("replay", |t| {
        layers::replay(&w.model, &requests, &method, t)
    })?;
    for (name, table) in &replay.tables {
        let live_table = live.iter().find(|r| &r.name == name).map(Table::of);
        if live_table.is_some_and(|l| !l.bitwise_eq(table)) {
            outcome.note(format!("replayed {name} differs from the engine's table"));
        }
    }
    let inprocess_shard_s = if w.deployment == Deployment::Sharded {
        Some(layers::sharded_in_process(
            &w.model,
            &requests[0],
            &method,
            WORKERS,
            &mut tracer,
        )?)
    } else {
        None
    };
    let codec_s = layers::wire_codec_seconds(
        counters.wire_bytes,
        entries_per_frame(&counters),
        &mut tracer,
    );
    let dispatch = layers::dispatch_totals(&log.lock().expect("dispatch log poisoned"));
    let traced_requests = traced.len().max(1);
    let anomaly = if w.deployment == Deployment::InProcess {
        Some(ledger::quantile_anomaly(&mut tracer)?)
    } else {
        None
    };
    let own = tracer.self_seconds();
    let self_s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let p50_untraced = median(&untraced).unwrap_or(0.0);
    let per = |num: f64, den: usize| if den == 0 { 0.0 } else { num / den as f64 };

    outcome.layer("explore.s", self_s("explore"));
    outcome.layer("explore.states", replay.states as f64);
    outcome.layer("explore.transitions", replay.transitions as f64);
    outcome.layer("skeleton.s", self_s("skeleton"));
    outcome.layer("skeleton.nnz", replay.skeleton_nnz as f64);
    outcome.layer("passage.points", replay.passage_points as f64);
    outcome.layer(
        "passage.s_per_point",
        per(self_s("passage.point"), replay.passage_points),
    );
    outcome.layer(
        "passage.iterations_per_point",
        per(replay.passage_iterations as f64, replay.passage_points),
    );
    outcome.layer(
        "lst.pooled_evals_per_point",
        per(replay.pooled_lst as f64, replay.passage_points),
    );
    outcome.layer(
        "spmv.bytes_per_point",
        per(replay.passage_iterations as f64, replay.passage_points)
            * layers::spmv_bytes_per_iteration(replay.skeleton_nnz, replay.skeleton_states),
    );
    outcome.layer("transient.points", replay.transient_points as f64);
    outcome.layer(
        "transient.s_per_point",
        per(self_s("transient.point"), replay.transient_points),
    );
    outcome.layer("splan.s_points", replay.planned_points as f64);
    outcome.layer("invert.s", self_s("invert"));
    outcome.layer("quantile.evaluations", replay.quantile_evaluations as f64);
    outcome.layer("quantile.rounds", replay.quantile_rounds as f64);
    outcome.layer(
        "quantile.evals_per_quantile",
        per(replay.quantile_evaluations as f64, replay.quantiles),
    );
    outcome.layer("quantile.s", self_s("quantile"));
    outcome.layer(
        "dispatch.messages",
        per(dispatch.messages as f64, traced_requests),
    );
    outcome.layer(
        "dispatch.chunks",
        per(dispatch.chunks as f64, traced_requests),
    );
    outcome.layer(
        "dispatch.evals_per_chunk",
        per(dispatch.items as f64, dispatch.chunks),
    );
    outcome.layer("dispatch.busy_fraction", dispatch.busy_fraction);
    outcome.layer("dispatch.imbalance", dispatch.imbalance);
    outcome.layer("wire.bytes", counters.wire_bytes as f64);
    outcome.layer(
        "wire.bytes_per_eval",
        per(counters.wire_bytes as f64, counters.evaluations),
    );
    outcome.layer("wire.codec_s", codec_s);
    outcome.layer("halo.rounds", counters.exchange_rounds as f64);
    outcome.layer(
        "halo.rounds_per_point",
        per(counters.exchange_rounds as f64, counters.evaluations),
    );
    outcome.layer("halo.bytes", counters.halo_bytes as f64);
    let sharded = w.deployment == Deployment::Sharded;
    outcome.layer(
        "halo.frame_bytes",
        if sharded {
            counters.wire_bytes as f64
        } else {
            0.0
        },
    );
    outcome.layer("shard.max_states", counters.max_shard_states as f64);
    outcome.layer(
        "shard.exchange_overhead_s",
        inprocess_shard_s.map_or(0.0, |s| p50_untraced - s),
    );
    outcome.layer(
        "result_cache.hit_ratio",
        per(
            counters.cache_hits as f64,
            counters.cache_hits + counters.evaluations,
        ),
    );
    outcome.layer("model_cache.hits", counters.model_cache_hits as f64);
    outcome.layer("model_cache.misses", counters.model_cache_misses as f64);
    outcome.layer("baseline.analytic_s", analytic_s);
    let analytic_evaluations: usize = live.iter().map(|r| r.provenance.evaluations).sum();
    outcome.layer("baseline.evaluations", analytic_evaluations as f64);
    let speedup = if p50_untraced > 0.0 {
        analytic_s / p50_untraced
    } else {
        0.0
    };
    outcome.layer("fleet.speedup", speedup);
    outcome.layer("fleet.efficiency", speedup / WORKERS as f64);
    ledger::anomaly_metrics(&mut outcome, anomaly.as_ref());
    outcome.layer(
        "trace.overhead_s",
        median(&traced).unwrap_or(0.0) - p50_untraced,
    );
    write_trace(&tracer, ctx, w.name, &mut outcome);
    Ok(outcome)
}

/// Summarises the set-up samples a run took.
pub fn setup_note(setups: &[f64]) -> String {
    format!(
        "setup_s: {} set-up(s), min {:.6} median {:.6} p90 {:.6} max {:.6}",
        setups.len(),
        percentile(setups, 0.0).unwrap_or(0.0),
        median(setups).unwrap_or(0.0),
        percentile(setups, 90.0).unwrap_or(0.0),
        percentile(setups, 100.0).unwrap_or(0.0)
    )
}

/// Share of the machine's CPU ticks between two `/proc/stat` readings that
/// the hypervisor gave to someone else.
pub fn steal_percent(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    let steal = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * steal as f64 / total as f64
    }
}

/// Boundary entries per frame that reproduce the run's mean frame size
/// (about 40 wire bytes per `(row, complex value)` entry).
fn entries_per_frame(counters: &Counters) -> usize {
    if counters.messages == 0 {
        return 1;
    }
    ((counters.wire_bytes / counters.messages as u64) / 40).max(1) as usize
}

/// Writes the spans of a traced run and notes where they went.
pub fn write_trace(tracer: &Tracer, ctx: &Ctx, workload: &str, outcome: &mut Outcome) {
    let path = ctx
        .out_dir
        .join(format!("trace-{workload}-seed{}.tsv", ctx.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => outcome.note(format!(
            "trace: {} span(s) written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => outcome.note(format!("trace: could not write {}: {e}", path.display())),
    }
}
