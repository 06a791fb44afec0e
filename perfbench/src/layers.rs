//! Layer-by-layer measurement from outside the program: a transport wrapper
//! that records every dispatch round, a replay of a request through the
//! public functions of each layer, and a wire-codec timing.

use crate::reference::Table;
use crate::trace::Tracer;
use smp_suite::core::transient::TransientSolver;
use smp_suite::core::{MeasureKind, MeasureRequest, PassageTimeSolver, ShardedSolver};
use smp_suite::laplace::{quantiles_from_cdf, InversionMethod, SPointPlan, TransformValues};
use smp_suite::numeric::Complex64;
use smp_suite::pipeline::transport::{ExecutionPlan, TransportReport};
use smp_suite::pipeline::wire::{read_frame, write_frame, Frame};
use smp_suite::pipeline::worker::WorkerMessage;
use smp_suite::pipeline::{
    MeasureKind as CurveKind, ModelSpec, PipelineError, ResolveTarget, Transport,
};
use smp_suite::smspn::StateSpace;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Dispatch: a recording transport
// ---------------------------------------------------------------------------

/// One dispatch round as seen at the transport boundary.
#[derive(Debug, Clone)]
pub struct DispatchRound {
    /// When `execute` was entered.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Work items (s-points) in the round.
    pub items: usize,
    /// Items per chunk.
    pub chunk_size: usize,
    /// What the transport reported (worker stats, messages, bytes).
    pub report: TransportReport,
}

impl DispatchRound {
    /// Chunks the round was dispatched in.
    pub fn chunks(&self) -> usize {
        self.items.div_ceil(self.chunk_size.max(1))
    }
}

/// Shared log of the rounds a [`Recording`] transport saw.
pub type DispatchLog = Arc<Mutex<Vec<DispatchRound>>>;

/// Wraps a transport and records every `execute` call.
pub struct Recording<T> {
    inner: T,
    log: DispatchLog,
}

impl<T: Transport> Recording<T> {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: T, log: DispatchLog) -> Recording<T> {
        Recording { inner, log }
    }
}

impl<T: Transport> Transport for Recording<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn parallelism(&self) -> usize {
        self.inner.parallelism()
    }

    fn reusable(&self) -> bool {
        self.inner.reusable()
    }

    fn execute(
        &self,
        plan: ExecutionPlan<'_>,
        on_message: &mut dyn FnMut(WorkerMessage),
    ) -> Result<TransportReport, PipelineError> {
        let items = plan.items.len();
        let chunk_size = plan.chunk_size;
        let start = Instant::now();
        let result = self.inner.execute(plan, on_message);
        let end = Instant::now();
        if let Ok(report) = &result {
            self.log
                .lock()
                .expect("dispatch log poisoned")
                .push(DispatchRound {
                    start,
                    end,
                    items,
                    chunk_size,
                    report: report.clone(),
                });
        }
        result
    }
}

/// Dispatch-layer totals over a set of rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DispatchTotals {
    /// Protocol messages.
    pub messages: usize,
    /// Chunks dispatched.
    pub chunks: usize,
    /// Items evaluated.
    pub items: usize,
    /// Summed worker busy time over summed `workers × round wall`.
    pub busy_fraction: f64,
    /// Largest per-worker busy time over the mean.
    pub imbalance: f64,
}

/// Folds dispatch rounds into totals.
pub fn dispatch_totals(rounds: &[DispatchRound]) -> DispatchTotals {
    let mut busy_by_worker: HashMap<usize, Duration> = HashMap::new();
    let mut capacity = 0.0;
    let mut totals = DispatchTotals::default();
    for round in rounds {
        totals.messages += round.report.messages;
        totals.chunks += round.chunks();
        totals.items += round.items;
        let workers = round.report.worker_stats.len().max(1);
        capacity += workers as f64 * (round.end - round.start).as_secs_f64();
        for stats in &round.report.worker_stats {
            *busy_by_worker.entry(stats.id).or_default() += stats.busy;
        }
    }
    let busy: Vec<f64> = busy_by_worker.values().map(Duration::as_secs_f64).collect();
    let total_busy: f64 = busy.iter().sum();
    if capacity > 0.0 {
        totals.busy_fraction = total_busy / capacity;
    }
    if total_busy > 0.0 {
        let mean = total_busy / busy.len() as f64;
        totals.imbalance = busy.iter().cloned().fold(0.0, f64::max) / mean;
    }
    totals
}

// ---------------------------------------------------------------------------
// Replay: one request through the public layer functions
// ---------------------------------------------------------------------------

/// Counts gathered while replaying a request layer by layer.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Reachable markings.
    pub states: usize,
    /// State-space edges (kernel transitions).
    pub transitions: usize,
    /// Stored kernel entries summed over the skeletons built.
    pub skeleton_nnz: usize,
    /// States of the largest skeleton (for the SpMV byte estimate).
    pub skeleton_states: usize,
    /// Passage-transform points evaluated.
    pub passage_points: usize,
    /// Iterations summed over the passage points.
    pub passage_iterations: usize,
    /// Pooled LST evaluations over the passage points.
    pub pooled_lst: u64,
    /// Transient-transform points evaluated.
    pub transient_points: usize,
    /// s-points planned over all plans built.
    pub planned_points: usize,
    /// Passage evaluations made by the quantile search.
    pub quantile_evaluations: usize,
    /// CDF rounds the quantile search asked for.
    pub quantile_rounds: usize,
    /// Probabilities searched.
    pub quantiles: usize,
    /// The replayed tables, by measure name (mean is not replayed: its
    /// stencil is private to the engines).
    pub tables: Vec<(String, Table)>,
}

/// The quantile search horizons the engines use: the grid's last point,
/// expanded at most 4096-fold.
fn quantile_horizons(request: &MeasureRequest) -> (f64, f64) {
    let initial = request
        .t_points
        .last()
        .copied()
        .filter(|t| *t > 0.0)
        .unwrap_or(1.0);
    (initial, initial * 4096.0)
}

enum Solver<'a> {
    Passage(PassageTimeSolver<'a>),
    Transient(TransientSolver<'a>),
}

/// Replays `requests` through the layers' public functions, recording a
/// span around every call: `explore`, `skeleton`, `splan`, `passage.point`,
/// `transient.point`, `invert` and `quantile`.  Density and CDF over one
/// target share their points, as the pipeline's batch does; quantile rounds
/// evaluate afresh, as the in-process pipeline does.
pub fn replay(
    model: &ModelSpec,
    requests: &[MeasureRequest],
    method: &InversionMethod,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let (net, space) = tracer.span("explore", |_| -> Result<_, String> {
        let net = smp_suite::dnamaca::parse_model(&model.source()).map_err(|e| e.to_string())?;
        let space = StateSpace::explore(&net).map_err(|e| e.to_string())?;
        Ok((net, space))
    })?;
    out.states = space.num_states();
    out.transitions = space.num_edges();
    let smp = space.smp();
    let initial = space.initial_state();

    let mut solvers: HashMap<(String, bool), Solver<'_>> = HashMap::new();
    let mut memo: HashMap<(String, u64, u64), Complex64> = HashMap::new();
    for request in requests {
        let transient = matches!(request.kind, MeasureKind::Transient);
        let key = (request.target.to_string(), transient);
        if !solvers.contains_key(&key) {
            let targets = tracer
                .span("explore", |_| request.target.resolve(&net, &space))
                .map_err(|e| e.to_string())?;
            let solver = tracer.span("skeleton", |_| -> Result<_, String> {
                Ok(if transient {
                    Solver::Transient(
                        TransientSolver::new(smp, initial, &targets).map_err(|e| e.to_string())?,
                    )
                } else {
                    Solver::Passage(
                        PassageTimeSolver::new(smp, &[initial], &targets)
                            .map_err(|e| e.to_string())?,
                    )
                })
            })?;
            if let Solver::Passage(p) = &solver {
                let ws = p.checkout_workspace();
                out.skeleton_nnz += ws.skeleton().nnz();
                out.skeleton_states = out.skeleton_states.max(ws.skeleton().num_states());
                p.give_back(ws);
            }
            solvers.insert(key.clone(), solver);
        }
        let solver = &solvers[&key];
        match (&request.kind, solver) {
            (MeasureKind::Density | MeasureKind::Cdf, Solver::Passage(p)) => {
                let curve = if matches!(request.kind, MeasureKind::Density) {
                    CurveKind::Density
                } else {
                    CurveKind::Cdf
                };
                let plan = tracer.span("splan", |_| {
                    SPointPlan::new(method.clone(), &request.t_points)
                });
                out.planned_points += plan.len();
                let mut shard = TransformValues::new();
                for &s in plan.s_points() {
                    let memo_key = (key.0.clone(), s.re.to_bits(), s.im.to_bits());
                    let value = match memo.get(&memo_key) {
                        Some(&v) => v,
                        None => {
                            let v = passage_point(p, s, tracer, &mut out)?;
                            memo.insert(memo_key, v);
                            v
                        }
                    };
                    shard.insert(s, value);
                }
                let values = tracer.span("invert", |_| curve.postprocess(&plan, &shard));
                out.tables.push((
                    request.name(),
                    Table {
                        points: request.t_points.clone(),
                        values,
                    },
                ));
            }
            (MeasureKind::Quantile { probs }, Solver::Passage(p)) => {
                let (initial_h, max_h) = quantile_horizons(request);
                out.quantiles += probs.len();
                let found = tracer.span("quantile", |tracer| {
                    quantiles_from_cdf(probs, initial_h, max_h, &mut |ts: &[f64]| {
                        out.quantile_rounds += 1;
                        let plan = tracer.span("splan", |_| SPointPlan::new(method.clone(), ts));
                        out.planned_points += plan.len();
                        let mut shard = TransformValues::new();
                        for &s in plan.s_points() {
                            shard.insert(s, passage_point(p, s, tracer, &mut out)?);
                            out.quantile_evaluations += 1;
                        }
                        Ok::<Vec<f64>, String>(
                            tracer.span("invert", |_| CurveKind::Cdf.postprocess(&plan, &shard)),
                        )
                    })
                })?;
                let values = found
                    .into_iter()
                    .map(|q| q.ok_or_else(|| "quantile not reached".to_string()))
                    .collect::<Result<Vec<f64>, String>>()?;
                out.tables.push((
                    request.name(),
                    Table {
                        points: probs.clone(),
                        values,
                    },
                ));
            }
            (MeasureKind::Transient, Solver::Transient(t)) => {
                let plan = tracer.span("splan", |_| {
                    SPointPlan::new(method.clone(), &request.t_points)
                });
                out.planned_points += plan.len();
                let mut shard = TransformValues::new();
                for &s in plan.s_points() {
                    let value = tracer.span("transient.point", |_| t.transform_at(s));
                    shard.insert(s, value.map_err(|e| e.to_string())?);
                    out.transient_points += 1;
                }
                let values = tracer.span("invert", |_| {
                    CurveKind::Transient.postprocess(&plan, &shard)
                });
                out.tables.push((
                    request.name(),
                    Table {
                        points: request.t_points.clone(),
                        values,
                    },
                ));
            }
            // Means and moments use the engines' private stencil.
            _ => {}
        }
    }
    Ok(out)
}

fn passage_point(
    solver: &PassageTimeSolver<'_>,
    s: Complex64,
    tracer: &mut Tracer,
    out: &mut Replay,
) -> Result<Complex64, String> {
    let before = solver.hotpath_stats();
    let point = tracer.span("passage.point", |_| {
        solver.with_workspace(|ws| solver.transform_at_with(ws, s))
    });
    let point = point.map_err(|e| e.to_string())?;
    out.passage_points += 1;
    out.passage_iterations += point.iterations;
    out.pooled_lst += solver.hotpath_stats().since(before).pooled_lst_evaluations;
    Ok(point.value)
}

/// Bytes one dense `term ← term · U'` step streams, computed (not measured)
/// from the CSR layout: per stored entry a 16-byte complex value and a 4-byte
/// column index; per row an 8-byte row pointer plus a 16-byte read of the
/// term and a 16-byte write of the result.
pub fn spmv_bytes_per_iteration(nnz: usize, states: usize) -> f64 {
    (nnz * (16 + 4) + states * (8 + 16 + 16)) as f64
}

// ---------------------------------------------------------------------------
// Sharding: the in-process sharded iteration on the same s-points
// ---------------------------------------------------------------------------

/// Solves `request` (a passage curve) with the in-process [`ShardedSolver`]
/// on the plan's s-points, inside a `shard.inprocess` span.  Returns the
/// wall time of the evaluations.
pub fn sharded_in_process(
    model: &ModelSpec,
    request: &MeasureRequest,
    method: &InversionMethod,
    shards: usize,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let net = smp_suite::dnamaca::parse_model(&model.source()).map_err(|e| e.to_string())?;
    let space = StateSpace::explore(&net).map_err(|e| e.to_string())?;
    let targets = request
        .target
        .resolve(&net, &space)
        .map_err(|e| e.to_string())?;
    let plan = SPointPlan::new(method.clone(), &request.t_points);
    let mut solver = ShardedSolver::new(
        space.smp(),
        space.initial_state(),
        &targets,
        Default::default(),
        shards,
    )
    .map_err(|e| e.to_string())?;
    let started = Instant::now();
    tracer.span("shard.inprocess", |_| -> Result<(), String> {
        for &s in plan.s_points() {
            std::hint::black_box(solver.transform_at(s).map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    Ok(started.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// Wire: codec time for a frame volume
// ---------------------------------------------------------------------------

/// Encodes, checksums and decodes representative frames through the public
/// codecs until `volume` bytes have passed, inside a `wire.codec` span; each
/// frame is a halo round of `entries_per_frame` boundary values (the shape of
/// both chunk results and slice rounds: rows with complex values).  Returns
/// the seconds spent.
pub fn wire_codec_seconds(volume: u64, entries_per_frame: usize, tracer: &mut Tracer) -> f64 {
    if volume == 0 {
        return 0.0;
    }
    let entries: Vec<(u32, Complex64)> = (0..entries_per_frame.max(1))
        .map(|i| {
            let x = (i as f64 + 1.0).sqrt();
            (i as u32 * 7, Complex64::new(x.sin() * 1e-3, x.cos() / 3.0))
        })
        .collect();
    let frame = Frame::Halo {
        id: 17,
        r: 42,
        entries,
    };
    let mut buffer: Vec<u8> = Vec::new();
    let mut done = 0u64;
    let started = Instant::now();
    tracer.span("wire.codec", |_| {
        while done < volume {
            buffer.clear();
            let written = write_frame(&mut buffer, &frame).expect("a halo frame encodes");
            let (decoded, read) = read_frame(&mut buffer.as_slice()).expect("its bytes decode");
            assert_eq!(read, written);
            std::hint::black_box(decoded);
            done += written;
        }
    });
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_suite::pipeline::worker::WorkerStats;

    fn round(ms: u64, busy: [u64; 2], items: usize, chunk: usize) -> DispatchRound {
        let start = Instant::now();
        DispatchRound {
            start,
            end: start + Duration::from_millis(ms),
            items,
            chunk_size: chunk,
            report: TransportReport {
                worker_stats: (0..2)
                    .map(|id| WorkerStats {
                        id,
                        evaluated: items / 2,
                        messages: 1,
                        busy: Duration::from_millis(busy[id]),
                    })
                    .collect(),
                messages: 3,
                ..TransportReport::default()
            },
        }
    }

    #[test]
    fn dispatch_totals_fold_busy_time_per_worker() {
        let totals = dispatch_totals(&[round(100, [80, 40], 10, 4), round(100, [40, 40], 8, 4)]);
        assert_eq!(totals.messages, 6);
        assert_eq!(totals.chunks, 3 + 2);
        assert_eq!(totals.items, 18);
        assert!((totals.busy_fraction - 0.5).abs() < 1e-9);
        // Busy 120 ms vs 80 ms: max / mean = 120 / 100.
        assert!((totals.imbalance - 1.2).abs() < 1e-9);
    }

    #[test]
    fn replay_matches_the_analytic_engine_bit_for_bit() {
        use smp_suite::core::Engine;
        let model = ModelSpec::Voting {
            voters: 3,
            polling: 1,
            central: 1,
        };
        let ts = smp_suite::numeric::stats::linspace(1.0, 10.0, 5);
        let requests: Vec<MeasureRequest> = ["density:p2>=3", "cdf:p2>=3", "transient:p2>=3"]
            .iter()
            .map(|m| {
                MeasureRequest::parse(m)
                    .expect("measure")
                    .with_t_points(&ts)
            })
            .collect();
        let method = InversionMethod::euler();
        let mut tracer = Tracer::new(true);
        let replayed = replay(&model, &requests, &method, &mut tracer).expect("replays");
        let live = smp_suite::pipeline::AnalyticEngine::new(model, method)
            .solve(&requests)
            .expect("solves");
        for (report, (name, table)) in live.iter().zip(&replayed.tables) {
            assert_eq!(&report.name, name);
            assert!(Table::of(report).bitwise_eq(table), "{name}");
        }
        // Density and CDF share their points.
        let plan_points = replayed.planned_points / 3;
        assert_eq!(replayed.passage_points, plan_points);
        assert_eq!(replayed.transient_points, plan_points);
        assert!(tracer.self_seconds().contains_key("passage.point"));
    }
}
