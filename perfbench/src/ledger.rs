//! The exact-counter ledger: deterministic counters a request produces
//! (evaluations, messages, wire and halo bytes, exchange rounds, model-cache
//! traffic), their recorded values in `spec.json`, and the probe that
//! measures the quantile accounting anomaly.

use crate::report::Outcome;
use crate::trace::Tracer;
use smp_suite::core::{Engine, MeasureReport, MeasureRequest};
use smp_suite::laplace::InversionMethod;
use smp_suite::numeric::stats::linspace;
use smp_suite::pipeline::{DistributedEngine, ModelSpec, PipelineOptions};

/// Deterministic counters of one request, summed over its reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// New transform evaluations.
    pub evaluations: usize,
    /// Evaluations shared between measures of the request.
    pub shared: usize,
    /// Points served from a result cache or checkpoint.
    pub cache_hits: usize,
    /// Protocol messages.
    pub messages: usize,
    /// Bytes on the wire.
    pub wire_bytes: u64,
    /// Halo-exchange bytes (sharded solves).
    pub halo_bytes: u64,
    /// Halo-exchange rounds (sharded solves).
    pub exchange_rounds: u64,
    /// Compiled model sets served from a cache.
    pub model_cache_hits: usize,
    /// Compiled model sets compiled afresh.
    pub model_cache_misses: usize,
    /// States held by the largest shard (sharded solves).
    pub max_shard_states: usize,
}

impl Counters {
    /// Sums the counters of a request's reports.
    pub fn of(reports: &[MeasureReport]) -> Counters {
        let mut c = Counters::default();
        for r in reports {
            let p = &r.provenance;
            c.evaluations += p.evaluations;
            c.shared += p.shared_hits;
            c.cache_hits += p.cache_hits;
            c.messages += p.messages;
            c.wire_bytes += p.bytes_on_wire;
            c.halo_bytes += p.halo_bytes;
            c.exchange_rounds += p.exchange_rounds;
            c.model_cache_hits += p.model_cache_hits;
            c.model_cache_misses += p.model_cache_misses;
            c.max_shard_states = c
                .max_shard_states
                .max(p.shard_states.iter().copied().max().unwrap_or(0));
        }
        c
    }

    /// `key=value` pairs in ledger order.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("evaluations", self.evaluations as u64),
            ("shared", self.shared as u64),
            ("cache_hits", self.cache_hits as u64),
            ("messages", self.messages as u64),
            ("wire_bytes", self.wire_bytes),
            ("halo_bytes", self.halo_bytes),
            ("exchange_rounds", self.exchange_rounds),
            ("model_cache_hits", self.model_cache_hits as u64),
            ("model_cache_misses", self.model_cache_misses as u64),
        ]
    }

    /// The ledger line of these counters.
    pub fn render(&self) -> String {
        self.fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The recorded ledger line of `workload` in `spec.json`, parsed into
/// `(key, value)` pairs.
pub fn recorded(workload: &str) -> Option<Vec<(String, u64)>> {
    recorded_in(include_str!("../spec.json"), workload)
}

fn recorded_in(spec: &str, workload: &str) -> Option<Vec<(String, u64)>> {
    let ledger = &spec[spec.find("\"ledger\"")?..];
    let needle = format!("\"{workload}\": \"evaluations=");
    let start = ledger.find(&needle)? + needle.len() - "evaluations=".len();
    let line = &ledger[start..];
    let line = &line[..line.find('"')?];
    line.split_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Whether each request repeats the counters of the run's first request
/// exactly.  The counters are deterministic, so within one run of one build
/// a difference is nondeterminism, not an optimisation, and the request
/// counts as failed.
pub fn repeats_first(counters: &[Counters]) -> Vec<bool> {
    counters.iter().map(|c| *c == counters[0]).collect()
}

/// Compares a request's counters with the recorded ledger line.  The result
/// is informational: a changed count is what an optimisation of the counted
/// work looks like, so it is reported, not failed.
pub fn compare(workload: &str, counters: &Counters) -> String {
    let Some(expected) = recorded(workload) else {
        return format!(
            "ledger: no recorded line for {workload}; measured {}",
            counters.render()
        );
    };
    let diffs: Vec<String> = counters
        .fields()
        .iter()
        .filter_map(|(k, v)| {
            let want = expected.iter().find(|(ek, _)| ek == k)?.1;
            (want != *v).then(|| format!("{k} {v} (ledger {want})"))
        })
        .collect();
    if diffs.is_empty() {
        format!("ledger: counters match ({})", counters.render())
    } else {
        format!(
            "ledger: counters differ: {}; measured {}",
            diffs.join(", "),
            counters.render()
        )
    }
}

/// The quantile accounting anomaly, measured on a small request: the same
/// quantile search counts every point as new in-process but splits points
/// into new and shared when row-sharded, and the in-process solve compiles
/// its model once per refinement round without a model-cache hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantileAnomaly {
    /// New evaluations of the in-process solve.
    pub inprocess_evaluations: usize,
    /// Model-cache hits of the in-process solve.
    pub inprocess_model_cache_hits: usize,
    /// Model-cache misses of the in-process solve.
    pub inprocess_model_cache_misses: usize,
    /// New evaluations of the sharded solve.
    pub sharded_evaluations: usize,
    /// Shared evaluations of the sharded solve.
    pub sharded_shared: usize,
}

/// The probe request: `quantile:p2>=3@0.5,0.9` on `voting 3,1,1` over
/// t ∈ [1, 10] (12 points), small enough to shard in about a second.
fn anomaly_request() -> (ModelSpec, Vec<MeasureRequest>) {
    let model = ModelSpec::Voting {
        voters: 3,
        polling: 1,
        central: 1,
    };
    let request = MeasureRequest::parse("quantile:p2>=3@0.5,0.9")
        .expect("a valid measure")
        .with_t_points(&linspace(1.0, 10.0, 12));
    (model, vec![request])
}

/// Solves the probe in-process and sharded (two workers each).
pub fn quantile_anomaly(tracer: &mut Tracer) -> Result<QuantileAnomaly, String> {
    let (model, requests) = anomaly_request();
    let method = InversionMethod::euler();
    let options = PipelineOptions::with_workers(2);
    let inprocess = tracer.span("ledger.anomaly", |_| {
        DistributedEngine::in_process(model.clone(), method.clone(), options.clone())
            .solve(&requests)
    });
    let sharded = tracer.span("ledger.anomaly", |_| {
        DistributedEngine::sharded(model, method, options, 2).solve(&requests)
    });
    let inprocess = Counters::of(&inprocess.map_err(|e| e.to_string())?);
    let sharded = Counters::of(&sharded.map_err(|e| e.to_string())?);
    Ok(QuantileAnomaly {
        inprocess_evaluations: inprocess.evaluations,
        inprocess_model_cache_hits: inprocess.model_cache_hits,
        inprocess_model_cache_misses: inprocess.model_cache_misses,
        sharded_evaluations: sharded.evaluations,
        sharded_shared: sharded.shared,
    })
}

/// Emits the anomaly counters (zeros on workloads that do not probe it).
pub fn anomaly_metrics(outcome: &mut Outcome, anomaly: Option<&QuantileAnomaly>) {
    let a = anomaly.copied().unwrap_or_default();
    outcome.layer(
        "ledger.quantile_inprocess.evaluations",
        a.inprocess_evaluations as f64,
    );
    outcome.layer(
        "ledger.quantile_inprocess.model_cache_hits",
        a.inprocess_model_cache_hits as f64,
    );
    outcome.layer(
        "ledger.quantile_inprocess.model_cache_misses",
        a.inprocess_model_cache_misses as f64,
    );
    outcome.layer(
        "ledger.quantile_sharded.evaluations",
        a.sharded_evaluations as f64,
    );
    outcome.layer("ledger.quantile_sharded.shared", a.sharded_shared as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_lines_parse_from_the_spec() {
        let spec = r#"{"ledger": {
            "fleet-curve": "evaluations=552 shared=552 messages=24",
            "other": "not a ledger line"}}"#;
        let line = recorded_in(spec, "fleet-curve").expect("present");
        assert_eq!(line[0], ("evaluations".to_string(), 552));
        assert_eq!(line[2], ("messages".to_string(), 24));
        assert!(recorded_in(spec, "other").is_none());
        assert!(recorded_in(spec, "missing").is_none());
    }

    #[test]
    fn a_request_that_changes_one_count_does_not_repeat_the_first() {
        let first = Counters {
            evaluations: 552,
            shared: 552,
            messages: 24,
            wire_bytes: 65_392,
            ..Counters::default()
        };
        let mut changed = first.clone();
        changed.messages += 1;
        assert_eq!(
            repeats_first(&[first.clone(), first.clone(), changed, first]),
            [true, true, false, true]
        );
        assert!(repeats_first(&[]).is_empty());
    }

    #[test]
    fn every_one_shot_workload_has_a_recorded_line() {
        for w in ["fleet-curve", "quantile-transient", "shard-curve"] {
            let line = recorded(w).unwrap_or_else(|| panic!("no ledger line for {w}"));
            assert_eq!(line.len(), Counters::default().fields().len(), "{w}");
        }
    }
}
