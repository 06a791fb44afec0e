//! What one benchmark run reports: counts, metrics and free-form notes, and
//! the JSON line the run ends with.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// End-to-end metrics (`--trace 0`) with their units, in report order; the
/// same names and units as `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_s.p50", "s"),
    ("latency_s.p90", "s"),
    ("throughput_per_s", "1/s"),
    ("cpu_s_per_request", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`) with their units, in report order; the
/// same names and units as `BENCHMARK.json`.  Every traced run reports all
/// of them; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("explore.s", "s"),
    ("explore.states", "count"),
    ("explore.transitions", "count"),
    ("skeleton.s", "s"),
    ("skeleton.nnz", "count"),
    ("passage.points", "count"),
    ("passage.s_per_point", "s"),
    ("passage.iterations_per_point", "count"),
    ("lst.pooled_evals_per_point", "count"),
    ("spmv.bytes_per_point", "B"),
    ("transient.points", "count"),
    ("transient.s_per_point", "s"),
    ("splan.s_points", "count"),
    ("invert.s", "s"),
    ("quantile.evaluations", "count"),
    ("quantile.rounds", "count"),
    ("quantile.evals_per_quantile", "count"),
    ("quantile.s", "s"),
    ("dispatch.messages", "count"),
    ("dispatch.chunks", "count"),
    ("dispatch.evals_per_chunk", "count"),
    ("dispatch.busy_fraction", "ratio"),
    ("dispatch.imbalance", "ratio"),
    ("wire.bytes", "B"),
    ("wire.bytes_per_eval", "B"),
    ("wire.codec_s", "s"),
    ("halo.rounds", "count"),
    ("halo.rounds_per_point", "count"),
    ("halo.bytes", "B"),
    ("halo.frame_bytes", "B"),
    ("shard.max_states", "count"),
    ("shard.exchange_overhead_s", "s"),
    ("result_cache.hit_ratio", "ratio"),
    ("model_cache.hits", "count"),
    ("model_cache.misses", "count"),
    ("server.queue_wait_s.p50", "s"),
    ("server.queue_wait_s.p90", "s"),
    ("server.warm_fraction", "ratio"),
    ("server.refusals", "count"),
    ("server.catalog_models", "count"),
    ("server.model_lru_capacity", "count"),
    ("client.overhead_s", "s"),
    ("uniform.s_per_query", "s"),
    ("baseline.analytic_s", "s"),
    ("baseline.evaluations", "count"),
    ("fleet.speedup", "ratio"),
    ("fleet.efficiency", "ratio"),
    ("ledger.quantile_inprocess.evaluations", "count"),
    ("ledger.quantile_inprocess.model_cache_hits", "count"),
    ("ledger.quantile_inprocess.model_cache_misses", "count"),
    ("ledger.quantile_sharded.evaluations", "count"),
    ("ledger.quantile_sharded.shared", "count"),
    ("trace.overhead_s", "s"),
];

/// The unit of a metric listed in either table.
fn listed_unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric '{name}' is not listed"))
}

/// The result of running one workload once.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests attempted in the measured phase.
    pub attempted: u64,
    /// Requests that errored, were refused, or returned a table failing a
    /// reference check.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (sample counts,
    /// ledger comparison, anomalies).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric listed in [`END_TO_END`].
    pub fn end_to_end(&mut self, name: &str, value: f64) {
        let unit = unit_of(END_TO_END, name);
        self.push(name, value, unit);
    }

    /// Records a per-layer metric listed in [`PER_LAYER`].
    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = unit_of(PER_LAYER, name);
        self.push(name, value, unit);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Puts the metrics in listed order, adding every per-layer metric the
    /// workload did not measure as 0 when any was recorded.
    pub fn finish(&mut self) {
        let per_layer = self
            .metrics
            .iter()
            .any(|m| PER_LAYER.iter().any(|(n, _)| *n == m.name));
        let table = if per_layer { PER_LAYER } else { END_TO_END };
        let mut ordered = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            ordered.push(Metric {
                name: name.to_string(),
                value,
                unit,
            });
        }
        self.metrics = ordered;
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// The run's verdict: nothing failed and something was attempted.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The outcome as lines a child run hands its parent: `attempted N`,
    /// `failed N`, `metric NAME VALUE` (every digit) and `note TEXT`.
    pub fn encode(&self) -> String {
        let mut out = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for m in &self.metrics {
            let _ = writeln!(out, "metric {} {:?}", m.name, m.value);
        }
        for note in &self.notes {
            let _ = writeln!(out, "note {}", note.replace('\n', " "));
        }
        out
    }

    /// Reads what [`Outcome::encode`] wrote.
    pub fn decode(text: &str) -> Result<Outcome, String> {
        let mut outcome = Outcome::default();
        for line in text.lines() {
            let bad = || format!("malformed outcome line '{line}'");
            let (kind, rest) = line.split_once(' ').ok_or_else(bad)?;
            match kind {
                "attempted" => outcome.attempted = rest.parse().map_err(|_| bad())?,
                "failed" => outcome.failed = rest.parse().map_err(|_| bad())?,
                "metric" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    outcome.metrics.push(Metric {
                        name: name.to_string(),
                        value: value.parse().map_err(|_| bad())?,
                        unit: listed_unit(name).ok_or_else(bad)?,
                    });
                }
                "note" => outcome.notes.push(rest.to_string()),
                _ => return Err(bad()),
            }
        }
        Ok(outcome)
    }

    /// One table row: every metric as `name=value unit`, then the failed
    /// fraction (failures are also the JSON line's `failed` count).
    pub fn row(&self, workload: &str) -> String {
        let mut row = format!("{workload:<20}");
        for m in &self.metrics {
            let _ = write!(row, "  {}={} {}", m.name, short(m.value), m.unit);
        }
        let fraction = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = write!(row, "  failed_fraction={fraction} ratio");
        row
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (non-finite values, which JSON cannot carry, become 0 with the
/// failure counted by the caller).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

fn short(value: f64) -> String {
    if value != 0.0 && (value.abs() < 1e-3 || value.abs() >= 1e7) {
        format!("{value:.4e}")
    } else {
        format!("{value:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut outcome = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        outcome.end_to_end("latency_s.p50", 1.25);
        outcome.end_to_end("setup_s", 0.001953125);
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_s.p50\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.001953125, \"unit\": \"s\"}}}"
        );
        outcome.failed = 1;
        assert!(outcome.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_child_outcome_survives_the_round_trip() {
        let mut outcome = Outcome {
            attempted: 7,
            failed: 1,
            ..Outcome::default()
        };
        outcome.end_to_end("latency_s.p50", 2.935_528_352_000_1);
        outcome.end_to_end("peak_rss_mb", 7.828_125);
        outcome.note("samples: 7 request(s)");
        let back = Outcome::decode(&outcome.encode()).expect("decodes");
        assert_eq!(back.metrics, outcome.metrics);
        assert_eq!(back.notes, outcome.notes);
        assert_eq!((back.attempted, back.failed), (7, 1));
        assert!(Outcome::decode("metric no_such_metric 1.0").is_err());
    }

    #[test]
    fn finish_orders_metrics_and_fills_unmeasured_layers() {
        let mut e2e = Outcome::default();
        e2e.end_to_end("peak_rss_mb", 3.0);
        e2e.end_to_end("setup_s", 0.5);
        e2e.finish();
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, listed);
        let mut layers = Outcome::default();
        layers.layer("trace.overhead_s", 0.25);
        layers.finish();
        assert_eq!(layers.metrics.len(), PER_LAYER.len());
        assert_eq!(layers.metrics.last().expect("some").value, 0.25);
        assert_eq!(layers.metrics[0].value, 0.0);
    }

    #[test]
    fn listed_metrics_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
