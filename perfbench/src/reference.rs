//! Value-table checks.
//!
//! Every table a workload receives is checked twice: bit for bit against
//! the one-shot reference engine's live answer to the same request, and
//! within [`FROZEN_RELATIVE`]/[`FROZEN_ABSOLUTE`] of the table frozen in
//! `reference/<workload>.ref` (the analytic engine's output when the
//! benchmark was defined, stored as `f64` bit patterns).

use smp_suite::core::MeasureReport;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Relative tolerance of the frozen-reference check (also stated in
/// `spec.json`).
pub const FROZEN_RELATIVE: f64 = 1e-7;
/// Absolute tolerance of the frozen-reference check (also stated in
/// `spec.json`).
pub const FROZEN_ABSOLUTE: f64 = 1e-9;

/// A value table: the report's points (time grid, probabilities or moment
/// order) followed by its values.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The points the values belong to.
    pub points: Vec<f64>,
    /// The measure's values.
    pub values: Vec<f64>,
}

impl Table {
    /// The table a report carries.
    pub fn of(report: &MeasureReport) -> Table {
        Table {
            points: report.points.clone(),
            values: report.values.clone(),
        }
    }

    /// Bit-for-bit equality of points and values.
    pub fn bitwise_eq(&self, other: &Table) -> bool {
        bits_equal(&self.points, &other.points) && bits_equal(&self.values, &other.values)
    }

    /// Points equal bit for bit and every value within the frozen
    /// tolerance of `frozen`'s.
    pub fn within_frozen(&self, frozen: &Table) -> bool {
        bits_equal(&self.points, &frozen.points)
            && self.values.len() == frozen.values.len()
            && self.values.iter().zip(&frozen.values).all(|(&got, &want)| {
                (got - want).abs() <= FROZEN_ABSOLUTE + FROZEN_RELATIVE * want.abs()
            })
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Encodes `f64`s as comma-separated 16-digit hex bit patterns.
pub fn encode_bits(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Decodes [`encode_bits`] output.
pub fn decode_bits(text: &str) -> Result<Vec<f64>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|h| {
            u64::from_str_radix(h, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("'{h}' is not a 16-digit hex bit pattern"))
        })
        .collect()
}

/// Frozen tables keyed by request key, one `key<TAB>points<TAB>values` line
/// each.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frozen {
    tables: BTreeMap<String, Table>,
}

impl Frozen {
    /// The frozen-reference file of a workload.
    pub fn path(workload: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("reference")
            .join(format!("{workload}.ref"))
    }

    /// Loads a workload's frozen tables.
    pub fn load(workload: &str) -> Result<Frozen, String> {
        let path = Frozen::path(workload);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Frozen::parse(&text)
    }

    /// Parses the file format written by [`Frozen::render`].
    pub fn parse(text: &str) -> Result<Frozen, String> {
        let mut tables = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [key, points, values] = fields[..] else {
                return Err(format!("line {}: expected key, points and values", n + 1));
            };
            let table = Table {
                points: decode_bits(points).map_err(|e| format!("line {}: {e}", n + 1))?,
                values: decode_bits(values).map_err(|e| format!("line {}: {e}", n + 1))?,
            };
            tables.insert(key.to_string(), table);
        }
        Ok(Frozen { tables })
    }

    /// Renders the tables, sorted by key.
    pub fn render(&self) -> String {
        let mut out =
            String::from("# Frozen reference tables: key, points, values as f64 bit patterns.\n");
        for (key, table) in &self.tables {
            out.push_str(&format!(
                "{key}\t{}\t{}\n",
                encode_bits(&table.points),
                encode_bits(&table.values)
            ));
        }
        out
    }

    /// Adds or replaces one table.
    pub fn insert(&mut self, key: String, table: Table) {
        self.tables.insert(key, table);
    }

    /// The frozen table of `key`, if one was frozen.
    pub fn get(&self, key: &str) -> Option<&Table> {
        self.tables.get(key)
    }

    /// Number of frozen tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }
}

/// The verdict on one received table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Equal to the live answer bit for bit and, where frozen, within the
    /// frozen tolerance.
    Pass,
    /// Differs from the live one-shot answer.
    LiveMismatch,
    /// Matches the live answer but has drifted from the frozen table.
    FrozenMismatch,
}

/// Checks a received table against the live answer and (when present) the
/// frozen table.
pub fn check(received: &Table, live: &Table, frozen: Option<&Table>) -> Verdict {
    if !received.bitwise_eq(live) {
        Verdict::LiveMismatch
    } else if frozen.is_some_and(|f| !received.within_frozen(f)) {
        Verdict::FrozenMismatch
    } else {
        Verdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(values: &[f64]) -> Table {
        Table {
            points: vec![1.0, 2.0, 3.0],
            values: values.to_vec(),
        }
    }

    fn next_ulp(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn a_one_ulp_change_fails_the_live_check() {
        let live = table(&[0.25, 0.5, 0.75]);
        let nudged = table(&[0.25, next_ulp(0.5), 0.75]);
        assert_eq!(check(&live.clone(), &live, Some(&live)), Verdict::Pass);
        assert_eq!(check(&nudged, &live, Some(&live)), Verdict::LiveMismatch);
        // A one-ulp change in a point (the grid) fails too.
        let mut shifted = live.clone();
        shifted.points[1] = next_ulp(2.0);
        assert_eq!(check(&shifted, &live, None), Verdict::LiveMismatch);
    }

    #[test]
    fn the_frozen_check_has_a_tolerance_but_catches_drift() {
        let frozen = table(&[0.25, 0.5, 0.75]);
        assert!(table(&[0.25, next_ulp(0.5), 0.75]).within_frozen(&frozen));
        assert!(!table(&[0.25, 0.5 + 1e-6, 0.75]).within_frozen(&frozen));
        assert!(!table(&[0.25, 0.5]).within_frozen(&frozen));
        let drifted = table(&[0.25, 0.5001, 0.75]);
        assert_eq!(
            check(&drifted, &drifted, Some(&frozen)),
            Verdict::FrozenMismatch
        );
    }

    #[test]
    fn frozen_files_round_trip_bit_patterns() {
        let mut frozen = Frozen::default();
        frozen.insert("cdf:p2>=3".into(), table(&[0.1, f64::MIN_POSITIVE, -0.0]));
        let parsed = Frozen::parse(&frozen.render()).expect("parses");
        assert_eq!(parsed, frozen);
        assert_eq!(
            parsed.get("cdf:p2>=3").expect("present").values[2].to_bits(),
            (-0.0f64).to_bits()
        );
        assert!(Frozen::parse("key\tzz\t").is_err());
    }

    #[test]
    fn the_tolerance_stated_in_spec_json_is_the_one_applied() {
        let spec = include_str!("../spec.json");
        assert!(spec.contains(&format!("\"relative\": {FROZEN_RELATIVE:e}")));
        assert!(spec.contains(&format!("\"absolute\": {FROZEN_ABSOLUTE:e}")));
    }
}
