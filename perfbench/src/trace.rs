//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name, start, end, parent and the request it belongs
//! to.  Spans stay in memory during the run and are written out once, when
//! it ends; a layer's self time is its span's duration minus the time its
//! direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.  Times are offsets from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span wraps (`explore`, `passage.point`, ...).
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (spans of one request share it).
    pub request: u64,
}

/// A span recorder.  A disabled tracer records nothing and costs one branch
/// per call, so untraced code paths can share the traced ones.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// A tracer sharing `origin` with others, so their spans can later be
    /// merged onto one timeline (one tracer per client thread).
    pub fn with_origin(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            origin,
            ..Tracer::new(enabled)
        }
    }

    /// Appends another tracer's spans (recorded against the same origin),
    /// keeping their parent links and request identifiers.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new request: later spans carry its identifier.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Records an already-finished span (taken by code that could not hold
    /// the tracer, such as a transport wrapper) under the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let offset = |at: Instant| at.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            start: offset(start),
            end: offset(end),
            parent: self.open.last().copied(),
            request: self.request,
        });
    }

    /// The recorded spans, in start order of their `enter`.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_seconds(&self.spans)
    }

    /// Writes every span as one tab-separated line:
    /// `index parent request name start_s end_s self_s`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self_time_per_span(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\trequest\tname\tstart_s\tend_s\tself_s")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{:.9}\t{:.9}\t{:.9}",
                span.request,
                span.name,
                span.start.as_secs_f64(),
                span.end.as_secs_f64(),
                own[i]
            )?;
        }
        out.flush()
    }
}

/// Per-span self time: duration minus the durations of its direct children.
fn self_time_per_span(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans
        .iter()
        .map(|s| (s.end - s.start).as_secs_f64())
        .collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= (span.end - span.start).as_secs_f64();
        }
    }
    own.iter().map(|&t| t.max(0.0)).collect()
}

/// Total self time per span name, in seconds.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_time_per_span(spans)) {
        *totals.entry(span.name).or_insert(0.0) += own;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ms: u64, end_ms: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // solve [0,100) > dispatch [10,70) > (none); solve > invert [70,90);
        // dispatch > chunk [20,30).
        let spans = vec![
            span("solve", 0, 100, None),
            span("dispatch", 10, 70, Some(0)),
            span("chunk", 20, 30, Some(1)),
            span("invert", 70, 90, Some(0)),
        ];
        let own = self_seconds(&spans);
        assert!((own["solve"] - 0.020).abs() < 1e-12);
        assert!((own["dispatch"] - 0.050).abs() < 1e-12);
        assert!((own["chunk"] - 0.010).abs() < 1e-12);
        assert!((own["invert"] - 0.020).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tracer = Tracer::new(true);
        tracer.next_request();
        tracer.span("outer", |t| t.span("inner", |_| ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 1 && s.end >= s.start));
        let mut other = Tracer::with_origin(true, Instant::now());
        other.span("a", |t| t.span("b", |_| ()));
        tracer.absorb(other);
        assert_eq!(tracer.spans()[3].parent, Some(2));
        let mut off = Tracer::new(false);
        off.span("outer", |t| t.span("inner", |_| ()));
        assert!(off.spans().is_empty());
    }
}
