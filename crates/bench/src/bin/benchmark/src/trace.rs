//! In-memory span recorder for `--trace` runs.
//!
//! Spans wrap the benchmark's calls into the engine's public entry
//! points; nothing inside the engine is instrumented. Each span keeps its
//! name, start, end, parent span and query id. Recording is per thread
//! and off unless [`set_enabled`] turned it on, so the untraced runs that
//! produce the end-to-end metrics pay one thread-local flag read per call.

use crate::stats;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The root span name of one query.
pub const QUERY: &str = "query";

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: Option<u64>,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    query: Option<u64>,
    notes: Vec<(&'static str, f64)>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        query: None,
        notes: Vec::new(),
    });
}

pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

fn open(name: &'static str, query: Option<u64>) -> Option<usize> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        if query.is_some() {
            r.query = query;
        }
        let id = r.spans.len();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: r.stack.last().copied(),
            query: r.query,
        };
        r.spans.push(span);
        r.stack.push(id);
        Some(id)
    })
}

fn close(id: usize, ends_query: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans[id].end_ns = end_ns;
        r.stack.pop();
        if ends_query {
            r.query = None;
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = open(name, None);
    let out = f();
    if let Some(id) = id {
        close(id, false);
    }
    out
}

/// Runs `f` as query `id`: a root span every span inside it belongs to.
pub fn query<T>(id: u64, f: impl FnOnce() -> T) -> T {
    let span = open(QUERY, Some(id));
    let out = f();
    if let Some(span) = span {
        close(span, true);
    }
    out
}

/// Records a measured value (a size or a count) while tracing.
pub fn note(name: &'static str, value: f64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            r.notes.push((name, value));
        }
    });
}

/// Takes this thread's spans and notes, leaving the recorder empty.
#[must_use]
pub fn take() -> (Vec<Span>, Vec<(&'static str, f64)>) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.stack.clear();
        (std::mem::take(&mut r.spans), std::mem::take(&mut r.notes))
    })
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct Layer {
    pub count: usize,
    /// Self time of the layer's spans inside queries, in ns.
    pub self_ns: u64,
    /// Median span duration, in ms (every span of the name, setup too).
    pub p50_ms: f64,
    /// Self time as a share of all query wall time.
    pub share: f64,
}

/// Per-layer figures plus the query wall time they are shares of.
#[derive(Clone, Debug, Default)]
pub struct Table {
    pub layers: BTreeMap<&'static str, Layer>,
    pub query_wall_ns: u64,
    pub queries: usize,
}

impl Table {
    #[must_use]
    pub fn from_spans(spans: &[Span]) -> Table {
        let selfs = self_times(spans);
        let mut table = Table::default();
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(&selfs) {
            if span.name == QUERY {
                table.query_wall_ns += span.dur_ns();
                table.queries += 1;
                continue;
            }
            durations
                .entry(span.name)
                .or_default()
                .push(span.dur_ns() as f64 / 1e6);
            let layer = table.layers.entry(span.name).or_insert(Layer {
                count: 0,
                self_ns: 0,
                p50_ms: 0.0,
                share: 0.0,
            });
            layer.count += 1;
            if span.query.is_some() {
                layer.self_ns += self_ns;
            }
        }
        for (name, mut values) in durations {
            let layer = table.layers.get_mut(name).expect("layer exists");
            layer.p50_ms = stats::median(&mut values);
            if table.query_wall_ns > 0 {
                layer.share = layer.self_ns as f64 / table.query_wall_ns as f64;
            }
        }
        table
    }

    /// Median duration of a layer's spans in ms, 0 when it never ran.
    #[must_use]
    pub fn p50_ms(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.p50_ms)
    }

    #[must_use]
    pub fn share(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.share)
    }

    /// Share of query wall time that named layers account for.
    #[must_use]
    pub fn accounted(&self) -> f64 {
        self.layers.values().map(|l| l.share).sum()
    }

    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<26} {:>7} {:>11} {:>10} {:>7}\n",
            "layer", "count", "self_ms", "p50_ms", "share"
        );
        for (name, l) in &self.layers {
            out.push_str(&format!(
                "{name:<26} {:>7} {:>11.1} {:>10.3} {:>6.1}%\n",
                l.count,
                l.self_ns as f64 / 1e6,
                l.p50_ms,
                l.share * 100.0
            ));
        }
        out.push_str(&format!(
            "{:<26} {:>7} {:>11.1} {:>10} {:>6.1}%\n",
            "(all queries)",
            self.queries,
            self.query_wall_ns as f64 / 1e6,
            "",
            self.accounted() * 100.0
        ));
        out
    }
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// I/O errors creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
    for (id, s) in spans.iter().enumerate() {
        writeln!(
            out,
            r#"{{"id":{id},"name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{},"query":{}}}"#,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            opt(s.parent.map(|p| p as u64)),
            opt(s.query),
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            mk(QUERY, 0, 100, None),
            mk("a", 10, 40, Some(0)),
            mk("b", 30, 60, Some(0)), // overlaps `a` by 10
            mk("c", 15, 25, Some(1)),
            mk("d", 90, 120, Some(0)), // runs past its parent
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 10, 30, 10, 30]);
        let table = Table::from_spans(&spans);
        assert_eq!(table.query_wall_ns, 100);
        assert_eq!(table.layers["a"].self_ns, 20);
        assert!((table.share("b") - 0.30).abs() < 1e-12);
        assert!((table.accounted() - (20.0 + 30.0 + 10.0 + 30.0) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_under_the_query() {
        let _ = take();
        set_enabled(true);
        let v = query(7, || span("outer", || span("inner", || 3)));
        span("setup", || ());
        set_enabled(false);
        span("untraced", || ());
        let (spans, _) = take();
        assert_eq!(v, 3);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec![QUERY, "outer", "inner", "setup"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].query, Some(7));
        assert_eq!(spans[3].query, None, "the query id ends with its root span");
        assert_eq!(spans[3].parent, None);
    }
}
