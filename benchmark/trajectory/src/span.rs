//! The benchmark's own spans: recorded around each call into a layer, held
//! in memory, written out once at exit as Chrome trace-event JSON. Stage
//! spans the program already records through `mmjoin_obs` are converted into
//! the same shape so one self-time rule covers both.

use crate::stats::json_string;
use mmjoin_obs::trace::{Trace, Tracer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Ids minted here carry this bit so they never collide with the ids the
/// program's tracer mints.
const OWN_ID_BIT: u64 = 1 << 62;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    /// Spans of one request share this.
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recorded by the program's own tracer, not by the benchmark.
    pub program: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe, append-only span store with its own clock origin.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// `epoch` is the clock origin; [`tracer_epoch`] gives the one that puts
    /// these spans on the program tracer's timeline.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished root span; `request` is 0 outside a request.
    pub fn record(&self, name: &str, request: u64, start: Instant, end: Instant) {
        let span = Span {
            id: OWN_ID_BIT | self.next.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            request,
            name: name.to_string(),
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            program: false,
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Times `f` as one root span.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, 0, start, end);
        (out, (end - start).as_secs_f64())
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// The instant the program's tracer counts from. The tracer keeps its origin
/// private, so one throw-away trace is opened between two clock reads: its
/// root's offset from the origin, taken off the reads, brackets the origin
/// to within the time the two reads are apart. Tracing must be enabled.
pub fn tracer_epoch(tracer: &Tracer) -> Option<Instant> {
    let before = Instant::now();
    let ctx = tracer.start_forced("clock-sync")?;
    let after = Instant::now();
    tracer.finish(ctx);
    let root_ns = tracer.spans_of(ctx.trace)?.root()?.start_ns;
    (before + (after - before) / 2).checked_sub(std::time::Duration::from_nanos(root_ns))
}

/// The program's finished traces in the benchmark's span shape: names are the
/// stage names, the request is the trace id.
pub fn from_traces(traces: &[Trace]) -> Vec<Span> {
    traces
        .iter()
        .flat_map(|t| {
            t.spans.iter().map(|s| Span {
                id: s.id,
                parent: s.parent,
                request: t.id,
                name: s.stage.name().to_string(),
                start_ns: s.start_ns,
                end_ns: s.start_ns + s.dur_ns,
                program: true,
            })
        })
        .collect()
}

/// Self time per span id: the span's duration minus the part of its interval
/// its children cover. Children may overlap each other (parallel steps) and
/// may stick out of the parent (a reply flushed after the parent closed);
/// only the union inside the parent counts.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> HashMap<String, u64> {
    let own = self_times(spans);
    let mut out: HashMap<String, u64> = HashMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_insert(0) += own[&s.id];
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, microsecond timestamps; process 1 is the benchmark's own
/// spans and process 2 the program's, each with the request as its lane.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            json_string(&s.name),
            1 + s.program as u8,
            s.request,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: name.into(),
            start_ns,
            end_ns,
            program: true,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            // Two overlapping children cover [10, 60]; a third sticks out of
            // the parent and only [90, 100] counts.
            span(2, 1, "exec", 10, 50),
            span(3, 1, "exec", 30, 60),
            span(4, 1, "serialize", 90, 130),
            // A grandchild inside the first child.
            span(5, 2, "step", 20, 30),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 50 - 10);
        assert_eq!(own[&2], 40 - 10);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 40);
        assert_eq!(own[&5], 10);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["exec"], 60);
        assert_eq!(by_name["request"], 40);
    }

    #[test]
    fn sequential_children_partition_the_parent() {
        let spans = vec![
            span(1, 0, "request", 0, 90),
            span(2, 1, "parse", 0, 10),
            span(3, 1, "plan", 10, 30),
            span(4, 1, "exec", 30, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 0);
        assert_eq!(own.values().sum::<u64>(), 90);
    }

    #[test]
    fn tracer_epoch_puts_both_clocks_on_one_timeline() {
        let tracer = Tracer::new();
        assert!(
            tracer_epoch(&tracer).is_none(),
            "disabled tracer has no clock to read"
        );
        tracer.set_enabled(true);
        let rec = Recorder::new(tracer_epoch(&tracer).unwrap());
        let start = Instant::now();
        let ctx = tracer.start_forced("probe").unwrap();
        tracer.finish(ctx);
        let end = Instant::now();
        rec.record("around", 0, start, end);
        let around = &rec.take()[0];
        let root = tracer.spans_of(ctx.trace).unwrap().root().unwrap().clone();
        // The program's root lies inside the span recorded around it, give
        // or take the bracket of the clock reads.
        assert!(root.start_ns + 50_000 >= around.start_ns);
        assert!(root.start_ns + root.dur_ns <= around.end_ns + 50_000);
    }

    #[test]
    fn recorder_ids_are_tagged_and_export_is_json() {
        let rec = Recorder::new(Instant::now());
        let (v, secs) = rec.time("layer \"x\"", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let spans = rec.take();
        assert_eq!(spans.len(), 1);
        assert_ne!(spans[0].id & OWN_ID_BIT, 0);
        let json = chrome_json(&spans);
        assert!(json.starts_with(
            "{\"traceEvents\":[{\"name\":\"layer \\\"x\\\"\",\"ph\":\"X\",\"pid\":1,"
        ));
        assert!(json.ends_with("]}"));
    }
}
