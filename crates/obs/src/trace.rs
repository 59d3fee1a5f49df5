//! Per-request structured tracing: span trees with parent links,
//! thread-local context propagation, and Chrome trace-event export.
//!
//! A trace is born at the boundary where a request enters the system
//! (the REPL line loop or the TCP reader) via [`Tracer::begin`] (RAII,
//! same thread) or [`Tracer::start`]/[`Tracer::finish`] (detached, for
//! requests that hop threads through a queue). While a trace's [`Ctx`]
//! is installed in the current thread, [`span`] sites anywhere down the
//! stack attach child spans to it; the executor re-installs the ctx
//! inside pool workers so spans recorded by stolen tasks still land in
//! the right tree.
//!
//! Disabled tracing costs one relaxed atomic load per span site — no
//! clock read, no thread-local access, no allocation (see the crate
//! docs for the full overhead contract).

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// What kind of work a span covers. Stages are coarse, fixed, and
/// shared across layers so exported traces stay comparable between
/// runs; free-form detail goes in the span label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Root span: one request end to end.
    Request,
    /// Command-line / wire-frame parsing.
    Parse,
    /// Time spent queued (the net fair queue; in process nothing queues).
    QueueWait,
    /// Result-cache lookup (including catalog handle resolution).
    CacheProbe,
    /// Planner work: canonicalization, decomposition, engine selection.
    Plan,
    /// Engine execution of the selected plan (parent of `Step` spans).
    Exec,
    /// One step of a composed plan (a join or semijoin, or the final
    /// projection stage).
    Step,
    /// A relation update freeing the cached results over its relation
    /// (labelled `update R: dropped N`).
    Maintain,
    /// Rendering the response string.
    Serialize,
}

impl Stage {
    /// Stable lowercase name used in exports and rendered trees.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Parse => "parse",
            Stage::QueueWait => "queue-wait",
            Stage::CacheProbe => "cache-probe",
            Stage::Plan => "plan",
            Stage::Exec => "exec",
            Stage::Step => "step",
            Stage::Maintain => "maintain",
            Stage::Serialize => "serialize",
        }
    }
}

/// Propagation context: which trace the current thread is contributing
/// to, and which span is the current parent. `Copy` so it can cross
/// queue and task boundaries by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// Trace id (nonzero).
    pub trace: u64,
    /// Span id new child spans attach under.
    pub parent: u64,
}

/// One recorded span. Times are nanoseconds since the owning
/// [`Tracer`]'s epoch (a process-lifetime `Instant`), so spans from
/// different threads share one monotonic timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique (process-wide) span id.
    pub id: u64,
    /// Parent span id; 0 for the root.
    pub parent: u64,
    /// Stage kind.
    pub stage: Stage,
    /// Free-form detail ("join v2", the command line, ...).
    pub label: Cow<'static, str>,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A finished trace: the root span plus everything recorded under it,
/// sorted by start time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Trace id (nonzero).
    pub id: u64,
    /// Root label (typically the request line).
    pub label: String,
    /// All spans including the root (`parent == 0`).
    pub spans: Vec<Span>,
}

impl Trace {
    /// The root span, if the trace recorded one (it always does for
    /// traces finished through the public API).
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent == 0)
    }

    /// Total duration in nanoseconds (root span duration).
    pub fn total_ns(&self) -> u64 {
        self.root().map(|s| s.dur_ns).unwrap_or(0)
    }

    /// Renders the span tree with per-stage durations, e.g. for the
    /// slow-query log:
    ///
    /// ```text
    /// trace 7 "query chain R S T" total 1840us
    ///   queue-wait                 12us
    ///   parse                       1us
    ///   cache-probe                 4us
    ///   plan                       55us
    ///   exec                     1700us
    ///     step join v1            900us
    ///     step join v2 (final)    760us
    ///   serialize                   9us
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {} {:?} total {}us\n",
            self.id,
            self.label,
            self.total_ns() / 1_000
        );
        // Children grouped by parent, already in start order because
        // `spans` is sorted by start time.
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in &self.spans {
            children.entry(s.parent).or_default().push(s);
        }
        fn walk(out: &mut String, children: &HashMap<u64, Vec<&Span>>, id: u64, depth: usize) {
            if let Some(kids) = children.get(&id) {
                for s in kids {
                    let name = if s.label.is_empty() || s.stage == Stage::Request {
                        s.stage.name().to_string()
                    } else {
                        format!("{} {}", s.stage.name(), s.label)
                    };
                    out.push_str(&format!(
                        "{}{:<28} {:>8}us  @+{}us\n",
                        "  ".repeat(depth),
                        name,
                        s.dur_ns / 1_000,
                        s.start_ns / 1_000,
                    ));
                    walk(out, children, s.id, depth + 1);
                }
            }
        }
        if let Some(root) = self.root() {
            walk(&mut out, &children, root.id, 1);
        }
        out
    }
}

/// A trace still being assembled.
#[derive(Debug)]
struct OpenTrace {
    label: String,
    root_id: u64,
    start: Instant,
    spans: Vec<Span>,
}

#[derive(Debug)]
struct Store {
    open: HashMap<u64, OpenTrace>,
    finished: VecDeque<Trace>,
    capacity: usize,
}

/// Upper bound on concurrently-open traces; past it, new mints are
/// refused so an abandoned `start` can never leak unboundedly.
const MAX_OPEN: usize = 1024;

/// Finished traces retained for `trace last [n]` by default.
const DEFAULT_CAPACITY: usize = 64;

/// Process-wide trace collector. All layers talk to [`Tracer::global`];
/// separate instances exist only for tests.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    sample_every: AtomicU64,
    sample_counter: AtomicU64,
    next_id: AtomicU64,
    epoch: Instant,
    store: Mutex<Store>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh, disabled tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            sample_every: AtomicU64::new(1),
            sample_counter: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            store: Mutex::new(Store {
                open: HashMap::new(),
                finished: VecDeque::new(),
                capacity: DEFAULT_CAPACITY,
            }),
        }
    }

    /// The shared process-wide tracer.
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(Tracer::new)
    }

    /// Whether tracing is on. This is the *only* check on the disabled
    /// fast path: a single relaxed atomic load.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns span capture on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Trace every `n`-th request (1 = every request, the default).
    /// `n == 0` is treated as 1.
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    /// How many finished traces to retain for `trace last`.
    pub fn set_capacity(&self, n: usize) {
        let mut store = self.lock();
        store.capacity = n.max(1);
        while store.finished.len() > store.capacity {
            store.finished.pop_front();
        }
    }

    /// Drops all open and finished traces.
    pub fn clear(&self) {
        let mut store = self.lock();
        store.open.clear();
        store.finished.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn mint_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer epoch for `t` (saturating).
    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Mints a detached trace: registers an open trace and returns the
    /// ctx to carry across threads (e.g. through the net admission
    /// queue). Returns `None` when tracing is off, the request is not
    /// sampled, or too many traces are already open. Pair with
    /// [`Tracer::finish`] (or [`Tracer::discard`]).
    pub fn start(&self, label: &str) -> Option<Ctx> {
        if !self.enabled() {
            return None;
        }
        let every = self.sample_every.load(Ordering::Relaxed);
        if !self
            .sample_counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
        {
            return None;
        }
        self.start_forced(label)
    }

    /// Like [`Tracer::start`] but bypasses sampling (still a no-op when
    /// tracing is disabled). Used by the slow-query path, which wants
    /// every request traced once a threshold is configured.
    pub fn start_forced(&self, label: &str) -> Option<Ctx> {
        if !self.enabled() {
            return None;
        }
        let trace = self.mint_id();
        let root_id = self.mint_id();
        let mut store = self.lock();
        if store.open.len() >= MAX_OPEN {
            return None;
        }
        store.open.insert(
            trace,
            OpenTrace {
                label: truncate(label, 120),
                root_id,
                start: Instant::now(),
                spans: Vec::new(),
            },
        );
        Some(Ctx {
            trace,
            parent: root_id,
        })
    }

    /// Closes a detached trace: records the root span (whole lifetime
    /// since [`Tracer::start`]) and moves it to the finished ring.
    pub fn finish(&self, ctx: Ctx) {
        let end = Instant::now();
        let mut store = self.lock();
        let Some(open) = store.open.remove(&ctx.trace) else {
            return;
        };
        let start_ns = self.since_epoch(open.start);
        let dur_ns = self.since_epoch(end).saturating_sub(start_ns);
        let mut spans = open.spans;
        spans.push(Span {
            id: open.root_id,
            parent: 0,
            stage: Stage::Request,
            label: Cow::Owned(open.label.clone()),
            start_ns,
            dur_ns,
        });
        spans.sort_by_key(|s| s.start_ns);
        let trace = Trace {
            id: ctx.trace,
            label: open.label,
            spans,
        };
        if store.finished.len() >= store.capacity {
            store.finished.pop_front();
        }
        store.finished.push_back(trace);
    }

    /// Abandons an open trace without recording it.
    pub fn discard(&self, ctx: Ctx) {
        self.lock().open.remove(&ctx.trace);
    }

    /// RAII version of start/finish for same-thread request loops (the
    /// REPL, benches): installs the ctx in the current thread and
    /// finishes the trace on drop.
    pub fn begin(&'static self, label: &str) -> Option<RootGuard> {
        let ctx = self.start(label)?;
        Some(RootGuard {
            tracer: self,
            ctx,
            prev: set_current(Some(ctx)),
        })
    }

    /// [`Tracer::begin`] minus sampling, for the slow-query path.
    pub fn begin_forced(&'static self, label: &str) -> Option<RootGuard> {
        let ctx = self.start_forced(label)?;
        Some(RootGuard {
            tracer: self,
            ctx,
            prev: set_current(Some(ctx)),
        })
    }

    /// Appends a finished span to an open trace. Spans arriving after
    /// their trace finished (e.g. a straggler task) are dropped.
    pub fn record(&self, ctx: Ctx, stage: Stage, label: Cow<'static, str>, start: Instant) {
        let id = self.mint_id();
        self.record_span(ctx, id, stage, label, start, Instant::now());
    }

    /// Records a span under a pre-minted id (span guards mint their id
    /// up front so children can attach beneath them while they are
    /// still open).
    fn record_span(
        &self,
        ctx: Ctx,
        id: u64,
        stage: Stage,
        label: Cow<'static, str>,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = self.since_epoch(start);
        let dur_ns = self.since_epoch(end).saturating_sub(start_ns);
        let mut store = self.lock();
        if let Some(open) = store.open.get_mut(&ctx.trace) {
            open.spans.push(Span {
                id,
                parent: ctx.parent,
                stage,
                label,
                start_ns,
                dur_ns,
            });
        }
    }

    /// The most recent `n` finished traces, oldest first.
    pub fn last(&self, n: usize) -> Vec<Trace> {
        let store = self.lock();
        let skip = store.finished.len().saturating_sub(n);
        store.finished.iter().skip(skip).cloned().collect()
    }

    /// Snapshot of one trace by id — finished, or still open. For an
    /// open trace the root span is synthesized with its duration so
    /// far, so the snapshot renders as a complete tree (the slow-query
    /// log reads in-flight traces whose root the front end still owns).
    pub fn spans_of(&self, trace_id: u64) -> Option<Trace> {
        let now = Instant::now();
        let store = self.lock();
        if let Some(t) = store.finished.iter().rev().find(|t| t.id == trace_id) {
            return Some(t.clone());
        }
        store.open.get(&trace_id).map(|open| {
            let mut spans = open.spans.clone();
            let start_ns = self.since_epoch(open.start);
            spans.push(Span {
                id: open.root_id,
                parent: 0,
                stage: Stage::Request,
                label: Cow::Owned(open.label.clone()),
                start_ns,
                dur_ns: self.since_epoch(now).saturating_sub(start_ns),
            });
            spans.sort_by_key(|s| s.start_ns);
            Trace {
                id: trace_id,
                label: open.label.clone(),
                spans,
            }
        })
    }
}

/// Exports traces as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto format): complete events (`"ph":"X"`) with microsecond
/// timestamps, one `tid` row per trace.
pub fn chrome_json(traces: &[Trace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for t in traces {
        for s in &t.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let name = if s.label.is_empty() || s.parent == 0 {
                s.stage.name().to_string()
            } else {
                format!("{} {}", s.stage.name(), s.label)
            };
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\
                 \"label\":{}}}}}",
                json_string(&name),
                s.stage.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                t.id,
                t.id,
                s.id,
                s.parent,
                json_string(&s.label),
            ));
        }
    }
    out.push_str("]}");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        let mut cut = max;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &s[..cut])
    }
}

// ---------------------------------------------------------------------------
// Thread-local propagation
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: Cell<Option<Ctx>> = const { Cell::new(None) };
}

/// The ctx installed in the current thread, if any.
pub fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.get())
}

/// Installs `ctx` (or clears it with `None`), returning the previous
/// value so callers can restore it.
pub fn set_current(ctx: Option<Ctx>) -> Option<Ctx> {
    CURRENT.with(|c| c.replace(ctx))
}

/// `current()`, but gated on the global tracer being enabled so the
/// disabled path skips the thread-local read entirely. This is what
/// the executor calls to decide whether a batch should carry a ctx.
#[inline]
pub fn current_if_enabled() -> Option<Ctx> {
    if Tracer::global().enabled() {
        current()
    } else {
        None
    }
}

/// RAII ctx installation that restores the previous ctx on drop — drop
/// order makes this panic-safe, so a panicking task cannot leave a
/// stale ctx in a pool worker's thread-local.
#[derive(Debug)]
pub struct Installed(Option<Ctx>);

/// Installs `ctx` for the lifetime of the returned guard.
pub fn install(ctx: Option<Ctx>) -> Installed {
    Installed(set_current(ctx))
}

impl Drop for Installed {
    fn drop(&mut self) {
        set_current(self.0);
    }
}

/// Guard for a root span created by [`Tracer::begin`]; finishes the
/// trace and restores the previous ctx on drop.
#[derive(Debug)]
pub struct RootGuard {
    tracer: &'static Tracer,
    ctx: Ctx,
    prev: Option<Ctx>,
}

impl RootGuard {
    /// The ctx of the trace this guard owns.
    pub fn ctx(&self) -> Ctx {
        self.ctx
    }
}

impl Drop for RootGuard {
    fn drop(&mut self) {
        set_current(self.prev);
        self.tracer.finish(self.ctx);
    }
}

// ---------------------------------------------------------------------------
// Span sites
// ---------------------------------------------------------------------------

/// Live state of an active [`SpanGuard`].
#[derive(Debug)]
struct ActiveSpan {
    ctx: Ctx,
    id: u64,
    stage: Stage,
    label: Cow<'static, str>,
    start: Instant,
}

/// RAII span: records `[creation, drop]` under the current ctx. Inert
/// (a `None`) when tracing is disabled or no ctx is installed.
#[derive(Debug)]
#[must_use = "a span guard records its span when dropped"]
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Replaces the label of a span that is still open — for what is only
    /// known once the work is done (rows touched, the branch taken). The
    /// closure runs only when the span is being recorded.
    #[inline]
    pub fn relabel(&mut self, label: impl FnOnce() -> String) {
        if let Some(active) = &mut self.0 {
            active.label = Cow::Owned(label());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            // Restore the parent for siblings recorded after us.
            set_current(Some(active.ctx));
            Tracer::global().record_span(
                active.ctx,
                active.id,
                active.stage,
                active.label,
                active.start,
                Instant::now(),
            );
        }
    }
}

fn open_span(stage: Stage, label: Cow<'static, str>) -> SpanGuard {
    // `current()` is only consulted after the atomic gate passed.
    let Some(ctx) = current() else {
        return SpanGuard(None);
    };
    let id = Tracer::global().mint_id();
    // Children created while this guard lives nest under it.
    set_current(Some(Ctx {
        trace: ctx.trace,
        parent: id,
    }));
    SpanGuard(Some(ActiveSpan {
        ctx,
        id,
        stage,
        label,
        start: Instant::now(),
    }))
}

/// Opens a span under the current thread's ctx. The disabled path is
/// one atomic load; the label is a static string so no allocation
/// happens either way.
#[inline]
pub fn span(stage: Stage, label: &'static str) -> SpanGuard {
    if !Tracer::global().enabled() {
        return SpanGuard(None);
    }
    open_span(stage, Cow::Borrowed(label))
}

/// Like [`span`] but with a lazily-built label: the closure only runs
/// when the span is actually recorded.
#[inline]
pub fn span_dyn(stage: Stage, label: impl FnOnce() -> String) -> SpanGuard {
    if !Tracer::global().enabled() {
        return SpanGuard(None);
    }
    if current().is_none() {
        return SpanGuard(None);
    }
    open_span(stage, Cow::Owned(label()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The global tracer is process-wide; tests that toggle it must not
    // interleave.
    static GLOBAL_LOCK: StdMutex<()> = StdMutex::new(());

    fn with_global<R>(f: impl FnOnce() -> R) -> R {
        let _g = GLOBAL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let tracer = Tracer::global();
        tracer.clear();
        tracer.set_sample_every(1);
        tracer.set_enabled(true);
        let out = f();
        tracer.set_enabled(false);
        tracer.clear();
        set_current(None);
        out
    }

    #[test]
    fn disabled_tracer_mints_nothing() {
        let t = Tracer::new();
        assert!(t.start("x").is_none());
        assert!(t.last(10).is_empty());
    }

    #[test]
    fn root_and_children_nest() {
        with_global(|| {
            let tracer = Tracer::global();
            let ctx = {
                let root = tracer.begin("query chain R S T").unwrap();
                {
                    let _plan = span(Stage::Plan, "");
                    let _step = span(Stage::Step, "inner");
                }
                let _ser = span(Stage::Serialize, "");
                root.ctx()
            };
            let traces = tracer.last(10);
            assert_eq!(traces.len(), 1);
            let t = &traces[0];
            assert_eq!(t.id, ctx.trace);
            let root = t.root().expect("root span");
            assert_eq!(root.stage, Stage::Request);
            let plan = t.spans.iter().find(|s| s.stage == Stage::Plan).unwrap();
            let step = t.spans.iter().find(|s| s.stage == Stage::Step).unwrap();
            let ser = t
                .spans
                .iter()
                .find(|s| s.stage == Stage::Serialize)
                .unwrap();
            // Nesting: plan and serialize under root, step under plan.
            assert_eq!(plan.parent, root.id);
            assert_eq!(ser.parent, root.id);
            assert_eq!(step.parent, plan.id);
            // Children fit inside their parents on the timeline.
            assert!(step.start_ns >= plan.start_ns);
            assert!(plan.dur_ns <= root.dur_ns);
            // Sibling durations sum to at most the root duration.
            assert!(plan.dur_ns + ser.dur_ns <= root.dur_ns);
        });
    }

    #[test]
    fn relabel_names_an_open_span_and_is_lazy() {
        with_global(|| {
            let tracer = Tracer::global();
            {
                let _root = tracer.begin("update R").unwrap();
                let mut entry = span(Stage::Maintain, "refresh-entry");
                let _child = span(Stage::Exec, "");
                entry.relabel(|| "maintain: entered=3".to_string());
            }
            let t = tracer.last(1).pop().unwrap();
            let entry = t.spans.iter().find(|s| s.stage == Stage::Maintain).unwrap();
            assert_eq!(entry.label, "maintain: entered=3");
            let child = t.spans.iter().find(|s| s.stage == Stage::Exec).unwrap();
            assert_eq!(child.parent, entry.id, "relabelling keeps the id");

            // An inert guard (no trace in flight) never builds the label.
            let mut inert = span(Stage::Maintain, "refresh-entry");
            inert.relabel(|| unreachable!("label built for an unrecorded span"));
        });
    }

    #[test]
    fn detached_start_finish_round_trips() {
        with_global(|| {
            let tracer = Tracer::global();
            let ctx = tracer.start("wire request").unwrap();
            // Nothing is current until the ctx is installed; then a span
            // lands under its root.
            assert!(current().is_none());
            let _inst = install(Some(ctx));
            {
                let _exec = span(Stage::Exec, "");
            }
            drop(_inst);
            tracer.finish(ctx);
            let t = tracer.spans_of(ctx.trace).unwrap();
            assert!(t.spans.iter().any(|s| s.stage == Stage::Exec));
            assert_eq!(t.root().unwrap().label, "wire request");
        });
    }

    #[test]
    fn open_trace_snapshot_synthesizes_root() {
        with_global(|| {
            let tracer = Tracer::global();
            let ctx = tracer.start("query twopath R R").unwrap();
            let inst = install(Some(ctx));
            {
                let _plan = span(Stage::Plan, "select-engine");
            }
            drop(inst);
            // Still open: the snapshot must carry a synthetic root so
            // the slow-query log renders a full tree for in-flight
            // requests, not an empty header.
            let t = tracer.spans_of(ctx.trace).unwrap();
            let root = t.root().expect("synthesized root span");
            assert_eq!(root.stage, Stage::Request);
            assert_eq!(t.label, "query twopath R R");
            let rendered = t.render();
            assert!(rendered.contains("plan select-engine"), "{rendered}");
            tracer.finish(ctx);
        });
    }

    #[test]
    fn sampling_traces_every_nth() {
        with_global(|| {
            let tracer = Tracer::global();
            tracer.set_sample_every(3);
            let minted: usize = (0..9).filter(|_| tracer.begin("x").is_some()).count();
            assert_eq!(minted, 3);
            tracer.set_sample_every(1);
        });
    }

    #[test]
    fn ring_capacity_is_bounded() {
        with_global(|| {
            let tracer = Tracer::global();
            tracer.set_capacity(4);
            for i in 0..10 {
                drop(tracer.begin(&format!("q{i}")));
            }
            let last = tracer.last(100);
            assert_eq!(last.len(), 4);
            assert_eq!(last[3].label, "q9");
            tracer.set_capacity(DEFAULT_CAPACITY);
        });
    }

    #[test]
    fn late_spans_after_finish_are_dropped() {
        with_global(|| {
            let tracer = Tracer::global();
            let ctx = tracer.start("r").unwrap();
            tracer.finish(ctx);
            tracer.record(ctx, Stage::Exec, Cow::Borrowed("late"), Instant::now());
            let t = tracer.spans_of(ctx.trace).unwrap();
            assert_eq!(t.spans.len(), 1); // just the root
        });
    }

    #[test]
    fn chrome_export_is_escaped_and_complete() {
        with_global(|| {
            let tracer = Tracer::global();
            {
                let _root = tracer.begin("line \"with\" quotes\n").unwrap();
                let _s = span(Stage::Parse, "");
            }
            let json = chrome_json(&tracer.last(1));
            assert!(json.starts_with('{') && json.ends_with('}'));
            assert!(json.contains("\"traceEvents\":["));
            assert!(json.contains("\\\"with\\\""));
            assert!(json.contains("\"ph\":\"X\""));
            assert!(json.contains("\"cat\":\"parse\""));
            // No raw newline survives inside the JSON.
            assert!(!json.contains('\n'));
        });
    }

    #[test]
    fn render_tree_shows_stages() {
        with_global(|| {
            let tracer = Tracer::global();
            {
                let _root = tracer.begin("query twopath R R").unwrap();
                let _p = span(Stage::Plan, "");
            }
            let t = &tracer.last(1)[0];
            let tree = t.render();
            assert!(tree.contains("query twopath R R"));
            assert!(tree.contains("plan"));
        });
    }

    #[test]
    fn installed_guard_restores_on_drop() {
        let prev = set_current(None);
        let a = Ctx {
            trace: 1,
            parent: 2,
        };
        let b = Ctx {
            trace: 3,
            parent: 4,
        };
        set_current(Some(a));
        {
            let _g = install(Some(b));
            assert_eq!(current(), Some(b));
        }
        assert_eq!(current(), Some(a));
        set_current(prev);
    }
}
