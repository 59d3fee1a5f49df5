//! # mmjoin-obs — structured tracing and unified metrics
//!
//! Dependency-free observability subsystem shared by every layer of the
//! stack (net → service → planner → executor):
//!
//! - [`trace`]: per-request span trees. A trace id is minted at the
//!   wire/REPL boundary ([`Tracer::begin`] / [`Tracer::start`]) and
//!   carried in a thread-local [`Ctx`] on the thread that runs the
//!   request — a connection's reader, or the REPL loop — and across
//!   plan-compose wavefronts and executor task grants. Finished traces
//!   export as Chrome trace-event JSON (load in `chrome://tracing` or
//!   Perfetto).
//! - [`metrics`]: named atomic counters/gauges plus log-bucketed
//!   [`Histogram`]s whose p50/p99 cover **all-time** samples (replacing
//!   sliding-window rings) within a documented relative-error bound.
//!
//! ## Overhead contract
//!
//! Tracing must be safe to leave compiled into every hot path:
//!
//! - **Disabled** (the default): every span site is a single relaxed
//!   atomic load ([`Tracer::enabled`]) returning an inert guard. No
//!   thread-local access, no clock read, no allocation, no lock.
//! - **Enabled**: span capture takes two `Instant` reads and one mutex
//!   push per span; sampling ([`Tracer::set_sample_every`]) bounds the
//!   fraction of requests that pay it.
//!
//! The `service` bench measures both sides of the contract and `--gate`
//! enforces the disabled bound (≤ 5% of per-query time).

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, Registry};
pub use trace::{
    current, install, set_current, span, span_dyn, Ctx, Installed, RootGuard, Span, SpanGuard,
    Stage, Trace, Tracer,
};
