//! `mmjoin-api` — the workspace's single query front door.
//!
//! Every join-project workload the system serves is described by one
//! [`Query`] value, executed by anything implementing [`Engine`], and
//! streamed into a caller-supplied [`Sink`]:
//!
//! ```text
//!  Query  ──▶  Engine::execute(&query, &mut sink)  ──▶  ExecStats
//!                        │
//!                        └──▶ sink.row(..) / sink.counted_row(..)
//! ```
//!
//! * [`Query`] is the workload AST: 2-path join-project (optionally with
//!   witness counts), star queries `Q*_k`, set-similarity joins, and
//!   set-containment joins — built through validating builders
//!   (`Query::two_path(&r, &s).with_counts().build()?`).
//! * [`Engine`] is the uniform execution trait. Engines advertise which
//!   query families they support ([`Engine::supports`]) and return
//!   [`ExecStats`] — rows emitted plus, for plan-based engines, the chosen
//!   degree thresholds `(Δ1, Δ2)`, the plan kind, and the heavy/light
//!   partition sizes — instead of an opaque `Vec`.
//! * [`Sink`] is a streaming visitor over output rows, so callers that
//!   only count, sample, or forward results never pay for full
//!   materialisation. [`VecSink`], [`PairSink`] and [`CountSink`] are the
//!   stock adapters; [`LimitSink`] bounds any of them and signals early
//!   termination through [`Sink::wants_more`].
//! * [`EngineRegistry`] maps names to boxed engines so tests, benchmarks
//!   and services enumerate engines dynamically — no per-engine
//!   hard-coding at call sites.
//!
//! This crate depends only on `mmjoin-storage`; every engine crate in the
//! workspace depends on it and registers its engines upward (the `mmjoin`
//! facade crate assembles the default registry).

pub mod engine;
pub mod ir;
pub mod query;
pub mod registry;
pub mod rows;
pub mod sink;

pub use engine::{
    Engine, EngineError, ExecStats, LineTwoPrices, NamedPlan, NodeSource, OperandSource, PhaseSecs,
    PlanKind, PlanStats, StepNode, StepStats,
};
pub use ir::{Atom, QueryGraph, Var};
pub use query::{Query, QueryError, QueryFamily};
pub use registry::EngineRegistry;
pub use sink::{
    emit_counted_pairs, emit_flat, emit_pairs, emit_rows, flatten_pairs, CountSink, FlatRows,
    ForEachSink, LimitSink, PairSink, Sink, VecSink,
};
