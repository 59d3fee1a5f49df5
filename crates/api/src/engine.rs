//! The uniform engine trait and its execution report.

use crate::query::{Query, QueryError, QueryFamily};
use crate::sink::Sink;
use std::fmt;

/// Which execution strategy a plan-based engine chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Plain worst-case-optimal expansion + dedup (the join was already
    /// output-like).
    Wcoj,
    /// Degree-partitioned plan: light expansion + heavy matrix core.
    MatrixPartitioned,
}

/// One step of a composed (decomposed general-query) plan, as reported
/// after execution — the per-step counterpart of [`PlanStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct StepStats {
    /// What the step did: `"semijoin"`, `"join"`, `"star"`, `"project"`.
    pub op: &'static str,
    /// The variable the step joined (or filtered) on, if any.
    pub on_var: Option<u32>,
    /// The planner's §5 output-size estimate for this step.
    pub estimated_rows: Option<u64>,
    /// Rows the step actually materialised (or streamed, for the final
    /// step).
    pub actual_rows: Option<u64>,
    /// Strategy the underlying primitive chose, when it planned.
    pub kind: Option<PlanKind>,
    /// Degree thresholds `(Δ1, Δ2)` the primitive ran with, when
    /// matrix-partitioned.
    pub delta1: Option<u32>,
    /// See [`StepStats::delta1`].
    pub delta2: Option<u32>,
}

/// Measured wall-clock seconds of the five phases of a matrix-partitioned
/// two-path, in execution order — the terms of the paper's cost formula,
/// and the labels of the `step` spans a traced run records under `exec`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseSecs {
    /// Degree partition: the heavy index.
    pub partition: f64,
    /// Light expansion passes (0 when every tuple is heavy and they are
    /// skipped).
    pub light: f64,
    /// Heavy operand construction.
    pub build: f64,
    /// Heavy product (or the combinatorial fallback over the memory cap).
    pub product: f64,
    /// Heavy pair extraction plus the final sort and dedup.
    pub extract: f64,
}

impl PhaseSecs {
    /// What [`PlanStats::predicted_heavy_secs`] predicted: build, product
    /// and extraction.
    pub fn heavy(&self) -> f64 {
        self.build + self.product + self.extract
    }
}

/// Plan details reported by engines that run Algorithm 1/3 (others leave
/// [`ExecStats::plan`] as `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStats {
    /// Chosen strategy.
    pub kind: PlanKind,
    /// Join-variable degree threshold `Δ1` (matrix plans only).
    pub delta1: Option<u32>,
    /// Head-variable degree threshold `Δ2` (matrix plans only).
    pub delta2: Option<u32>,
    /// Heavy partition dimensions `(|heavy x|, |heavy y|, |heavy z|)` —
    /// the factor-matrix shape of the heavy core, after pruning rows with
    /// no heavy-in-both join values (the shape actually built).
    pub heavy_dims: Option<(usize, usize, usize)>,
    /// Whether the heavy core was evaluated by matrix multiplication
    /// (`false`: the partition was degenerate or over the memory cap, so
    /// the heavy core fell back to combinatorial expansion).
    pub heavy_core_matrix: Option<bool>,
    /// The kernel of the heavy core: `"bit row-or"` or `"bit and-any"`
    /// (Boolean product in the orientation that ran — existence queries) or
    /// `"f32"` (SGEMM — counting queries, or pinned).
    pub heavy_backend: Option<&'static str>,
    /// Tuples handled by the light (expansion) passes per input relation:
    /// `(input size − heavy tuple mass)` for `(R, S)`.
    pub light_tuples: Option<(u64, u64)>,
    /// The optimizer's output-size estimate, when one was computed.
    pub estimated_out: Option<u64>,
    /// Predicted light-part seconds at the chosen thresholds.
    pub predicted_light_secs: Option<f64>,
    /// Predicted heavy-part seconds at the chosen thresholds.
    pub predicted_heavy_secs: Option<f64>,
    /// Measured seconds per phase, beside the two predictions
    /// (matrix-partitioned two-paths only).
    pub measured_phase_secs: Option<PhaseSecs>,
    /// For composed (general-query) executions: one record per plan
    /// step, in execution order. Empty for single-primitive plans.
    pub steps: Vec<StepStats>,
}

impl PlanStats {
    /// A bare WCOJ plan record (no thresholds, no partitions).
    pub fn wcoj() -> Self {
        Self {
            kind: PlanKind::Wcoj,
            delta1: None,
            delta2: None,
            heavy_dims: None,
            heavy_core_matrix: None,
            heavy_backend: None,
            light_tuples: None,
            estimated_out: None,
            predicted_light_secs: None,
            predicted_heavy_secs: None,
            measured_phase_secs: None,
            steps: Vec::new(),
        }
    }

    /// A matrix-partitioned plan record with the chosen thresholds.
    pub fn partitioned(delta1: u32, delta2: u32) -> Self {
        Self {
            kind: PlanKind::MatrixPartitioned,
            delta1: Some(delta1),
            delta2: Some(delta2),
            heavy_dims: None,
            heavy_core_matrix: None,
            heavy_backend: None,
            light_tuples: None,
            estimated_out: None,
            predicted_light_secs: None,
            predicted_heavy_secs: None,
            measured_phase_secs: None,
            steps: Vec::new(),
        }
    }
}

/// Per-execution report returned by [`Engine::execute`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExecStats {
    /// Name of the engine that ran the query.
    pub engine: String,
    /// Distinct rows emitted to the sink.
    pub rows: u64,
    /// Plan details, for engines that plan.
    pub plan: Option<PlanStats>,
}

impl ExecStats {
    /// A stats record with no plan details.
    pub fn new(engine: impl Into<String>, rows: u64) -> Self {
        Self {
            engine: engine.into(),
            rows,
            plan: None,
        }
    }

    /// Attaches plan details.
    pub fn with_plan(mut self, plan: PlanStats) -> Self {
        self.plan = Some(plan);
        self
    }
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The query failed validation.
    InvalidQuery(QueryError),
    /// The engine does not implement this query family.
    Unsupported {
        /// Engine that rejected the query.
        engine: String,
        /// The rejected family.
        family: QueryFamily,
    },
    /// No engine under that name in the registry.
    UnknownEngine(String),
    /// The decomposing planner could not lower the query graph into
    /// 2-path/star primitive steps (see `mmjoin-core`'s plan module for
    /// the supported class).
    Plan(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidQuery(e) => write!(f, "invalid query: {e}"),
            EngineError::Unsupported { engine, family } => {
                // "this … query": an engine may support a family's plain form
                // but not a variant of it (e.g. counting 2-path).
                write!(f, "engine `{engine}` does not support this {family} query")
            }
            EngineError::UnknownEngine(name) => write!(f, "no engine registered as `{name}`"),
            EngineError::Plan(msg) => write!(f, "cannot plan query: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::InvalidQuery(e)
    }
}

/// A query execution engine.
///
/// One object, one front door: every workload family an engine supports is
/// reachable through [`Engine::execute`]. Execution configuration (thread
/// counts, cost models, threshold overrides) lives in the engine value
/// itself, not in the query.
pub trait Engine: Send + Sync {
    /// Registry / report name. Must be unique within a registry.
    fn name(&self) -> &str;

    /// Whether this engine can execute `query`.
    fn supports(&self, query: &Query<'_>) -> bool;

    /// Executes `query`, streaming distinct output rows into `sink` and
    /// returning the execution report.
    ///
    /// Implementations must validate the query, call `sink.begin(arity)`
    /// before the first row, and emit rows in the order the query family
    /// specifies (see [`Query`]).
    fn execute(&self, query: &Query<'_>, sink: &mut dyn Sink) -> Result<ExecStats, EngineError>;

    /// Helper: the standard rejection for unsupported families.
    fn unsupported(&self, query: &Query<'_>) -> EngineError {
        EngineError::Unsupported {
            engine: self.name().to_string(),
            family: query.family(),
        }
    }
}
