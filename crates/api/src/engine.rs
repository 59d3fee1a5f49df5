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

/// Where an operand of a composed-plan step comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSource {
    /// The `i`-th atom of the query graph (a base relation).
    Atom(usize),
    /// The output of the `i`-th plan step.
    Step(usize),
}

/// One binary operand of a composed-plan step: a relation over the
/// variable pair `(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepNode {
    /// Where the relation comes from.
    pub source: NodeSource,
    /// Variable bound to the relation's first column.
    pub a: u32,
    /// Variable bound to the relation's second column.
    pub b: u32,
}

/// One step of a composed (decomposed general-query) plan — the per-step
/// counterpart of [`PlanStats`]: what the planner laid out, the strategy
/// the step's primitive chose, and, after a run, the rows it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StepStats {
    /// What the step does: `"semijoin"`, `"join"`, `"star"`, `"project"`.
    pub op: &'static str,
    /// The variable the step joins (or filters) on, if any.
    pub on_var: Option<u32>,
    /// The step's operands: target and filter of a semijoin, left and
    /// right of a join, the legs of a star, the one node a projection
    /// reads.
    pub inputs: Vec<StepNode>,
    /// The variables of the step's result, in column order (for the final
    /// step: the query's projection).
    pub out_vars: Vec<u32>,
    /// The planner's §5 full-join estimate for this step (joins only).
    pub full_join: Option<u64>,
    /// The planner's §5 output-size estimate for this step.
    pub estimated_rows: Option<u64>,
    /// Rows the step actually materialised (or streamed, for the final
    /// step); `None` before the run.
    pub actual_rows: Option<u64>,
    /// Strategy the underlying primitive chose, once it has planned: at
    /// plan time that is known where both inputs are base relations.
    pub kind: Option<PlanKind>,
    /// Degree thresholds `(Δ1, Δ2)` of the primitive, when
    /// matrix-partitioned.
    pub delta1: Option<u32>,
    /// See [`StepStats::delta1`].
    pub delta2: Option<u32>,
}

impl StepStats {
    /// Copies the decision of the primitive that evaluates this step.
    pub fn decided_by(&mut self, primitive: &PlanStats) {
        self.kind = Some(primitive.kind);
        self.delta1 = primitive.delta1;
        self.delta2 = primitive.delta2;
    }
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

/// Where a Boolean heavy core found one of its operands — a relation's
/// packed rows, which outlive the query (`mmjoin_storage::packed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandSource {
    /// This query packs (planning) or packed (a run) the relation.
    Built,
    /// An earlier query over the same relation value left it packed.
    Reused,
}

impl fmt::Display for OperandSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OperandSource::Built => "built",
            OperandSource::Reused => "reused",
        })
    }
}

/// Algorithm 3 line 2 under the bit kernels: the two prices it compared,
/// both from exact counts. The heavy core runs when its price is below
/// expansion's; a tie, or a core over the memory cap, expands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineTwoPrices {
    /// Expansion's price: `t_insert` per tuple of the exact full join.
    pub expand_secs: f64,
    /// The everything-heavy core's price; `None` when it is over the cap.
    pub core_secs: Option<f64>,
}

impl fmt::Display for LineTwoPrices {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Three significant digits below 100 µs: a tiny join's two sides
        // differ in nanoseconds.
        let us = |secs: f64| {
            let us = secs * 1e6;
            let decimals = [100.0, 10.0, 1.0].iter().filter(|&&at| us < at).count();
            format!("{us:.decimals$}us")
        };
        write!(f, "line 2: expand {}", us(self.expand_secs))?;
        match self.core_secs {
            None => write!(f, ", core over cap"),
            Some(core) => {
                let sign = if core < self.expand_secs { '>' } else { '≤' };
                write!(f, " {sign} core {}", us(core))
            }
        }
    }
}

/// The one record of a cost-based decision: what Algorithm 3 chose and
/// predicted (the half `explain` prints, filled by planning) and what the
/// run then built and measured (filled by execution). Engines that do not
/// plan leave [`ExecStats::plan`] as `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStats {
    /// Chosen strategy.
    pub kind: PlanKind,
    /// Join-variable degree threshold `Δ1` (matrix plans only).
    pub delta1: Option<u32>,
    /// Head-variable degree threshold `Δ2` (matrix plans only).
    pub delta2: Option<u32>,
    /// Heavy core dimensions `(|heavy x|, |heavy y|, |heavy z|)` — after a
    /// run, the factor-matrix shape actually built (rows with no
    /// heavy-in-both join value pruned); from planning alone, the star
    /// planner's upper bounds (a two-path plans without them).
    pub heavy_dims: Option<(usize, usize, usize)>,
    /// Whether the heavy core is evaluated by matrix multiplication
    /// (`false`: the core is over the memory cap — or, in the paper's
    /// prototype, a heavy side is empty — so it is expanded instead).
    pub heavy_core_matrix: Option<bool>,
    /// The kernel of the heavy core: `"bit row-or"` or `"bit and-any"`
    /// (Boolean product — existence queries), `"bit popcount"` (counting
    /// queries) or `"f32"` (SGEMM — the paper's prototype in the experiment
    /// harness). Planning names the one the plan was priced for; the run
    /// decides the orientation again on the exact operands and records the
    /// one that ran.
    pub heavy_backend: Option<&'static str>,
    /// For a heavy core multiplied from the relations' memoised packed rows
    /// (an optimizer-chosen two-path or star):
    /// whether the left and the right operand are packed by this query or
    /// reused — as found when planning, as it happened after a run. A
    /// star's left operand is `V`'s legs and its right `W`'s: reused when
    /// every leg of the group was packed before the query. It explains a
    /// predicted (and measured) heavy cost that differs between two runs of
    /// one query, and with it a line 2 that went the other way. `None` for
    /// operands built per query.
    pub heavy_operands: Option<[OperandSource; 2]>,
    /// Tuples handled by the light (expansion) passes per input relation:
    /// `(input size − heavy tuple mass)` for `(R, S)`.
    pub light_tuples: Option<(u64, u64)>,
    /// Exact full-join (pre-projection) size the decision rests on — for a
    /// star `Σ_y Π_i deg_i(y)` over all its legs, for a composed plan the
    /// sum of its steps' estimates.
    pub full_join: Option<u64>,
    /// The optimizer's output-size estimate, when one was computed.
    pub estimated_out: Option<u64>,
    /// Line 2's two prices, whichever won; `None` for the paper's prototype
    /// (whose line 2 compares `|OUT⋈|` with `F · N`) and for a composed
    /// plan until its run fills in its final primitive's.
    pub line_two: Option<LineTwoPrices>,
    /// Predicted light-part seconds at the chosen thresholds.
    pub predicted_light_secs: Option<f64>,
    /// Predicted heavy-part seconds at the chosen thresholds.
    pub predicted_heavy_secs: Option<f64>,
    /// Measured seconds per phase, beside the two predictions
    /// (matrix-partitioned runs only).
    pub measured_phase_secs: Option<PhaseSecs>,
    /// For a Boolean heavy core that ran: the product rows filled through
    /// the right operand's universal mask — left rows holding a `y` that
    /// every column has, set full without testing a pair. Why a product
    /// took microseconds; it decides nothing. `None` before a run and for
    /// SGEMM or expansion.
    pub rows_filled: Option<usize>,
    /// For composed (general-query) plans: one record per plan step, in
    /// plan order, the output-producing stage last. Empty for
    /// single-primitive plans. The primitive fields above then describe
    /// the final primitive and are filled by the run.
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
            heavy_operands: None,
            light_tuples: None,
            full_join: None,
            estimated_out: None,
            line_two: None,
            predicted_light_secs: None,
            predicted_heavy_secs: None,
            measured_phase_secs: None,
            rows_filled: None,
            steps: Vec::new(),
        }
    }

    /// A matrix-partitioned plan record with the chosen thresholds.
    pub fn partitioned(delta1: u32, delta2: u32) -> Self {
        Self {
            kind: PlanKind::MatrixPartitioned,
            delta1: Some(delta1),
            delta2: Some(delta2),
            ..Self::wcoj()
        }
    }

    /// The record as [`Display`](fmt::Display) renders it, with the
    /// operands of a composed plan that are base relations called by
    /// `atoms[i]` (the `i`-th atom of the query; `atom{i}` past the end).
    pub fn named<'a>(&'a self, atoms: &'a [&'a str]) -> NamedPlan<'a> {
        NamedPlan { plan: self, atoms }
    }
}

/// [`PlanStats`] being displayed under the relation names of a request
/// (see [`PlanStats::named`]).
#[derive(Debug, Clone, Copy)]
pub struct NamedPlan<'a> {
    plan: &'a PlanStats,
    atoms: &'a [&'a str],
}

/// What `explain` prints: one `plan:` line for a single primitive, the
/// decomposition with one line per step for a composed plan.
impl fmt::Display for PlanStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.named(&[]).fmt(f)
    }
}

impl fmt::Display for NamedPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let plan = self.plan;
        if plan.steps.is_empty() {
            return plan.fmt_primitive(f);
        }
        let node = |n: &StepNode| {
            let name = match n.source {
                NodeSource::Atom(i) => self
                    .atoms
                    .get(i)
                    .map_or_else(|| format!("atom{i}"), |name| name.to_string()),
                NodeSource::Step(j) => format!("t{j}"),
            };
            format!("{name}(v{}, v{})", n.a, n.b)
        };
        write!(
            f,
            "decomposition: {} step(s), estimated output {} row(s)",
            plan.steps.len(),
            plan.estimated_out.unwrap_or(0)
        )?;
        for (i, step) in plan.steps.iter().enumerate() {
            let operands: Vec<String> = step.inputs.iter().map(node).collect();
            let out: Vec<String> = step.out_vars.iter().map(|v| format!("v{v}")).collect();
            let (on, out) = (step.on_var.unwrap_or(0), out.join(", "));
            match step.op {
                "semijoin" => {
                    let operands = operands.join(" ⋉ ");
                    write!(
                        f,
                        "\n  step {i}: semijoin {operands} on v{on} -> t{i}({out})"
                    )?
                }
                "join" => {
                    write!(
                        f,
                        "\n  step {i}: join {} on v{on} -> t{i}({out}) [est rows {}, full join {}]",
                        operands.join(" ⋈ "),
                        step.estimated_rows.unwrap_or(0),
                        step.full_join.unwrap_or(0),
                    )?;
                    match (step.kind, step.delta1.zip(step.delta2)) {
                        (Some(PlanKind::Wcoj), _) => write!(f, " [expand]")?,
                        (Some(PlanKind::MatrixPartitioned), Some((d1, d2))) => {
                            write!(f, " [matrix Δ1={d1} Δ2={d2}]")?
                        }
                        // A derived input: the primitive plans when it exists.
                        _ => write!(f, " [strategy decided at runtime]")?,
                    }
                }
                "star" => {
                    let legs = operands.join(", ");
                    write!(f, "\n  final: star around v{on} over [{legs}] -> ({out})")?
                }
                _ => write!(f, "\n  final: project {} -> ({out})", operands.join(", "))?,
            }
        }
        Ok(())
    }
}

impl PlanStats {
    /// The `plan:` line of a single primitive: the choice, the heavy core
    /// it was priced for (with its shape, where planning bounds it, and
    /// whether its operands are packed already, where they are memoised),
    /// the two predictions, the estimates they rest on, and both sides of
    /// line 2.
    fn fmt_primitive(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let estimates = self.full_join.zip(self.estimated_out);
        if self.kind == PlanKind::Wcoj {
            write!(f, "plan: expand (WCOJ)")?;
            if let Some((full_join, out)) = estimates {
                write!(f, " — full join {full_join} is output-like (est out {out})")?;
            }
            return self.fmt_line_two(f);
        }
        write!(f, "plan: matrix-partitioned")?;
        if let Some((d1, d2)) = self.delta1.zip(self.delta2) {
            write!(f, " Δ1={d1} Δ2={d2}")?;
        }
        match (self.heavy_backend, self.heavy_core_matrix) {
            (Some(kernel), _) => write!(f, ", heavy core {kernel}")?,
            (None, Some(false)) => write!(f, ", heavy core enumerated")?,
            (None, _) => {}
        }
        if let Some((rows_a, heavy_y, rows_b)) = self.heavy_dims {
            write!(f, " {rows_a} × {heavy_y} × {rows_b}")?;
        }
        if let Some([left, right]) = self.heavy_operands {
            // After a shape, the shape's operands; after a kernel alone, a
            // second item.
            let lead = if self.heavy_dims.is_some() {
                " over"
            } else {
                ","
            };
            write!(f, "{lead} operands {left}/{right}")?;
        }
        if let Some((light, heavy)) = self.predicted_light_secs.zip(self.predicted_heavy_secs) {
            let (light, heavy) = (light * 1e6, heavy * 1e6);
            write!(f, " (predicted light {light:.0}us, heavy {heavy:.0}us)")?;
        }
        if let Some((full_join, out)) = estimates {
            write!(f, " — full join {full_join}, est out {out}")?;
        }
        self.fmt_line_two(f)
    }

    /// `; line 2: …`, where the record has line 2's two prices.
    fn fmt_line_two(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.line_two
            .map_or(Ok(()), |prices| write!(f, "; {prices}"))
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
/// counts, cost models, line 2's factor) lives in the engine value itself,
/// not in the query.
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
