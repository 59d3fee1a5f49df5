//! `mmjoin-core` — output-sensitive join-project evaluation using matrix
//! multiplication.
//!
//! This crate implements the primary contribution of *Fast Join Project
//! Query Evaluation using Matrix Multiplication* (Deep, Hu, Koutris —
//! SIGMOD 2020) and packages it as [`MmJoinEngine`], the workspace's
//! universal engine behind the unified [`mmjoin_api`] front door: one
//! `Query` in, streamed rows out, [`ExecStats`](mmjoin_api::ExecStats)
//! (plan choice, chosen `(Δ1, Δ2)`, heavy/light split) back.
//!
//! * [`two_path`] — Algorithm 1 for the 2-path query
//!   `Q(x, z) = R(x, y), S(z, y)`: degree-based partitioning into light and
//!   heavy parts, worst-case-optimal expansion for the light parts, matrix
//!   multiplication for the heavy core — over the Boolean semiring
//!   (bit-packed) when only existence is read, AND-popcount over the same
//!   bit rows for the counting variant that reports `|ys(x) ∩ ys(z)|` per
//!   output pair (the similarity joins build on it); f32 SGEMM when pinned.
//! * [`star`] — the §3.2 generalisation to star queries `Q*_k`.
//! * [`plan`] / [`compose`] — the decomposing planner and executor for
//!   general acyclic join-project queries (`Query::General`): a
//!   [`QueryGraph`](mmjoin_api::QueryGraph) is lowered into a DAG of
//!   2-path steps, semijoin reductions and one final star step, ordered
//!   by the §5 estimates.
//! * [`estimate`] — the §5 output-size estimator.
//! * [`optimizer`] — Algorithm 3: line 2 compares expansion's price with
//!   the everything-heavy core's (`Δ1 = Δ2 = 0`), both from exact counts
//!   at the cost model's rates.
//! * [`engine_impl`] — the [`Engine`](mmjoin_api::Engine) implementation
//!   covering all four workload families (2-path, star, similarity join,
//!   containment join), and [`plan_query`]: its planning half on its own,
//!   the one decision record (`PlanStats`) that `explain` prints and a run
//!   returns.
//!
//! # Quick example
//!
//! Every workload goes through the same three steps: build a
//! [`Query`](mmjoin_api::Query), pick an engine, execute into a
//! [`Sink`](mmjoin_api::Sink).
//!
//! ```
//! use mmjoin_api::{Engine, PairSink, Query};
//! use mmjoin_core::{JoinConfig, MmJoinEngine};
//! use mmjoin_storage::Relation;
//!
//! // Friend-of-friend pairs (Example 1 of the paper): a tiny 2-community
//! // graph where the full join has many duplicates.
//! let r = Relation::from_edges([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
//! let engine = MmJoinEngine::new(JoinConfig::default());
//!
//! let query = Query::two_path(&r, &r).build()?;
//! let mut sink = PairSink::new();
//! let stats = engine.execute(&query, &mut sink)?;
//! assert_eq!(sink.pairs.len(), 9); // all 3×3 pairs share a friend
//! assert_eq!(stats.rows, 9);
//!
//! // The same engine answers similarity joins through the same door:
//! let query = Query::similarity(&r, 2).build()?;
//! let mut sink = PairSink::new();
//! engine.execute(&query, &mut sink)?;
//! assert_eq!(sink.pairs.len(), 3); // each pair shares both hubs
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The free functions ([`two_path_join_project`], [`star_join_project_mm`],
//! …) remain available for callers that want the raw algorithms without
//! the engine layer.

pub mod compose;
pub mod config;
pub mod engine_impl;
pub mod estimate;
pub mod optimizer;
pub mod plan;
pub mod star;
pub mod two_path;

pub use compose::execute_general;
pub use config::{HeavyBackend, JoinConfig};
pub use engine_impl::plan_query;
pub use estimate::{estimate_from_parts, estimate_output_size, OutputEstimate};
pub use optimizer::{choose_thresholds, ExecutionPlan, PlanChoice};
pub use plan::{plan_general, FinalStage, GeneralPlan, PlanError, PlanNode, PlanStep, ProjCols};
pub use star::{star_join_project_mm, star_join_project_mm_flat, star_join_project_mm_with_stats};
pub use two_path::{
    two_path_join_project, two_path_join_project_with_stats, two_path_with_counts,
    two_path_with_counts_stats,
};

/// The packaged MMJoin engine: Algorithm 1 + Algorithm 3 behind the
/// unified [`Engine`](mmjoin_api::Engine) trait (see [`engine_impl`]).
///
/// Execution configuration — threads, cost model, threshold overrides —
/// lives here, not in the query; the same engine value serves every
/// workload family.
#[derive(Debug, Clone, Default)]
pub struct MmJoinEngine {
    /// Execution configuration (threads, cost model, overrides).
    pub config: JoinConfig,
}

impl MmJoinEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: JoinConfig) -> Self {
        Self { config }
    }

    /// Serial engine with default configuration.
    pub fn serial() -> Self {
        Self::new(JoinConfig::default())
    }

    /// Engine on `threads` workers.
    pub fn parallel(threads: usize) -> Self {
        Self::new(JoinConfig {
            threads,
            ..JoinConfig::default()
        })
    }
}
