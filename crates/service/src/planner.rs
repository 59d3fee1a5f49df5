//! Engine auto-selection — the service-level payoff of the paper's
//! cost-based plan choice.
//!
//! The paper's Algorithm 3 decides, per query, between the combinatorial
//! (WCOJ/expansion) path and the matrix-partitioned path. A single
//! engine applies that choice internally; the *service* applies the same
//! estimate one level up to pick **which registered engine** runs the
//! query: when the full join is output-like (the optimizer would fall
//! back to plain WCOJ anyway) the purely combinatorial engines win by
//! skipping the planning machinery, and when duplication is heavy the
//! matrix-capable `MMJoin` engine is the right tool. Per-family
//! overrides and per-request pins take precedence for callers that know
//! better.

use crate::error::ServiceError;
use mmjoin_api::{Engine, EngineError, EngineRegistry, Query, QueryFamily};
use mmjoin_core::{plan_general, prefers_wcoj, JoinConfig, PlanStep};
use std::collections::HashMap;

/// Why the planner picked the engine it picked (reported per response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionReason {
    /// The request pinned the engine by name.
    Pinned,
    /// A service-level per-family override applied.
    FamilyOverride,
    /// The cost estimate chose between the combinatorial and matrix
    /// paths.
    CostBased {
        /// `true` when the estimate favoured the combinatorial path.
        combinatorial: bool,
        /// Exact full-join size that drove the estimate.
        full_join: u64,
        /// Estimated projected output size.
        estimated_out: u64,
    },
    /// The cost-preferred engine was unavailable or does not support
    /// this query variant; a supporting engine ran instead.
    Fallback,
}

/// The planner's decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Registry name of the chosen engine.
    pub engine: String,
    /// How the choice was made.
    pub reason: SelectionReason,
}

/// Cost-based engine selector with per-family overrides.
#[derive(Debug, Clone, Default)]
pub struct Planner {
    /// Per-family forced engine names (checked after per-request pins).
    pub overrides: HashMap<QueryFamily, String>,
    /// Configuration for the cost model driving the estimates.
    pub config: JoinConfig,
}

impl Planner {
    /// A planner with no overrides on `config`.
    pub fn new(config: JoinConfig) -> Self {
        Self {
            overrides: HashMap::new(),
            config,
        }
    }

    /// Forces `engine` for every query of `family`.
    pub fn with_override(mut self, family: QueryFamily, engine: impl Into<String>) -> Self {
        self.overrides.insert(family, engine.into());
        self
    }

    /// Picks the engine for `query`. `pinned` is the per-request
    /// override, checked first; family overrides second; the cost-based
    /// choice last.
    pub fn select(
        &self,
        registry: &EngineRegistry,
        query: &Query<'_>,
        pinned: Option<&str>,
    ) -> Result<Selection, ServiceError> {
        if let Some(name) = pinned {
            let engine = self.expect_engine(registry, query, name)?;
            return Ok(Selection {
                engine: engine.name().to_string(),
                reason: SelectionReason::Pinned,
            });
        }
        if let Some(name) = self.overrides.get(&query.family()) {
            let engine = self.expect_engine(registry, query, name)?;
            return Ok(Selection {
                engine: engine.name().to_string(),
                reason: SelectionReason::FamilyOverride,
            });
        }

        // General queries go through the decomposing planner: only the
        // composed MMJoin executor evaluates them, and the plan's §5
        // estimates (total full-join mass across steps, final output)
        // back the reported cost decision. An unplannable graph fails
        // here with the planner's reason instead of a generic
        // "unsupported" from the engine.
        if let Query::General { graph } = query {
            let plan = plan_general(graph)
                .map_err(|e| ServiceError::Engine(EngineError::Plan(e.to_string())))?;
            let full_join: u64 = plan
                .steps
                .iter()
                .map(|s| match s {
                    PlanStep::Join { estimate, .. } => estimate.full_join,
                    PlanStep::Semijoin { .. } => 0,
                })
                .sum();
            // `MmJoinEngine::supports` would just re-run plan_general —
            // which already succeeded above — so the registry lookup
            // alone settles it.
            if let Some(engine) = registry.get("MMJoin") {
                return Ok(Selection {
                    engine: engine.name().to_string(),
                    reason: SelectionReason::CostBased {
                        // "Matrix-capable composed executor chosen"; the
                        // expand-vs-matrix call happens per step.
                        combinatorial: false,
                        full_join,
                        estimated_out: plan.estimated_rows,
                    },
                });
            }
            return match registry.engines_for(query).first() {
                Some(engine) => Ok(Selection {
                    engine: engine.name().to_string(),
                    reason: SelectionReason::Fallback,
                }),
                None => Err(ServiceError::NoEngineFor(QueryFamily::General)),
            };
        }

        // Cost-based: estimate on the (pair of) relations the query joins.
        let (r, s) = match query {
            Query::TwoPath { r, s, .. } => (*r, *s),
            Query::SimilarityJoin { r, .. } | Query::ContainmentJoin { r } => (*r, *r),
            Query::Star { relations } => (relations[0], *relations.get(1).unwrap_or(&relations[0])),
            Query::General { .. } => unreachable!("handled above"),
        };
        // Algorithm 3's line-2 test alone: which engine runs needs neither
        // threshold indexes nor the Δ grid — the engine plans for itself.
        // A plain two-path and a star multiply over the Boolean semiring.
        let counting = !matches!(
            query,
            Query::TwoPath {
                with_counts: false,
                ..
            } | Query::Star { .. }
        );
        let (combinatorial, estimate) = prefers_wcoj(r, s, &self.config, counting);
        let preferred = match (query.family(), combinatorial) {
            // General queries returned above; unreachable here.
            (QueryFamily::TwoPath | QueryFamily::Star | QueryFamily::General, true) => "Non-MMJoin",
            (QueryFamily::Similarity, true) => "SizeAware++",
            (QueryFamily::Containment, true) => "PRETTI",
            (_, false) => "MMJoin",
        };
        // The preferred engine may be absent (custom registry) or not
        // support this exact variant (e.g. Non-MMJoin has no counting
        // 2-path); try MMJoin next, then anything that supports it. Only
        // the engine the estimate actually asked for gets the CostBased
        // reason — a fallthrough is reported as Fallback so telemetry
        // never claims the combinatorial path served a query it didn't.
        for candidate in [preferred, "MMJoin"] {
            if let Some(engine) = registry.get(candidate) {
                if engine.supports(query) {
                    let reason = if candidate == preferred {
                        SelectionReason::CostBased {
                            combinatorial,
                            full_join: estimate.full_join,
                            estimated_out: estimate.estimate,
                        }
                    } else {
                        SelectionReason::Fallback
                    };
                    return Ok(Selection {
                        engine: engine.name().to_string(),
                        reason,
                    });
                }
            }
        }
        match registry.engines_for(query).first() {
            Some(engine) => Ok(Selection {
                engine: engine.name().to_string(),
                reason: SelectionReason::Fallback,
            }),
            None => Err(ServiceError::NoEngineFor(query.family())),
        }
    }

    /// Resolves a forced engine name, verifying it exists and supports
    /// the query.
    fn expect_engine<'reg>(
        &self,
        registry: &'reg EngineRegistry,
        query: &Query<'_>,
        name: &str,
    ) -> Result<&'reg dyn Engine, ServiceError> {
        let engine = registry
            .get(name)
            .ok_or_else(|| ServiceError::UnknownEngine(name.to_string()))?;
        if !engine.supports(query) {
            return Err(ServiceError::Engine(engine.unsupported(query)));
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::default_registry;
    use mmjoin_storage::{Relation, Value};

    fn planner() -> Planner {
        Planner::new(JoinConfig::default())
    }

    /// Sparse matching: output-like join, the combinatorial path wins.
    fn sparse() -> Relation {
        Relation::from_edges((0..200u32).map(|i| (i, i)))
    }

    /// Single hub: maximal duplication, the matrix path wins.
    fn dense() -> Relation {
        let mut edges: Vec<(Value, Value)> = Vec::new();
        for x in 0..120u32 {
            for y in 0..30u32 {
                edges.push((x, y));
            }
        }
        Relation::from_edges(edges)
    }

    #[test]
    fn sparse_two_path_picks_combinatorial() {
        let registry = default_registry(1);
        let r = sparse();
        let q = Query::two_path(&r, &r).build().unwrap();
        let sel = planner().select(&registry, &q, None).unwrap();
        assert_eq!(sel.engine, "Non-MMJoin");
        assert!(matches!(
            sel.reason,
            SelectionReason::CostBased {
                combinatorial: true,
                ..
            }
        ));
    }

    #[test]
    fn dense_two_path_picks_mmjoin() {
        let registry = default_registry(1);
        let r = dense();
        let q = Query::two_path(&r, &r).build().unwrap();
        let sel = planner().select(&registry, &q, None).unwrap();
        assert_eq!(sel.engine, "MMJoin");
        assert!(matches!(
            sel.reason,
            SelectionReason::CostBased {
                combinatorial: false,
                ..
            }
        ));
    }

    #[test]
    fn counted_two_path_never_lands_on_non_mm() {
        let registry = default_registry(1);
        let r = sparse();
        let q = Query::two_path(&r, &r).with_counts().build().unwrap();
        let sel = planner().select(&registry, &q, None).unwrap();
        assert_eq!(sel.engine, "MMJoin", "only MMJoin counts witnesses");
        assert_eq!(
            sel.reason,
            SelectionReason::Fallback,
            "the combinatorial preference did not actually run"
        );
    }

    /// A star only reads whether a witness exists: line 2 uses the Boolean
    /// core's factor for it, which a measured model puts well below the
    /// SGEMM one that a counting query over the same relation reads.
    #[test]
    fn a_star_crosses_over_where_the_boolean_core_does() {
        use mmjoin_matrix::cost::{Sample, SystemConstants};
        use mmjoin_matrix::{CostModel, REFERENCE_GFLOPS};
        let p = 512usize;
        let seconds = 2.0 * (p as f64).powi(3) / (REFERENCE_GFLOPS * 1e9);
        let model = CostModel::from_samples(
            vec![Sample {
                p,
                cores: 1,
                seconds,
            }],
            SystemConstants::default(),
        );
        let mut config = JoinConfig::default();
        config.install_measured_model(model);
        let (boolean, sgemm) = (config.fallback_factor(false), config.fallback_factor(true));
        assert!(boolean < 20.0 && 20.0 < sgemm, "{boolean} / {sgemm}");
        let planner = Planner::new(config);
        // 20 sets over 3 elements: the full join is exactly 20× the input.
        let r = Relation::from_edges((0..20u32).flat_map(|x| (0..3u32).map(move |y| (x, y))));
        let registry = default_registry(1);
        let rels = [&r, &r, &r];
        let star = Query::star(&rels).build().unwrap();
        assert_eq!(
            planner.select(&registry, &star, None).unwrap().engine,
            "MMJoin"
        );
        let similarity = Query::similarity(&r, 2).build().unwrap();
        assert_eq!(
            planner.select(&registry, &similarity, None).unwrap().engine,
            "SizeAware++"
        );
    }

    #[test]
    fn pins_and_overrides_win() {
        let registry = default_registry(1);
        let r = dense();
        let q = Query::two_path(&r, &r).build().unwrap();

        let sel = planner().select(&registry, &q, Some("WCOJ")).unwrap();
        assert_eq!(sel.engine, "WCOJ");
        assert_eq!(sel.reason, SelectionReason::Pinned);

        let p = planner().with_override(QueryFamily::TwoPath, "SystemX");
        let sel = p.select(&registry, &q, None).unwrap();
        assert_eq!(sel.engine, "SystemX");
        assert_eq!(sel.reason, SelectionReason::FamilyOverride);

        // Pin still beats the override.
        let sel = p.select(&registry, &q, Some("WCOJ")).unwrap();
        assert_eq!(sel.engine, "WCOJ");
    }

    #[test]
    fn bad_pin_is_an_error() {
        let registry = default_registry(1);
        let r = sparse();
        let q = Query::two_path(&r, &r).build().unwrap();
        assert!(matches!(
            planner().select(&registry, &q, Some("nope")),
            Err(ServiceError::UnknownEngine(_))
        ));
        // PRETTI is containment-only: pinning it on a 2-path fails.
        assert!(matches!(
            planner().select(&registry, &q, Some("PRETTI")),
            Err(ServiceError::Engine(_))
        ));
    }

    #[test]
    fn similarity_and_containment_choose_specialists_when_sparse() {
        let registry = default_registry(1);
        let r = sparse();
        let q = Query::similarity(&r, 2).build().unwrap();
        let sel = planner().select(&registry, &q, None).unwrap();
        assert_eq!(sel.engine, "SizeAware++");

        let q = Query::containment(&r).build().unwrap();
        let sel = planner().select(&registry, &q, None).unwrap();
        assert_eq!(sel.engine, "PRETTI");
    }
}
