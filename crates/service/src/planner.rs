//! Engine routing: which registered engine a request runs on.
//!
//! The paper makes one cost-based choice per query (Algorithm 3), and
//! `MMJoin` makes it — its line-2 branch runs the very expansion the
//! combinatorial engines are registered for, so routing a two-path, a star
//! or a general query anywhere else would only decide the same thing twice.
//! The service therefore routes and does not estimate: a per-request pin
//! wins, otherwise `MMJoin` takes the query and reports its decision in
//! [`PlanStats`](mmjoin_api::PlanStats). The one exception is similarity
//! and containment joins, whose combinatorial path is a different
//! algorithm (`SizeAware++`, `PRETTI`) that `MMJoin` does not contain: for
//! those the service still applies line 2 on its own to pick between the
//! specialist and `MMJoin`.

use crate::error::ServiceError;
use mmjoin_api::{Engine, EngineRegistry, Query};
use mmjoin_core::{prefers_wcoj, JoinConfig};

/// Registry name of the engine that plans: where unpinned queries are
/// routed, and the one whose decision record `explain` can print.
pub(crate) const PLANNING_ENGINE: &str = "MMJoin";

/// How the engine of a request was picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionReason {
    /// The request pinned the engine by name.
    Pinned,
    /// The family's route: `MMJoin`, or — for a similarity or containment
    /// join whose full join is output-like — the combinatorial specialist.
    Routed,
    /// The routed engine is not registered (or does not support this
    /// query); the first registered engine that does ran instead.
    Fallback,
}

/// The router's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Registry name of the chosen engine.
    pub engine: String,
    /// How the choice was made.
    pub reason: SelectionReason,
}

/// Routes a query to a registered engine.
#[derive(Debug, Clone, Default)]
pub struct Planner {
    /// The configuration line 2 reads for similarity and containment joins
    /// (and, in a [`Service`](crate::Service), the one its `MMJoin` plans
    /// with).
    pub config: JoinConfig,
}

impl Planner {
    /// A router over `config`.
    pub fn new(config: JoinConfig) -> Self {
        Self { config }
    }

    /// Picks the engine for `query`: `pinned`, the per-request override,
    /// if given; else the family's route.
    pub fn select(
        &self,
        registry: &EngineRegistry,
        query: &Query<'_>,
        pinned: Option<&str>,
    ) -> Result<Selection, ServiceError> {
        let selected = |engine: &dyn Engine, reason| {
            Ok(Selection {
                engine: engine.name().to_string(),
                reason,
            })
        };
        if let Some(name) = pinned {
            let engine = registry
                .get(name)
                .ok_or_else(|| ServiceError::UnknownEngine(name.to_string()))?;
            if !engine.supports(query) {
                return Err(ServiceError::Engine(engine.unsupported(query)));
            }
            return selected(engine, SelectionReason::Pinned);
        }
        // Algorithm 3's line 2, for the two families whose combinatorial
        // path is an engine of its own; both read witness counts.
        let specialist = match query {
            Query::SimilarityJoin { r, .. } => Some((*r, "SizeAware++")),
            Query::ContainmentJoin { r } => Some((*r, "PRETTI")),
            _ => None,
        };
        let specialist = specialist
            .filter(|(r, _)| prefers_wcoj(r, r, &self.config, true).0)
            .and_then(|(_, name)| registry.get(name))
            .filter(|engine| engine.supports(query));
        // `MMJoin` serves every family, so the lookup settles it: a general
        // query it cannot lower fails in `execute` with the planner's
        // reason, not here with a second planning pass.
        if let Some(engine) = specialist.or_else(|| registry.get(PLANNING_ENGINE)) {
            return selected(engine, SelectionReason::Routed);
        }
        match registry.engines_for(query).first() {
            Some(&engine) => selected(engine, SelectionReason::Fallback),
            None => Err(ServiceError::NoEngineFor(query.family())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::default_registry;
    use mmjoin_api::PlanKind;
    use mmjoin_core::plan_query;
    use mmjoin_storage::Relation;

    fn planner() -> Planner {
        Planner::new(JoinConfig::default())
    }

    /// Sparse matching: the full join is output-like.
    fn sparse() -> Relation {
        Relation::from_edges((0..200u32).map(|i| (i, i)))
    }

    /// 120 sets over 30 shared elements: maximal duplication.
    fn dense() -> Relation {
        Relation::from_edges((0..120u32).flat_map(|x| (0..30u32).map(move |y| (x, y))))
    }

    /// The engine `planner()` routes the unpinned `q` to, and the strategy
    /// that engine — `MMJoin`, for these — then decides on.
    fn routed(q: &Query<'_>) -> (String, PlanKind) {
        let sel = planner().select(&default_registry(1), q, None).unwrap();
        assert_eq!(sel.reason, SelectionReason::Routed);
        let plan = plan_query(q, &JoinConfig::default()).unwrap();
        (sel.engine, plan.kind)
    }

    /// The service routes both to `MMJoin`; which path runs is its choice.
    #[test]
    fn sparse_two_path_picks_combinatorial() {
        let r = sparse();
        let q = Query::two_path(&r, &r).build().unwrap();
        assert_eq!(routed(&q), ("MMJoin".to_string(), PlanKind::Wcoj));
    }

    #[test]
    fn dense_two_path_picks_mmjoin() {
        let r = dense();
        let q = Query::two_path(&r, &r).build().unwrap();
        let matrix = PlanKind::MatrixPartitioned;
        assert_eq!(routed(&q), ("MMJoin".to_string(), matrix));
    }

    /// The only engine that counts witnesses is where a counting two-path
    /// is routed — not a fallback from somewhere it could never have run.
    #[test]
    fn counted_two_path_never_lands_on_non_mm() {
        let r = sparse();
        let q = Query::two_path(&r, &r).with_counts().build().unwrap();
        assert_eq!(routed(&q), ("MMJoin".to_string(), PlanKind::Wcoj));
    }

    /// A star only reads whether a witness exists: `MMJoin`'s line 2 uses
    /// the Boolean core's factor for it, which a measured model puts well
    /// below the SGEMM one that routes a similarity join over the same
    /// relation.
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
        // 20 sets over 3 elements: the full join is exactly 20× the input.
        let r = Relation::from_edges((0..20u32).flat_map(|x| (0..3u32).map(move |y| (x, y))));
        let rels = [&r, &r, &r];
        let star = Query::star(&rels).build().unwrap();
        let plan = plan_query(&star, &config).unwrap();
        assert_eq!(plan.kind, PlanKind::MatrixPartitioned);
        let similarity = Query::similarity(&r, 2).build().unwrap();
        let selection = Planner::new(config).select(&default_registry(1), &similarity, None);
        assert_eq!(selection.unwrap().engine, "SizeAware++");
    }

    #[test]
    fn pins_win() {
        let registry = default_registry(1);
        let r = dense();
        let q = Query::two_path(&r, &r).build().unwrap();
        let sel = planner().select(&registry, &q, Some("WCOJ")).unwrap();
        assert_eq!(sel.engine, "WCOJ");
        assert_eq!(sel.reason, SelectionReason::Pinned);
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

    /// Line 2 in the service: the combinatorial path of these two families
    /// is an engine of its own.
    #[test]
    fn similarity_and_containment_choose_specialists_when_sparse() {
        for (r, similarity, containment) in [
            (sparse(), "SizeAware++", "PRETTI"),
            (dense(), "MMJoin", "MMJoin"),
        ] {
            let q = Query::similarity(&r, 2).build().unwrap();
            assert_eq!(routed(&q).0, similarity);
            let q = Query::containment(&r).build().unwrap();
            assert_eq!(routed(&q).0, containment);
        }
    }
}
