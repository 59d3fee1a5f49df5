//! Engine routing: which registered engine a request runs on.
//!
//! The paper makes one cost-based choice per query (Algorithm 3), and
//! `MMJoin` makes it — its line-2 branch runs the very expansion the
//! combinatorial engines are registered for, so routing a two-path, a star
//! or a general query anywhere else would only decide the same thing twice.
//! The service therefore routes and does not estimate: a per-request pin
//! wins, otherwise `MMJoin` takes the query and reports its decision in
//! [`PlanStats`](mmjoin_api::PlanStats). The one exception is the
//! containment join, whose combinatorial path is a different algorithm
//! (`PRETTI`) that `MMJoin` does not contain: it goes to `PRETTI` when
//! `MMJoin`'s own plan for it ([`plan_query`]) is expansion, so the route
//! and the engine's line 2 are one decision. A
//! similarity join goes to `MMJoin` like the rest: measured on `fig5a`
//! (DBLP), `MMJoin` answers it faster than `SizeAware++` at every `c`.

use crate::error::ServiceError;
use mmjoin_api::{Engine, EngineRegistry, PlanKind, Query};
use mmjoin_core::{plan_query, JoinConfig};

/// Registry name of the engine that plans: where unpinned queries are
/// routed, and the one whose decision record `explain` can print.
pub(crate) const PLANNING_ENGINE: &str = "MMJoin";

/// How the engine of a request was picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionReason {
    /// The request pinned the engine by name.
    Pinned,
    /// The family's route: `MMJoin`, or — for a containment join `MMJoin`
    /// would expand — `PRETTI`.
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
    /// The configuration line 2 reads for containment joins (and, in a [`Service`](crate::Service), the one its `MMJoin` plans
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
        // `MMJoin`'s line 2, for the one family whose combinatorial path is
        // an engine of its own.
        let expands = || plan_query(query, &self.config).is_ok_and(|p| p.kind == PlanKind::Wcoj);
        let specialist = match query {
            Query::ContainmentJoin { .. } if expands() => registry.get("PRETTI"),
            _ => None,
        }
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

    /// A star and both set joins cross over where line 2's prices do: a
    /// measured model moves them through its rates, not through the factor.
    /// 20 sets over 3 elements — a full join exactly 20× the input — have
    /// cores far cheaper than expansion at the reference bit-word rate, and
    /// far dearer at a rate 10⁴× slower; the containment join goes to
    /// `PRETTI` exactly when `MMJoin` would expand it.
    #[test]
    fn a_star_and_the_set_joins_cross_over_where_line_two_prices_do() {
        use mmjoin_matrix::cost::{Sample, SystemConstants};
        use mmjoin_matrix::{CostModel, REFERENCE_BIT_WORD_SECS, REFERENCE_GFLOPS};
        let p = 512usize;
        let seconds = 2.0 * (p as f64).powi(3) / (REFERENCE_GFLOPS * 1e9);
        let measured = |bit_word_secs| {
            let sample = Sample {
                p,
                cores: 1,
                seconds,
            };
            let model = CostModel::from_samples(vec![sample], SystemConstants::default())
                .with_bit_word_secs(bit_word_secs);
            let mut config = JoinConfig::default();
            config.install_measured_model(model);
            config
        };
        let r = Relation::from_edges((0..20u32).flat_map(|x| (0..3u32).map(move |y| (x, y))));
        let rels = [&r, &r, &r];
        let star = Query::star(&rels).build().unwrap();
        let similarity = Query::similarity(&r, 2).build().unwrap();
        let containment = Query::containment(&r).build().unwrap();
        for (config, kind, specialist) in [
            (
                measured(REFERENCE_BIT_WORD_SECS),
                PlanKind::MatrixPartitioned,
                "MMJoin",
            ),
            (
                measured(REFERENCE_BIT_WORD_SECS * 1e4),
                PlanKind::Wcoj,
                "PRETTI",
            ),
        ] {
            let planner = Planner::new(config.clone());
            let route = |q: &Query<'_>| {
                let selection = planner.select(&default_registry(1), q, None).unwrap();
                (selection.engine, plan_query(q, &config).unwrap().kind)
            };
            assert_eq!(route(&star), ("MMJoin".to_string(), kind));
            assert_eq!(route(&similarity), ("MMJoin".to_string(), kind));
            assert_eq!(route(&containment), (specialist.to_string(), kind));
            let plan = plan_query(&similarity, &config).unwrap();
            let prices = plan.line_two.unwrap();
            assert_eq!(
                kind == PlanKind::MatrixPartitioned,
                prices.core_secs.unwrap() < prices.expand_secs
            );
        }
    }

    /// The containment route and `MMJoin`'s plan are one decision, on every
    /// shape and under every factor and backend: `PRETTI` exactly when the
    /// plan is expansion.
    #[test]
    fn the_containment_route_is_the_engines_line_two() {
        let mid = Relation::from_edges((0..15u32).flat_map(|x| (0..40u32).map(move |y| (x, y))));
        let wide = Relation::from_edges(
            (0..3000u32).flat_map(|x| (0..3u32).map(move |j| (x, (7 * x + 1009 * j) % 3000))),
        );
        let forced = |factor| JoinConfig {
            wcoj_fallback_factor: factor,
            ..JoinConfig::default()
        };
        let pinned = JoinConfig {
            heavy_backend: mmjoin_core::HeavyBackend::DenseF32,
            ..JoinConfig::default()
        };
        let configs = [
            JoinConfig::default(),
            forced(0.0),
            forced(f64::INFINITY),
            pinned,
        ];
        let mut seen = (false, false);
        for r in [sparse(), dense(), mid, wide] {
            let q = Query::containment(&r).build().unwrap();
            for config in &configs {
                let selection = Planner::new(config.clone())
                    .select(&default_registry(1), &q, None)
                    .unwrap();
                let expands = plan_query(&q, config).unwrap().kind == PlanKind::Wcoj;
                assert_eq!(selection.engine == "PRETTI", expands, "{config:?}");
                if expands {
                    seen.0 = true;
                } else {
                    seen.1 = true;
                }
            }
        }
        assert_eq!(seen, (true, true));
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

    /// Line 2 in the service: the combinatorial path of a containment join
    /// is an engine of its own. A similarity join's is `MMJoin`'s expansion.
    #[test]
    fn only_containment_chooses_a_specialist_when_sparse() {
        for (r, containment, plan) in [
            (sparse(), "PRETTI", PlanKind::Wcoj),
            (dense(), "MMJoin", PlanKind::MatrixPartitioned),
        ] {
            let q = Query::similarity(&r, 2).build().unwrap();
            assert_eq!(routed(&q), ("MMJoin".to_string(), plan));
            let q = Query::containment(&r).build().unwrap();
            assert_eq!(routed(&q).0, containment);
        }
    }
}
