//! `mmjoin` — the workspace facade: one import, one front door.
//!
//! Re-exports the unified query API ([`Query`], [`Engine`], [`Sink`],
//! [`EngineRegistry`], the stock sinks), the storage and configuration
//! types callers need, the service layer ([`Service`], [`Request`] —
//! see `mmjoin-service`), and the [`default_registry`] containing every
//! engine in the workspace:
//!
//! | name | families |
//! |------|----------|
//! | `MMJoin` | 2-path (± counts), star, similarity, containment |
//! | `Non-MMJoin` | 2-path, star |
//! | `WCOJ` | 2-path, star |
//! | `HashJoin(Postgres)` | 2-path |
//! | `MergeJoin(MySQL)` | 2-path |
//! | `SystemX` | 2-path |
//! | `SetIntersect(EmptyHeaded)` | 2-path |
//! | `HashJoin(DBMS)` | star |
//! | `SizeAware` | similarity |
//! | `SizeAware++` | similarity |
//! | `PRETTI` | containment |
//! | `LIMIT+` | containment |
//! | `PIEJoin` | containment |
//!
//! ```
//! use mmjoin::{default_registry, PairSink, Query, Relation};
//!
//! let r = Relation::from_edges([(0, 0), (1, 0), (2, 1)]);
//! let registry = default_registry(1);
//! let query = Query::two_path(&r, &r).build()?;
//!
//! // Run one engine by name…
//! let mut sink = PairSink::new();
//! let stats = registry.execute("MMJoin", &query, &mut sink)?;
//! assert_eq!(stats.rows, 5);
//!
//! // …or every engine that supports the query, with no hard-coded list.
//! for engine in registry.engines_for(&query) {
//!     let mut sink = PairSink::new();
//!     engine.execute(&query, &mut sink)?;
//!     assert_eq!(sink.pairs.len(), 5, "{} disagrees", engine.name());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! For a long-lived process serving many queries, use the service layer
//! instead of the raw registry — it caches relation statistics and query
//! results and routes each query to its engine:
//!
//! ```
//! use mmjoin::{Relation, Request, Service};
//!
//! let service = Service::with_default_registry();
//! service.register("r", Relation::from_edges([(0, 0), (1, 0), (2, 1)]));
//! let response = service.query(Request::two_path("r", "r"))?;
//! assert_eq!(response.rows.len(), 5);
//! # Ok::<(), mmjoin::ServiceError>(())
//! ```

pub use mmjoin_api::{
    Atom, CountSink, Engine, EngineError, EngineRegistry, ExecStats, FlatRows, ForEachSink,
    LimitSink, LineTwoPrices, OperandSource, PairSink, PhaseSecs, PlanKind, PlanStats, Query,
    QueryError, QueryFamily, QueryGraph, Sink, StepStats, Var, VecSink,
};
pub use mmjoin_core::{
    execute_general, plan_general, plan_query, GeneralPlan, JoinConfig, MmJoinEngine, PlanError,
};
pub use mmjoin_executor::{Executor, ExecutorStats};
/// Observability: the process-global [`obs::Tracer`](mmjoin_obs::trace::Tracer)
/// span tracer and the named-metric registry (counters, gauges,
/// log-bucketed histograms).
pub use mmjoin_obs as obs;
pub use mmjoin_service::{
    default_registry, registry_with_config, AtomSpec, MetricsSnapshot, QuerySpec, Request,
    Response, SelectionReason, Service, ServiceConfig, ServiceError, UpdateReport,
};
pub use mmjoin_storage::{
    NormalizedDelta, PackedForm, Relation, RelationBuilder, RelationDelta, Value,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    #[test]
    fn default_registry_covers_all_families() {
        let registry = default_registry(1);
        let r = rel(&[(0, 0), (1, 0)]);
        let rels = vec![r.clone(), r.clone()];
        let queries = [
            Query::two_path(&r, &r).build().unwrap(),
            Query::star(&rels).build().unwrap(),
            Query::similarity(&r, 1).build().unwrap(),
            Query::containment(&r).build().unwrap(),
        ];
        for q in &queries {
            let engines = registry.engines_for(q);
            assert!(
                engines.len() >= 2,
                "{:?} should have multiple engines, got {:?}",
                q.family(),
                engines.iter().map(|e| e.name()).collect::<Vec<_>>()
            );
            assert_eq!(engines[0].name(), "MMJoin", "MMJoin leads every family");
        }
    }

    #[test]
    fn every_engine_answers_its_families_consistently() {
        let r = rel(&[(0, 0), (0, 1), (1, 0), (2, 1), (2, 0), (3, 2)]);
        let registry = default_registry(2);
        let q = Query::two_path(&r, &r).build().unwrap();
        let engines = registry.engines_for(&q);
        let mut reference: Option<Vec<(Value, Value)>> = None;
        for e in engines {
            let mut sink = PairSink::new();
            e.execute(&q, &mut sink).unwrap();
            match &reference {
                None => reference = Some(sink.pairs),
                Some(r0) => assert_eq!(&sink.pairs, r0, "{} disagrees", e.name()),
            }
        }
    }

    #[test]
    fn expected_names_present() {
        let registry = default_registry(1);
        for name in [
            "MMJoin",
            "Non-MMJoin",
            "WCOJ",
            "HashJoin(Postgres)",
            "MergeJoin(MySQL)",
            "SystemX",
            "SetIntersect(EmptyHeaded)",
            "HashJoin(DBMS)",
            "SizeAware",
            "SizeAware++",
            "PRETTI",
            "LIMIT+",
            "PIEJoin",
        ] {
            assert!(registry.get(name).is_some(), "missing engine {name}");
        }
        assert_eq!(registry.len(), 13);
    }
}
