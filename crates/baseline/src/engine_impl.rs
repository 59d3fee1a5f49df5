//! [`Engine`] implementations for every baseline engine.
//!
//! The DBMS-style 2-path engines support exactly the uncounted
//! `Query::TwoPath` family; [`ExpandDedupEngine`] additionally evaluates
//! star queries. None of them plan, so [`ExecStats::plan`] stays `None`.

use crate::fulljoin::{HashJoinEngine, SortMergeEngine, SystemXEngine};
use crate::nonmm::ExpandDedupEngine;
use crate::setintersect::SetIntersectEngine;
use crate::star::HashDedupStarEngine;
use mmjoin_api::{emit_flat, emit_pairs, Engine, EngineError, ExecStats, Query, Sink};

/// Implements [`Engine`] for a 2-path-only baseline in terms of its
/// inherent `join_project` method.
macro_rules! two_path_engine {
    ($ty:ty, $name:literal) => {
        impl Engine for $ty {
            fn name(&self) -> &str {
                $name
            }

            fn supports(&self, query: &Query<'_>) -> bool {
                matches!(
                    query,
                    Query::TwoPath {
                        with_counts: false,
                        ..
                    }
                )
            }

            fn execute(
                &self,
                query: &Query<'_>,
                sink: &mut dyn Sink,
            ) -> Result<ExecStats, EngineError> {
                query.validate()?;
                match *query {
                    Query::TwoPath {
                        r,
                        s,
                        with_counts: false,
                        ..
                    } => {
                        let pairs = self.join_project(r, s);
                        let rows = emit_pairs(sink, pairs);
                        Ok(ExecStats::new($name, rows))
                    }
                    _ => Err(self.unsupported(query)),
                }
            }
        }
    };
}

two_path_engine!(HashJoinEngine, "HashJoin(Postgres)");
two_path_engine!(SortMergeEngine, "MergeJoin(MySQL)");
two_path_engine!(SystemXEngine, "SystemX");
two_path_engine!(SetIntersectEngine, "SetIntersect(EmptyHeaded)");

impl Engine for HashDedupStarEngine {
    fn name(&self) -> &str {
        "HashJoin(DBMS)"
    }

    fn supports(&self, query: &Query<'_>) -> bool {
        matches!(query, Query::Star { .. })
    }

    fn execute(&self, query: &Query<'_>, sink: &mut dyn Sink) -> Result<ExecStats, EngineError> {
        query.validate()?;
        match query {
            Query::Star { relations } => {
                let flat = self.star_join_project_flat(relations);
                let rows = emit_flat(sink, relations.len(), flat);
                Ok(ExecStats::new(Engine::name(self), rows))
            }
            _ => Err(self.unsupported(query)),
        }
    }
}

/// `ExpandDedupEngine` serves both families, so it gets a hand-written
/// impl instead of the macros.
impl Engine for ExpandDedupEngine {
    fn name(&self) -> &str {
        "Non-MMJoin"
    }

    fn supports(&self, query: &Query<'_>) -> bool {
        matches!(
            query,
            Query::TwoPath {
                with_counts: false,
                ..
            } | Query::Star { .. }
        )
    }

    fn execute(&self, query: &Query<'_>, sink: &mut dyn Sink) -> Result<ExecStats, EngineError> {
        query.validate()?;
        match query {
            Query::TwoPath {
                r,
                s,
                with_counts: false,
                ..
            } => {
                let pairs = self.join_project(r, s);
                let rows = emit_pairs(sink, pairs);
                Ok(ExecStats::new(Engine::name(self), rows))
            }
            Query::Star { relations } => {
                let flat = self.star_join_project_flat(relations);
                let rows = emit_flat(sink, relations.len(), flat);
                Ok(ExecStats::new(Engine::name(self), rows))
            }
            _ => Err(self.unsupported(query)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_api::{LimitSink, PairSink, QueryFamily, VecSink};
    use mmjoin_storage::{Relation, Value};

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    fn two_path_engines() -> Vec<Box<dyn Engine>> {
        vec![
            Box::new(HashJoinEngine),
            Box::new(SortMergeEngine),
            Box::new(SystemXEngine),
            Box::new(SetIntersectEngine),
            Box::new(ExpandDedupEngine::serial()),
            Box::new(ExpandDedupEngine::parallel(3)),
        ]
    }

    #[test]
    fn engine_trait_agrees_with_inherent_method() {
        let r = rel(&[(0, 0), (1, 0), (2, 1), (2, 0)]);
        let s = rel(&[(5, 0), (6, 1), (7, 2)]);
        let q = Query::two_path(&r, &s).build().unwrap();
        let expected = SortMergeEngine.join_project(&r, &s);
        for e in two_path_engines() {
            let mut sink = PairSink::new();
            let stats = e.execute(&q, &mut sink).unwrap();
            assert_eq!(sink.pairs, expected, "{}", e.name());
            assert_eq!(stats.rows, expected.len() as u64);
            assert!(stats.plan.is_none(), "baselines do not plan");
        }
    }

    #[test]
    fn unsupported_families_are_rejected() {
        let r = rel(&[(0, 0)]);
        let counting = Query::two_path(&r, &r).with_counts().build().unwrap();
        let similarity = Query::similarity(&r, 1).build().unwrap();
        for e in two_path_engines() {
            assert!(!e.supports(&counting), "{}", e.name());
            let mut sink = PairSink::new();
            let err = e.execute(&similarity, &mut sink).unwrap_err();
            assert!(
                matches!(
                    err,
                    EngineError::Unsupported {
                        family: QueryFamily::Similarity,
                        ..
                    }
                ),
                "{}: {err}",
                e.name()
            );
        }
    }

    #[test]
    fn star_engines_execute_star_queries() {
        let rels = vec![
            rel(&[(0, 0), (1, 0), (2, 1)]),
            rel(&[(5, 0), (6, 1)]),
            rel(&[(8, 0), (9, 0), (9, 1)]),
        ];
        let q = Query::star(&rels).build().unwrap();
        let reference = mmjoin_wcoj::star_join_project(&rels);
        let engines: Vec<Box<dyn Engine>> = vec![
            Box::new(HashDedupStarEngine),
            Box::new(ExpandDedupEngine::serial()),
        ];
        for e in engines {
            let mut sink = VecSink::new();
            e.execute(&q, &mut sink).unwrap();
            assert_eq!(sink.rows.to_rows(), reference, "{}", e.name());
            assert_eq!(sink.rows.arity(), 3);
        }
    }

    #[test]
    fn limit_sink_terminates_emission_early() {
        // Single hub: 5×5 output pairs; a limit of 3 must stop there.
        let edges: Vec<(Value, Value)> = (0..5).map(|x| (x, 0)).collect();
        let r = rel(&edges);
        let q = Query::two_path(&r, &r).build().unwrap();
        for e in two_path_engines() {
            let mut sink = LimitSink::new(PairSink::new(), 3);
            let stats = e.execute(&q, &mut sink).unwrap();
            assert_eq!(stats.rows, 3, "{}", e.name());
            assert!(sink.limit_reached());
            let full = SortMergeEngine.join_project(&r, &r);
            assert_eq!(sink.into_inner().pairs, full[..3].to_vec(), "{}", e.name());
        }
    }
}
