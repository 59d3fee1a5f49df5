//! [`Engine`] wrapper over the worst-case optimal join primitives.
//!
//! The WCOJ reference engine enumerates the full join with the leapfrog
//! machinery and deduplicates through [`ProjectionAccumulator`] — the
//! `O(Σ N_i + |OUT⋈|)` plan of Proposition 1. It is the ground-truth
//! engine agreement tests compare everything else against.

use crate::star::{star_join_project_flat, two_path_for_each, ProjectionAccumulator};
use mmjoin_api::{emit_flat, Engine, EngineError, ExecStats, PlanKind, PlanStats, Query, Sink};

/// The worst-case-optimal reference engine (2-path and star).
#[derive(Debug, Default, Clone, Copy)]
pub struct WcojEngine;

impl Engine for WcojEngine {
    fn name(&self) -> &str {
        "WCOJ"
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
        let flat = match query {
            Query::TwoPath {
                r,
                s,
                with_counts: false,
                ..
            } => {
                let mut acc = ProjectionAccumulator::new(2);
                two_path_for_each(r, s, |x, _, z| acc.push(&[x, z]));
                acc.finish()
            }
            Query::Star { relations } => star_join_project_flat(relations),
            _ => return Err(self.unsupported(query)),
        };
        let rows = emit_flat(sink, query.output_arity(), flat);
        Ok(ExecStats::new(self.name(), rows).with_plan(PlanStats {
            kind: PlanKind::Wcoj,
            ..PlanStats::wcoj()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::star_join_project;
    use mmjoin_api::{PairSink, VecSink};
    use mmjoin_storage::{Relation, Value};

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    #[test]
    fn two_path_matches_star_reference() {
        let r = rel(&[(0, 0), (1, 0), (1, 1), (2, 1)]);
        let s = rel(&[(5, 0), (6, 1)]);
        let q = Query::two_path(&r, &s).build().unwrap();
        let mut sink = PairSink::new();
        let stats = WcojEngine.execute(&q, &mut sink).unwrap();
        let expected: Vec<(Value, Value)> = star_join_project(&[r.clone(), s.clone()])
            .into_iter()
            .map(|t| (t[0], t[1]))
            .collect();
        assert_eq!(sink.pairs, expected);
        assert_eq!(stats.plan.unwrap().kind, PlanKind::Wcoj);
    }

    #[test]
    fn star_matches_free_function() {
        let rels = vec![
            rel(&[(0, 0), (1, 0)]),
            rel(&[(5, 0)]),
            rel(&[(7, 0), (8, 0)]),
        ];
        let q = Query::star(&rels).build().unwrap();
        let mut sink = VecSink::new();
        WcojEngine.execute(&q, &mut sink).unwrap();
        assert_eq!(sink.rows.to_rows(), star_join_project(&rels));
    }

    #[test]
    fn counting_queries_rejected() {
        let r = rel(&[(0, 0)]);
        let q = Query::two_path(&r, &r).with_counts().build().unwrap();
        assert!(!WcojEngine.supports(&q));
        let mut sink = PairSink::new();
        assert!(WcojEngine.execute(&q, &mut sink).is_err());
    }
}
