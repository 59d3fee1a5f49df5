//! [`Engine`] implementation for [`MmJoinEngine`] — the one engine that
//! serves all four workload families through the unified front door.
//!
//! * **2-path** (with or without counts) — Algorithm 1 / Algorithm 3.
//! * **Star** — the §3.2 grouped-variable generalisation.
//! * **Similarity join** — the counting 2-path thresholded at `c` (§4).
//! * **Containment join** — counting 2-path filtered to `count = |set(a)|`.
//!
//! The returned [`ExecStats`] carry the optimizer's decision: plan kind
//! (WCOJ fallback vs matrix-partitioned), the chosen `(Δ1, Δ2)`, the heavy
//! partition dimensions and the light tuple masses, plus the output
//! estimate and predicted costs when the optimizer ran.

use crate::compose;
use crate::config::JoinConfig;
use crate::plan::plan_general;
use crate::MmJoinEngine;
use crate::{star, two_path};
use mmjoin_api::{
    emit_counted_pairs, emit_pairs, emit_rows, Engine, EngineError, ExecStats, PlanStats, Query,
    Sink,
};

/// Plans `query` as [`MmJoinEngine`] would run it under `config`, without
/// running it: the cost-based decision of Algorithm 3 — strategy,
/// thresholds, heavy-core kernel, the estimates it rests on and the two
/// predictions — in the record the run itself starts from and returns
/// with its measured half filled in ([`ExecStats::plan`]). A composed plan
/// lists one record per step; the join steps over two base relations are
/// decided here, the others when their inputs exist.
pub fn plan_query(query: &Query<'_>, config: &JoinConfig) -> Result<PlanStats, EngineError> {
    plan_then_run(query, config, None).map(|(_, plan)| plan)
}

/// The one planning pass behind [`plan_query`] and
/// [`MmJoinEngine::execute`]: Algorithm 3 for the query's family and — given
/// a `sink` — the run that continues from that plan, reusing what planning
/// computed (a star's reduced legs, a general query's lowering). Returns the
/// rows emitted and the record.
fn plan_then_run(
    query: &Query<'_>,
    config: &JoinConfig,
    sink: Option<&mut dyn Sink>,
) -> Result<(u64, PlanStats), EngineError> {
    query.validate()?;
    let run = sink.is_some();
    // Similarity and containment threshold the witness counts of the self
    // two-path.
    let counts = |r, s, min_count| two_path::plan_then_run_counts(r, s, min_count, config, run);
    Ok(match *query {
        Query::TwoPath {
            r,
            s,
            with_counts: false,
            ..
        } => {
            let (rows, plan) = two_path::plan_then_run(r, s, config, run);
            (
                sink.map_or(0, |sink| emit_rows(sink, rows.into_rows())),
                plan,
            )
        }
        Query::TwoPath {
            r, s, min_count, ..
        } => {
            let (triples, plan) = counts(r, s, min_count);
            let rows = sink.map_or(0, |sink| emit_counted_pairs(sink, &triples, true));
            (rows, plan)
        }
        Query::Star { ref relations } => {
            let (rows, plan) = star::plan_then_run(relations, config, run);
            (sink.map_or(0, |sink| emit_rows(sink, rows)), plan)
        }
        Query::General { ref graph } => compose::plan_then_run(graph, config, sink)?,
        Query::SimilarityJoin { r, c, ordered } => {
            let (triples, plan) = counts(r, r, c);
            let mut pairs: Vec<(u32, u32, u32)> =
                triples.into_iter().filter(|&(a, b, _)| a < b).collect();
            if ordered {
                pairs.sort_unstable_by(|p, q| {
                    q.2.cmp(&p.2).then_with(|| (p.0, p.1).cmp(&(q.0, q.1)))
                });
            }
            let rows = sink.map_or(0, |sink| emit_counted_pairs(sink, &pairs, ordered));
            (rows, plan)
        }
        Query::ContainmentJoin { r } => {
            let (triples, plan) = counts(r, r, 1);
            let pairs: Vec<(u32, u32)> = triples
                .into_iter()
                .filter(|&(a, b, count)| a != b && count as usize == r.x_degree(a))
                .map(|(a, b, _)| (a, b))
                .collect();
            (sink.map_or(0, |sink| emit_pairs(sink, pairs)), plan)
        }
    })
}

impl Engine for MmJoinEngine {
    fn name(&self) -> &str {
        "MMJoin"
    }

    fn supports(&self, query: &Query<'_>) -> bool {
        match query {
            // General queries are supported iff the decomposing planner
            // can lower them onto binary intermediates.
            Query::General { graph } => plan_general(graph).is_ok(),
            // Every classic family, with or without counts.
            _ => true,
        }
    }

    fn execute(&self, query: &Query<'_>, sink: &mut dyn Sink) -> Result<ExecStats, EngineError> {
        let (rows, plan) = plan_then_run(query, &self.config, Some(sink))?;
        Ok(ExecStats {
            engine: Engine::name(self).to_string(),
            rows,
            plan: Some(plan),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::star_join_project_mm;
    use crate::two_path::{two_path_join_project, two_path_with_counts};
    use mmjoin_api::{CountSink, PairSink, PlanKind, VecSink};
    use mmjoin_storage::{Relation, Value};

    fn clique(sets: u32, elems: u32) -> Relation {
        let mut edges = Vec::new();
        for x in 0..sets {
            for y in 0..elems {
                edges.push((x, y));
            }
        }
        Relation::from_edges(edges)
    }

    #[test]
    fn two_path_execute_matches_free_function() {
        let r = clique(12, 5);
        let engine = MmJoinEngine::serial();
        let q = Query::two_path(&r, &r).build().unwrap();
        let mut sink = PairSink::new();
        let stats = engine.execute(&q, &mut sink).unwrap();
        let expected = two_path_join_project(&r, &r, &JoinConfig::default());
        assert_eq!(sink.pairs, expected);
        assert_eq!(stats.rows, expected.len() as u64);
        assert_eq!(stats.engine, "MMJoin");
    }

    #[test]
    fn exec_stats_report_thresholds_for_partitioned_plans() {
        let r = clique(60, 4); // dense: optimizer partitions
        let engine = MmJoinEngine::serial();
        let q = Query::two_path(&r, &r).build().unwrap();
        let mut sink = CountSink::new();
        let stats = engine.execute(&q, &mut sink).unwrap();
        let plan = stats.plan.expect("plan reported");
        assert_eq!(plan.kind, PlanKind::MatrixPartitioned);
        assert!(plan.delta1.is_some() && plan.delta2.is_some());
        assert!(plan.heavy_dims.is_some());
        assert!(plan.estimated_out.is_some());
    }

    #[test]
    fn exec_stats_report_wcoj_for_sparse_instances() {
        let edges: Vec<(Value, Value)> = (0..100).map(|i| (i, i)).collect();
        let r = Relation::from_edges(edges);
        let engine = MmJoinEngine::serial();
        let q = Query::two_path(&r, &r).build().unwrap();
        let mut sink = CountSink::new();
        let stats = engine.execute(&q, &mut sink).unwrap();
        assert_eq!(stats.plan.unwrap().kind, PlanKind::Wcoj);
        assert_eq!(stats.rows, 100);
    }

    #[test]
    fn delta_override_is_reported_verbatim() {
        let r = clique(10, 4);
        let engine = MmJoinEngine::new(JoinConfig::with_deltas(3, 5));
        let q = Query::two_path(&r, &r).build().unwrap();
        let mut sink = CountSink::new();
        let plan = engine.execute(&q, &mut sink).unwrap().plan.unwrap();
        assert_eq!((plan.delta1, plan.delta2), (Some(3), Some(5)));
        assert!(plan.light_tuples.is_some());
    }

    #[test]
    fn counting_query_streams_counts() {
        let r = clique(6, 3);
        let engine = MmJoinEngine::serial();
        let q = Query::two_path(&r, &r).min_count(2).build().unwrap();
        let mut sink = VecSink::new();
        engine.execute(&q, &mut sink).unwrap();
        let expected = two_path_with_counts(&r, &r, 2, &JoinConfig::default());
        assert_eq!(sink.counted_pairs(), expected);
    }

    #[test]
    fn star_execute_matches_free_function() {
        let rels = vec![clique(8, 4), clique(7, 4), clique(6, 4)];
        let engine = MmJoinEngine::serial();
        let q = Query::star(&rels).build().unwrap();
        let mut sink = VecSink::new();
        let stats = engine.execute(&q, &mut sink).unwrap();
        let expected = star_join_project_mm(&rels, &JoinConfig::default());
        assert_eq!(sink.rows.to_rows(), expected);
        assert_eq!(sink.rows.arity(), 3);
        assert!(stats.plan.is_some());
    }

    #[test]
    fn similarity_and_containment_supported() {
        let r = Relation::from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 9)]);
        let engine = MmJoinEngine::serial();

        let q = Query::similarity(&r, 2).build().unwrap();
        let mut sink = PairSink::new();
        engine.execute(&q, &mut sink).unwrap();
        assert_eq!(sink.pairs, vec![(0, 1)]);

        let q = Query::similarity(&r, 1).ordered().build().unwrap();
        let mut sink = VecSink::new();
        engine.execute(&q, &mut sink).unwrap();
        let overlaps: Vec<u32> = sink.counts.clone();
        assert!(overlaps.windows(2).all(|w| w[0] >= w[1]), "{overlaps:?}");

        let sub = Relation::from_edges([(0, 5), (1, 5), (1, 6)]);
        let q = Query::containment(&sub).build().unwrap();
        let mut sink = PairSink::new();
        engine.execute(&q, &mut sink).unwrap();
        assert_eq!(sink.pairs, vec![(0, 1)]);
    }

    #[test]
    fn invalid_queries_rejected_at_execute() {
        let engine = MmJoinEngine::serial();
        let rels: Vec<Relation> = Vec::new();
        let q = Query::Star {
            relations: rels.iter().collect(),
        };
        let mut sink = CountSink::new();
        assert!(matches!(
            engine.execute(&q, &mut sink),
            Err(EngineError::InvalidQuery(_))
        ));
    }
}
