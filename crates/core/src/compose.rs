//! Executes a composed [`GeneralPlan`]: materialises the intermediate
//! steps as [`Relation`]s and streams the final stage through the
//! caller's [`Sink`] (honouring [`Sink::wants_more`] early termination).
//!
//! Every join step runs the full 2-path machinery — degree partitioning,
//! light expansion, heavy matrix core — so a k-path chain is evaluated
//! as k−1 output-sensitive joins instead of one combinatorial blow-up.
//! When the last materialising join feeds a plain `(a, b)` projection it
//! is streamed straight into the sink, skipping the final
//! re-materialisation.
//!
//! A join step writes its answer as the relation the next step reads,
//! with no pair vector between them: expansion appends each `x` group's
//! distinct `z`s as row `x` of a [`mmjoin_storage::RowWriter`], and the bit
//! core writes its product's rows the same way; the writer then checks the
//! rows and counts the `z` degrees in flat passes over the values, instead
//! of the pair vector and the two-index build a step used to pay for. The
//! intermediate's `z → [x]` index is built only if
//! a later step reads it (the next join on its other column, the bit core's
//! packed form); a chain whose next step expands from its `x` rows, and
//! plans from its degrees, never builds it.
//!
//! Independent steps of the plan DAG run **concurrently**: execution
//! proceeds in topological wavefronts — every step whose inputs are
//! materialised runs as a task on the shared executor (which each step's
//! internal light/heavy parallelism also shares), and materialised
//! intermediates are handed to their consumers by move, never copied.
//! Per-step statistics are still reported in plan order.

use crate::config::JoinConfig;
use crate::plan::{plan_general, FinalStage, GeneralPlan, PlanStep, ProjCols};
use crate::star::star_join_project_mm_flat;
use crate::two_path::{
    plan_two_path, two_path_join_project_with_stats, two_path_relation_with_stats,
};
use mmjoin_api::ir::{QueryGraph, Var};
use mmjoin_api::{
    emit_flat, emit_pairs, EngineError, NodeSource, PlanStats, Sink, StepNode, StepStats,
};
use mmjoin_obs::trace::{self, Stage};
use mmjoin_storage::{CsrIndex, Relation, Value};
use std::borrow::Cow;

/// Evaluates a general acyclic query, streaming distinct rows into
/// `sink`; returns `(rows emitted, plan stats)` with one
/// [`StepStats`] record per executed step (in plan order, regardless of
/// the wavefront schedule that actually ran them).
pub fn execute_general(
    graph: &QueryGraph<'_>,
    config: &JoinConfig,
    sink: &mut dyn Sink,
) -> Result<(u64, PlanStats), EngineError> {
    plan_then_run(graph, config, Some(sink))
}

/// Lowers `graph` into the decision record `explain` prints and — given a
/// `sink` — runs the lowering, filling that record in. Without one, the
/// join steps over two base relations are decided ahead of time instead
/// (see [`decide_base_steps`]).
pub(crate) fn plan_then_run(
    graph: &QueryGraph<'_>,
    config: &JoinConfig,
    sink: Option<&mut dyn Sink>,
) -> Result<(u64, PlanStats), EngineError> {
    let plan = plan_general(graph).map_err(|e| EngineError::Plan(e.to_string()))?;
    let mut stats = planned_record(&plan, graph);
    let Some(sink) = sink else {
        decide_base_steps(&mut stats, &plan, graph, config);
        return Ok((0, stats));
    };
    execute_composed(graph, &plan, stats, config, sink)
}

/// `plan` laid out as the record a run starts from: one [`StepStats`] per
/// step with its operands and §5 estimates, the output-producing stage
/// last. Which strategy a join step takes is its two-path primitive's
/// decision, made when its inputs exist.
fn planned_record(plan: &GeneralPlan, graph: &QueryGraph<'_>) -> PlanStats {
    let node = |id: usize| {
        let n = &plan.nodes[id];
        StepNode {
            source: n.source,
            a: n.a,
            b: n.b,
        }
    };
    let record = |op, on_var, inputs: &[usize], out_vars: Vec<Var>| StepStats {
        op,
        on_var,
        inputs: inputs.iter().map(|&id| node(id)).collect(),
        out_vars,
        full_join: None,
        estimated_rows: None,
        actual_rows: None,
        kind: None,
        delta1: None,
        delta2: None,
    };
    let result_vars = |id: usize| vec![plan.nodes[id].a, plan.nodes[id].b];
    let mut steps: Vec<StepStats> = plan
        .steps
        .iter()
        .map(|step| match *step {
            PlanStep::Semijoin {
                target,
                filter,
                on,
                result,
            } => record("semijoin", Some(on), &[target, filter], result_vars(result)),
            PlanStep::Join {
                left,
                right,
                on,
                result,
                estimate,
            } => StepStats {
                full_join: Some(estimate.full_join),
                estimated_rows: Some(estimate.rows),
                ..record("join", Some(on), &[left, right], result_vars(result))
            },
        })
        .collect();
    let full_join = steps.iter().filter_map(|s| s.full_join).sum();
    let projection = graph.projection().to_vec();
    steps.push(StepStats {
        estimated_rows: Some(plan.estimated_rows),
        ..match &plan.final_stage {
            FinalStage::Project { node, .. } => record("project", None, &[*node], projection),
            FinalStage::Star { center, legs } => record("star", Some(*center), legs, projection),
        }
    });
    PlanStats {
        full_join: Some(full_join),
        estimated_out: Some(plan.estimated_rows),
        steps,
        ..PlanStats::wcoj()
    }
}

/// Decides, ahead of the run, the join steps whose inputs are both base
/// relations — the only ones whose primitive can plan before anything is
/// materialised — with the function the step itself plans with, on the
/// inputs oriented as it will see them.
fn decide_base_steps(
    stats: &mut PlanStats,
    plan: &GeneralPlan,
    graph: &QueryGraph<'_>,
    config: &JoinConfig,
) {
    for (stat, step) in stats.steps.iter_mut().zip(&plan.steps) {
        let PlanStep::Join {
            left, right, on, ..
        } = *step
        else {
            continue;
        };
        let (l, r) = (&plan.nodes[left], &plan.nodes[right]);
        if let (NodeSource::Atom(i), NodeSource::Atom(j)) = (l.source, r.source) {
            let atoms = graph.atoms();
            let (lr, rr) = (
                oriented(atoms[i].relation, l.b == on),
                oriented(atoms[j].relation, r.b == on),
            );
            stat.decided_by(&plan_two_path(&lr, &rr, config, false));
        }
    }
}

/// Runs `plan`, the lowering of `graph`, filling `planned` — its
/// [`planned_record`] — with what each step chose and produced.
fn execute_composed(
    graph: &QueryGraph<'_>,
    plan: &GeneralPlan,
    planned: PlanStats,
    config: &JoinConfig,
    sink: &mut dyn Sink,
) -> Result<(u64, PlanStats), EngineError> {
    // Per-node materialised relation: atoms borrow, steps own.
    let mut mats: Vec<Option<Cow<'_, Relation>>> = vec![None; plan.nodes.len()];
    for (i, atom) in graph.atoms().iter().enumerate() {
        mats[i] = Some(Cow::Borrowed(atom.relation));
    }

    let nsteps = plan.steps.len();
    let mut step_stats = planned.steps;
    let mut done = vec![false; nsteps];
    let mut remaining = nsteps;
    let mut final_primitive: Option<PlanStats> = None;
    let mut rows = 0u64;
    let mut streamed = false;
    let threads = config.effective_threads();

    while remaining > 0 {
        // The next wavefront: every unfinished step whose inputs are
        // materialised. Each node feeds exactly one consumer (the plan
        // is a contraction tree), so ready steps touch disjoint inputs.
        let ready: Vec<usize> = (0..nsteps)
            .filter(|&i| {
                !done[i]
                    && step_inputs(&plan.steps[i])
                        .iter()
                        .all(|&n| mats[n].is_some())
            })
            .collect();
        if ready.is_empty() {
            return Err(EngineError::Plan(
                "composed plan has no runnable step (not a DAG)".into(),
            ));
        }

        // The final step (always alone in the last wavefront — every
        // other step is its ancestor) may stream straight into the sink
        // when it is a join feeding a plain (a, b) projection.
        if remaining == 1 && ready == [nsteps - 1] {
            if let PlanStep::Join {
                left,
                right,
                on,
                result,
                ..
            } = plan.steps[nsteps - 1]
            {
                if matches!(
                    plan.final_stage,
                    FinalStage::Project { node, cols: ProjCols::Ab } if node == result
                ) {
                    let (l, r) = join_operands(plan, &mats, left, right, on);
                    let step_span =
                        trace::span_dyn(Stage::Step, || format!("join v{on} (final, streamed)"));
                    let (pairs, prim) = two_path_join_project_with_stats(&l, &r, config);
                    drop(step_span);
                    mats[left] = None;
                    mats[right] = None;
                    record_step(&mut step_stats[nsteps - 1], pairs.len(), &prim);
                    rows = emit_pairs(sink, pairs);
                    final_primitive = prim;
                    streamed = true;
                    break;
                }
            }
        }

        // Run the wavefront: serial when there is nothing to overlap,
        // otherwise as executor tasks reading the shared materialisation
        // table (results are written back on this thread afterwards).
        let ran: Vec<StepResult> = if ready.len() == 1 || threads <= 1 {
            ready
                .iter()
                .map(|&i| run_step(plan, i, &mats, config))
                .collect()
        } else {
            config
                .exec()
                .map(threads.min(ready.len()), ready.len(), |t| {
                    run_step(plan, ready[t], &mats, config)
                })
        };
        for (idx, result) in ready.into_iter().zip(ran) {
            for input in step_inputs(&plan.steps[idx]) {
                mats[input] = None;
            }
            record_step(
                &mut step_stats[idx],
                result.relation.len(),
                &result.primitive,
            );
            mats[result.node] = Some(Cow::Owned(result.relation));
            done[idx] = true;
            remaining -= 1;
        }
    }

    if !streamed {
        let (emitted, prim) = run_final_stage(plan, &mats, graph, config, sink)?;
        rows = emitted;
        final_primitive = prim;
    }

    // The final primitive's record, under the plan's own totals.
    let mut stats = final_primitive.unwrap_or_else(PlanStats::wcoj);
    stats.full_join = planned.full_join;
    stats.estimated_out = planned.estimated_out;
    let last = &mut step_stats[nsteps];
    last.actual_rows = Some(rows);
    last.decided_by(&stats);
    stats.steps = step_stats;
    Ok((rows, stats))
}

/// The node ids a step consumes.
fn step_inputs(step: &PlanStep) -> [usize; 2] {
    match *step {
        PlanStep::Semijoin { target, filter, .. } => [target, filter],
        PlanStep::Join { left, right, .. } => [left, right],
    }
}

/// A wavefront task's outcome: the materialised result relation for
/// `node`, plus the record of the primitive that produced it (joins).
struct StepResult {
    node: usize,
    relation: Relation,
    primitive: Option<PlanStats>,
}

/// Fills an executed step's record: the rows it produced and, for a join,
/// what its primitive chose.
fn record_step(stat: &mut StepStats, rows: usize, primitive: &Option<PlanStats>) {
    stat.actual_rows = Some(rows as u64);
    if let Some(primitive) = primitive {
        stat.decided_by(primitive);
    }
}

/// Executes one plan step against the current materialisation table
/// (read-only — the caller hands results back into the table). Runs
/// either inline or as an executor task; any internal parallelism of the
/// 2-path primitive shares the same executor.
fn run_step(
    plan: &GeneralPlan,
    idx: usize,
    mats: &[Option<Cow<'_, Relation>>],
    config: &JoinConfig,
) -> StepResult {
    let _step_span = trace::span_dyn(Stage::Step, || match plan.steps[idx] {
        PlanStep::Semijoin { on, .. } => format!("semijoin v{on}"),
        PlanStep::Join { on, .. } => format!("join v{on}"),
    });
    match plan.steps[idx] {
        PlanStep::Semijoin {
            target,
            filter,
            on,
            result,
        } => {
            let filter_rel = mats[filter].as_ref().expect("filter materialised");
            let target_rel = mats[target].as_ref().expect("target materialised");
            let filtered = semijoin(
                target_rel,
                plan.nodes[target].a == on,
                filter_rel,
                plan.nodes[filter].a == on,
            );
            StepResult {
                node: result,
                relation: filtered,
                primitive: None,
            }
        }
        PlanStep::Join {
            left,
            right,
            on,
            result,
            ..
        } => {
            let (l, r) = join_operands(plan, mats, left, right, on);
            let (relation, primitive) = two_path_relation_with_stats(&l, &r, config);
            StepResult {
                node: result,
                relation,
                primitive,
            }
        }
    }
}

fn run_final_stage(
    plan: &GeneralPlan,
    mats: &[Option<Cow<'_, Relation>>],
    graph: &QueryGraph<'_>,
    config: &JoinConfig,
    sink: &mut dyn Sink,
) -> Result<(u64, Option<PlanStats>), EngineError> {
    match &plan.final_stage {
        FinalStage::Project { node, cols } => {
            let _span = trace::span(Stage::Step, "project (final)");
            let rel = mats[*node].as_ref().expect("final node materialised");
            Ok((project_stream(rel, *cols, sink), None))
        }
        FinalStage::Star { center, legs } => {
            let _span = trace::span_dyn(Stage::Step, || format!("star v{center} (final)"));
            let oriented_legs: Vec<Cow<'_, Relation>> = legs
                .iter()
                .map(|&id| {
                    oriented(
                        mats[id].as_ref().expect("leg materialised"),
                        plan.nodes[id].b == *center,
                    )
                })
                .collect();
            let (flat, prim) = star_join_project_mm_flat(&oriented_legs, config);
            let rows = emit_flat(sink, graph.output_arity(), flat);
            Ok((rows, prim))
        }
    }
}

/// A join step's two materialised inputs, each with the join variable `on`
/// in its `y` column ([`oriented`]).
fn join_operands<'a>(
    plan: &GeneralPlan,
    mats: &'a [Option<Cow<'_, Relation>>],
    left: usize,
    right: usize,
    on: Var,
) -> (Cow<'a, Relation>, Cow<'a, Relation>) {
    let operand = |node: usize| {
        let rel = mats[node].as_ref().expect("join input materialised");
        oriented(rel, plan.nodes[node].b == on)
    };
    (operand(left), operand(right))
}

/// `rel` with the join variable in the `y` column: itself when it already
/// is (`on_is_y`), otherwise its transpose, which shares `rel`'s indexes.
fn oriented(rel: &Relation, on_is_y: bool) -> Cow<'_, Relation> {
    if on_is_y {
        Cow::Borrowed(rel)
    } else {
        Cow::Owned(rel.transposed())
    }
}

/// `target ⋉ filter` on the named columns: keeps target tuples whose
/// join-column value has at least one occurrence in the filter.
fn semijoin(
    target: &Relation,
    target_on_x: bool,
    filter: &Relation,
    filter_on_x: bool,
) -> Relation {
    let occurs = |v: Value| -> bool {
        if filter_on_x {
            (v as usize) < filter.x_domain() && filter.x_degree(v) > 0
        } else {
            (v as usize) < filter.y_domain() && filter.y_degree(v) > 0
        }
    };
    let kept = target
        .tuples()
        .filter(|&(x, y)| occurs(if target_on_x { x } else { y }));
    Relation::from_sorted_edges(target.x_domain(), target.y_domain(), kept.collect())
}

/// Emits a column selection of `rel` into `sink` in sorted output order,
/// as one buffer filled at its exact size.
fn project_stream(rel: &Relation, cols: ProjCols, sink: &mut dyn Sink) -> u64 {
    let heads = |index: &CsrIndex| index.iter_nonempty().map(|(v, _)| v).collect();
    fn pairs(len: usize, rows: impl Iterator<Item = [Value; 2]>) -> Vec<Value> {
        let mut flat = Vec::with_capacity(2 * len);
        rows.for_each(|row| flat.extend(row));
        flat
    }
    let (arity, flat): (usize, Vec<Value>) = match cols {
        ProjCols::Ab => (2, pairs(rel.len(), rel.tuples().map(|(a, b)| [a, b]))),
        // Sorted by (b, a): walk the inverted index.
        ProjCols::Ba => {
            let by_b = rel.by_y().iter_nonempty();
            let rows = by_b.flat_map(|(b, xs)| xs.iter().map(move |&a| [b, a]));
            (2, pairs(rel.len(), rows))
        }
        ProjCols::A => (1, heads(rel.by_x())),
        ProjCols::B => (1, heads(rel.by_y())),
    };
    emit_flat(sink, arity, flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_api::ir::Atom;
    use mmjoin_api::{LimitSink, PlanKind, VecSink};

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    /// Reference: brute-force evaluation by backtracking over atoms.
    fn naive(graph: &QueryGraph<'_>) -> Vec<Vec<Value>> {
        let mut atoms: Vec<&Atom> = graph.atoms().iter().collect();
        // Reorder atoms so each one shares a variable with the prefix.
        let mut ordered: Vec<&Atom> = vec![atoms.remove(0)];
        while !atoms.is_empty() {
            let pos = atoms
                .iter()
                .position(|a| {
                    ordered
                        .iter()
                        .any(|o| [o.x, o.y].contains(&a.x) || [o.x, o.y].contains(&a.y))
                })
                .expect("connected graph");
            ordered.push(atoms.remove(pos));
        }
        let mut bindings: std::collections::BTreeMap<u32, Value> = Default::default();
        let mut out: std::collections::BTreeSet<Vec<Value>> = Default::default();
        fn go(
            ordered: &[&Atom],
            i: usize,
            bindings: &mut std::collections::BTreeMap<u32, Value>,
            projection: &[u32],
            out: &mut std::collections::BTreeSet<Vec<Value>>,
        ) {
            if i == ordered.len() {
                out.insert(projection.iter().map(|v| bindings[v]).collect());
                return;
            }
            let a = ordered[i];
            let (bx, by) = (bindings.get(&a.x).copied(), bindings.get(&a.y).copied());
            match (bx, by) {
                (Some(x), Some(y)) => {
                    if (x as usize) < a.relation.x_domain() && a.relation.contains(x, y) {
                        go(ordered, i + 1, bindings, projection, out);
                    }
                }
                (Some(x), None) => {
                    if (x as usize) < a.relation.x_domain() {
                        for &y in a.relation.ys_of(x) {
                            bindings.insert(a.y, y);
                            go(ordered, i + 1, bindings, projection, out);
                        }
                        bindings.remove(&a.y);
                    }
                }
                (None, Some(y)) => {
                    if (y as usize) < a.relation.y_domain() {
                        for &x in a.relation.xs_of(y) {
                            bindings.insert(a.x, x);
                            go(ordered, i + 1, bindings, projection, out);
                        }
                        bindings.remove(&a.x);
                    }
                }
                (None, None) => {
                    for &(x, y) in a.relation.edges() {
                        bindings.insert(a.x, x);
                        bindings.insert(a.y, y);
                        go(ordered, i + 1, bindings, projection, out);
                    }
                    bindings.remove(&a.x);
                    bindings.remove(&a.y);
                }
            }
        }
        go(&ordered, 0, &mut bindings, graph.projection(), &mut out);
        out.into_iter().collect()
    }

    fn run(graph: &QueryGraph<'_>) -> Vec<Vec<Value>> {
        let mut sink = VecSink::new();
        execute_general(graph, &JoinConfig::default(), &mut sink).unwrap();
        sink.rows.to_rows()
    }

    #[test]
    fn chain_matches_naive_reference() {
        let rels = vec![
            rel(&[(0, 0), (1, 0), (2, 1), (3, 2)]),
            rel(&[(0, 5), (1, 5), (2, 6)]),
            rel(&[(5, 9), (6, 8), (6, 9)]),
        ];
        let graph = QueryGraph::chain(&rels).unwrap();
        assert_eq!(run(&graph), naive(&graph));
    }

    #[test]
    fn chains_match_naive_in_every_orientation_of_their_middle_atoms() {
        // A middle atom written `R(v_i, v_{i+1})` joins its predecessor on
        // its `x` column, written `R(v_{i+1}, v_i)` on its `y` column: a
        // step reads the relation's transpose, the relation, or one of each.
        let rels: Vec<Relation> = (0..4u32)
            .map(|r| {
                Relation::from_edges((0..70u32).map(|i| ((i * (7 + r)) % 13, (i * (5 + r)) % 11)))
            })
            .collect();
        for hops in [3u32, 4] {
            for flips in 0..1u32 << (hops - 2) {
                let atoms = (0..hops).map(|i| {
                    let flipped = i > 0 && i + 1 < hops && flips >> (i - 1) & 1 == 1;
                    let (x, y) = if flipped { (i + 1, i) } else { (i, i + 1) };
                    let relation = &rels[i as usize];
                    Atom { relation, x, y }
                });
                let graph = QueryGraph::new(atoms.collect(), vec![0, hops]).unwrap();
                let expected = naive(&graph);
                assert!(!expected.is_empty());
                assert_eq!(run(&graph), expected, "{hops} hops, flips {flips:#b}");
                // A second run transposes afresh and agrees.
                assert_eq!(
                    run(&graph),
                    expected,
                    "{hops} hops, flips {flips:#b}, again"
                );
            }
        }
    }

    #[test]
    fn two_path_constructor_matches_primitive() {
        let r = rel(&[(0, 0), (1, 0), (2, 1), (2, 0), (3, 1)]);
        let s = rel(&[(5, 0), (6, 1), (7, 0)]);
        let graph = QueryGraph::two_path(&r, &s);
        let expected: Vec<Vec<Value>> =
            crate::two_path::two_path_join_project(&r, &s, &JoinConfig::default())
                .into_iter()
                .map(|(a, b)| vec![a, b])
                .collect();
        assert_eq!(run(&graph), expected);
        assert_eq!(run(&graph), naive(&graph));
    }

    #[test]
    fn star_constructor_matches_primitive() {
        let rels = vec![
            rel(&[(0, 0), (1, 0), (2, 1)]),
            rel(&[(5, 0), (6, 1)]),
            rel(&[(8, 0), (9, 0), (9, 1)]),
        ];
        let graph = QueryGraph::star(&rels).unwrap();
        let expected = crate::star::star_join_project_mm(&rels, &JoinConfig::default());
        assert_eq!(run(&graph), expected);
        assert_eq!(run(&graph), naive(&graph));
    }

    #[test]
    fn snowflake_matches_naive_reference() {
        // Two rays of length 2 plus one direct leg around centre 9.
        let edge = rel(&[(0, 0), (1, 0), (1, 1), (2, 1), (0, 2)]);
        let atom = |x, y| Atom {
            relation: &edge,
            x,
            y,
        };
        let graph = QueryGraph::new(
            vec![atom(0, 4), atom(4, 9), atom(1, 5), atom(5, 9), atom(2, 9)],
            vec![0, 1, 2],
        )
        .unwrap();
        assert_eq!(run(&graph), naive(&graph));
    }

    #[test]
    fn pendant_and_single_column_projection() {
        // Q(z) :- R(x, y), S(z, y), T(z, w): one pendant, arity-1 output.
        let r = rel(&[(0, 0), (1, 1)]);
        let s = rel(&[(5, 0), (6, 1), (7, 3)]);
        let t = rel(&[(5, 2), (7, 0)]);
        let atom = |relation, x, y| Atom { relation, x, y };
        let graph = QueryGraph::new(
            vec![atom(&r, 0, 1), atom(&s, 2, 1), atom(&t, 2, 3)],
            vec![2],
        )
        .unwrap();
        assert_eq!(run(&graph), naive(&graph));
        assert_eq!(run(&graph), vec![vec![5]]);
    }

    #[test]
    fn limit_sink_stops_final_stream() {
        let rels = vec![
            rel(&(0..10).map(|i| (i, 0)).collect::<Vec<_>>()),
            rel(&(0..10).map(|i| (i, 0)).collect::<Vec<_>>()),
            rel(&(0..10).map(|i| (i, 0)).collect::<Vec<_>>()),
        ];
        let graph = QueryGraph::chain(&rels).unwrap();
        let mut sink = LimitSink::new(VecSink::new(), 7);
        let (rows, _) = execute_general(&graph, &JoinConfig::default(), &mut sink).unwrap();
        assert_eq!(rows, 7);
        assert!(sink.limit_reached());
    }

    #[test]
    fn parallel_wavefronts_match_serial() {
        use mmjoin_executor::Executor;
        use std::sync::Arc;
        // A 5-chain over skewed relations: the contraction tree contains
        // independent joins that execute in the same wavefront.
        let rels: Vec<Relation> = (0..5u32)
            .map(|r| {
                Relation::from_edges(
                    (0..300u32).map(move |i| ((i * (7 + r)) % 40, (i * (13 + r)) % 30)),
                )
            })
            .collect();
        let graph = QueryGraph::chain(&rels).unwrap();
        let mut serial_sink = VecSink::new();
        let (serial_rows, serial_stats) =
            execute_general(&graph, &JoinConfig::default(), &mut serial_sink).unwrap();
        for threads in [2usize, 4, 8] {
            let cfg = JoinConfig {
                threads,
                executor: Some(Arc::new(Executor::new(4))),
                ..JoinConfig::default()
            };
            let mut sink = VecSink::new();
            let (rows, stats) = execute_general(&graph, &cfg, &mut sink).unwrap();
            assert_eq!(rows, serial_rows, "threads={threads}");
            assert_eq!(sink.rows, serial_sink.rows, "threads={threads}");
            // Stats stay in plan order with identical per-step rows.
            let actuals = |s: &PlanStats| s.steps.iter().map(|t| t.actual_rows).collect::<Vec<_>>();
            assert_eq!(actuals(&stats), actuals(&serial_stats), "threads={threads}");
        }
    }

    #[test]
    fn stats_report_per_step_records() {
        let rels = vec![
            rel(&[(0, 0), (1, 0)]),
            rel(&[(0, 1), (1, 0)]),
            rel(&[(0, 0), (1, 1)]),
            rel(&[(1, 0), (0, 1)]),
        ];
        let graph = QueryGraph::chain(&rels).unwrap();
        let mut sink = VecSink::new();
        let (_, stats) = execute_general(&graph, &JoinConfig::default(), &mut sink).unwrap();
        assert_eq!(stats.steps.len(), 4, "3 joins + final project");
        assert!(stats.steps[..3].iter().all(|s| s.op == "join"));
        assert_eq!(stats.steps[3].op, "project");
        assert!(stats.steps.iter().all(|s| s.actual_rows.is_some()));
    }

    /// Runs `graph`'s plan one step at a time in plan order, its last join
    /// streamed when [`execute_composed`] would stream it, and returns the
    /// answer with a clone of every intermediate: a clone shares its
    /// relation's indexes, so it shows which of them the later steps built.
    fn run_keeping_intermediates(
        graph: &QueryGraph<'_>,
        config: &JoinConfig,
    ) -> (Vec<Vec<Value>>, Vec<Relation>) {
        let plan = plan_general(graph).unwrap();
        let mut mats: Vec<Option<Cow<'_, Relation>>> = vec![None; plan.nodes.len()];
        for (i, atom) in graph.atoms().iter().enumerate() {
            mats[i] = Some(Cow::Borrowed(atom.relation));
        }
        let mut kept = Vec::new();
        for idx in 0..plan.steps.len() {
            if let (
                &PlanStep::Join {
                    left,
                    right,
                    on,
                    result,
                    ..
                },
                true,
            ) = (&plan.steps[idx], idx + 1 == plan.steps.len())
            {
                if matches!(
                    plan.final_stage,
                    FinalStage::Project { node, cols: ProjCols::Ab } if node == result
                ) {
                    let (l, r) = join_operands(&plan, &mats, left, right, on);
                    let (pairs, _) = two_path_join_project_with_stats(&l, &r, config);
                    return (pairs.into_iter().map(|(a, b)| vec![a, b]).collect(), kept);
                }
            }
            let step = run_step(&plan, idx, &mats, config);
            kept.push(step.relation.clone());
            mats[step.node] = Some(Cow::Owned(step.relation));
        }
        let mut sink = VecSink::new();
        run_final_stage(&plan, &mats, graph, config, &mut sink).unwrap();
        (sink.rows.to_rows(), kept)
    }

    /// `r`'s tuples through [`Relation::from_sorted_edges`]: both indexes
    /// built whole, the reference a written intermediate must equal.
    fn rebuilt(r: &Relation) -> Relation {
        Relation::from_sorted_edges(r.x_domain(), r.y_domain(), r.tuples().collect())
    }

    #[test]
    fn a_light_chain_leaves_its_intermediates_y_index_unbuilt() {
        // Two `y`s per `x` over 1 009 ids: every step expands, and the last
        // one streams, reading the intermediate's `x` rows and `y` degrees.
        let rels: Vec<Relation> = (0..3u32)
            .map(|r| {
                let row =
                    move |i: u32| [(i, i * (3 + r) % 1009), (i, (i * (5 + 2 * r) + 1) % 1009)];
                Relation::from_edges((0..1000u32).flat_map(row))
            })
            .collect();
        let graph = QueryGraph::chain(&rels).unwrap();
        let mut sink = VecSink::new();
        let (_, stats) = execute_general(&graph, &JoinConfig::default(), &mut sink).unwrap();
        assert!(stats.steps.iter().all(|s| s.kind == Some(PlanKind::Wcoj)));
        let (rows, kept) = run_keeping_intermediates(&graph, &JoinConfig::default());
        assert_eq!(rows, naive(&graph));
        assert_eq!(sink.rows.to_rows(), rows);
        let [step] = &kept[..] else {
            panic!("one intermediate, then the streamed step");
        };
        assert_eq!(step.indexes_built(), (true, false));
        // Unbuilt, the `y` index holds its offsets and no neighbor list.
        assert_eq!(
            step.heap_bytes() + 4 * step.len(),
            rebuilt(step).heap_bytes()
        );
    }

    #[test]
    fn a_chain_step_reading_an_intermediate_on_its_y_column_builds_that_index() {
        // `R0(v0, v1) R1(v2, v1) R2(v3, v2) R3(v3, v4)`: the first step
        // joins `R2` and `R3` on `v3`, the second reads that answer's `v2`
        // column — its `y` index, which the second step builds.
        let rels: Vec<Relation> = (0..4u32)
            .map(|r| {
                Relation::from_edges((0..70u32).map(|i| ((i * (7 + r)) % 13, (i * (5 + r)) % 11)))
            })
            .collect();
        let atom = |i: usize, x, y| Atom {
            relation: &rels[i],
            x,
            y,
        };
        let atoms = vec![atom(0, 0, 1), atom(1, 2, 1), atom(2, 3, 2), atom(3, 3, 4)];
        let graph = QueryGraph::new(atoms, vec![0, 4]).unwrap();
        let plan = plan_general(&graph).unwrap();
        let PlanStep::Join { result, .. } = plan.steps[0] else {
            panic!("a chain's steps join");
        };
        assert!(
            matches!(plan.steps[1], PlanStep::Join { left, right, .. } if result == left || result == right)
        );
        let (rows, kept) = run_keeping_intermediates(&graph, &JoinConfig::default());
        assert_eq!(rows, naive(&graph));
        assert_eq!(run(&graph), rows);
        assert_eq!(kept[0].indexes_built(), (true, true));
        let reference = rebuilt(&kept[0]);
        assert_eq!(kept[0].by_y(), reference.by_y());
        // The built index holds a copy of the offsets the degrees read.
        let copy = 4 * (kept[0].y_domain() + 1);
        assert_eq!(kept[0].heap_bytes(), reference.heap_bytes() + copy);
    }

    #[test]
    fn a_chain_whose_steps_multiply_writes_each_product_as_rows() {
        // Four dense 16 × 16 blocks on the diagonal, one id in five missing:
        // both joins of the 3-hop chain take the bit core, so both
        // intermediates are products written as rows.
        let rels: Vec<Relation> = (0..3u32)
            .map(|r| {
                let cells = (0..64u32).flat_map(|x| (0..64u32).map(move |y| (x, y)));
                Relation::from_edges(
                    cells.filter(|&(x, y)| x / 16 == y / 16 && (x * 7 + y * 3 + r) % 5 != 0),
                )
            })
            .collect();
        let graph = QueryGraph::chain(&rels).unwrap();
        let mut sink = VecSink::new();
        let (_, stats) = execute_general(&graph, &JoinConfig::default(), &mut sink).unwrap();
        let joins = &stats.steps[..2];
        assert!(joins
            .iter()
            .all(|s| s.kind == Some(PlanKind::MatrixPartitioned)));
        let expected = naive(&graph);
        assert_eq!(sink.rows.to_rows(), expected);
        let (rows, kept) = run_keeping_intermediates(&graph, &JoinConfig::default());
        assert_eq!(rows, expected);
        for step in &kept {
            let reference = rebuilt(step);
            assert_eq!(step.by_x(), reference.by_x());
            assert_eq!(step.by_y(), reference.by_y());
        }
    }
}
