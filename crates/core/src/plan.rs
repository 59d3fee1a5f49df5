//! The decomposing planner: lowers a [`QueryGraph`] into a DAG of
//! 2-path join-project steps, semijoin reductions, and (optionally) one
//! final star step — the paper's general framework for acyclic
//! join-project queries built from the two specials.
//!
//! # Decomposition rules
//!
//! The query graph is a tree over variables. The planner repeatedly
//! shrinks it:
//!
//! 1. **Pendant absorption** (semijoin): a non-projected leaf variable
//!    `v` with single atom `A(v, u)` only constrains `u` to values that
//!    occur in `A`; one neighbouring atom at `u` is semijoin-filtered
//!    and `A` dropped.
//! 2. **Interior contraction** (2-path step): a non-projected variable
//!    `j` of degree 2 with atoms `A(u, j)`, `B(j, w)` is eliminated by
//!    materialising `T(u, w) = π_{u,w}(A ⋈ B)` with the 2-path
//!    primitive. When several variables are contractible, the one whose
//!    step has the smallest §5 output-size estimate goes first.
//! 3. **Final stage**: the residue is either a single node — streamed
//!    out as a projection — or a star around one non-projected centre
//!    whose legs are exactly the projected variables, evaluated by the
//!    star primitive.
//!
//! Because intermediates are binary [`Relation`]s, queries that would
//! need a wider intermediate (a projected interior variable, or two
//! non-adjacent high-degree centres) are rejected with
//! [`PlanError::Unsupported`]. Chains, stars, snowflakes (stars of
//! chains) and any tree whose projected variables are leaves with at
//! most one branching centre all plan.

use crate::estimate::estimate_from_parts;
use mmjoin_api::ir::{QueryGraph, Var};
use mmjoin_api::QueryError;
use mmjoin_storage::Relation;
use std::collections::BTreeMap;
use std::fmt;

/// Index into [`GeneralPlan::nodes`].
pub type NodeId = usize;

pub use mmjoin_api::NodeSource;

/// Propagated size statistics for a plan node, used to order
/// eliminations. Exact for atoms, §5-estimated for step outputs.
#[derive(Debug, Clone, Copy)]
pub struct NodeEst {
    /// (Estimated) tuple count.
    pub tuples: u64,
    /// (Estimated) distinct values in the first column.
    pub distinct_a: u64,
    /// (Estimated) distinct values in the second column.
    pub distinct_b: u64,
    /// Whether the numbers are exact (true only for base atoms).
    pub exact: bool,
}

/// One binary intermediate of the composed plan: a relation over the
/// variable pair `(a, b)` — `a` bound to the relation's first column.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Variable bound to the relation's first column.
    pub a: Var,
    /// Variable bound to the relation's second column.
    pub b: Var,
    /// Where the relation comes from.
    pub source: NodeSource,
    /// Size statistics driving the elimination order.
    pub est: NodeEst,
}

impl PlanNode {
    /// The node's variable other than `v`.
    pub fn other_var(&self, v: Var) -> Var {
        if self.a == v {
            self.b
        } else {
            self.a
        }
    }

    /// Distinct-count estimate for the column bound to `v`.
    fn distinct_of(&self, v: Var) -> u64 {
        if self.a == v {
            self.est.distinct_a
        } else {
            self.est.distinct_b
        }
    }
}

/// The §5 size estimate attached to a contraction step.
#[derive(Debug, Clone, Copy)]
pub struct StepEstimate {
    /// (Estimated) full pre-projection join size of the step.
    pub full_join: u64,
    /// Estimated projected output rows.
    pub rows: u64,
    /// Whether the inputs were exact (both base atoms).
    pub exact: bool,
}

/// One materialising step of the composed plan.
#[derive(Debug, Clone)]
pub enum PlanStep {
    /// `result := target ⋉_on filter` — keep only `target` tuples whose
    /// `on` value occurs in `filter` (pendant absorption).
    Semijoin {
        /// Node being filtered.
        target: NodeId,
        /// Node supplying the value set (dropped afterwards).
        filter: NodeId,
        /// The shared variable.
        on: Var,
        /// The filtered result node.
        result: NodeId,
    },
    /// `result(u, w) := π_{u,w}(left ⋈_on right)` via the 2-path
    /// primitive (interior contraction).
    Join {
        /// Left input (its non-`on` variable becomes the result's `a`).
        left: NodeId,
        /// Right input (its non-`on` variable becomes the result's `b`).
        right: NodeId,
        /// The eliminated variable.
        on: Var,
        /// The materialised result node.
        result: NodeId,
        /// The §5 estimate that ranked this contraction.
        estimate: StepEstimate,
    },
}

/// Which columns of the final node feed the output, in output order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjCols {
    /// `(a, b)`.
    Ab,
    /// `(b, a)`.
    Ba,
    /// `(a)` only.
    A,
    /// `(b)` only.
    B,
}

/// How the final rows are produced and streamed into the sink.
#[derive(Debug, Clone)]
pub enum FinalStage {
    /// A single node remains; project its column(s).
    Project {
        /// The last live node.
        node: NodeId,
        /// Column selection/order.
        cols: ProjCols,
    },
    /// A star around `center` remains; run the star primitive over the
    /// legs (ordered by the projection list).
    Star {
        /// The shared non-projected centre variable.
        center: Var,
        /// One leg per output column, in projection order.
        legs: Vec<NodeId>,
    },
}

/// A complete composed plan for a general acyclic query.
#[derive(Debug, Clone)]
pub struct GeneralPlan {
    /// All nodes: one per atom, then one per materialising step.
    pub nodes: Vec<PlanNode>,
    /// Materialising steps, in execution order.
    pub steps: Vec<PlanStep>,
    /// The output-producing stage.
    pub final_stage: FinalStage,
    /// Estimated output rows of the whole query.
    pub estimated_rows: u64,
}

/// Why a (valid) query graph could not be lowered onto binary
/// intermediates.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The graph failed [`QueryGraph::validate`].
    Invalid(QueryError),
    /// The residual graph needs an intermediate of arity > 2.
    Unsupported(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Invalid(e) => write!(f, "invalid query graph: {e}"),
            PlanError::Unsupported(msg) => write!(f, "unsupported query shape: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<QueryError> for PlanError {
    fn from(e: QueryError) -> Self {
        PlanError::Invalid(e)
    }
}

/// Exact full-join size of `A ⋈_on B` over arbitrary atom orientations:
/// `Σ_v deg_A(v) · deg_B(v)` with each degree read from the index of the
/// column bound to `on`.
fn exact_full_join(a: &Relation, a_on_x: bool, b: &Relation, b_on_x: bool) -> u64 {
    let dom_of = |r: &Relation, on_x: bool| if on_x { r.x_domain() } else { r.y_domain() };
    let deg_of = |r: &Relation, on_x: bool, v: u32| {
        if on_x {
            r.x_degree(v)
        } else {
            r.y_degree(v)
        }
    };
    let dom = dom_of(a, a_on_x).min(dom_of(b, b_on_x));
    let mut total = 0u64;
    for v in 0..dom as u32 {
        total += deg_of(a, a_on_x, v) as u64 * deg_of(b, b_on_x, v) as u64;
    }
    total
}

/// §5 estimate for contracting `on` between two plan nodes. Exact
/// full-join when both inputs are materialised atoms; otherwise the
/// propagated approximation `|A|·|B| / max(d_A(on), d_B(on))`.
fn contraction_estimate(
    graph: &QueryGraph<'_>,
    left: &PlanNode,
    right: &PlanNode,
    on: Var,
) -> StepEstimate {
    let exact = left.est.exact && right.est.exact;
    let full_join = match (left.source, right.source) {
        (NodeSource::Atom(i), NodeSource::Atom(j)) if exact => {
            let (la, ra) = (&graph.atoms()[i], &graph.atoms()[j]);
            exact_full_join(la.relation, la.x == on, ra.relation, ra.x == on)
        }
        _ => {
            let shared = left.distinct_of(on).max(right.distinct_of(on)).max(1);
            left.est
                .tuples
                .saturating_mul(right.est.tuples)
                .checked_div(shared)
                .unwrap_or(0)
        }
    };
    let n = left.est.tuples.max(right.est.tuples).max(1);
    let keep_l = left.distinct_of(left.other_var(on));
    let keep_r = right.distinct_of(right.other_var(on));
    let est = estimate_from_parts(full_join, n, keep_l, keep_r);
    StepEstimate {
        full_join,
        rows: est.estimate,
        exact,
    }
}

/// Lowers a validated query graph into a [`GeneralPlan`].
pub fn plan_general(graph: &QueryGraph<'_>) -> Result<GeneralPlan, PlanError> {
    graph.validate()?;
    let projection = graph.projection();
    let projected = |v: Var| projection.contains(&v);

    let mut nodes: Vec<PlanNode> = graph
        .atoms()
        .iter()
        .enumerate()
        .map(|(i, atom)| PlanNode {
            a: atom.x,
            b: atom.y,
            source: NodeSource::Atom(i),
            est: NodeEst {
                tuples: atom.relation.len() as u64,
                distinct_a: atom.relation.active_x_count() as u64,
                distinct_b: atom.relation.active_y_count() as u64,
                exact: true,
            },
        })
        .collect();
    let mut steps: Vec<PlanStep> = Vec::new();
    let mut live: Vec<NodeId> = (0..nodes.len()).collect();

    loop {
        if live.len() == 1 {
            return finish_single(graph, nodes, steps, live[0]);
        }
        // Incidence of live nodes per variable, rebuilt per round (the
        // graph shrinks every round; sizes are tiny).
        let mut incidence: BTreeMap<Var, Vec<NodeId>> = BTreeMap::new();
        for &id in &live {
            incidence.entry(nodes[id].a).or_default().push(id);
            incidence.entry(nodes[id].b).or_default().push(id);
        }

        // Rule 1: absorb a pendant non-projected variable by semijoin.
        let pendant = incidence
            .iter()
            .find(|(&v, ids)| ids.len() == 1 && !projected(v));
        if let Some((&v, ids)) = pendant {
            let filter = ids[0];
            let on = nodes[filter].other_var(v);
            // Filter the smallest neighbouring node at `on`.
            let target = incidence[&on]
                .iter()
                .copied()
                .filter(|&id| id != filter)
                .min_by_key(|&id| nodes[id].tuples())
                .expect("connected tree: `on` has another incident node");
            let t = &nodes[target];
            let result = nodes.len();
            let result_node = PlanNode {
                a: t.a,
                b: t.b,
                source: NodeSource::Step(steps.len()),
                est: NodeEst {
                    exact: false,
                    ..t.est
                },
            };
            nodes.push(result_node);
            steps.push(PlanStep::Semijoin {
                target,
                filter,
                on,
                result,
            });
            live.retain(|&id| id != target && id != filter);
            live.push(result);
            continue;
        }

        // Rule 2: contract the cheapest non-projected degree-2 variable.
        let mut best: Option<(Var, NodeId, NodeId, StepEstimate)> = None;
        for (&v, ids) in &incidence {
            if ids.len() != 2 || projected(v) {
                continue;
            }
            let (l, r) = (ids[0], ids[1]);
            let est = contraction_estimate(graph, &nodes[l], &nodes[r], v);
            if best.is_none() || est.rows < best.as_ref().unwrap().3.rows {
                best = Some((v, l, r, est));
            }
        }
        if let Some((on, left, right, estimate)) = best {
            let result = nodes.len();
            let (keep_l, keep_r) = (nodes[left].other_var(on), nodes[right].other_var(on));
            let result_node = PlanNode {
                a: keep_l,
                b: keep_r,
                source: NodeSource::Step(steps.len()),
                est: NodeEst {
                    tuples: estimate.rows,
                    distinct_a: nodes[left].distinct_of(keep_l).min(estimate.rows),
                    distinct_b: nodes[right].distinct_of(keep_r).min(estimate.rows),
                    exact: false,
                },
            };
            nodes.push(result_node);
            steps.push(PlanStep::Join {
                left,
                right,
                on,
                result,
                estimate,
            });
            live.retain(|&id| id != left && id != right);
            live.push(result);
            continue;
        }

        // Rule 3: a final star around one non-projected centre.
        return finish_star(graph, nodes, steps, live, &incidence);
    }
}

fn finish_single(
    graph: &QueryGraph<'_>,
    nodes: Vec<PlanNode>,
    steps: Vec<PlanStep>,
    node: NodeId,
) -> Result<GeneralPlan, PlanError> {
    let n = &nodes[node];
    let cols = match *graph.projection() {
        [p, q] if p == n.a && q == n.b => ProjCols::Ab,
        [p, q] if p == n.b && q == n.a => ProjCols::Ba,
        [p] if p == n.a => ProjCols::A,
        [p] if p == n.b => ProjCols::B,
        _ => {
            return Err(PlanError::Unsupported(format!(
                "projection {:?} is not a column selection of the residual \
                 relation over variables ({}, {}) — a projected interior \
                 variable would need an intermediate of arity > 2",
                graph.projection(),
                n.a,
                n.b
            )))
        }
    };
    let estimated_rows = match cols {
        ProjCols::Ab | ProjCols::Ba => n.est.tuples,
        ProjCols::A => n.est.distinct_a,
        ProjCols::B => n.est.distinct_b,
    };
    Ok(GeneralPlan {
        nodes,
        steps,
        final_stage: FinalStage::Project { node, cols },
        estimated_rows,
    })
}

fn finish_star(
    graph: &QueryGraph<'_>,
    nodes: Vec<PlanNode>,
    steps: Vec<PlanStep>,
    live: Vec<NodeId>,
    incidence: &BTreeMap<Var, Vec<NodeId>>,
) -> Result<GeneralPlan, PlanError> {
    // The centre must be a non-projected variable shared by every live
    // node; pendant absorption and contraction have already removed every
    // other non-projected variable, so failing here means the shape needs
    // a wider intermediate.
    let projection = graph.projection();
    let center = incidence
        .iter()
        .find(|(&v, ids)| ids.len() == live.len() && !projection.contains(&v))
        .map(|(&v, _)| v);
    let Some(center) = center else {
        let interior: Vec<Var> = incidence
            .iter()
            .filter(|(&v, ids)| ids.len() >= 2 && projection.contains(&v))
            .map(|(&v, _)| v)
            .collect();
        let reason = if interior.is_empty() {
            "multiple branching centres".to_string()
        } else {
            format!("projected interior variable(s) {interior:?}")
        };
        return Err(PlanError::Unsupported(format!(
            "{reason} would need an intermediate of arity > 2"
        )));
    };
    if live.len() != projection.len() {
        return Err(PlanError::Unsupported(format!(
            "star residue has {} legs but the projection lists {} \
             variables",
            live.len(),
            projection.len()
        )));
    }
    let mut legs = Vec::with_capacity(projection.len());
    for &p in projection {
        let leg = live
            .iter()
            .copied()
            .find(|&id| nodes[id].other_var(center) == p);
        match leg {
            Some(id) => legs.push(id),
            None => {
                return Err(PlanError::Unsupported(format!(
                    "projected variable {p} is not a leg of the residual \
                     star around variable {center}"
                )))
            }
        }
    }
    // Star output estimate: geometric mean of the largest leg head count
    // (lower bound) and the product of head counts (upper bound).
    let heads: Vec<u64> = legs
        .iter()
        .map(|&id| nodes[id].distinct_of(nodes[id].other_var(center)).max(1))
        .collect();
    let lower = heads.iter().copied().max().unwrap_or(1);
    let upper = heads
        .iter()
        .copied()
        .fold(1u64, |acc, h| acc.saturating_mul(h));
    let estimated_rows =
        (((lower as f64) * (upper as f64)).sqrt().round() as u64).clamp(lower, upper);
    Ok(GeneralPlan {
        nodes,
        steps,
        final_stage: FinalStage::Star { center, legs },
        estimated_rows,
    })
}

impl PlanNode {
    fn tuples(&self) -> u64 {
        self.est.tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_api::ir::Atom;

    fn rel(edges: &[(u32, u32)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    #[test]
    fn two_path_plans_to_one_join() {
        let r = rel(&[(0, 0), (1, 0)]);
        let graph = QueryGraph::two_path(&r, &r);
        let plan = plan_general(&graph).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert!(matches!(plan.steps[0], PlanStep::Join { on: 1, .. }));
        assert!(matches!(
            plan.final_stage,
            FinalStage::Project {
                cols: ProjCols::Ab,
                ..
            }
        ));
    }

    #[test]
    fn chain_contracts_interior_vars() {
        let rels = vec![
            rel(&[(0, 0), (1, 1)]),
            rel(&[(0, 0), (1, 1)]),
            rel(&[(0, 0), (1, 1)]),
            rel(&[(0, 0), (1, 1)]),
        ];
        let graph = QueryGraph::chain(&rels).unwrap();
        let plan = plan_general(&graph).unwrap();
        assert_eq!(plan.steps.len(), 3, "3 interior variables contracted");
        assert!(plan
            .steps
            .iter()
            .all(|s| matches!(s, PlanStep::Join { .. })));
    }

    #[test]
    fn star_keeps_final_star_stage() {
        let rels = vec![rel(&[(0, 0)]), rel(&[(1, 0)]), rel(&[(2, 0)])];
        let graph = QueryGraph::star(&rels).unwrap();
        let plan = plan_general(&graph).unwrap();
        assert!(plan.steps.is_empty());
        match &plan.final_stage {
            FinalStage::Star { center, legs } => {
                assert_eq!(*center, 3);
                assert_eq!(legs.len(), 3);
            }
            other => panic!("expected star stage, got {other:?}"),
        }
    }

    #[test]
    fn pendant_atom_becomes_semijoin() {
        // Q(x, z) :- R(x, y), S(z, y), T(z, w): w is a non-projected leaf.
        let r = rel(&[(0, 0), (1, 0)]);
        let atom = |relation, x, y| Atom { relation, x, y };
        let graph = QueryGraph::new(
            vec![atom(&r, 0, 1), atom(&r, 2, 1), atom(&r, 2, 3)],
            vec![0, 2],
        )
        .unwrap();
        let plan = plan_general(&graph).unwrap();
        assert!(matches!(plan.steps[0], PlanStep::Semijoin { on: 2, .. }));
        assert!(matches!(plan.steps[1], PlanStep::Join { on: 1, .. }));
    }

    #[test]
    fn projected_interior_variable_rejected() {
        // Q(x, y, z) :- R(x, y), S(y, z): y is projected and interior.
        let r = rel(&[(0, 0)]);
        let atom = |x, y| Atom { relation: &r, x, y };
        let graph = QueryGraph::new(vec![atom(0, 1), atom(1, 2)], vec![0, 1, 2]).unwrap();
        let err = plan_general(&graph).unwrap_err();
        assert!(matches!(err, PlanError::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn double_star_rejected() {
        // Two degree-3 centres joined by an edge: needs arity-3 carrier.
        let r = rel(&[(0, 0)]);
        let atom = |x, y| Atom { relation: &r, x, y };
        let graph = QueryGraph::new(
            vec![atom(0, 6), atom(1, 6), atom(6, 7), atom(2, 7), atom(3, 7)],
            vec![0, 1, 2, 3],
        )
        .unwrap();
        let err = plan_general(&graph).unwrap_err();
        assert!(matches!(err, PlanError::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn snowflake_plans_rays_then_star() {
        // Three rays of length 2 around centre 9, projecting ray tips.
        let r = rel(&[(0, 0), (1, 0), (1, 1)]);
        let atom = |x, y| Atom { relation: &r, x, y };
        let graph = QueryGraph::new(
            vec![
                atom(0, 4),
                atom(4, 9),
                atom(1, 5),
                atom(5, 9),
                atom(2, 6),
                atom(6, 9),
            ],
            vec![0, 1, 2],
        )
        .unwrap();
        let plan = plan_general(&graph).unwrap();
        assert_eq!(plan.steps.len(), 3, "one contraction per ray");
        assert!(matches!(
            plan.final_stage,
            FinalStage::Star { center: 9, .. }
        ));
    }

    #[test]
    fn contraction_order_follows_estimates() {
        // Chain A–B–C where contracting var 2 (B⋈C, tiny) is cheaper
        // than var 1 (A⋈B, hub explosion).
        let hub: Vec<(u32, u32)> = (0..40).map(|i| (i, 0)).collect();
        let a = rel(&hub); // 40 sets sharing element 0
        let b = rel(&[(0, 0), (0, 1), (1, 2)]);
        let c = rel(&[(0, 0), (1, 1), (2, 5)]);
        let graph = QueryGraph::new(
            vec![
                Atom {
                    relation: &a,
                    x: 0,
                    y: 1,
                },
                Atom {
                    relation: &b,
                    x: 1,
                    y: 2,
                },
                Atom {
                    relation: &c,
                    x: 2,
                    y: 3,
                },
            ],
            vec![0, 3],
        )
        .unwrap();
        let plan = plan_general(&graph).unwrap();
        match &plan.steps[0] {
            PlanStep::Join { on, .. } => assert_eq!(*on, 2, "cheap contraction first"),
            other => panic!("expected join, got {other:?}"),
        }
    }
}
