//! Reference answers, computed without the engine under test: the serial
//! expand-and-dedup baseline for two-paths, the hash-dedup baseline for
//! stars, a frontier walk for chains, and a per-edge support-count model
//! that follows `update_churn` through its inserts and deletes.

use crate::workload::{Action, Kind, QueryDef, Workload};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_baseline::star::HashDedupStarEngine;
use mmjoin_storage::{Edge, Relation, Value};
use std::collections::{HashMap, HashSet};

/// Reference answers of one workload, by query index.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Distinct output rows (ignoring any `limit`) on the registered state.
    pub rows: Vec<u64>,
    /// The sorted output pairs, kept only for queries whose printed rows or
    /// final state are checked against them.
    pub pairs: Vec<Option<Vec<(Value, Value)>>>,
}

/// Distinct `(v0, vk)` of the chain `R1(v0,v1), R2(v1,v2), …`: walk the
/// frontier of reachable values out of every `v0`.
fn chain_rows(rels: &[&Relation]) -> u64 {
    let mut total = 0u64;
    for (_, ys) in rels[0].by_x().iter_nonempty() {
        let mut frontier: Vec<Value> = ys.to_vec();
        for r in &rels[1..] {
            let mut next = Vec::new();
            for &v in &frontier {
                if (v as usize) < r.x_domain() {
                    next.extend_from_slice(r.ys_of(v));
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        total += frontier.len() as u64;
    }
    total
}

fn answer(
    q: &QueryDef,
    relations: &[(String, Relation)],
    keep_pairs: bool,
) -> (u64, Option<Vec<(Value, Value)>>) {
    let rels: Vec<&Relation> = q.rels.iter().map(|&r| &relations[r].1).collect();
    match q.kind {
        Kind::TwoPath => {
            let pairs = ExpandDedupEngine::serial().join_project(rels[0], rels[1]);
            (pairs.len() as u64, keep_pairs.then_some(pairs))
        }
        Kind::Star => (
            HashDedupStarEngine.star_join_project(&rels).len() as u64,
            None,
        ),
        Kind::Chain => (chain_rows(&rels), None),
        Kind::Explain | Kind::Update => unreachable!("not a query family"),
    }
}

/// Support counts of one two-path `π_{x,z}(A(x,y) ⋈ B(z,y))`: every output
/// pair with its number of witnesses `y`. A pair is a row while its count is
/// positive, which is what makes deletes checkable.
#[derive(Debug, Default)]
struct Support {
    counts: HashMap<(Value, Value), u32>,
}

impl Support {
    fn bump(&mut self, pair: (Value, Value), insert: bool) {
        if insert {
            *self.counts.entry(pair).or_insert(0) += 1;
        } else {
            let c = self.counts.get_mut(&pair).expect("witness being removed");
            *c -= 1;
            if *c == 0 {
                self.counts.remove(&pair);
            }
        }
    }
}

/// Current `y → {x}` lists of every relation.
type State = Vec<HashMap<Value, HashSet<Value>>>;

/// Applies one edge of relation `rel` to the state and to every model whose
/// pair reads `rel`.
fn apply_edge(
    state: &mut State,
    models: &mut HashMap<(usize, usize), Support>,
    rel: usize,
    (x, y): Edge,
    insert: bool,
) {
    if !insert {
        state[rel].get_mut(&y).expect("edge present").remove(&x);
    }
    // `others` never holds the edge itself: it is added after, or was
    // removed before, the witnesses are counted.
    let none = HashSet::new();
    for (&(a, b), model) in models.iter_mut() {
        if a == rel {
            for &z in state[b].get(&y).unwrap_or(&none) {
                model.bump((x, z), insert);
            }
        }
        if b == rel {
            for &z in state[a].get(&y).unwrap_or(&none) {
                model.bump((z, x), insert);
            }
        }
        if a == rel && b == rel {
            model.bump((x, x), insert);
        }
    }
    if insert {
        state[rel].entry(y).or_default().insert(x);
    }
}

/// Computes every query's reference on the registered relations and writes
/// the expected `rows N` into each query operation. Scripts with updates are
/// replayed through the support-count model, so the expectation follows the
/// relation state operation by operation.
pub fn annotate(w: &mut Workload) -> Reference {
    let has_updates = w
        .scripts
        .iter()
        .flatten()
        .any(|op| matches!(op.action, Action::Update { .. }));
    let shown: HashSet<usize> = w
        .scripts
        .iter()
        .flatten()
        .filter_map(|op| match op.action {
            Action::Query {
                query,
                show: Some(_),
            } => Some(query),
            _ => None,
        })
        .collect();
    let mut rows = Vec::with_capacity(w.queries.len());
    let mut pairs = Vec::with_capacity(w.queries.len());
    // π_{x,z}(A ⋈ B) and π_{x,z}(B ⋈ A) are transposes of each other, so a
    // pair seen in the other order already has its row count.
    let mut two_path_rows: HashMap<(usize, usize), u64> = HashMap::new();
    for (i, q) in w.queries.iter().enumerate() {
        let keep_pairs = has_updates || shown.contains(&i);
        let mirrored = (q.kind == Kind::TwoPath && !keep_pairs)
            .then(|| two_path_rows.get(&(q.rels[1], q.rels[0])).copied())
            .flatten();
        let (n, p) = match mirrored {
            Some(n) => (n, None),
            None => answer(q, &w.relations, keep_pairs),
        };
        if q.kind == Kind::TwoPath {
            two_path_rows.insert((q.rels[0], q.rels[1]), n);
        }
        rows.push(n);
        pairs.push(p);
    }

    let capped = |q: &QueryDef, n: u64| q.limit.map_or(n, |l| l.min(n));
    if !has_updates {
        for op in w.scripts.iter_mut().flatten() {
            if let Action::Query { query, .. } = op.action {
                op.expect_rows = Some(capped(&w.queries[query], rows[query]));
            }
        }
        return Reference { rows, pairs };
    }

    let mut state: State = w
        .relations
        .iter()
        .map(|(_, r)| {
            let mut by_y: HashMap<Value, HashSet<Value>> = HashMap::new();
            for &(x, y) in r.edges() {
                by_y.entry(y).or_default().insert(x);
            }
            by_y
        })
        .collect();
    let mut models: HashMap<(usize, usize), Support> = HashMap::new();
    for q in &w.queries {
        assert_eq!(q.kind, Kind::TwoPath, "the update model covers two-paths");
        let (a, b) = (q.rels[0], q.rels[1]);
        models.entry((a, b)).or_insert_with(|| {
            let mut model = Support::default();
            for (y, xs) in &state[a] {
                for &x in xs {
                    for &z in state[b].get(y).into_iter().flatten() {
                        model.bump((x, z), true);
                    }
                }
            }
            model
        });
    }
    for (q, &n) in w.queries.iter().zip(&rows) {
        let live = models[&(q.rels[0], q.rels[1])].counts.len() as u64;
        assert_eq!(live, n, "support model disagrees with the baseline engine");
    }
    // Set-up primes with its own inserts and deletes, but those cancel out
    // before the first round; only the script moves the model.
    assert_eq!(w.scripts.len(), 1, "updates are replayed by one client");
    for op in &mut w.scripts[0] {
        match &op.action {
            Action::Update { rel, insert, edges } => {
                for &e in edges {
                    apply_edge(&mut state, &mut models, *rel, e, *insert);
                }
            }
            Action::Query { query, .. } => {
                let q = &w.queries[*query];
                let live = models[&(q.rels[0], q.rels[1])].counts.len() as u64;
                op.expect_rows = Some(capped(q, live));
            }
            Action::Explain { .. } => {}
        }
    }
    Reference { rows, pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build, Sizes};

    #[test]
    fn chain_walk_matches_composed_two_paths() {
        // R1(v0,v1) ⋈ R2(v1,v2) is the two-path of R1 with R2 transposed.
        let r1 = Relation::from_edges([(0, 0), (0, 1), (1, 1), (2, 5)]);
        let r2 = Relation::from_edges([(0, 3), (1, 3), (1, 4), (7, 0)]);
        let engine = ExpandDedupEngine::serial();
        let composed = engine.join_project(&r1, &r2.transposed());
        assert_eq!(chain_rows(&[&r1, &r2]), composed.len() as u64);
        assert_eq!(composed, vec![(0, 3), (0, 4), (1, 3), (1, 4)]);
    }

    #[test]
    fn support_model_tracks_inserts_and_deletes() {
        let mut w = build("update_churn", 2020, &Sizes::tiny()).unwrap();
        let reference = annotate(&mut w);
        assert_eq!(reference.rows.len(), w.queries.len());
        // Replaying the updates on real relations and asking the baseline
        // engine again must give what the model predicted.
        let mut live: Vec<HashSet<Edge>> = w
            .relations
            .iter()
            .map(|(_, r)| r.edges().iter().copied().collect())
            .collect();
        let mut checked = 0;
        for op in &w.scripts[0] {
            match &op.action {
                Action::Update { rel, insert, edges } => {
                    for e in edges {
                        if *insert {
                            live[*rel].insert(*e);
                        } else {
                            live[*rel].remove(e);
                        }
                    }
                }
                Action::Query { query, .. } => {
                    let q = &w.queries[*query];
                    let a = Relation::from_edges(live[q.rels[0]].iter().copied());
                    let b = Relation::from_edges(live[q.rels[1]].iter().copied());
                    let n = ExpandDedupEngine::serial().join_project(&a, &b).len() as u64;
                    assert_eq!(op.expect_rows, Some(q.limit.map_or(n, |l| l.min(n))));
                    checked += 1;
                }
                Action::Explain { .. } => {}
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn every_query_operation_gets_an_expectation() {
        let sizes = Sizes::tiny();
        for name in crate::workload::WORKLOADS {
            let mut w = build(name, 2020, &sizes).unwrap();
            let reference = annotate(&mut w);
            assert!(reference.rows.iter().any(|&n| n > 0), "{name}: all empty");
            for op in w.scripts.iter().flatten() {
                assert_eq!(
                    op.expect_rows.is_some(),
                    matches!(op.action, Action::Query { .. }),
                    "{name}: {}",
                    op.line
                );
            }
        }
    }
}
