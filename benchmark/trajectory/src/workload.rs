//! The four workloads: seeded relations plus the command scripts replayed
//! against the server. A script is a function of `(workload, seed, sizes)`
//! alone; reference answers are attached later by [`crate::reference`].

use crate::rng::{fnv1a, Rng, Zipf, FNV_OFFSET};
use mmjoin_datagen::{generate, generate_from_spec, generate_star, DatasetKind, DatasetSpec};
use mmjoin_storage::{Edge, Relation};
use std::collections::HashSet;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["heavy_cold", "light_cold", "warm_mix", "update_churn"];

/// Update batch sizes of `update_churn`, smallest to largest.
pub const BATCH_CLASSES: [usize; 4] = [1, 8, 64, 2048];

/// Rows printed by the `show` share of `warm_mix`.
pub const SHOW_ROWS: usize = 256;

/// What an operation is timed as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    TwoPath,
    Star,
    Chain,
    Explain,
    Update,
}

impl Kind {
    pub fn is_query(self) -> bool {
        matches!(self, Kind::TwoPath | Kind::Star | Kind::Chain)
    }
}

/// One distinct query of a workload, over relation indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryDef {
    pub kind: Kind,
    pub rels: Vec<usize>,
    pub limit: Option<u64>,
}

impl QueryDef {
    /// Everything after `query` / `explain` on the command line.
    pub fn text(&self, relations: &[(String, Relation)]) -> String {
        let family = match self.kind {
            Kind::TwoPath => "twopath",
            Kind::Star => "star",
            Kind::Chain => "chain",
            Kind::Explain | Kind::Update => unreachable!("not a query family"),
        };
        let mut out = family.to_string();
        for &r in &self.rels {
            out.push(' ');
            out.push_str(&relations[r].0);
        }
        if let Some(limit) = self.limit {
            out.push_str(&format!(" limit {limit}"));
        }
        out
    }
}

/// What an operation does, and therefore how its answer is checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    Query {
        query: usize,
        show: Option<usize>,
    },
    Explain {
        query: usize,
    },
    Update {
        rel: usize,
        insert: bool,
        edges: Vec<Edge>,
    },
}

/// One request of a script.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub line: String,
    pub action: Action,
    /// `rows N` the answer must carry; set by [`crate::reference::annotate`].
    pub expect_rows: Option<u64>,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub relations: Vec<(String, Relation)>,
    pub queries: Vec<QueryDef>,
    /// One script per closed-loop client; a round replays each once.
    pub scripts: Vec<Vec<Op>>,
    /// Every relation is registered again before each round, which moves its
    /// epoch and makes every cached result unreachable: all requests miss.
    pub cold: bool,
    /// Sent once at set-up, after registration (cache warming, priming).
    pub warmup: Vec<String>,
}

/// Everything the builder sized. `full()` is what `BENCHMARK.json` froze for
/// the 2-core reference host; `tiny()` keeps unit tests in milliseconds.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub heavy_sets_scale: f64,
    pub heavy_domain: usize,
    pub heavy_per_kind: usize,
    pub star_scale: f64,
    pub star_rels: usize,
    pub star_queries: usize,
    pub light_scale: f64,
    pub light_per_kind: usize,
    pub words_scale: f64,
    pub words_rels: usize,
    pub chain_middles: usize,
    pub chain_queries: usize,
    pub warm_dense_scale: f64,
    pub warm_sparse_scale: f64,
    pub warm_per_kind: usize,
    pub hot_set: usize,
    pub warm_ops_per_client: usize,
    pub churn_dense_scale: f64,
    pub churn_skewed_scale: f64,
    pub churn_pairs: usize,
    pub churn_reps: usize,
    pub churn_limit: u64,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            heavy_sets_scale: 0.08,
            heavy_domain: 4000,
            heavy_per_kind: 4,
            star_scale: 0.015,
            star_rels: 4,
            star_queries: 40,
            light_scale: 0.1,
            light_per_kind: 6,
            words_scale: 0.02,
            words_rels: 4,
            chain_middles: 4,
            chain_queries: 64,
            warm_dense_scale: 0.08,
            warm_sparse_scale: 0.05,
            warm_per_kind: 4,
            hot_set: 48,
            warm_ops_per_client: 4000,
            churn_dense_scale: 0.07,
            churn_skewed_scale: 0.03,
            churn_pairs: 4,
            churn_reps: 2,
            churn_limit: 1000,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Sizes {
            heavy_sets_scale: 0.02,
            heavy_domain: 64,
            heavy_per_kind: 1,
            star_scale: 0.01,
            star_rels: 3,
            star_queries: 4,
            light_scale: 0.005,
            light_per_kind: 1,
            words_scale: 0.005,
            words_rels: 1,
            chain_middles: 1,
            chain_queries: 3,
            warm_dense_scale: 0.01,
            warm_sparse_scale: 0.005,
            warm_per_kind: 1,
            hot_set: 6,
            warm_ops_per_client: 60,
            churn_dense_scale: 0.02,
            churn_skewed_scale: 0.01,
            churn_pairs: 1,
            churn_reps: 1,
            churn_limit: 5,
        }
    }
}

/// Builds `name` for `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, sizes: &Sizes) -> Option<Workload> {
    let rng = Rng::new(seed);
    match name {
        "heavy_cold" => Some(heavy_cold(&rng, sizes)),
        "light_cold" => Some(light_cold(&rng, sizes)),
        "warm_mix" => Some(warm_mix(&rng, sizes)),
        "update_churn" => Some(update_churn(&rng, sizes)),
        _ => None,
    }
}

/// A generator seed for one relation: data streams are numbered below 100,
/// script streams from 100 up, all forked off `--seed`.
fn sub_seed(rng: &Rng, stream: u64) -> u64 {
    rng.fork(stream).next_u64()
}

fn query_op(w: &[(String, Relation)], queries: &[QueryDef], query: usize) -> Op {
    Op {
        kind: queries[query].kind,
        line: format!("query {}", queries[query].text(w)),
        action: Action::Query { query, show: None },
        expect_rows: None,
    }
}

/// Every ordered pair (self pairs included) over `rels`.
fn all_pairs(rels: &[usize]) -> Vec<QueryDef> {
    let mut out = Vec::new();
    for &a in rels {
        for &b in rels {
            out.push(QueryDef {
                kind: Kind::TwoPath,
                rels: vec![a, b],
                limit: None,
            });
        }
    }
    out
}

/// A single client sends every distinct query once per round, in a seeded
/// order; the relations are registered again between rounds.
fn cold_workload(
    name: &'static str,
    relations: Vec<(String, Relation)>,
    queries: Vec<QueryDef>,
    rng: &Rng,
) -> Workload {
    let mut order: Vec<usize> = (0..queries.len()).collect();
    rng.fork(100).shuffle(&mut order);
    let script = order
        .into_iter()
        .map(|q| query_op(&relations, &queries, q))
        .collect();
    Workload {
        name,
        relations,
        queries,
        scripts: vec![script],
        cold: true,
        warmup: Vec::new(),
    }
}

/// A dense community profile reshaped to few sets over a wide element
/// domain shared by all three kinds: the output of a pair is (sets)² while
/// the heavy product costs (sets)² × (core elements), so the wider the domain
/// the more of a query is matrix work and the less is row handling. Set
/// sizes keep the profile's share of the domain.
fn dense_spec(kind: DatasetKind, sets_scale: f64, domain: usize) -> DatasetSpec {
    let base = DatasetSpec::scaled(kind, 1.0);
    let widen = domain as f64 / base.domain as f64;
    let wide = |v: usize| ((v as f64 * widen) as usize).max(1);
    DatasetSpec {
        num_sets: ((base.num_sets as f64 * sets_scale).round() as usize).max(2),
        domain,
        avg_set: wide(base.avg_set),
        min_set: wide(base.min_set),
        max_set: wide(base.max_set),
        ..base
    }
}

fn heavy_cold(rng: &Rng, s: &Sizes) -> Workload {
    let mut relations = Vec::new();
    let kinds = [DatasetKind::Jokes, DatasetKind::Protein, DatasetKind::Image];
    for (k, kind) in kinds.into_iter().enumerate() {
        for i in 0..s.heavy_per_kind {
            let stream = (k * s.heavy_per_kind + i) as u64;
            relations.push((
                format!("{}{i}", kind.name()),
                generate_from_spec(
                    &dense_spec(kind, s.heavy_sets_scale, s.heavy_domain),
                    sub_seed(rng, stream),
                ),
            ));
        }
    }
    let dense = relations.len();
    let mut queries = all_pairs(&(0..dense).collect::<Vec<_>>());
    // Star outputs are cubic in the set count, so the stars run on shrunk
    // instances over one shared element domain.
    for (i, r) in generate_star(
        DatasetKind::Jokes,
        s.star_scale,
        sub_seed(rng, 50),
        s.star_rels,
    )
    .into_iter()
    .enumerate()
    {
        relations.push((format!("Star{i}"), r));
    }
    let mut triples = Vec::new();
    for a in 0..s.star_rels {
        for b in 0..s.star_rels {
            for c in 0..s.star_rels {
                triples.push(vec![dense + a, dense + b, dense + c]);
            }
        }
    }
    rng.fork(101).shuffle(&mut triples);
    triples.truncate(s.star_queries);
    queries.extend(triples.into_iter().map(|rels| QueryDef {
        kind: Kind::Star,
        rels,
        limit: None,
    }));
    cold_workload("heavy_cold", relations, queries, rng)
}

fn light_cold(rng: &Rng, s: &Sizes) -> Workload {
    // Sparse (DBLP, RoadNet) relations, where the full join is a small
    // multiple of the input and the optimizer keeps to expansion, plus a few
    // small skewed Words relations: only Words-with-Words pairs, one in
    // sixteen, are dense enough for the matrix plan.
    let mut relations = Vec::new();
    let kinds = [
        (DatasetKind::Dblp, s.light_scale, s.light_per_kind),
        (DatasetKind::RoadNet, s.light_scale, s.light_per_kind),
        (DatasetKind::Words, s.words_scale, s.words_rels),
    ];
    let mut stream = 0;
    for (kind, scale, count) in kinds {
        for i in 0..count {
            relations.push((
                format!("{}{i}", kind.name()),
                generate(kind, scale, sub_seed(rng, stream)),
            ));
            stream += 1;
        }
    }
    let pool: Vec<usize> = (0..relations.len()).collect();
    let mut queries = all_pairs(&pool);

    // Chains set → element → set → element: the first hop is a DBLP relation,
    // the middle hop a fresh RoadNet relation transposed, the last hop a
    // RoadNet relation. Road degrees are at most four, so a chain's output
    // stays within a small multiple of its first hop; two DBLP hops in a row
    // would multiply prolific authors into millions of rows, and a mix of
    // DBLP-first and RoadNet-first chains would put the median between two
    // populations. (`generate_chain` builds its hops from Words, whose hubs
    // push every step over to the matrix plan — the opposite of what this
    // workload is for.)
    let sparse = 2 * s.light_per_kind;
    let middles: Vec<usize> = (0..s.chain_middles)
        .map(|i| {
            let r = generate(
                DatasetKind::RoadNet,
                s.light_scale,
                sub_seed(rng, 60 + i as u64),
            );
            relations.push((format!("RoadNet{i}T"), r.transposed()));
            relations.len() - 1
        })
        .collect();
    let mut chains = Vec::new();
    for first in 0..s.light_per_kind {
        for &middle in &middles {
            for last in s.light_per_kind..sparse {
                chains.push(vec![first, middle, last]);
            }
        }
    }
    rng.fork(104).shuffle(&mut chains);
    chains.truncate(s.chain_queries);
    queries.extend(chains.into_iter().map(|rels| QueryDef {
        kind: Kind::Chain,
        rels,
        limit: None,
    }));
    cold_workload("light_cold", relations, queries, rng)
}

fn warm_mix(rng: &Rng, s: &Sizes) -> Workload {
    let mut relations = Vec::new();
    let kinds = [
        (DatasetKind::Jokes, s.warm_dense_scale),
        (DatasetKind::Dblp, s.warm_sparse_scale),
        (DatasetKind::Words, s.warm_sparse_scale),
    ];
    for (k, (kind, scale)) in kinds.into_iter().enumerate() {
        for i in 0..s.warm_per_kind {
            let stream = (k * s.warm_per_kind + i) as u64;
            relations.push((
                format!("{}{i}", kind.name()),
                generate(kind, scale, sub_seed(rng, stream)),
            ));
        }
    }
    // The hot set takes the same number of pairs from each of the nine
    // (kind, kind) classes — result sizes differ by an order of magnitude
    // between classes, and an unlucky draw would otherwise decide the cache's
    // memory — then shuffles them into popularity order.
    let per_kind = s.warm_per_kind;
    let mut classes: Vec<Vec<QueryDef>> = vec![Vec::new(); 9];
    for q in all_pairs(&(0..relations.len()).collect::<Vec<_>>()) {
        classes[3 * (q.rels[0] / per_kind) + q.rels[1] / per_kind].push(q);
    }
    let mut pick = rng.fork(102);
    for class in &mut classes {
        pick.shuffle(class);
    }
    let mut queries = Vec::with_capacity(s.hot_set);
    'fill: for depth in 0.. {
        let before = queries.len();
        for class in &classes {
            if queries.len() == s.hot_set {
                break 'fill;
            }
            queries.extend(class.get(depth).cloned());
        }
        if queries.len() == before {
            break;
        }
    }
    pick.shuffle(&mut queries);

    let warmup = queries
        .iter()
        .map(|q| format!("query {}", q.text(&relations)))
        .collect();
    // Popularity rank k of the Zipf draw is hot-set entry k.
    let zipf = Zipf::new(queries.len(), 1.0);
    let scripts = (0..2u64)
        .map(|client| {
            let mut rng = rng.fork(200 + client);
            (0..s.warm_ops_per_client)
                .map(|_| {
                    let query = zipf.sample(&mut rng);
                    let text = queries[query].text(&relations);
                    let roll = rng.below(100);
                    if roll < 70 {
                        query_op(&relations, &queries, query)
                    } else if roll < 98 {
                        Op {
                            kind: queries[query].kind,
                            line: format!("query {text} show {SHOW_ROWS}"),
                            action: Action::Query {
                                query,
                                show: Some(SHOW_ROWS),
                            },
                            expect_rows: None,
                        }
                    } else {
                        Op {
                            kind: Kind::Explain,
                            line: format!("explain {text}"),
                            action: Action::Explain { query },
                            expect_rows: None,
                        }
                    }
                })
                .collect()
        })
        .collect();
    Workload {
        name: "warm_mix",
        relations,
        queries,
        scripts,
        cold: false,
        warmup,
    }
}

/// Draws `n` edges for one toggle batch: all absent from `rel` (inserted
/// first, deleted later) or all present (deleted first, inserted back), and
/// disjoint from every earlier batch through `used`.
fn draw_batch(
    rel: &Relation,
    n: usize,
    absent: bool,
    used: &mut HashSet<Edge>,
    rng: &mut Rng,
) -> Vec<Edge> {
    // Deleting never takes more than a quarter of a relation, and a relation
    // too small for the batch gives a shorter one, never a spin.
    let n = if absent { n } else { n.min(rel.len() / 4) };
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n * 20 {
        if edges.len() == n {
            break;
        }
        let e = if absent {
            (
                rng.below(rel.x_domain()) as u32,
                rng.below(rel.y_domain()) as u32,
            )
        } else {
            rel.edges()[rng.below(rel.len())]
        };
        if rel.contains(e.0, e.1) != absent && used.insert(e) {
            edges.push(e);
        }
    }
    edges
}

fn update_line(name: &str, insert: bool, edges: &[Edge]) -> String {
    let mut line = format!("{} {name}", if insert { "insert" } else { "delete" });
    for (x, y) in edges {
        line.push_str(&format!(" {x},{y}"));
    }
    line
}

fn update_churn(rng: &Rng, s: &Sizes) -> Workload {
    // Relations come in pairs (dense, skewed); each pair carries four cached
    // results — AA, BB, AB and a limited AB — so every relation is read by
    // exactly three. The limited one cannot be maintained and is dropped by
    // every update, which keeps the invalidate path in the mix.
    let mut relations = Vec::new();
    let mut queries = Vec::new();
    for p in 0..s.churn_pairs {
        let dense_kind = if p % 2 == 0 {
            DatasetKind::Jokes
        } else {
            DatasetKind::Image
        };
        let a = relations.len();
        relations.push((
            format!("Dense{p}"),
            generate(dense_kind, s.churn_dense_scale, sub_seed(rng, 2 * p as u64)),
        ));
        relations.push((
            format!("Skewed{p}"),
            generate(
                DatasetKind::Words,
                s.churn_skewed_scale,
                sub_seed(rng, 2 * p as u64 + 1),
            ),
        ));
        for (rels, limit) in [
            (vec![a, a], None),
            (vec![a + 1, a + 1], None),
            (vec![a, a + 1], None),
            (vec![a, a + 1], Some(s.churn_limit)),
        ] {
            queries.push(QueryDef {
                kind: Kind::TwoPath,
                rels,
                limit,
            });
        }
    }

    // Toggle batches: each is applied once and reverted once per round, so a
    // round ends on the relations it started from and every round expects
    // the same answers.
    struct Batch {
        rel: usize,
        absent: bool,
        edges: Vec<Edge>,
    }
    let mut batches = Vec::new();
    let mut primers = Vec::new();
    for (rel, (_, relation)) in relations.iter().enumerate() {
        let mut rng = rng.fork(300 + rel as u64);
        let mut used = HashSet::new();
        primers.push(draw_batch(relation, 1, true, &mut used, &mut rng));
        for &class in &BATCH_CLASSES {
            // The largest class costs ten times the others; one batch of it
            // per relation keeps a round short enough for many rounds.
            let reps = if class == BATCH_CLASSES[BATCH_CLASSES.len() - 1] {
                1
            } else {
                s.churn_reps
            };
            for rep in 0..reps {
                let absent = rep % 2 == 0;
                let edges = draw_batch(relation, class, absent, &mut used, &mut rng);
                if !edges.is_empty() {
                    batches.push(Batch { rel, absent, edges });
                }
            }
        }
    }
    let mut slots: Vec<usize> = (0..batches.len()).flat_map(|b| [b, b]).collect();
    let mut rng = rng.fork(103);
    rng.shuffle(&mut slots);
    let mut applied = vec![false; batches.len()];
    let mut script = Vec::with_capacity(slots.len() * 2);
    for b in slots {
        let batch = &batches[b];
        // First visit applies the batch, second visit reverts it.
        let insert = batch.absent != applied[b];
        applied[b] = true;
        script.push(Op {
            kind: Kind::Update,
            line: update_line(&relations[batch.rel].0, insert, &batch.edges),
            action: Action::Update {
                rel: batch.rel,
                insert,
                edges: batch.edges.clone(),
            },
            expect_rows: None,
        });
        let readers: Vec<usize> = (0..queries.len())
            .filter(|&q| queries[q].rels.contains(&batch.rel))
            .collect();
        script.push(query_op(
            &relations,
            &queries,
            readers[rng.below(readers.len())],
        ));
    }

    // Warm every result, touch every relation once so the maintainable
    // entries gain their support counts, then cache again what that dropped.
    let all: Vec<String> = queries
        .iter()
        .map(|q| format!("query {}", q.text(&relations)))
        .collect();
    let mut warmup = all.clone();
    for (rel, edges) in primers.iter().enumerate() {
        warmup.push(update_line(&relations[rel].0, true, edges));
        warmup.push(update_line(&relations[rel].0, false, edges));
    }
    warmup.extend(all);
    Workload {
        name: "update_churn",
        relations,
        queries,
        scripts: vec![script],
        cold: false,
        warmup,
    }
}

impl Workload {
    /// FNV-1a over every request line of every script, in order: two runs
    /// send the same bytes exactly when their hashes agree.
    pub fn script_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for script in &self.scripts {
            for op in script {
                h = fnv1a(h, op.line.as_bytes());
                h = fnv1a(h, b"\n");
            }
            h = fnv1a(h, b"\x00");
        }
        h
    }

    /// Requests one round sends, over all clients.
    pub fn ops_per_round(&self) -> usize {
        self.scripts.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_a_function_of_the_seed() {
        let sizes = Sizes::tiny();
        for name in WORKLOADS {
            let a = build(name, 2020, &sizes).unwrap();
            let b = build(name, 2020, &sizes).unwrap();
            let c = build(name, 7, &sizes).unwrap();
            assert_eq!(a.script_hash(), b.script_hash(), "{name}: same seed");
            assert_ne!(a.script_hash(), c.script_hash(), "{name}: other seed");
            assert!(a.ops_per_round() > 0, "{name}: empty script");
        }
        assert!(build("nope", 1, &sizes).is_none());
    }

    #[test]
    fn cold_rounds_never_repeat_a_query() {
        let sizes = Sizes::tiny();
        for name in ["heavy_cold", "light_cold"] {
            let w = build(name, 2020, &sizes).unwrap();
            assert!(w.cold);
            let lines: HashSet<&str> = w.scripts[0].iter().map(|op| op.line.as_str()).collect();
            assert_eq!(lines.len(), w.scripts[0].len(), "{name}: repeated line");
            assert_eq!(lines.len(), w.queries.len());
        }
    }

    #[test]
    fn churn_round_returns_to_its_start() {
        let w = build("update_churn", 2020, &Sizes::tiny()).unwrap();
        let mut state: Vec<HashSet<Edge>> = w
            .relations
            .iter()
            .map(|(_, r)| r.edges().iter().copied().collect())
            .collect();
        let start = state.clone();
        let mut updates = 0;
        for op in &w.scripts[0] {
            if let Action::Update { rel, insert, edges } = &op.action {
                updates += 1;
                for e in edges {
                    // Every batch changes every one of its edges.
                    assert!(if *insert {
                        state[*rel].insert(*e)
                    } else {
                        state[*rel].remove(e)
                    });
                }
            }
        }
        assert!(updates > 0);
        assert_eq!(state, start);
    }
}
