//! Algorithm 1 — MMJoin evaluation of the 2-path query
//! `Q(x, z) = R(x, y), S(z, y)`.
//!
//! Line 2 of Algorithm 3 ([`crate::optimizer`]) picks one of two plans:
//!
//! * **Expansion** (worst-case-optimal, §3.1 step 1): each `x` group of `R`
//!   expands through `S`'s inverted lists, deduplicated per group
//!   ([`ExpandDedupEngine`]); the counting variant reads each pair's
//!   witness count off the same per-group buffer ([`count_expansion`]).
//! * **Everything heavy** (`Δ1 = Δ2 = 0`, step 2): nothing is light, so there
//!   is no partition and no light pass. Each operand is one relation's
//!   adjacency, read from the relation's memoised packed rows
//!   (`mmjoin_storage::packed`, packed by the first query that needs them)
//!   in raw `y` coordinates. An existence query multiplies them over the
//!   Boolean semiring ([`packed_core`]) under `S`'s memoised universal mask,
//!   which fills every row of `R` holding a `y` that all of `S`'s sets hold;
//!   a counting query takes `popcount(R[x] & S[z])` over both relations'
//!   `x`-major rows ([`popcount_core`]).
//!
//! The heavy product's cells, walked row-major, are the pairs sorted and
//! distinct: the packed core hands the product itself to the sink
//! ([`FlatRows::product`]), and a pair is written only when it is read. The
//! counting variant ([`two_path_with_counts`]) yields exact
//! `|ys(x) ∩ ys(z)|` multiplicities — the quantity the similarity joins (§4)
//! threshold and sort on.
//!
//! A matrix run records its five phases — `partition`, `light`, `build`,
//! `product`, `extract` — as `step` spans and as
//! [`PlanStats::measured_phase_secs`], beside the optimizer's predictions.
//! The paper's own prototype — SGEMM at any `(Δ1, Δ2)` — lives in the
//! experiment harness (`mmjoin_bench::paper`).

use crate::config::JoinConfig;
use crate::optimizer::{choose_plan, operand_source, PackedCore, PlanChoice};
use mmjoin_api::{flatten_pairs, FlatRows, PhaseSecs, PlanStats};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_executor::Executor;
use mmjoin_matrix::BitRows;
use mmjoin_obs::trace::{self, Stage};
use mmjoin_storage::{DedupBuffer, PackedForm, PackedRows, Relation, RowWriter, Value};
use std::time::Instant;

/// Evaluates `π_{x,z}(R ⋈ S)` returning sorted distinct pairs.
pub fn two_path_join_project(
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
) -> Vec<(Value, Value)> {
    two_path_join_project_with_stats(r, s, config).0
}

/// Runs one engine phase under a `step` span named `label`, adding its
/// wall-clock seconds to `secs` — the trace and the plan record show the
/// same interval.
pub(crate) fn phase<T>(label: &'static str, secs: &mut f64, f: impl FnOnce() -> T) -> T {
    let _span = trace::span(Stage::Step, label);
    let start = Instant::now();
    let out = f();
    *secs += start.elapsed().as_secs_f64();
    out
}

/// The `product` phase ([`phase`]) of a heavy core with `rows` left rows:
/// `f` returns the product and, when it is Boolean, the rows its universal
/// mask filled — kept in the span's label, `product rows_filled=F/M`, so a
/// trace says why a product took microseconds.
pub(crate) fn product_phase<T>(
    secs: &mut f64,
    rows: usize,
    f: impl FnOnce() -> (T, Option<usize>),
) -> (T, Option<usize>) {
    let mut span = trace::span(Stage::Step, "product");
    let start = Instant::now();
    let (out, filled) = f();
    *secs += start.elapsed().as_secs_f64();
    if let Some(filled) = filled {
        span.relabel(|| format!("product rows_filled={filled}/{rows}"));
    }
    (out, filled)
}

/// The `extract` phase ([`phase`]): `f` returns the rows, and the span is
/// relabelled `label(&rows)`, what it kept ([`extract_label`]).
pub(crate) fn extract_phase<T>(
    secs: &mut f64,
    f: impl FnOnce() -> T,
    label: impl FnOnce(&T) -> String,
) -> T {
    let mut span = trace::span(Stage::Step, "extract");
    let start = Instant::now();
    let rows = f();
    *secs += start.elapsed().as_secs_f64();
    span.relabel(|| label(&rows));
    rows
}

/// The `extract` label of `rows`: `extract cells rows=N bytes=B` for a
/// product kept as its cells, `extract flat rows=N` for rows written out.
pub(crate) fn extract_label(rows: &FlatRows) -> String {
    if rows.is_product() {
        format!(
            "extract cells rows={} bytes={}",
            rows.len(),
            rows.heap_bytes()
        )
    } else {
        format!("extract flat rows={}", rows.len())
    }
}

/// What a two-path's run writes its answer as: rows for a sink
/// ([`PathRows`]), or a relation for the next step of a chain — the
/// expansion's rows and the product's cells written as `x` rows, its `z`
/// index left for a reader to build ([`RowWriter`]).
pub(crate) trait PathOut: Sized {
    /// Expansion's answer.
    fn expanded(engine: ExpandDedupEngine, r: &Relation, s: &Relation, exec: &Executor) -> Self;
    /// The packed core's product: `left.len()` bit rows of
    /// `⌈right.len()/64⌉` words, cell `(i, j)` the pair
    /// `(left[i], right[j])`; both id lists ascend.
    fn product(
        words: Vec<u64>,
        left: &[Value],
        right: &[Value],
        r: &Relation,
        s: &Relation,
    ) -> Self;
    /// The `extract` span's label.
    fn label(&self) -> String;
}

/// A two-path's rows as its run leaves them.
pub(crate) enum PathRows {
    /// Expansion's sorted distinct pairs.
    Pairs(Vec<(Value, Value)>),
    /// The packed core's product ([`FlatRows::product`]).
    Product(FlatRows),
}

impl PathRows {
    /// The rows as the sink takes them: the pairs' own buffer, or the
    /// product as it is.
    pub(crate) fn into_rows(self) -> FlatRows {
        match self {
            PathRows::Pairs(pairs) => FlatRows::new(2, flatten_pairs(pairs)),
            PathRows::Product(rows) => rows,
        }
    }

    /// The rows as pairs: a product writes its rows out.
    fn into_pairs(self) -> Vec<(Value, Value)> {
        match self {
            PathRows::Pairs(pairs) => pairs,
            PathRows::Product(rows) => rows.into_pairs(),
        }
    }
}

impl PathOut for PathRows {
    fn expanded(engine: ExpandDedupEngine, r: &Relation, s: &Relation, exec: &Executor) -> Self {
        PathRows::Pairs(engine.join_project_on(r, s, exec))
    }

    /// The product kept as its cells ([`FlatRows::product`]).
    fn product(
        words: Vec<u64>,
        left: &[Value],
        right: &[Value],
        _: &Relation,
        _: &Relation,
    ) -> Self {
        let ids = |ids: &[Value]| FlatRows::new(1, ids.to_vec());
        PathRows::Product(FlatRows::product(words, ids(left), ids(right)))
    }

    fn label(&self) -> String {
        match self {
            PathRows::Pairs(pairs) => format!("extract flat rows={}", pairs.len()),
            PathRows::Product(rows) => extract_label(rows),
        }
    }
}

/// A chain step's answer: a relation over `dom x × dom z`.
impl PathOut for Relation {
    fn expanded(engine: ExpandDedupEngine, r: &Relation, s: &Relation, exec: &Executor) -> Self {
        engine.join_project_rows(r, s, exec)
    }

    /// The product's cells, walked row-major, are the rows in order: each
    /// bit row is written as the `x` row of its left id.
    fn product(
        words: Vec<u64>,
        left: &[Value],
        right: &[Value],
        r: &Relation,
        s: &Relation,
    ) -> Self {
        let mut rows = RowWriter::new(0..r.x_domain(), s.x_domain());
        let stride = right.len().div_ceil(64).max(1);
        for (&x, row) in left.iter().zip(words.chunks_exact(stride)) {
            for (k, &word) in row.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    rows.values()
                        .push(right[k * 64 + bits.trailing_zeros() as usize]);
                    bits &= bits - 1;
                }
            }
            rows.end_row(x);
        }
        RowWriter::finish(vec![rows])
    }

    fn label(&self) -> String {
        format!("extract flat rows={}", self.len())
    }
}

/// [`two_path_join_project`] plus the plan record of the run: one planning
/// pass ([`plan_two_path`]) whose record the run then fills in, so the
/// statistics describe exactly what ran (empty inputs report no plan).
pub fn two_path_join_project_with_stats(
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
) -> (Vec<(Value, Value)>, Option<PlanStats>) {
    if r.is_empty() || s.is_empty() {
        return (Vec::new(), None);
    }
    let (rows, stats) = plan_then_run(r, s, config, true);
    (rows.into_pairs(), Some(stats))
}

/// A chain step's two-path: [`two_path_join_project_with_stats`]'s answer
/// as the relation over `dom x × dom z` the next step reads, written as its
/// `x` rows by the expansion or from the product's cells, with its `z`
/// degrees and no `z` index until something reads one.
pub(crate) fn two_path_relation_with_stats(
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
) -> (Relation, Option<PlanStats>) {
    if r.is_empty() || s.is_empty() {
        let none = Relation::from_sorted_edges(r.x_domain(), s.x_domain(), Vec::new());
        return (none, None);
    }
    let mut stats = plan_two_path(r, s, config, false);
    let relation = run_planned(r, s, config, &mut stats);
    (relation, Some(stats))
}

/// Plans the existence two-path ([`plan_two_path`]) and, if `run`,
/// evaluates it as planned, returning the rows and the record with the
/// run's half filled in.
pub(crate) fn plan_then_run(
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
    run: bool,
) -> (PathRows, PlanStats) {
    let mut stats = plan_two_path(r, s, config, false);
    if !run {
        return (PathRows::Pairs(Vec::new()), stats);
    }
    let rows = run_planned(r, s, config, &mut stats);
    (rows, stats)
}

/// Evaluates the existence two-path as `stats` planned it, writing its
/// answer as `O`, and fills in the run's half of `stats`.
fn run_planned<O: PathOut>(
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
    stats: &mut PlanStats,
) -> O {
    if stats.delta1.is_none() {
        let engine = ExpandDedupEngine::parallel(config.effective_threads());
        return O::expanded(engine, r, s, config.exec());
    }
    packed_core(r, s, stats)
}

/// The optimizer-chosen existence plan — every value heavy — multiplied
/// from the relations' memoised packed rows ([`PackedCore`]): `R` `x`-major
/// on the left, `S` in the form the orientation reads on the right, joined
/// on raw `y` ids. Whichever query first reads a form packs it (the `build`
/// phase); every later one over the same relation value finds it there.
/// The answer is the product, as `O` takes it ([`PathOut::product`]): for
/// a sink, kept as its cells (sorted, distinct rows on read) unless flat
/// rows are smaller ([`FlatRows::product`]). Fills in the run's half of
/// `stats`; all five phases are recorded, the first two empty.
fn packed_core<O: PathOut>(r: &Relation, s: &Relation, stats: &mut PlanStats) -> O {
    let core = PackedCore::of(r, s, false);
    let orientation = core.bit.expect("an existence core multiplies").orientation;
    let mut secs = PhaseSecs::default();
    let (left, right) = pack_operands(r, s, &core, &mut secs, stats);
    // `S`'s mask: the `y` every `z` has.
    let (product, filled) = product_phase(&mut secs.product, left.rows(), || {
        let (product, filled) = view(left).product(view(right), orientation, right.universal());
        (product, Some(filled))
    });
    let rows = extract_phase(
        &mut secs.extract,
        || O::product(product.into_words(), left.ids(), right.ids(), r, s),
        O::label,
    );
    stats.measured_phase_secs = Some(secs);
    stats.rows_filled = filled;
    rows
}

/// The optimizer-chosen counting plan — every value heavy — over both
/// relations' memoised `x`-major rows ([`PackedCore`]): the witness count
/// of `(x, z)` is `popcount(R[x] & S[z])` over the two rows' common words
/// ([`BitRows::and_popcount`]), exact, and the triples come out sorted with
/// no count below `max(min_count, 1)`. The kernel writes them as it goes,
/// so the `extract` phase is empty. Fills in the run's half of `stats`.
fn popcount_core(
    r: &Relation,
    s: &Relation,
    min_count: u32,
    stats: &mut PlanStats,
) -> Vec<(Value, Value, u32)> {
    let core = PackedCore::of(r, s, true);
    let mut secs = PhaseSecs::default();
    let (left, right) = pack_operands(r, s, &core, &mut secs, stats);
    let triples = phase("product", &mut secs.product, || {
        let (xs, zs) = (left.ids(), right.ids());
        let mut triples = Vec::new();
        view(left).and_popcount(view(right), min_count, |i, j, count| {
            triples.push((xs[i], zs[j], count))
        });
        triples
    });
    let triples = extract_phase(
        &mut secs.extract,
        || triples,
        |triples| format!("extract flat rows={}", triples.len()),
    );
    stats.measured_phase_secs = Some(secs);
    triples
}

/// A relation's packed rows as the view the bit kernels read.
pub(crate) fn view(p: &PackedRows) -> BitRows<'_> {
    BitRows::new(p.rows(), p.cols(), p.words())
}

/// The first three phases of a packed core — nothing to partition, nothing
/// light, and the two forms packed here or found packed — and the record
/// of the core's shape, kernel and operands.
fn pack_operands<'a>(
    r: &'a Relation,
    s: &'a Relation,
    core: &PackedCore,
    secs: &mut PhaseSecs,
    stats: &mut PlanStats,
) -> (&'a PackedRows, &'a PackedRows) {
    phase("partition", &mut secs.partition, || ());
    phase("light", &mut secs.light, || ());
    let ((left, built_left), (right, built_right)) = phase("build", &mut secs.build, || {
        (r.packed(PackedForm::XMajor), s.packed(core.right))
    });
    stats.heavy_dims = Some(core.dims);
    stats.light_tuples = Some((0, 0));
    stats.heavy_core_matrix = Some(true);
    stats.heavy_backend = Some(core.kernel());
    stats.heavy_operands = Some([built_left, built_right].map(|built| operand_source(!built)));
    (left, right)
}

/// Evaluates the 2-path query with exact per-pair witness counts,
/// returning sorted `(x, z, count)` triples with `count >= min_count`.
pub fn two_path_with_counts(
    r: &Relation,
    s: &Relation,
    min_count: u32,
    config: &JoinConfig,
) -> Vec<(Value, Value, u32)> {
    two_path_with_counts_stats(r, s, min_count, config).0
}

/// [`two_path_with_counts`] plus the plan record of the run (see
/// [`two_path_join_project_with_stats`]).
pub fn two_path_with_counts_stats(
    r: &Relation,
    s: &Relation,
    min_count: u32,
    config: &JoinConfig,
) -> (Vec<(Value, Value, u32)>, Option<PlanStats>) {
    if r.is_empty() || s.is_empty() {
        return (Vec::new(), None);
    }
    let (triples, stats) = plan_then_run_counts(r, s, min_count, config, true);
    (triples, Some(stats))
}

/// The counting counterpart of [`plan_then_run`].
pub(crate) fn plan_then_run_counts(
    r: &Relation,
    s: &Relation,
    min_count: u32,
    config: &JoinConfig,
    run: bool,
) -> (Vec<(Value, Value, u32)>, PlanStats) {
    let mut stats = plan_two_path(r, s, config, true);
    if !run {
        return (Vec::new(), stats);
    }
    let triples = if stats.delta1.is_none() {
        count_expansion(r, s, min_count, config)
    } else {
        popcount_core(r, s, min_count, &mut stats)
    };
    (triples, stats)
}

/// One planning pass for the two-path over `r`, `s` — Algorithm 3 — as
/// the decision record the run starts from and `explain` prints.
/// `counting` says whether witness counts are read, which decides the
/// heavy-core kernel and therefore its price.
pub(crate) fn plan_two_path(
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
    counting: bool,
) -> PlanStats {
    if r.is_empty() || s.is_empty() {
        // Nothing joins: expansion of nothing.
        return PlanStats::wcoj();
    }
    let plan = choose_plan(r, s, config, counting);
    let mut stats = match plan.choice {
        PlanChoice::Wcoj => PlanStats::wcoj(),
        PlanChoice::Mm { delta1, delta2 } => PlanStats {
            heavy_backend: plan.heavy_kernel,
            heavy_operands: plan.heavy_operands,
            predicted_light_secs: Some(0.0),
            predicted_heavy_secs: Some(plan.predicted_heavy),
            ..PlanStats::partitioned(delta1, delta2)
        },
    };
    stats.full_join = Some(plan.estimate.full_join);
    stats.estimated_out = Some(plan.estimate.estimate);
    stats.line_two = plan.line_two;
    stats
}

/// The counting expansion: each `x` group of `R` expands through `S`'s
/// inverted lists, and each `z` it reaches is written with its witness
/// count, read off the group's dedup buffer — exact `(x, z, count)` triples
/// with `count >= min_count`, sorted (groups ascend, and each group's `z`s
/// are sorted as it ends). Groups are chunked over the executor when the
/// configuration has more than one thread.
fn count_expansion(
    r: &Relation,
    s: &Relation,
    min_count: u32,
    config: &JoinConfig,
) -> Vec<(Value, Value, u32)> {
    let (threads, exec) = (config.effective_threads(), config.exec());
    let expand = |groups: &[(Value, &[Value])]| {
        let mut out = Vec::new();
        let mut dedup = DedupBuffer::new(s.x_domain());
        let mut touched: Vec<Value> = Vec::new();
        for &(x, ys) in groups {
            dedup.clear();
            touched.clear();
            for &y in ys.iter().filter(|&&y| (y as usize) < s.y_domain()) {
                for &z in s.xs_of(y) {
                    if dedup.insert(z) {
                        touched.push(z);
                    }
                }
            }
            touched.sort_unstable();
            for &z in &touched {
                let count = dedup.multiplicity(z);
                if count >= min_count {
                    out.push((x, z, count));
                }
            }
        }
        out
    };
    let groups: Vec<(Value, &[Value])> = r.by_x().iter_nonempty().collect();
    if threads <= 1 {
        return expand(&groups);
    }
    let chunks: Vec<_> = groups
        .chunks(groups.len().div_ceil(threads).max(1))
        .collect();
    exec.map(threads, chunks.len(), |i| expand(chunks[i]))
        .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_baseline::fulljoin::SortMergeEngine;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    /// Brute-force pair counts.
    fn brute_counts(r: &Relation, s: &Relation) -> BTreeMap<(Value, Value), u32> {
        let mut m = BTreeMap::new();
        for (x, y) in r.tuples() {
            for (z, y2) in s.tuples() {
                if y == y2 {
                    *m.entry((x, z)).or_insert(0) += 1;
                }
            }
        }
        m
    }

    fn clique_relation(sets: u32, elems: u32) -> Relation {
        let mut edges = Vec::new();
        for x in 0..sets {
            for y in 0..elems {
                edges.push((x, y));
            }
        }
        rel(&edges)
    }

    /// Line 2 forced each way: the bit core whenever it fits, and expansion.
    fn forced(factor: f64, threads: usize) -> JoinConfig {
        JoinConfig {
            wcoj_fallback_factor: factor,
            threads,
            ..JoinConfig::default()
        }
    }

    const BOTH_SIDES: [f64; 2] = [0.0, f64::INFINITY];

    #[test]
    fn matches_reference_with_optimizer() {
        let r = clique_relation(12, 6);
        let cfg = JoinConfig {
            wcoj_fallback_factor: 1.0,
            ..JoinConfig::default()
        };
        assert_eq!(
            two_path_join_project(&r, &r, &cfg),
            SortMergeEngine.join_project(&r, &r)
        );
    }

    /// The degenerate-partition regression: every `z` degree is 300 and
    /// `N/|OUT| = 20`, so the coupled `Δ2 = 20·Δ1` used to pass every `z`
    /// degree, `heavy_dims` came out `(40, 1000, 0)` and a "matrix plan" ran
    /// as pure expansion. Whatever the optimizer picks now, a plan that
    /// calls itself matrix-partitioned multiplies matrices.
    #[test]
    fn dense_s_instance_never_reports_an_empty_heavy_side() {
        let mut r_edges = Vec::new();
        for x in 0..40u32 {
            for y in 0..1000u32 {
                if (x * 31 + y * 17) % 5 < 3 {
                    r_edges.push((x, y));
                }
            }
        }
        let mut s_edges = Vec::new();
        for z in 0..30u32 {
            for y in 0..1000u32 {
                if (z * 13 + y * 29) % 10 < 3 {
                    s_edges.push((z, y));
                }
            }
        }
        let (r, s) = (rel(&r_edges), rel(&s_edges));
        assert_eq!((r.len(), s.len()), (24_000, 9_000));
        let check = |stats: Option<PlanStats>, label: &str| {
            let stats = stats.expect("non-empty inputs plan");
            if stats.kind == mmjoin_api::PlanKind::MatrixPartitioned {
                let (u, v, w) = stats.heavy_dims.expect("partitioned plans report dims");
                assert!(u > 0 && v > 0 && w > 0, "{label}: {stats:?}");
                assert_eq!(stats.heavy_core_matrix, Some(true), "{label}");
            } else {
                assert_eq!(stats.heavy_dims, None, "{label}");
            }
        };
        // The full join is 9× the input: factors 5, 1 and 0 all plan.
        for factor in [5.0, 1.0, 0.0] {
            let cfg = JoinConfig {
                wcoj_fallback_factor: factor,
                ..JoinConfig::default()
            };
            for (a, b, label) in [(&r, &s, "R⋈S"), (&s, &r, "S⋈R")] {
                let (out, stats) = two_path_join_project_with_stats(a, b, &cfg);
                assert_eq!(out.len(), 1200, "{label}");
                check(stats, label);
                let (out, stats) = two_path_with_counts_stats(a, b, 1, &cfg);
                assert_eq!(out.len(), 1200, "{label} counting");
                check(stats, label);
            }
        }
    }

    /// A core over the cap is not run: the join expands instead.
    #[test]
    fn memory_cap_fallback_matches() {
        let r = clique_relation(10, 5);
        let cfg = JoinConfig {
            matrix_cell_cap: 0,
            ..forced(0.0, 1)
        };
        let (out, stats) = two_path_join_project_with_stats(&r, &r, &cfg);
        assert_eq!(out, SortMergeEngine.join_project(&r, &r));
        assert_eq!(stats.unwrap().kind, mmjoin_api::PlanKind::Wcoj);
    }

    #[test]
    fn parallel_matches_serial() {
        let mut edges = Vec::new();
        for i in 0..600u32 {
            edges.push(((i * 7) % 80, (i * 13) % 50));
        }
        let r = rel(&edges);
        for factor in BOTH_SIDES {
            let serial = two_path_join_project(&r, &r, &forced(factor, 1));
            let counted = two_path_with_counts(&r, &r, 2, &forced(factor, 1));
            for threads in [2, 4, 8] {
                let cfg = forced(factor, threads);
                let label = format!("factor={factor} threads={threads}");
                assert_eq!(two_path_join_project(&r, &r, &cfg), serial, "{label}");
                assert_eq!(two_path_with_counts(&r, &r, 2, &cfg), counted, "{label}");
            }
        }
    }

    #[test]
    fn counts_exact_on_clique() {
        let r = clique_relation(8, 4);
        let brute = brute_counts(&r, &r);
        for factor in BOTH_SIDES {
            let got = two_path_with_counts(&r, &r, 1, &forced(factor, 1));
            assert_eq!(got.len(), brute.len());
            for (x, z, c) in got {
                assert_eq!(brute[&(x, z)], c, "pair ({x},{z})");
            }
        }
    }

    #[test]
    fn counts_min_count_filters() {
        // (0,1) share 3 elements; (0,2) share 1.
        let r = rel(&[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 2)]);
        for factor in BOTH_SIDES {
            let got = two_path_with_counts(&r, &r, 3, &forced(factor, 1));
            let pairs: Vec<(Value, Value)> = got.iter().map(|&(x, z, _)| (x, z)).collect();
            assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
            for &(_, _, c) in &got {
                assert!(c >= 3);
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let r = rel(&[]);
        let s = rel(&[(0, 0)]);
        assert!(two_path_join_project(&r, &s, &JoinConfig::default()).is_empty());
        assert!(two_path_with_counts(&s, &r, 1, &JoinConfig::default()).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The served counting expansion (line 2 forced to expansion) is
        /// exact for every pair at every thread count and every
        /// `min_count`, and writes no zero count.
        #[test]
        fn counts_always_exact(
            r_edges in proptest::collection::vec((0u32..15, 0u32..12), 1..60),
            s_edges in proptest::collection::vec((0u32..15, 0u32..12), 1..60),
            threads in 1usize..4,
            min_count in 0u32..4,
        ) {
            let r = rel(&r_edges);
            let s = rel(&s_edges);
            let (got, stats) =
                two_path_with_counts_stats(&r, &s, min_count, &forced(f64::INFINITY, threads));
            prop_assert_eq!(stats.unwrap().kind, mmjoin_api::PlanKind::Wcoj);
            let expected: Vec<(Value, Value, u32)> = brute_counts(&r, &s)
                .into_iter()
                .filter(|&(_, c)| c >= min_count.max(1))
                .map(|((x, z), c)| (x, z, c))
                .collect();
            prop_assert_eq!(got, expected);
        }
    }
}
