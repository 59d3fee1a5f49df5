//! Algorithm 1 — MMJoin evaluation of the 2-path query
//! `Q(x, z) = R(x, y), S(z, y)`.
//!
//! The relation tuples are partitioned by degree with thresholds `Δ1`
//! (join variable `y`) and `Δ2` (head variables `x`, `z`):
//!
//! * **Light passes** (worst-case-optimal expansion, §3.1 step 1): pass A
//!   walks every `x` group of `R`; a light `x` expands all its `y`s, a heavy
//!   `x` expands only `y`s that are light in `S`. Pass B is symmetric from
//!   the `S` side with `y`s light in `R`. Per-group deduplication uses the
//!   epoch-stamped dense buffer of §6.
//! * **Heavy core** (step 2): `x`, `z` values heavier than `Δ2` joined
//!   through `y` values heavier than `Δ1` *in both relations* are packed
//!   into rectangular 0/1 matrices and multiplied — over the Boolean
//!   semiring (bit-packed operands, [`BitMatrix`]) or as f32 SGEMM.
//!
//! A plan the optimizer chose is always `Δ1 = Δ2 = 0`, and under
//! [`HeavyBackend::Auto`] each operand is then one relation's adjacency and
//! nothing else: it is not built here but read from the relation's memoised
//! packed rows (`mmjoin_storage::packed`, packed by the first query that
//! needs them) in raw `y` coordinates — no partition, no light pass, no
//! per-pair operand. An existence query multiplies them ([`packed_core`])
//! under `S`'s memoised universal mask, which fills every row of `R` holding
//! a `y` that all of `S`'s sets hold; a counting query takes
//! `popcount(R[x] & S[z])` over both relations' `x`-major rows
//! ([`popcount_core`]). The compact per-pair builder ([`HeavyIndex`]) serves
//! forced partitions (`delta_override`, the test and ablation pin that runs
//! the bit and f32 cores on identical cells) and the SGEMM pin.
//!
//! Coverage of an output pair `(a, c)` with witness `b`: `a` light → pass A;
//! `c` light → pass B; `b` light in `S` → pass A; `b` light in `R` → pass B;
//! otherwise all of `a`, `c`, `b` are heavy → matrix. The three part outputs
//! may overlap, so assembly sorts and deduplicates (output-sized work) —
//! except at `Δ1 = Δ2 = 0`, where nothing is light: the passes are skipped
//! and the heavy product's cells, walked row-major, are the pairs sorted
//! and distinct — the packed core hands the product itself to the sink
//! ([`FlatRows::product`]), and a pair is written only when it is read.
//!
//! The counting variant ([`two_path_with_counts`]) yields exact
//! `|ys(x) ∩ ys(z)|` multiplicities — the quantity the similarity joins (§4)
//! threshold and sort on. Under SGEMM it rearranges the passes so that every
//! pair's witnesses are counted against *disjoint* witness sets.
//!
//! A matrix-partitioned run records its five phases —
//! `partition`, `light`, `build`, `product`, `extract` — as `step` spans
//! and as [`PlanStats::measured_phase_secs`], beside the optimizer's two
//! predictions.
//!
//! [`HeavyBackend::Auto`]: crate::config::HeavyBackend::Auto

use crate::config::JoinConfig;
use crate::optimizer::{choose_plan, operand_source, PackedCore, PlanChoice, F32_KERNEL};
use mmjoin_api::{flatten_pairs, FlatRows, PhaseSecs, PlanStats};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_executor::Executor;
use mmjoin_matrix::{
    matmul_parallel_on, BitMatrix, BitProductPlan, BitRows, DenseMatrix, Orientation,
};
use mmjoin_obs::trace::{self, Stage};
use mmjoin_storage::{DedupBuffer, PackedForm, PackedRows, Relation, Value};
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

/// A two-path's rows as its run leaves them.
pub(crate) enum PathRows {
    /// Sorted distinct pairs: an expansion, or a forced partition.
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

    /// The rows as pairs, for a caller that builds on them (a chain step
    /// makes a relation of them): a product writes its rows out.
    pub(crate) fn into_pairs(self) -> Vec<(Value, Value)> {
        match self {
            PathRows::Pairs(pairs) => pairs,
            PathRows::Product(rows) => rows.into_pairs(),
        }
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
    let (threads, exec) = (config.effective_threads(), config.exec());
    let expand =
        || PathRows::Pairs(ExpandDedupEngine::parallel(threads).join_project_on(r, s, exec));
    let (Some(delta1), Some(delta2)) = (stats.delta1, stats.delta2) else {
        return (expand(), stats);
    };
    let boolean = config.heavy_backend.is_boolean();
    if boolean && config.delta_override.is_none() {
        let rows = packed_core(r, s, &mut stats);
        return (PathRows::Product(rows), stats);
    }
    let mut secs = PhaseSecs::default();

    let heavy = phase("partition", &mut secs.partition, || {
        HeavyIndex::build(r, s, delta1, delta2)
    });
    debug_assert_common_y(config, &heavy);
    record_partition(&mut stats, r, s, &heavy);
    let bit_plan = heavy.bit_plan();
    let (bytes, kernel) = if boolean {
        (bit_plan.bytes, bit_plan.orientation.name())
    } else {
        (4 * heavy.cells(), F32_KERNEL)
    };
    let use_matrix = !heavy.is_degenerate() && bytes <= config.matrix_cell_cap.saturating_mul(4);
    stats.heavy_core_matrix = Some(use_matrix);
    stats.heavy_backend = Some(kernel);

    // Nothing is light at Δ1 = Δ2 = 0: no pass has anything to expand.
    let all_heavy = delta1 == 0 && delta2 == 0;
    let mut out = phase("light", &mut secs.light, || {
        if all_heavy {
            Vec::new()
        } else {
            light_passes(r, s, delta1, delta2, threads, exec)
        }
    });

    // Every matrix plan records all five phases, whichever of them run.
    let operands = phase("build", &mut secs.build, || {
        use_matrix.then(|| {
            if boolean {
                let (m1, m2) = heavy.build_bit_matrices(r, s, bit_plan.orientation);
                Operands::Bit(m1, m2)
            } else {
                let (m1, m2) = heavy.build_dense_matrices(r, s);
                Operands::F32(m1, m2)
            }
        })
    });
    let rows = heavy.heavy_x.len();
    let (product, filled) = product_phase(&mut secs.product, rows, || match operands {
        // A forced partition's right operand has no memoised mask.
        Some(operands) => {
            let (product, filled) = operands.multiply(bit_plan.orientation, &[], exec, threads);
            (Some(product), filled)
        }
        None => {
            if !heavy.is_degenerate() {
                // Memory guard: the heavy core is evaluated combinatorially.
                heavy_expansion_fallback(r, s, &heavy, &mut out);
            }
            (None, None)
        }
    });
    stats.rows_filled = filled;
    let ids = |ids: &[Value]| FlatRows::new(1, ids.to_vec());
    let out = extract_phase(
        &mut secs.extract,
        || {
            // Ascending ids, row-major cells: sorted, distinct pairs — to
            // merge with the light passes' unless those found nothing.
            let heavy_pairs = product.map_or_else(Vec::new, |product| {
                let words = product.into_bits().into_words();
                FlatRows::product(words, ids(&heavy.heavy_x), ids(&heavy.heavy_z)).into_pairs()
            });
            if out.is_empty() {
                return heavy_pairs;
            }
            out.extend(heavy_pairs);
            out.sort_unstable();
            out.dedup();
            out
        },
        |out| format!("extract flat rows={}", out.len()),
    );
    stats.measured_phase_secs = Some(secs);
    (PathRows::Pairs(out), stats)
}

/// The optimizer-chosen existence plan — every value heavy — multiplied
/// from the relations' memoised packed rows ([`PackedCore`]): `R` `x`-major
/// on the left, `S` in the form the orientation reads on the right, joined
/// on raw `y` ids. Whichever query first reads a form packs it (the `build`
/// phase); every later one over the same relation value finds it there.
/// The answer is the product itself, kept as its cells (sorted, distinct
/// rows on read) unless flat rows are smaller ([`FlatRows::product`]).
/// Fills in the run's half of `stats`; all five phases are recorded, the
/// first two empty.
fn packed_core(r: &Relation, s: &Relation, stats: &mut PlanStats) -> FlatRows {
    let core = PackedCore::of(r, s, false);
    let orientation = core.bit.expect("an existence core multiplies").orientation;
    let mut secs = PhaseSecs::default();
    let (left, right) = pack_operands(r, s, &core, &mut secs, stats);
    // `S`'s mask: the `y` every `z` has.
    let (product, filled) = product_phase(&mut secs.product, left.rows(), || {
        let (product, filled) = view(left).product(view(right), orientation, right.universal());
        (product, Some(filled))
    });
    let ids = |p: &PackedRows| FlatRows::new(1, p.ids().to_vec());
    let rows = extract_phase(
        &mut secs.extract,
        || FlatRows::product(product.into_words(), ids(left), ids(right)),
        extract_label,
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

/// Past line 2 an optimizer-chosen `Δ1 = Δ2 = 0` has a `y` common to both
/// relations, so no heavy side of its partition is empty; only a forced
/// partition may be degenerate.
fn debug_assert_common_y(config: &JoinConfig, heavy: &HeavyIndex) {
    debug_assert!(
        config.delta_override.is_some() || !heavy.is_degenerate(),
        "an optimizer-chosen partition with an empty heavy side"
    );
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
    let (Some(delta1), Some(delta2)) = (stats.delta1, stats.delta2) else {
        // Expansion is the partition with everything light.
        let none = HeavyIndex::empty();
        return (
            count_passes(r, s, u32::MAX, min_count, &none, None, config),
            stats,
        );
    };
    if config.heavy_backend.is_boolean() && config.delta_override.is_none() {
        let triples = popcount_core(r, s, min_count, &mut stats);
        return (triples, stats);
    }
    // SGEMM: the pin, or a forced partition.
    let heavy = HeavyIndex::build(r, s, delta1, delta2);
    debug_assert_common_y(config, &heavy);
    let use_matrix = !heavy.is_degenerate() && heavy.cells() <= config.matrix_cell_cap;
    record_partition(&mut stats, r, s, &heavy);
    stats.heavy_core_matrix = Some(use_matrix);
    stats.heavy_backend = Some(F32_KERNEL);
    let prod = use_matrix.then(|| {
        let (m1, m2) = heavy.build_dense_matrices(r, s);
        matmul_parallel_on(config.exec(), &m1, &m2, config.effective_threads())
    });
    let out = count_passes(r, s, delta2, min_count, &heavy, prod.as_ref(), config);
    (out, stats)
}

/// The heavy operands in the representation that multiplies them.
pub(crate) enum Operands {
    /// Bit-packed; the right operand in the layout of the orientation that
    /// will multiply it.
    Bit(BitMatrix, BitMatrix),
    F32(DenseMatrix, DenseMatrix),
}

impl Operands {
    /// The heavy product: the Boolean one on the calling thread in
    /// `orientation` under the right operand's `universal` mask (see
    /// [`BitRows::product`]), with the rows that mask filled; SGEMM over
    /// the executor, which reads no mask.
    pub(crate) fn multiply(
        self,
        orientation: Orientation,
        universal: &[u64],
        exec: &Executor,
        threads: usize,
    ) -> (Product, Option<usize>) {
        match self {
            Operands::Bit(m1, m2) => {
                let inner = match orientation {
                    Orientation::RowOr => m2.rows(),
                    Orientation::AndAny => m2.cols(),
                };
                assert_eq!(m1.cols(), inner, "inner dimensions must agree");
                let (product, filled) = m1.view().product(m2.view(), orientation, universal);
                (Product::Bit(product), Some(filled))
            }
            Operands::F32(m1, m2) => (
                Product::F32(matmul_parallel_on(exec, &m1, &m2, threads)),
                None,
            ),
        }
    }
}

/// The heavy product, before extraction.
pub(crate) enum Product {
    Bit(BitMatrix),
    F32(DenseMatrix),
}

impl Product {
    /// The product's set cells as bits: an SGEMM product's cells of at
    /// least one witness.
    pub(crate) fn into_bits(self) -> BitMatrix {
        match self {
            Product::Bit(bits) => bits,
            Product::F32(c) => {
                let mut bits = BitMatrix::zeros(c.rows(), c.cols());
                for (i, j, _) in c.entries_at_least(0.5) {
                    bits.set(i, j);
                }
                bits
            }
        }
    }
}

/// One planning pass for the two-path over `r`, `s` — the threshold
/// override, or Algorithm 3 — as the decision record the run starts from
/// and `explain` prints. `counting` says whether witness counts are read,
/// which decides the heavy-core kernel and therefore its price.
pub(crate) fn plan_two_path(
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
    counting: bool,
) -> PlanStats {
    if r.is_empty() || s.is_empty() {
        // Nothing joins: expansion of nothing, whatever the override says.
        return PlanStats::wcoj();
    }
    if let Some((d1, d2)) = config.delta_override {
        return PlanStats::partitioned(d1, d2);
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

/// Records the true (adjacency-pruned) partition shape: the heavy
/// factor-matrix dimensions and the tuple mass left to the light passes.
fn record_partition(stats: &mut PlanStats, r: &Relation, s: &Relation, heavy: &HeavyIndex) {
    stats.heavy_dims = Some((
        heavy.heavy_x.len(),
        heavy.heavy_y.len(),
        heavy.heavy_z.len(),
    ));
    let (heavy_r, heavy_s) = heavy.tuple_mass;
    stats.light_tuples = Some((r.len() as u64 - heavy_r, s.len() as u64 - heavy_s));
}

/// Index of heavy values and their dense matrix coordinates: the compact
/// operands of one `(R, S, Δ1, Δ2)`, built per query — for SGEMM, and for a
/// Boolean core at a forced partition.
pub(crate) struct HeavyIndex {
    /// Heavy `x` values (rows of `M1`), ascending.
    pub heavy_x: Vec<Value>,
    /// Heavy `y` values — heavier than `Δ1` in *both* relations (inner
    /// dimension), ascending.
    pub heavy_y: Vec<Value>,
    /// Heavy `z` values (columns of `M2`), ascending.
    pub heavy_z: Vec<Value>,
    /// `x value → row`, `-1` when not heavy.
    x_row: Vec<i32>,
    /// `y value → inner index`, `-1` when not heavy-in-both.
    y_col: Vec<i32>,
    /// `z value → column`, `-1` when not heavy.
    z_col: Vec<i32>,
    /// Tuples of `(R, S)` whose head value is heavy — an upper bound on the
    /// set bits of the two heavy operands.
    tuple_mass: (u64, u64),
}

impl HeavyIndex {
    fn empty() -> Self {
        Self {
            heavy_x: Vec::new(),
            heavy_y: Vec::new(),
            heavy_z: Vec::new(),
            x_row: Vec::new(),
            y_col: Vec::new(),
            z_col: Vec::new(),
            tuple_mass: (0, 0),
        }
    }

    fn build(r: &Relation, s: &Relation, delta1: u32, delta2: u32) -> Self {
        let ydom = r.y_domain().min(s.y_domain());
        let mut y_col = vec![-1i32; r.y_domain().max(s.y_domain())];
        let mut heavy_y = Vec::new();
        for y in 0..ydom as Value {
            if r.y_degree(y) > delta1 as usize && s.y_degree(y) > delta1 as usize {
                y_col[y as usize] = heavy_y.len() as i32;
                heavy_y.push(y);
            }
        }
        // Heavy x: degree above Δ2 *and* adjacent to ≥1 heavy-in-both y
        // (rows with no heavy y are all-zero; dropping them shrinks M1).
        let mut tuple_mass = (0u64, 0u64);
        let mut x_row = vec![-1i32; r.x_domain()];
        let mut heavy_x = Vec::new();
        for (x, ys) in r.by_x().iter_nonempty() {
            if ys.len() > delta2 as usize
                && ys
                    .iter()
                    .any(|&y| y_col.get(y as usize).is_some_and(|&c| c >= 0))
            {
                x_row[x as usize] = heavy_x.len() as i32;
                heavy_x.push(x);
                tuple_mass.0 += ys.len() as u64;
            }
        }
        let mut z_col = vec![-1i32; s.x_domain()];
        let mut heavy_z = Vec::new();
        for (z, ys) in s.by_x().iter_nonempty() {
            if ys.len() > delta2 as usize
                && ys
                    .iter()
                    .any(|&y| y_col.get(y as usize).is_some_and(|&c| c >= 0))
            {
                z_col[z as usize] = heavy_z.len() as i32;
                heavy_z.push(z);
                tuple_mass.1 += ys.len() as u64;
            }
        }
        Self {
            heavy_x,
            heavy_y,
            heavy_z,
            x_row,
            y_col,
            z_col,
            tuple_mass,
        }
    }

    fn is_degenerate(&self) -> bool {
        self.heavy_x.is_empty() || self.heavy_y.is_empty() || self.heavy_z.is_empty()
    }

    /// Total dense cells the two factor matrices and the product would use.
    fn cells(&self) -> usize {
        let (u, v, w) = (self.heavy_x.len(), self.heavy_y.len(), self.heavy_z.len());
        u * v + v * w + u * w
    }

    /// How the Boolean heavy product should run on the exact partition.
    fn bit_plan(&self) -> BitProductPlan {
        let (u, v, w) = (self.heavy_x.len(), self.heavy_y.len(), self.heavy_z.len());
        let (nnz1, nnz2) = self.tuple_mass;
        BitProductPlan::choose(
            u,
            v,
            w,
            (nnz1 as f64).min((u * v) as f64),
            (nnz2 as f64).min((v * w) as f64),
        )
    }

    #[inline]
    fn y_is_heavy(&self, y: Value) -> bool {
        self.y_col.get(y as usize).is_some_and(|&c| c >= 0)
    }

    #[inline]
    fn x_row_of(&self, x: Value) -> Option<usize> {
        let r = *self.x_row.get(x as usize)?;
        (r >= 0).then_some(r as usize)
    }

    #[inline]
    fn z_is_heavy(&self, z: Value) -> bool {
        self.z_col.get(z as usize).is_some_and(|&c| c >= 0)
    }

    fn build_dense_matrices(&self, r: &Relation, s: &Relation) -> (DenseMatrix, DenseMatrix) {
        let (u, v, w) = (self.heavy_x.len(), self.heavy_y.len(), self.heavy_z.len());
        let mut m1 = DenseMatrix::zeros(u, v);
        for (row, &x) in self.heavy_x.iter().enumerate() {
            for &y in r.ys_of(x) {
                if let Some(&c) = self.y_col.get(y as usize) {
                    if c >= 0 {
                        m1.set(row, c as usize, 1.0);
                    }
                }
            }
        }
        let mut m2 = DenseMatrix::zeros(v, w);
        for (col, &z) in self.heavy_z.iter().enumerate() {
            for &y in s.ys_of(z) {
                if let Some(&c) = self.y_col.get(y as usize) {
                    if c >= 0 {
                        m2.set(c as usize, col, 1.0);
                    }
                }
            }
        }
        (m1, m2)
    }

    /// The Boolean operands, a word at a time straight from the CSR rows:
    /// `M1` (`x`-major over heavy `y`) and `M2` in the layout `orientation`
    /// multiplies — `y`-major over heavy `z` from `S`'s inverted lists for
    /// row-OR, `z`-major over heavy `y` (the transpose) for AND-any.
    fn build_bit_matrices(
        &self,
        r: &Relation,
        s: &Relation,
        orientation: Orientation,
    ) -> (BitMatrix, BitMatrix) {
        let (u, v, w) = (self.heavy_x.len(), self.heavy_y.len(), self.heavy_z.len());
        let m1 = BitMatrix::from_adjacency(u, v, &self.y_col, |i| r.ys_of(self.heavy_x[i]));
        let m2 = match orientation {
            Orientation::RowOr => {
                BitMatrix::from_adjacency(v, w, &self.z_col, |k| s.xs_of(self.heavy_y[k]))
            }
            Orientation::AndAny => {
                BitMatrix::from_adjacency(w, v, &self.y_col, |j| s.ys_of(self.heavy_z[j]))
            }
        };
        (m1, m2)
    }
}

/// Light passes A (R side) and B (S side), optionally parallel over groups.
///
/// The passes partition the light witnesses so almost no pair is emitted
/// twice: pass A owns every pair whose `x` is light plus heavy-`x` pairs
/// through `y`s light in `S`; pass B only ever emits heavy-`x` pairs, and
/// only through `y`s heavy in `S` (anything else pass A already found).
/// In the degenerate all-light configuration pass B does no work at all,
/// which keeps MMJoin's fallback within noise of the plain combinatorial
/// engine.
fn light_passes(
    r: &Relation,
    s: &Relation,
    delta1: u32,
    delta2: u32,
    threads: usize,
    exec: &Executor,
) -> Vec<(Value, Value)> {
    let pass_a = |groups: &[(Value, &[Value])], out: &mut Vec<(Value, Value)>| {
        let mut dedup = DedupBuffer::new(s.x_domain());
        for &(a, ys) in groups {
            let a_light = ys.len() <= delta2 as usize;
            dedup.clear();
            for &y in ys {
                if (y as usize) >= s.y_domain() {
                    continue;
                }
                if a_light || s.y_degree(y) <= delta1 as usize {
                    for &z in s.xs_of(y) {
                        if dedup.insert(z) {
                            out.push((a, z));
                        }
                    }
                }
            }
        }
    };
    let pass_b = |groups: &[(Value, &[Value])], out: &mut Vec<(Value, Value)>| {
        let mut dedup = DedupBuffer::new(r.x_domain());
        for &(c, ys) in groups {
            let c_light = ys.len() <= delta2 as usize;
            dedup.clear();
            for &y in ys {
                if (y as usize) >= r.y_domain() || s.y_degree(y) <= delta1 as usize {
                    continue; // y light in S: pass A covered every x.
                }
                if c_light || r.y_degree(y) <= delta1 as usize {
                    for &x in r.xs_of(y) {
                        // Light x: pass A expanded all of its ys already.
                        if r.x_degree(x) > delta2 as usize && dedup.insert(x) {
                            out.push((x, c));
                        }
                    }
                }
            }
        }
    };

    let groups_a: Vec<(Value, &[Value])> = r.by_x().iter_nonempty().collect();
    let groups_b: Vec<(Value, &[Value])> = s.by_x().iter_nonempty().collect();
    if threads <= 1 {
        let mut out = Vec::new();
        pass_a(&groups_a, &mut out);
        pass_b(&groups_b, &mut out);
        out
    } else {
        // Both passes are chunked into one task list so A- and B-side
        // work interleaves on the shared pool instead of running as two
        // barriers. Chunking depends only on `threads` → deterministic.
        let chunk_a = groups_a.len().div_ceil(threads).max(1);
        let chunk_b = groups_b.len().div_ceil(threads).max(1);
        let chunks_a: Vec<&[(Value, &[Value])]> = groups_a.chunks(chunk_a).collect();
        let chunks_b: Vec<&[(Value, &[Value])]> = groups_b.chunks(chunk_b).collect();
        let na = chunks_a.len();
        let results = exec.map(threads, na + chunks_b.len(), |i| {
            let mut out = Vec::new();
            if i < na {
                pass_a(chunks_a[i], &mut out);
            } else {
                pass_b(chunks_b[i - na], &mut out);
            }
            out
        });
        results.concat()
    }
}

/// Combinatorial evaluation of the heavy core when the matrices would not
/// fit in the configured memory cap: expand heavy `x` through heavy `y`.
fn heavy_expansion_fallback(
    r: &Relation,
    s: &Relation,
    heavy: &HeavyIndex,
    out: &mut Vec<(Value, Value)>,
) {
    let mut dedup = DedupBuffer::new(s.x_domain());
    for &x in &heavy.heavy_x {
        dedup.clear();
        for &y in r.ys_of(x) {
            if !heavy.y_is_heavy(y) {
                continue;
            }
            for &z in s.xs_of(y) {
                if dedup.insert(z) {
                    out.push((x, z));
                }
            }
        }
    }
}

/// Counting passes L1/L2/L3 (see module docs): exact multiplicities with
/// disjoint witness partitions, sorted.
#[allow(clippy::too_many_arguments)]
fn count_passes(
    r: &Relation,
    s: &Relation,
    delta2: u32,
    min_count: u32,
    heavy: &HeavyIndex,
    prod: Option<&DenseMatrix>,
    config: &JoinConfig,
) -> Vec<(Value, Value, u32)> {
    let (threads, exec) = (config.effective_threads(), config.exec());
    let is_light_head_r = |deg: usize| deg <= delta2 as usize || delta2 == u32::MAX;
    // When no matrix product is available (memory cap, degenerate core),
    // pass L3 must expand *every* y — heavy-in-both witnesses included —
    // otherwise those counts would be lost.
    let skip_heavy_y = prod.is_some();

    // Pass L1: light x — full expansion, exact counts for (x, *).
    let l1 = |groups: &[(Value, &[Value])], out: &mut Vec<(Value, Value, u32)>| {
        let mut dedup = DedupBuffer::new(s.x_domain());
        let mut touched: Vec<Value> = Vec::new();
        for &(a, ys) in groups {
            if !is_light_head_r(ys.len()) {
                continue;
            }
            dedup.clear();
            touched.clear();
            for &y in ys {
                if (y as usize) >= s.y_domain() {
                    continue;
                }
                for &z in s.xs_of(y) {
                    if dedup.insert(z) {
                        touched.push(z);
                    }
                }
            }
            for &z in &touched {
                let m = dedup.multiplicity(z);
                if m >= min_count {
                    out.push((a, z, m));
                }
            }
        }
    };

    // Pass L2: light z — full expansion from the S side; emit only pairs
    // whose x is heavy (light x already exact in L1).
    let l2 = |groups: &[(Value, &[Value])], out: &mut Vec<(Value, Value, u32)>| {
        let mut dedup = DedupBuffer::new(r.x_domain());
        let mut touched: Vec<Value> = Vec::new();
        for &(c, ys) in groups {
            if !is_light_head_r(ys.len()) {
                continue;
            }
            dedup.clear();
            touched.clear();
            for &y in ys {
                if (y as usize) >= r.y_domain() {
                    continue;
                }
                for &x in r.xs_of(y) {
                    if dedup.insert(x) {
                        touched.push(x);
                    }
                }
            }
            for &x in &touched {
                if is_light_head_r(r.x_degree(x)) {
                    continue; // covered exactly by L1
                }
                let m = dedup.multiplicity(x);
                if m >= min_count {
                    out.push((x, c, m));
                }
            }
        }
    };

    // Pass L3: heavy x — expand only non-heavy-in-both y; combine with the
    // matrix row for heavy z; skip light z (covered by L2).
    let l3 = |groups: &[(Value, &[Value])], out: &mut Vec<(Value, Value, u32)>| {
        let mut dedup = DedupBuffer::new(s.x_domain());
        let mut touched: Vec<Value> = Vec::new();
        for &(a, ys) in groups {
            if is_light_head_r(ys.len()) {
                continue;
            }
            dedup.clear();
            touched.clear();
            for &y in ys {
                if (y as usize) >= s.y_domain() || (skip_heavy_y && heavy.y_is_heavy(y)) {
                    continue;
                }
                for &z in s.xs_of(y) {
                    if dedup.insert(z) {
                        touched.push(z);
                    }
                }
            }
            match (heavy.x_row_of(a), prod) {
                (Some(row), Some(m)) => {
                    // Scan all heavy z columns: matrix + light-witness counts.
                    for (j, &z) in heavy.heavy_z.iter().enumerate() {
                        let total = m.get(row, j) as u32 + dedup.multiplicity(z);
                        if total >= min_count && total > 0 {
                            out.push((a, z, total));
                        }
                    }
                    // Heavy-head z values *without* a matrix column (no
                    // heavy-in-both y adjacent) have no matrix witnesses:
                    // the expansion count is already exact for them.
                    for &z in &touched {
                        if heavy.z_is_heavy(z) || is_light_head_r(s.x_degree(z)) {
                            continue; // column scan / L2 covers these
                        }
                        let mult = dedup.multiplicity(z);
                        if mult >= min_count {
                            out.push((a, z, mult));
                        }
                    }
                }
                _ => {
                    // No matrix row (or matrix disabled): expansion was the
                    // complete witness set for heavy z partners.
                    for &z in &touched {
                        if !heavy.z_is_heavy(z) {
                            // z light head ⇒ L2 covers; z heavy-but-rowless
                            // still counts here.
                            if is_light_head_r(s.x_degree(z)) {
                                continue;
                            }
                        }
                        let m = dedup.multiplicity(z);
                        if m >= min_count {
                            out.push((a, z, m));
                        }
                    }
                }
            }
        }
    };

    let groups_r: Vec<(Value, &[Value])> = r.by_x().iter_nonempty().collect();
    let groups_s: Vec<(Value, &[Value])> = s.by_x().iter_nonempty().collect();
    let mut out = if threads <= 1 {
        let mut out = Vec::new();
        l1(&groups_r, &mut out);
        l2(&groups_s, &mut out);
        l3(&groups_r, &mut out);
        out
    } else {
        let chunk_r = groups_r.len().div_ceil(threads).max(1);
        let chunk_s = groups_s.len().div_ceil(threads).max(1);
        let chunks_r: Vec<&[(Value, &[Value])]> = groups_r.chunks(chunk_r).collect();
        let chunks_s: Vec<&[(Value, &[Value])]> = groups_s.chunks(chunk_s).collect();
        let nr = chunks_r.len();
        let results = exec.map(threads, nr + chunks_s.len(), |i| {
            let mut out = Vec::new();
            if i < nr {
                l1(chunks_r[i], &mut out);
                l3(chunks_r[i], &mut out);
            } else {
                l2(chunks_s[i - nr], &mut out);
            }
            out
        });
        results.concat()
    };
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeavyBackend;
    use mmjoin_baseline::fulljoin::SortMergeEngine;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    /// Brute-force pair counts.
    fn brute_counts(r: &Relation, s: &Relation) -> BTreeMap<(Value, Value), u32> {
        let mut m = BTreeMap::new();
        for &(x, y) in r.edges() {
            for &(z, y2) in s.edges() {
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

    #[test]
    fn matches_reference_with_forced_deltas() {
        let r = rel(&[(0, 0), (0, 1), (1, 0), (2, 1), (3, 2), (3, 0)]);
        let s = rel(&[(5, 0), (6, 1), (7, 0), (7, 2), (8, 1)]);
        let expected = SortMergeEngine.join_project(&r, &s);
        for (d1, d2) in [(1, 1), (1, 2), (2, 1), (3, 3), (100, 100)] {
            let cfg = JoinConfig::with_deltas(d1, d2);
            assert_eq!(
                two_path_join_project(&r, &s, &cfg),
                expected,
                "Δ1={d1} Δ2={d2}"
            );
        }
    }

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

    /// Every back end, at a mixed partition and with everything heavy
    /// (where the Boolean core skips the light passes and the sort).
    #[test]
    fn every_backend_matches_at_mixed_and_all_heavy_partitions() {
        let r = clique_relation(10, 5);
        let expected = SortMergeEngine.join_project(&r, &r);
        for backend in [HeavyBackend::Auto, HeavyBackend::DenseF32] {
            for deltas in [(2, 2), (0, 0)] {
                let cfg = JoinConfig {
                    heavy_backend: backend,
                    delta_override: Some(deltas),
                    ..JoinConfig::default()
                };
                let (out, stats) = two_path_join_project_with_stats(&r, &r, &cfg);
                assert_eq!(out, expected, "{backend:?} {deltas:?}");
                let stats = stats.unwrap();
                assert_eq!(stats.heavy_core_matrix, Some(true));
                let kernel = stats.heavy_backend.unwrap();
                assert_eq!(kernel.starts_with("bit "), backend.is_boolean());
                assert_eq!(kernel == F32_KERNEL, !backend.is_boolean());
                assert!(stats.measured_phase_secs.is_some());
            }
        }
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

    #[test]
    fn memory_cap_fallback_matches() {
        let r = clique_relation(10, 5);
        let cfg = JoinConfig {
            delta_override: Some((2, 2)),
            matrix_cell_cap: 0, // force the combinatorial heavy path
            ..JoinConfig::default()
        };
        assert_eq!(
            two_path_join_project(&r, &r, &cfg),
            SortMergeEngine.join_project(&r, &r)
        );
    }

    #[test]
    fn parallel_matches_serial() {
        let mut edges = Vec::new();
        for i in 0..600u32 {
            edges.push(((i * 7) % 80, (i * 13) % 50));
        }
        let r = rel(&edges);
        let serial = two_path_join_project(&r, &r, &JoinConfig::with_deltas(3, 3));
        for threads in [2, 4, 8] {
            let cfg = JoinConfig {
                threads,
                delta_override: Some((3, 3)),
                ..JoinConfig::default()
            };
            assert_eq!(
                two_path_join_project(&r, &r, &cfg),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn counts_exact_on_clique() {
        let r = clique_relation(8, 4);
        let got = two_path_with_counts(&r, &r, 1, &JoinConfig::with_deltas(2, 2));
        let brute = brute_counts(&r, &r);
        assert_eq!(got.len(), brute.len());
        for (x, z, c) in got {
            assert_eq!(brute[&(x, z)], c, "pair ({x},{z})");
        }
    }

    #[test]
    fn counts_min_count_filters() {
        // (0,1) share 3 elements; (0,2) share 1.
        let r = rel(&[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 2)]);
        let got = two_path_with_counts(&r, &r, 3, &JoinConfig::with_deltas(1, 1));
        let pairs: Vec<(Value, Value)> = got.iter().map(|&(x, z, _)| (x, z)).collect();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        for &(_, _, c) in &got {
            assert!(c >= 3);
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

        /// All threshold choices must produce the reference result.
        #[test]
        fn any_deltas_match_reference(
            r_edges in proptest::collection::vec((0u32..20, 0u32..15), 1..80),
            s_edges in proptest::collection::vec((0u32..20, 0u32..15), 1..80),
            d1 in 1u32..8,
            d2 in 1u32..8,
            threads in 1usize..3,
        ) {
            let r = rel(&r_edges);
            let s = rel(&s_edges);
            let cfg = JoinConfig {
                threads,
                delta_override: Some((d1, d2)),
                ..JoinConfig::default()
            };
            prop_assert_eq!(
                two_path_join_project(&r, &s, &cfg),
                SortMergeEngine.join_project(&r, &s)
            );
        }

        /// Counting variant is exact for every pair, at any thresholds.
        #[test]
        fn counts_always_exact(
            r_edges in proptest::collection::vec((0u32..15, 0u32..12), 1..60),
            s_edges in proptest::collection::vec((0u32..15, 0u32..12), 1..60),
            d1 in 1u32..6,
            d2 in 1u32..6,
        ) {
            let r = rel(&r_edges);
            let s = rel(&s_edges);
            let cfg = JoinConfig::with_deltas(d1, d2);
            let got = two_path_with_counts(&r, &s, 1, &cfg);
            let brute = brute_counts(&r, &s);
            prop_assert_eq!(got.len(), brute.len());
            for (x, z, c) in got {
                prop_assert_eq!(brute[&(x, z)], c);
            }
        }
    }
}
