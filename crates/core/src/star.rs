//! MMJoin for star queries `Q*_k(x1,…,xk) = R1(x1,y), …, Rk(xk,y)` (§3.2).
//!
//! Tuples of each relation are split three ways with thresholds `Δ1, Δ2`:
//!
//! * `R⁻i` — tuples whose head `xi` is light (`deg ≤ Δ2`);
//! * `R⋄i` — tuples whose `y` is light (`deg ≤ Δ1`) in **all other**
//!   relations;
//! * `R⁺i` — the rest.
//!
//! Steps 1–2 run the WCOJ star join `k` times, substituting `R⁻j` (then
//! `R⋄j`) for one relation at a time, and project. Step 3 packs the
//! all-heavy tuples into two *grouped-variable* matrices: rows of `V` are
//! distinct half-tuples over `x1..x⌈k/2⌉`, rows of `W` over the remaining
//! variables, columns are the `y` values heavy in ≥ 2 relations (those are
//! exactly the witnesses steps 1–2 can miss); `V · Wᵀ` enumerates the heavy
//! output.
//!
//! Correctness: an output tuple with witness `y` is found in step 1 if some
//! head is light, in step 2 if `y` is light in all-but-one relation, and
//! otherwise every head is heavy and `y` is heavy in ≥ 2 relations — step 3.
//!
//! The heavy core is the two-path's (see [`crate::two_path`]): a star only
//! reads whether a witness exists, so [`HeavyBackend::Auto`] multiplies
//! bit-packed operands over the Boolean semiring and the `DenseF32` pin runs
//! SGEMM on the same cells. Half-tuples are numbered in ascending
//! lexicographic order, so the product's set cells, walked row-major, *are*
//! the heavy output sorted and distinct. At `Δ1 = Δ2 = 0` nothing is light:
//! no substitute is built, no light step runs, and the heavy output is the
//! answer as it leaves the extractor — no accumulator, no sort. Rows leave
//! as one flat buffer, `k` values per row.
//!
//! A matrix-partitioned run records the two-path's five phases —
//! `partition`, `light`, `build`, `product`, `extract` — as `step` spans and
//! as [`PlanStats::measured_phase_secs`], beside the planner's predictions.
//!
//! [`HeavyBackend::Auto`]: crate::config::HeavyBackend::Auto

use crate::config::JoinConfig;
use crate::optimizer::{heavy_core_cost, F32_KERNEL};
use crate::two_path::{self, phase, Operands, Product};
use mmjoin_api::{FlatRows, PhaseSecs, PlanStats};
use mmjoin_matrix::{BitMatrix, BitProductPlan, DenseMatrix, Orientation};
use mmjoin_storage::{Relation, Value};
use mmjoin_wcoj::{
    full_join_count, star_full_join_for_each, star_join_project_flat, ProjectionAccumulator,
};

/// Evaluates `π_{x1..xk}(R1 ⋈ … ⋈ Rk)` with the §3.2 algorithm, returning
/// sorted distinct tuples.
pub fn star_join_project_mm<R: AsRef<Relation>>(
    relations: &[R],
    config: &JoinConfig,
) -> Vec<Vec<Value>> {
    star_join_project_mm_with_stats(relations, config).0
}

/// [`star_join_project_mm`] plus the plan record of the run (see
/// [`star_join_project_mm_flat`], which this adapts to one `Vec` per row).
pub fn star_join_project_mm_with_stats<R: AsRef<Relation>>(
    relations: &[R],
    config: &JoinConfig,
) -> (Vec<Vec<Value>>, Option<PlanStats>) {
    let (values, stats) = star_join_project_mm_flat(relations, config);
    let arity = relations.len();
    (FlatRows { arity, values }.to_rows(), stats)
}

/// The star engine: the sorted distinct tuples as one flat buffer,
/// `relations.len()` values per row, plus the plan record of the run — one
/// planning pass whose record the run then fills in, so the reported
/// thresholds are exactly the ones used.
pub fn star_join_project_mm_flat<R: AsRef<Relation>>(
    relations: &[R],
    config: &JoinConfig,
) -> (Vec<Value>, Option<PlanStats>) {
    let (flat, stats) = plan_then_run(relations, config, true);
    (flat, Some(stats))
}

/// Plans the star over `relations` — the decision record `explain` prints —
/// and, if `run`, evaluates it as planned, on the semi-join-reduced legs the
/// plan was priced on, returning the rows and the record with the run's half
/// filled in. One leg has nothing to decide, two are their two-path, and a
/// join that is empty (an empty leg, or no `y` common to all) is the
/// expansion of nothing.
pub(crate) fn plan_then_run<R: AsRef<Relation>>(
    relations: &[R],
    config: &JoinConfig,
    run: bool,
) -> (Vec<Value>, PlanStats) {
    assert!(
        !relations.is_empty(),
        "star query needs at least one relation"
    );
    if relations.iter().any(|r| r.as_ref().is_empty()) {
        return (Vec::new(), PlanStats::wcoj());
    }
    if let [r] = relations {
        // Nothing to decide, and nothing worth skipping.
        let heads = r.as_ref().by_x().iter_nonempty().map(|(x, _)| x);
        return (heads.collect(), PlanStats::wcoj());
    }
    if let [r, s] = relations {
        let (pairs, stats) = two_path::plan_then_run(r.as_ref(), s.as_ref(), config, run);
        return (pairs.into_iter().flat_map(|(x, z)| [x, z]).collect(), stats);
    }
    let reduced = &Relation::reduce_star(relations);
    if reduced.iter().any(|r| r.is_empty()) {
        return (Vec::new(), PlanStats::wcoj());
    }
    let mut stats = plan_reduced(reduced, config);
    if !run {
        return (Vec::new(), stats);
    }
    let (Some(delta1), Some(delta2)) = (stats.delta1, stats.delta2) else {
        return (star_join_project_flat(reduced), stats);
    };

    let k = reduced.len();
    let split = k.div_ceil(2);
    let boolean = config.heavy_backend.is_boolean(false);
    let (threads, exec) = (config.effective_threads(), config.exec());
    let mut secs = PhaseSecs::default();
    let mut acc = ProjectionAccumulator::new(k);

    let core = phase("partition", &mut secs.partition, || {
        HeavyCore::partition(reduced, delta1, delta2)
    });
    // Nothing is light at Δ1 = Δ2 = 0: every substitute would be empty.
    phase("light", &mut secs.light, || {
        if (delta1, delta2) != (0, 0) {
            light_steps(reduced, delta1, delta2, config, &mut acc);
        }
    });
    // Every matrix plan records all five phases, whichever of them run.
    let built = phase("build", &mut secs.build, || {
        core.build(split, boolean, config.matrix_cell_cap)
    });
    // The planner's bounds give way to what was built.
    stats.heavy_core_matrix = Some(built.is_some());
    stats.heavy_dims = built
        .as_ref()
        .map(|built| (built.a.rows(), core.cols, built.b.rows()));
    stats.heavy_backend = built.as_ref().map(|built| {
        if boolean {
            built.orientation.name()
        } else {
            F32_KERNEL
        }
    });
    let product = phase("product", &mut secs.product, || {
        let Some(built) = built else {
            // Memory guard: cross products per heavy y, deduplicated by
            // the accumulator. Correct at any size, no dense allocation.
            core.enumerate(&mut |tuple| acc.push(tuple));
            return None;
        };
        let product = built.operands.multiply(built.orientation, exec, threads);
        Some((built.a, built.b, product))
    });
    let out = phase("extract", &mut secs.extract, || {
        let heavy = product.map_or_else(Vec::new, |(a, b, product)| heavy_rows(&product, &a, &b));
        // Nothing from the light steps or the guard: the heavy rows are the
        // answer, already sorted and distinct.
        if acc.is_empty() {
            return heavy;
        }
        for tuple in heavy.chunks_exact(k) {
            acc.push(tuple);
        }
        acc.finish()
    });
    stats.measured_phase_secs = Some(secs);
    (out, stats)
}

/// Algorithm 3 for a semi-join-reduced star: line 2, then the cheapest of
/// everything-heavy (`Δ1 = Δ2 = 0`, priced from the degree counts alone)
/// and a geometric grid of `Δ = Δ1 = Δ2` candidates (the boundary regime of
/// §3.1 case 2). Each candidate costs `O(k·(N + |dom(y)|))` to price. The
/// record's heavy core `(rows of V, heavy y columns, rows of W)` carries
/// upper bounds on the row counts from the degree counts (the run reports
/// the interned ones), and no kernel when no matrix would be built (an empty
/// core, or one over the memory cap).
fn plan_reduced(relations: &[Relation], config: &JoinConfig) -> PlanStats {
    let n = relations.iter().map(|r| r.len()).max().unwrap_or(1).max(1) as u64;
    let full_join = full_join_count(relations);
    let estimated_out = estimate_star_output(relations, full_join, n);
    let plan = |partition: Option<(u32, u32, Priced)>| {
        let mut stats = match partition {
            None => PlanStats::wcoj(),
            Some((delta1, delta2, priced)) => PlanStats {
                heavy_dims: Some(priced.dims),
                heavy_core_matrix: Some(priced.kernel.is_some()),
                heavy_backend: priced.kernel,
                predicted_light_secs: Some(priced.light),
                predicted_heavy_secs: Some(priced.heavy),
                ..PlanStats::partitioned(delta1, delta2)
            },
        };
        stats.full_join = Some(full_join);
        stats.estimated_out = Some(estimated_out);
        stats
    };
    if let Some((delta1, delta2)) = config.delta_override {
        let priced = price(relations, delta1, delta2, estimated_out, config);
        return plan(Some((delta1, delta2, priced)));
    }
    // Line 2, star flavour: join already output-like.
    if full_join as f64 <= config.fallback_factor(false) * n as f64 {
        return plan(None);
    }
    let max_deg = relations
        .iter()
        .flat_map(|r| r.by_y().iter_nonempty().map(|(_, l)| l.len()))
        .max()
        .unwrap_or(1) as u32;
    // Everything-heavy first: it wins ties.
    let mut best = (0u32, price(relations, 0, 0, estimated_out, config));
    let mut delta = 1u32;
    while delta <= max_deg.saturating_mul(2) {
        let priced = price(relations, delta, delta, estimated_out, config);
        if priced.total() < best.1.total() {
            best = (delta, priced);
        }
        delta = delta.saturating_mul(2);
    }
    let (delta, priced) = best;
    plan(Some((delta, delta, priced)))
}

/// `|OUT|` of a star, as §5 estimates a two-path's: the geometric mean of
/// the tightest bounds the counts give. Below, every head value occurs in
/// some output tuple and `|OUT⋈| ≤ N·|OUT|^{1−1/k}` (Proposition 1); above,
/// the output is a subset of the head domains' product and of the full join.
fn estimate_star_output(relations: &[Relation], full_join: u64, n: u64) -> u64 {
    let k = relations.len() as f64;
    let heads = relations.iter().map(|r| r.active_x_count() as f64);
    let lower = (full_join as f64 / n as f64)
        .powf(k / (k - 1.0))
        .max(heads.clone().fold(1.0, f64::max));
    let upper = heads.product::<f64>().min(full_join as f64).max(lower);
    (lower * upper).sqrt().round() as u64
}

/// One priced `(Δ1, Δ2)`.
#[derive(Debug, Clone, Copy)]
struct Priced {
    light: f64,
    heavy: f64,
    dims: (usize, usize, usize),
    kernel: Option<&'static str>,
}

impl Priced {
    fn total(&self) -> f64 {
        self.light + self.heavy
    }
}

/// A light-step or fallback witness costs far more than one dense insert:
/// leapfrog advancement, the product odometer and the accumulator's
/// amortised sort add up to roughly an order of magnitude over `TI`.
const WITNESS_FACTOR: f64 = 12.0;

/// Predicted work at `(Δ1, Δ2)`: the exact sizes of the `2k`
/// light-substituted joins of steps 1–2, and step 3 priced as the two-path
/// prices its heavy core ([`heavy_core_cost`]: product, operand fill,
/// allocation, scan, emit) plus one insert per cell for numbering the
/// half-tuples. A core that is over the memory cap is priced as the
/// enumeration that replaces it.
fn price(
    relations: &[Relation],
    delta1: u32,
    delta2: u32,
    estimated_out: u64,
    config: &JoinConfig,
) -> Priced {
    let k = relations.len();
    let split = k.div_ceil(2);
    let consts = config.cost_model.constants;
    let ydom = relations.iter().map(|r| r.y_domain()).min().unwrap_or(0);
    let (mut light_join, mut heavy_join) = (0f64, 0f64);
    let (mut nnz_a, mut nnz_b, mut cols) = (0f64, 0f64, 0usize);
    // Per relation under one y: degree and heavy-head degree.
    let (mut degs, mut heavy_degs) = (vec![0f64; k], vec![0f64; k]);
    for y in 0..ydom as Value {
        for (i, r) in relations.iter().enumerate() {
            let xs = r.xs_of(y);
            degs[i] = xs.len() as f64;
            heavy_degs[i] = if delta2 == 0 {
                degs[i]
            } else {
                xs.iter()
                    .filter(|&&x| r.x_degree(x) > delta2 as usize)
                    .count() as f64
            };
        }
        if degs.contains(&0.0) {
            continue;
        }
        let product: f64 = degs.iter().product();
        for j in 0..k {
            // Step 1: the R⁻j-substituted join.
            light_join += product / degs[j] * (degs[j] - heavy_degs[j]);
            // Step 2: the R⋄j one — y must be light in all i ≠ j.
            if (0..k).all(|i| i == j || degs[i] <= delta1 as f64) {
                light_join += product;
            }
        }
        // Step 3: y heavy in ≥ 2 relations, under a heavy head in each.
        if degs.iter().filter(|&&d| d > delta1 as f64).count() >= 2 && !heavy_degs.contains(&0.0) {
            cols += 1;
            let (a, b) = heavy_degs.split_at(split);
            nnz_a += a.iter().product::<f64>();
            nnz_b += b.iter().product::<f64>();
            heavy_join += heavy_degs.iter().product::<f64>();
        }
    }
    // Rows are distinct half-tuples: no more than the cells, nor than the
    // head domains allow.
    let rows = |nnz: f64, group: &[Relation]| {
        let domains: f64 = group.iter().map(|r| r.active_x_count() as f64).product();
        nnz.min(domains) as usize
    };
    let dims = (
        rows(nnz_a, &relations[..split]),
        cols,
        rows(nnz_b, &relations[split..]),
    );
    let boolean = config.heavy_backend.is_boolean(false);
    let matrix = heavy_core_cost(config, boolean, dims, nnz_a, nnz_b, estimated_out as f64);
    let (heavy, kernel) = match matrix {
        Some((cost, kernel)) => (cost + consts.t_insert * (nnz_a + nnz_b), Some(kernel)),
        None => (consts.t_insert * WITNESS_FACTOR * heavy_join, None),
    };
    // The 2k substitutes are each built from one relation's tuples.
    let tuples: usize = relations.iter().map(|r| r.len()).sum();
    let substitutes = if (delta1, delta2) == (0, 0) {
        0.0
    } else {
        consts.t_insert * 2.0 * tuples as f64
    };
    Priced {
        light: consts.t_insert * WITNESS_FACTOR * light_join + substitutes,
        heavy,
        dims,
        kernel,
    }
}

/// Builds the `R⁻j` substitute: tuples with a light head.
fn build_minus(relations: &[Relation], j: usize, delta2: u32) -> Relation {
    let r = &relations[j];
    let kept = r
        .tuples()
        .filter(|&(x, _)| r.x_degree(x) <= delta2 as usize);
    Relation::from_sorted_edges(r.x_domain(), r.y_domain(), kept.collect())
}

/// Builds the `R⋄j` substitute: tuples whose `y` is light in all other
/// relations.
fn build_diamond(relations: &[Relation], j: usize, delta1: u32) -> Relation {
    let r = &relations[j];
    let kept = r.tuples().filter(|&(_, y)| {
        relations.iter().enumerate().all(|(i, ri)| {
            i == j || (y as usize) >= ri.y_domain() || ri.y_degree(y) <= delta1 as usize
        })
    });
    Relation::from_sorted_edges(r.x_domain(), r.y_domain(), kept.collect())
}

/// Steps 1–2: for each `j`, join with `R⁻j` (light heads) and `R⋄j`
/// (`y` light everywhere else) substituted. The `2k` substituted group
/// joins are independent, so with parallelism they run as executor tasks
/// each collecting into a private buffer, merged in job order.
fn light_steps(
    relations: &[Relation],
    delta1: u32,
    delta2: u32,
    config: &JoinConfig,
    acc: &mut ProjectionAccumulator,
) {
    let k = relations.len();
    let substitute = |t: usize| {
        if t.is_multiple_of(2) {
            build_minus(relations, t / 2, delta2)
        } else {
            build_diamond(relations, t / 2, delta1)
        }
    };
    let threads = config.effective_threads();
    if threads <= 1 {
        for t in 0..2 * k {
            join_substituted(relations, t / 2, &substitute(t), |tuple| acc.push(tuple));
        }
        return;
    }
    // The executor tasks can't share the accumulator.
    let flats = config.exec().map(threads, 2 * k, |t| {
        let mut flat: Vec<Value> = Vec::new();
        join_substituted(relations, t / 2, &substitute(t), |tuple| {
            flat.extend_from_slice(tuple)
        });
        flat
    });
    for flat in flats {
        for tuple in flat.chunks_exact(k) {
            acc.push(tuple);
        }
    }
}

/// The full star join with `substitute` in place of relation `j`.
fn join_substituted(
    relations: &[Relation],
    j: usize,
    substitute: &Relation,
    mut f: impl FnMut(&[Value]),
) {
    if substitute.is_empty() {
        return;
    }
    let mut working: Vec<&Relation> = relations.iter().collect();
    working[j] = substitute;
    star_full_join_for_each(&working, |_, tuple| f(tuple));
}

/// Step 3's partition: the heavy `y` columns and, per relation, the
/// heavy-head sublist under each of them — computed once.
struct HeavyCore {
    /// Heavy columns: `y` heavier than `Δ1` in ≥ 2 relations and under a
    /// heavy head in every relation (any other column is all zero).
    cols: usize,
    /// One per relation.
    lists: Vec<HeavyLists>,
}

/// The heads heavier than `Δ2` of one relation under each heavy column, in
/// CSR form; a column's heads ascend.
struct HeavyLists {
    offsets: Vec<usize>,
    heads: Vec<Value>,
}

impl HeavyLists {
    fn of(&self, col: usize) -> &[Value] {
        &self.heads[self.offsets[col]..self.offsets[col + 1]]
    }
}

impl HeavyCore {
    fn partition(relations: &[Relation], delta1: u32, delta2: u32) -> Self {
        let ydom = relations.iter().map(|r| r.y_domain()).min().unwrap_or(0);
        let mut lists: Vec<HeavyLists> = relations
            .iter()
            .map(|_| HeavyLists {
                offsets: vec![0],
                heads: Vec::new(),
            })
            .collect();
        let mut cols = 0;
        for y in 0..ydom as Value {
            let heavy_in = relations
                .iter()
                .filter(|r| r.y_degree(y) > delta1 as usize)
                .count();
            if heavy_in < 2 {
                continue;
            }
            for (r, l) in relations.iter().zip(&mut lists) {
                let heads = r.xs_of(y).iter();
                l.heads
                    .extend(heads.filter(|&&x| r.x_degree(x) > delta2 as usize));
            }
            let empty = lists.iter().any(|l| l.heads.len() == l.offsets[cols]);
            for l in &mut lists {
                if empty {
                    l.heads.truncate(l.offsets[cols]);
                } else {
                    l.offsets.push(l.heads.len());
                }
            }
            cols += usize::from(!empty);
        }
        Self { cols, lists }
    }

    /// The heavy output by cross products per heavy column, duplicates
    /// included — what runs when no matrix is built.
    fn enumerate(&self, f: &mut impl FnMut(&[Value])) {
        for col in 0..self.cols {
            let lists: Vec<&[Value]> = self.lists.iter().map(|l| l.of(col)).collect();
            cross_product_emit(&lists, f);
        }
    }

    /// The operands of `V · Wᵀ` over `lists[..split]` and `lists[split..]`.
    /// `None` when there is no core, when a group's half-tuples cannot be
    /// numbered in 64 bits, or when the cells plus the matrices of the
    /// representation that runs would take more than `4 · cell_cap` bytes.
    fn build(&self, split: usize, boolean: bool, cell_cap: usize) -> Option<Built> {
        if self.cols == 0 {
            return None;
        }
        let (group_a, group_b) = self.lists.split_at(split);
        let cells = |group: &[HeavyLists]| {
            (0..self.cols).fold(0u64, |sum, col| {
                let product = group
                    .iter()
                    .fold(1u64, |p, l| p.saturating_mul(l.of(col).len() as u64));
                sum.saturating_add(product)
            })
        };
        // Checked before anything sized by the cells is allocated: 24 bytes
        // a cell (its key, its coordinates) while the half-tuples are
        // numbered, then the matrices, with a group's cell count standing
        // in for its (no larger) row count.
        let (u, v, w) = (cells(group_a), self.cols, cells(group_b));
        let cap_bytes = 4.0 * cell_cap as f64;
        let numbering = 24.0 * (u as f64 + w as f64);
        if numbering > cap_bytes {
            return None;
        }
        let (u, w) = (u as usize, w as usize);
        let matrices = if boolean {
            BitProductPlan::choose(u, v, w, u as f64, w as f64).bytes as f64
        } else {
            let (u, v, w) = (u as f64, v as f64, w as f64);
            4.0 * (u * v + v * w + u * w)
        };
        if numbering + matrices > cap_bytes {
            return None;
        }
        let (a, b) = (intern(group_a, self.cols)?, intern(group_b, self.cols)?);
        let orientation = BitProductPlan::choose(
            a.rows(),
            self.cols,
            b.rows(),
            a.cells.len() as f64,
            b.cells.len() as f64,
        )
        .orientation;
        // Both kinds are filled from the same cells; `W` is stored as the
        // product reads it: transposed, except for AND-any.
        let (v_cells, w_cells) = (a.cells.iter().copied(), b.cells.iter().copied());
        let wt_cells = b.cells.iter().map(|&(row, col)| (col, row));
        let (u, v, w) = (a.rows(), self.cols, b.rows());
        let operands = if boolean {
            let m2 = match orientation {
                Orientation::RowOr => bit_matrix(v, w, wt_cells),
                Orientation::AndAny => bit_matrix(w, v, w_cells),
            };
            Operands::Bit(bit_matrix(u, v, v_cells), m2)
        } else {
            Operands::F32(f32_matrix(u, v, v_cells), f32_matrix(v, w, wt_cells))
        };
        Some(Built {
            a,
            b,
            operands,
            orientation,
        })
    }
}

fn bit_matrix(rows: usize, cols: usize, cells: impl Iterator<Item = (usize, usize)>) -> BitMatrix {
    let mut m = BitMatrix::zeros(rows, cols);
    cells.for_each(|(i, j)| m.set(i, j));
    m
}

fn f32_matrix(
    rows: usize,
    cols: usize,
    cells: impl Iterator<Item = (usize, usize)>,
) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    cells.for_each(|(i, j)| m.set(i, j, 1.0));
    m
}

/// What the build phase hands to the product and the extraction.
struct Built {
    a: Side,
    b: Side,
    operands: Operands,
    /// How a Boolean product runs (unread by SGEMM).
    orientation: Orientation,
}

/// One operand's worth of the heavy core: the distinct half-tuples of a
/// group of relations in ascending lexicographic order — the operand's
/// rows — and the cells they occupy.
struct Side {
    /// Relations in the group: values per half-tuple.
    arity: usize,
    /// The half-tuples, row after row.
    tuples: Vec<Value>,
    /// `(row, heavy column)` of every set cell, each once, row-major.
    cells: Vec<(usize, usize)>,
}

impl Side {
    fn rows(&self) -> usize {
        self.tuples.len() / self.arity
    }

    fn tuple(&self, row: usize) -> &[Value] {
        &self.tuples[row * self.arity..(row + 1) * self.arity]
    }
}

/// Numbers the distinct half-tuples of `group` in ascending lexicographic
/// order without hashing: every head becomes its rank among its relation's
/// distinct heavy heads, a cell becomes the integer `rank₁ ‖ … ‖ rank_g ‖
/// column` (bit fields, most significant first), and sorting those integers
/// puts the cells row-major with equal half-tuples adjacent. `None` when
/// the fields do not fit 64 bits.
fn intern(group: &[HeavyLists], cols: usize) -> Option<Side> {
    let bits_for = |n: usize| usize::BITS - n.saturating_sub(1).leading_zeros();
    // Per relation: distinct heavy heads ascending, `head → rank` by direct
    // address, and the width of a rank.
    let ranked: Vec<(Vec<Value>, Vec<u32>, u32)> = group
        .iter()
        .map(|l| {
            let domain = l.heads.iter().max().map_or(0, |&x| x as usize + 1);
            let mut rank_of = vec![u32::MAX; domain];
            for &x in &l.heads {
                rank_of[x as usize] = 0;
            }
            let mut distinct = Vec::new();
            for (x, rank) in rank_of.iter_mut().enumerate() {
                if *rank == 0 {
                    *rank = distinct.len() as u32;
                    distinct.push(x as Value);
                }
            }
            let bits = bits_for(distinct.len());
            (distinct, rank_of, bits)
        })
        .collect();
    let col_bits = bits_for(cols);
    if ranked.iter().map(|r| r.2).sum::<u32>() + col_bits > u64::BITS {
        return None;
    }

    // Column by column the odometer runs the first relation slowest, so a
    // column's keys ascend: the sort below merges `cols` sorted runs.
    let mut keys: Vec<u64> = Vec::new();
    let (mut prefixes, mut next) = (Vec::new(), Vec::new());
    for col in 0..cols {
        prefixes.clear();
        prefixes.push(0u64);
        for (l, (_, rank_of, bits)) in group.iter().zip(&ranked) {
            next.clear();
            for &p in &prefixes {
                let ranks = l.of(col).iter().map(|&x| rank_of[x as usize] as u64);
                next.extend(ranks.map(|rank| p << bits | rank));
            }
            std::mem::swap(&mut prefixes, &mut next);
        }
        keys.extend(prefixes.iter().map(|&p| p << col_bits | col as u64));
    }
    keys.sort();

    let arity = group.len();
    let (mut tuples, mut cells) = (Vec::new(), Vec::with_capacity(keys.len()));
    let mut last = None;
    for &key in &keys {
        let (mut half, col) = (key >> col_bits, key & ((1 << col_bits) - 1));
        if last != Some(half) {
            last = Some(half);
            // A new row: decode the ranks back into heads.
            let at = tuples.len();
            tuples.resize(at + arity, 0);
            for (slot, (distinct, _, bits)) in tuples[at..].iter_mut().zip(&ranked).rev() {
                *slot = distinct[(half & ((1 << bits) - 1)) as usize];
                half >>= bits;
            }
        }
        cells.push((tuples.len() / arity - 1, col as usize));
    }
    Some(Side {
        arity,
        tuples,
        cells,
    })
}

/// The heavy output from the product's set cells, row-major: ascending
/// half-tuples on both sides, so sorted and distinct — one flat buffer.
fn heavy_rows(product: &Product, a: &Side, b: &Side) -> Vec<Value> {
    let rows = match product {
        Product::Bit(c) => c.count_ones(),
        Product::F32(c) => c.entries_at_least(0.5).count(),
    };
    let mut flat = vec![0 as Value; rows * (a.arity + b.arity)];
    let mut slots = flat.chunks_exact_mut(a.arity + b.arity);
    // Value by value: a row is a handful of them, too short for memcpy.
    let mut emit = |i: usize, j: usize| {
        let slot = slots.next().expect("one slot per set cell");
        let values = a.tuple(i).iter().chain(b.tuple(j));
        slot.iter_mut()
            .zip(values)
            .for_each(|(to, &from)| *to = from);
    };
    match product {
        Product::Bit(c) => c.iter_ones().for_each(|(i, j)| emit(i, j)),
        Product::F32(c) => c.entries_at_least(0.5).for_each(|(i, j, _)| emit(i, j)),
    }
    flat
}

/// Emits every tuple of the Cartesian product of `lists` via an odometer.
fn cross_product_emit(lists: &[&[Value]], f: &mut impl FnMut(&[Value])) {
    let k = lists.len();
    if lists.iter().any(|l| l.is_empty()) {
        return;
    }
    let mut idx = vec![0usize; k];
    let mut tuple = vec![0 as Value; k];
    'outer: loop {
        for i in 0..k {
            tuple[i] = lists[i][idx[i]];
        }
        f(&tuple);
        let mut d = k;
        loop {
            if d == 0 {
                break 'outer;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < lists[d].len() {
                break;
            }
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_api::PlanKind;
    use mmjoin_wcoj::star_join_project;
    use proptest::prelude::*;

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    fn clique(sets: u32, elems: u32, seed: u32) -> Relation {
        let mut edges = Vec::new();
        for x in 0..sets {
            for y in 0..elems {
                edges.push((x, (y + seed) % (elems + seed + 1)));
            }
        }
        rel(&edges)
    }

    #[test]
    fn k3_matches_reference_forced_deltas() {
        let r1 = clique(10, 5, 0);
        let r2 = clique(8, 5, 0);
        let r3 = clique(9, 5, 0);
        let rels = vec![r1, r2, r3];
        let expected = star_join_project(&rels);
        for (d1, d2) in [(1, 1), (2, 2), (1, 3), (4, 2), (50, 50)] {
            let cfg = JoinConfig::with_deltas(d1, d2);
            assert_eq!(star_join_project_mm(&rels, &cfg), expected, "Δ=({d1},{d2})");
        }
    }

    #[test]
    fn k3_matches_reference_with_optimizer() {
        let rels = vec![clique(12, 4, 0), clique(10, 4, 0), clique(11, 4, 0)];
        let cfg = JoinConfig {
            wcoj_fallback_factor: 1.0,
            ..JoinConfig::default()
        };
        assert_eq!(star_join_project_mm(&rels, &cfg), star_join_project(&rels));
    }

    #[test]
    fn k4_matches_reference() {
        // Example 3 of the paper uses k = 4.
        let rels = vec![
            clique(6, 3, 0),
            clique(5, 3, 0),
            clique(6, 3, 0),
            clique(4, 3, 0),
        ];
        let expected = star_join_project(&rels);
        let cfg = JoinConfig::with_deltas(1, 1);
        assert_eq!(star_join_project_mm(&rels, &cfg), expected);
    }

    /// Past line 2 a dense star is everything-heavy: priced from the degree
    /// counts with no light term, and run with nothing but the heavy core —
    /// the run's record is the plan's, with the exact dimensions.
    #[test]
    fn dense_star_plans_and_runs_everything_heavy() {
        let rels = vec![clique(30, 8, 0), clique(20, 8, 0), clique(10, 8, 0)];
        let config = JoinConfig::default();
        let (_, plan) = plan_then_run(&rels, &config, false);
        assert_eq!(plan.kind, PlanKind::MatrixPartitioned);
        assert_eq!((plan.delta1, plan.delta2), (Some(0), Some(0)));
        // |OUT| = 6000: between (|OUT⋈|/N)^{3/2} = 2828 and the domains' product.
        assert_eq!(
            (plan.full_join, plan.estimated_out),
            (Some(48_000), Some(4_120))
        );
        assert_eq!(plan.heavy_dims, Some((600, 8, 10)));
        assert!(plan.heavy_backend.unwrap().starts_with("bit "));
        assert_eq!(plan.predicted_light_secs, Some(0.0));
        assert!(plan.predicted_heavy_secs.unwrap() > 0.0);

        let (rows, stats) = star_join_project_mm_with_stats(&rels, &config);
        assert_eq!(rows, star_join_project(&rels));
        let stats = stats.unwrap();
        assert_eq!(stats.heavy_core_matrix, Some(true));
        assert!(stats.measured_phase_secs.is_some());
        let planned_half = PlanStats {
            measured_phase_secs: None,
            heavy_backend: plan.heavy_backend,
            ..stats
        };
        assert_eq!(planned_half, plan);

        // The pin prices and runs SGEMM on the same cells.
        let pinned = JoinConfig {
            heavy_backend: crate::config::HeavyBackend::DenseF32,
            ..JoinConfig::default()
        };
        assert_eq!(
            plan_then_run(&rels, &pinned, false).1.heavy_backend,
            Some("f32")
        );
        assert_eq!(star_join_project_mm(&rels, &pinned), rows);
    }

    /// Line 2, and the degenerate shapes with nothing of their own to decide.
    #[test]
    fn output_like_and_degenerate_stars() {
        let matching = rel(&(0..50).map(|i| (i, i)).collect::<Vec<_>>());
        let rels = vec![matching.clone(), matching.clone(), matching.clone()];
        let config = JoinConfig::default();
        let (_, plan) = plan_then_run(&rels, &config, false);
        assert_eq!((plan.kind, plan.full_join), (PlanKind::Wcoj, Some(50)));
        assert_eq!(plan.heavy_backend, None);
        // Two legs are planned as their two-path.
        let pair = two_path::plan_two_path(&matching, &matching, &config, false);
        assert_eq!(plan_then_run(&rels[..2], &config, false).1, pair);
        // No `y` common to all: the expansion of nothing.
        let disjoint = vec![matching.clone(), matching, rel(&[(0, 99)])];
        assert_eq!(
            plan_then_run(&disjoint, &config, false).1,
            PlanStats::wcoj()
        );
        assert!(star_join_project_mm(&disjoint, &config).is_empty());
    }

    /// Half-tuples are numbered in lexicographic order whatever order the
    /// columns list them in, and every cell is kept once.
    #[test]
    fn interning_numbers_half_tuples_in_ascending_order() {
        let lists = |columns: &[&[Value]]| HeavyLists {
            offsets: columns
                .iter()
                .scan(0, |end, c| {
                    *end += c.len();
                    Some(*end)
                })
                .fold(vec![0], |mut offsets, end| {
                    offsets.push(end);
                    offsets
                }),
            heads: columns.concat(),
        };
        // Two columns; the second repeats (9, 4) and adds smaller tuples.
        let group = [lists(&[&[9, 70], &[2, 9]]), lists(&[&[4], &[1, 4]])];
        let side = intern(&group, 2).unwrap();
        assert_eq!(side.tuples, [2, 1, 2, 4, 9, 1, 9, 4, 70, 4]);
        assert_eq!(side.cells, [(0, 1), (1, 1), (2, 1), (3, 0), (3, 1), (4, 0)]);
    }

    #[test]
    fn k1_and_k2_delegate() {
        let r = rel(&[(0, 0), (1, 0), (5, 1)]);
        let out1 = star_join_project_mm(std::slice::from_ref(&r), &JoinConfig::default());
        assert_eq!(out1, vec![vec![0], vec![1], vec![5]]);
        let out2 = star_join_project_mm(&[r.clone(), r.clone()], &JoinConfig::default());
        assert_eq!(out2, star_join_project(&[r.clone(), r]));
    }

    #[test]
    fn empty_relation_short_circuits() {
        let r = rel(&[(0, 0)]);
        let empty = rel(&[]);
        assert!(star_join_project_mm(&[r, empty], &JoinConfig::default()).is_empty());
    }

    #[test]
    fn memory_cap_fallback_matches() {
        let rels = vec![clique(10, 4, 0), clique(9, 4, 0), clique(8, 4, 0)];
        let cfg = JoinConfig {
            delta_override: Some((1, 1)),
            matrix_cell_cap: 0,
            ..JoinConfig::default()
        };
        assert_eq!(star_join_project_mm(&rels, &cfg), star_join_project(&rels));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn k3_always_matches_reference(
            e1 in proptest::collection::vec((0u32..10, 0u32..8), 1..40),
            e2 in proptest::collection::vec((0u32..10, 0u32..8), 1..40),
            e3 in proptest::collection::vec((0u32..10, 0u32..8), 1..40),
            d1 in 1u32..5,
            d2 in 1u32..5,
        ) {
            let rels = vec![rel(&e1), rel(&e2), rel(&e3)];
            let cfg = JoinConfig::with_deltas(d1, d2);
            prop_assert_eq!(
                star_join_project_mm(&rels, &cfg),
                star_join_project(&rels)
            );
        }
    }
}
