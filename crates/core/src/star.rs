//! MMJoin for star queries `Q*_k(x1,…,xk) = R1(x1,y), …, Rk(xk,y)` (§3.2).
//!
//! A star is planned like an existence two-path (see [`crate::two_path`]):
//! line 2 of Algorithm 3 weighs expansion of the star's exact full join
//! against the *everything-heavy* core — `Δ1 = Δ2 = 0` — and runs the core
//! when it is cheaper and fits the memory cap. Nothing is light then: the
//! answer is the heavy core's product itself, handed to the sink as its cells
//! ([`FlatRows::product`]) — no accumulator, no sort, and no row written
//! until one is read; its cells, walked row-major, are the rows sorted and
//! distinct.
//!
//! The heavy core multiplies two *grouped-variable* matrices: rows of `V`
//! are the distinct half-tuples over `x1..x⌈k/2⌉`, rows of `W` over the
//! remaining variables, columns are the heavy `y`; `V · Wᵀ` is the heavy
//! output. Each leg is read as two bit matrices built from its CSR rows —
//! heavy heads × heavy columns, and the heavy heads under each column — and
//! the rows of `V` grow one leg at a time: a prefix's candidates are the
//! heads under any column it reaches, and a candidate's columns AND-ed with
//! the prefix's are the longer half-tuple's, never empty. Prefixes and
//! candidates ascend, so the rows do too, and the product's set cells,
//! walked row-major, *are* the output sorted. A star only reads whether a
//! witness exists, so [`HeavyBackend::Auto`] multiplies the bit rows and the
//! `DenseF32` pin runs SGEMM on f32 operands filled from the same bits. The
//! Boolean product takes the AND of `W`'s rows as its universal mask: a `V`
//! row holding a column every `W` row holds meets every `W` row, and is set
//! full untested. The cap is checked on the exact bytes of `V`, `W` and the
//! product; a forced core over it runs the whole star as expansion.
//!
//! A forced partition (`delta_override`) splits each relation's tuples
//! three ways with thresholds `Δ1, Δ2`:
//!
//! * `R⁻i` — tuples whose head `xi` is light (`deg ≤ Δ2`);
//! * `R⋄i` — tuples whose `y` is light (`deg ≤ Δ1`) in **all other**
//!   relations;
//! * `R⁺i` — the rest.
//!
//! Steps 1–2 run the WCOJ star join `k` times, substituting `R⁻j` (then
//! `R⋄j`) for one relation at a time, and project; step 3 is the heavy core
//! over the heavy heads and the `y` heavy in ≥ 2 relations. An output tuple
//! with witness `y` is found in step 1 if some head is light, in step 2 if
//! `y` is light in all-but-one relation, and otherwise every head is heavy
//! and `y` is heavy in ≥ 2 relations — step 3.
//!
//! A matrix-partitioned run records the two-path's five phases —
//! `partition`, `light`, `build`, `product`, `extract` — as `step` spans and
//! as [`PlanStats::measured_phase_secs`], beside the planner's predictions.
//!
//! [`HeavyBackend::Auto`]: crate::config::HeavyBackend::Auto

use crate::config::JoinConfig;
use crate::optimizer::{heavy_core_cost, line_two, F32_KERNEL};
use crate::two_path::{self, extract_label, extract_phase, phase, product_phase, Operands};
use mmjoin_api::{FlatRows, PhaseSecs, PlanStats};
use mmjoin_matrix::bitmat::ones;
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
    (FlatRows::new(relations.len(), values).to_rows(), stats)
}

/// The star engine: the sorted distinct tuples as one flat buffer,
/// `relations.len()` values per row, plus the plan record of the run — one
/// planning pass whose record the run then fills in, so the reported
/// thresholds are exactly the ones used.
pub fn star_join_project_mm_flat<R: AsRef<Relation>>(
    relations: &[R],
    config: &JoinConfig,
) -> (Vec<Value>, Option<PlanStats>) {
    let (rows, stats) = plan_then_run(relations, config, true);
    (rows.into_values(), Some(stats))
}

/// Plans the star over `relations` — the decision record `explain` prints —
/// and, if `run`, evaluates it as planned, on the semi-join-reduced legs the
/// plan was priced on, returning the rows and the record with the run's half
/// filled in — the Boolean core's product as its cells
/// ([`FlatRows::product`]), any other plan's rows flat. One leg has nothing
/// to decide, two are their two-path, and a join that is empty (an empty
/// leg, or no `y` common to all) is the expansion of nothing.
pub(crate) fn plan_then_run<R: AsRef<Relation>>(
    relations: &[R],
    config: &JoinConfig,
    run: bool,
) -> (FlatRows, PlanStats) {
    assert!(
        !relations.is_empty(),
        "star query needs at least one relation"
    );
    let k = relations.len();
    let none = || FlatRows::new(k, Vec::new());
    if relations.iter().any(|r| r.as_ref().is_empty()) {
        return (none(), PlanStats::wcoj());
    }
    if let [r] = relations {
        // Nothing to decide, and nothing worth skipping.
        let heads = r.as_ref().by_x().iter_nonempty().map(|(x, _)| x);
        return (FlatRows::new(1, heads.collect()), PlanStats::wcoj());
    }
    if let [r, s] = relations {
        let (rows, stats) = two_path::plan_then_run(r.as_ref(), s.as_ref(), config, run);
        return (rows.into_rows(), stats);
    }
    let reduced = &Relation::reduce_star(relations);
    if reduced.iter().any(|r| r.is_empty()) {
        return (none(), PlanStats::wcoj());
    }
    let mut stats = plan_reduced(reduced, config);
    if !run {
        return (none(), stats);
    }
    let expand = || FlatRows::new(k, star_join_project_flat(reduced));
    let (Some(delta1), Some(delta2)) = (stats.delta1, stats.delta2) else {
        return (expand(), stats);
    };

    let boolean = config.heavy_backend.is_boolean();
    let (threads, exec) = (config.effective_threads(), config.exec());
    let mut secs = PhaseSecs::default();
    let mut acc = ProjectionAccumulator::new(k);

    let core = phase("partition", &mut secs.partition, || {
        HeavyCols::partition(reduced, delta1, delta2)
    });
    // Nothing is light at Δ1 = Δ2 = 0: every substitute would be empty.
    phase("light", &mut secs.light, || {
        if (delta1, delta2) != (0, 0) {
            light_steps(reduced, delta1, delta2, &mut acc);
        }
    });
    // Every matrix plan records all five phases, whichever of them run —
    // unless its core is over the cap and it expands instead.
    let built = phase("build", &mut secs.build, || {
        core.build(boolean, config.matrix_cell_cap)
    });
    // The planner's bounds give way to what was built.
    stats.heavy_core_matrix = Some(built.is_some());
    stats.heavy_dims = built
        .as_ref()
        .map(|built| (built.v.len(), core.cols, built.w.len()));
    stats.heavy_backend = built.as_ref().map(|built| {
        if boolean {
            built.orientation.name()
        } else {
            F32_KERNEL
        }
    });
    if built.is_none() && core.cols > 0 {
        // Over the cap: the whole star runs as expansion instead.
        return (expand(), stats);
    }
    let rows = built.as_ref().map_or(0, |built| built.v.len());
    let (product, filled) = product_phase(&mut secs.product, rows, || match built {
        Some(built) => {
            let (product, filled) =
                built
                    .operands
                    .multiply(built.orientation, &built.universal, exec, threads);
            (Some((product, built.v, built.w)), filled)
        }
        None => (None, None),
    });
    stats.rows_filled = filled;
    let extract = || {
        // Ascending half-tuples on both sides, row-major cells: sorted,
        // distinct rows.
        let heavy = product.map_or_else(none, |(product, v, w)| {
            FlatRows::product(product.into_bits().into_words(), v, w)
        });
        // Nothing from the light steps: the heavy rows are the answer — the
        // Boolean product as it stands.
        if acc.is_empty() {
            if boolean {
                return heavy;
            }
            return FlatRows::new(k, heavy.into_values());
        }
        for tuple in heavy.into_values().chunks_exact(k) {
            acc.push(tuple);
        }
        FlatRows::new(k, acc.finish())
    };
    let out = extract_phase(&mut secs.extract, extract, extract_label);
    stats.measured_phase_secs = Some(secs);
    (out, stats)
}

/// Algorithm 3 for a semi-join-reduced star, as the two-path runs it for an
/// existence query: line 2 ([`line_two`]) between expansion of the star's
/// exact full join and the everything-heavy (`Δ1 = Δ2 = 0`) core built for
/// this query ([`price_all_heavy`]) — expansion when that core is over the
/// memory cap. The record's heavy core `(rows of V, heavy y
/// columns, rows of W)` carries upper bounds on the row counts (the run
/// reports the exact ones). A forced `delta_override` is recorded unpriced,
/// like a forced two-path; the run fills in the rest.
fn plan_reduced(relations: &[Relation], config: &JoinConfig) -> PlanStats {
    if let Some((delta1, delta2)) = config.delta_override {
        return PlanStats::partitioned(delta1, delta2);
    }
    let n = relations.iter().map(|r| r.len()).max().unwrap_or(1).max(1) as u64;
    let full_join = full_join_count(relations);
    let estimated_out = estimate_star_output(relations, full_join, n);
    let mut dims = (0, 0, 0);
    let (line_two, all_heavy) = line_two(config, full_join, n as usize, || {
        let priced = price_all_heavy(relations, estimated_out, config)?;
        dims = priced.0;
        Some((priced.1, priced.2))
    });
    let mut stats = match all_heavy {
        None => PlanStats::wcoj(),
        Some((heavy, kernel)) => PlanStats {
            heavy_dims: Some(dims),
            heavy_core_matrix: Some(true),
            heavy_backend: Some(kernel),
            predicted_light_secs: Some(0.0),
            predicted_heavy_secs: Some(heavy),
            ..PlanStats::partitioned(0, 0)
        },
    };
    stats.full_join = Some(full_join);
    stats.estimated_out = Some(estimated_out);
    stats.line_two = line_two;
    stats
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

/// The everything-heavy core priced from the degree counts, as the two-path
/// prices its heavy core ([`heavy_core_cost`]): every `y` the legs share is a
/// column, `V`'s set cells are the grouped full join `Σ_y Π_{i ≤ ⌈k/2⌉}
/// deg_i(y)` and its rows at most that many and at most the product of the
/// group's head domains; `W` likewise. `None` when that core is over the
/// cap.
fn price_all_heavy(
    relations: &[Relation],
    estimated_out: u64,
    config: &JoinConfig,
) -> Option<((usize, usize, usize), f64, &'static str)> {
    let (group_v, group_w) = relations.split_at(relations.len().div_ceil(2));
    let ydom = relations.iter().map(|r| r.y_domain()).min().unwrap_or(0);
    let (mut nnz_v, mut nnz_w, mut cols) = (0f64, 0f64, 0usize);
    for y in 0..ydom as Value {
        let cells = |group: &[Relation]| group.iter().map(|r| r.y_degree(y) as f64).product();
        let (v, w): (f64, f64) = (cells(group_v), cells(group_w));
        if v * w > 0.0 {
            cols += 1;
            nnz_v += v;
            nnz_w += w;
        }
    }
    let rows = |nnz: f64, group: &[Relation]| {
        let domains: f64 = group.iter().map(|r| r.active_x_count() as f64).product();
        nnz.min(domains) as usize
    };
    let dims = (rows(nnz_v, group_v), cols, rows(nnz_w, group_w));
    let boolean = config.heavy_backend.is_boolean();
    heavy_core_cost(config, boolean, dims, nnz_v, nnz_w, estimated_out as f64)
        .map(|(heavy, kernel)| (dims, heavy, kernel))
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

/// Steps 1–2, serially into `acc`: for each `j`, the star join with `R⁻j`
/// (light heads) and then `R⋄j` (`y` light everywhere else) substituted.
/// Only a forced partition has light steps.
fn light_steps(relations: &[Relation], delta1: u32, delta2: u32, acc: &mut ProjectionAccumulator) {
    for j in 0..relations.len() {
        let substitutes = [
            build_minus(relations, j, delta2),
            build_diamond(relations, j, delta1),
        ];
        for substitute in substitutes.iter().filter(|s| !s.is_empty()) {
            let mut working: Vec<&Relation> = relations.iter().collect();
            working[j] = substitute;
            star_full_join_for_each(&working, |_, tuple| acc.push(tuple));
        }
    }
}

/// Step 3's partition, as bits: the heavy `y` columns — heavier than `Δ1`
/// in ≥ 2 legs and under a heavy head in every leg (any other column is all
/// zero) — and each leg's share of them.
struct HeavyCols {
    cols: usize,
    legs: Vec<HeavyLeg>,
}

/// One leg's heads heavier than `Δ2` that reach a heavy column, ascending,
/// and the two bit matrices the half-tuples are grown from.
struct HeavyLeg {
    heads: Vec<Value>,
    /// `heads × columns`: the heavy columns each head reaches.
    reach: BitMatrix,
    /// `columns × heads`: the heads under each heavy column.
    under: BitMatrix,
}

impl HeavyCols {
    fn partition(relations: &[Relation], delta1: u32, delta2: u32) -> Self {
        let heavy_head = |r: &Relation, x: Value| r.x_degree(x) > delta2 as usize;
        let ydom = relations.iter().map(|r| r.y_domain()).min().unwrap_or(0);
        let (mut col_of, mut ys) = (vec![-1i32; ydom], Vec::new());
        for y in 0..ydom as Value {
            let heavy_in = relations
                .iter()
                .filter(|r| r.y_degree(y) > delta1 as usize)
                .count();
            if heavy_in >= 2
                && relations
                    .iter()
                    .all(|r| r.xs_of(y).iter().any(|&x| heavy_head(r, x)))
            {
                col_of[y as usize] = ys.len() as i32;
                ys.push(y);
            }
        }
        let cols = ys.len();
        // Monotone maps over ascending CSR rows: `from_adjacency` fills each
        // matrix a word at a time, as `HeavyIndex` fills the two-path's.
        let legs = relations
            .iter()
            .map(|r| {
                let reaches = |ys_x: &[Value]| {
                    ys_x.iter()
                        .any(|&y| col_of.get(y as usize).is_some_and(|&c| c >= 0))
                };
                let heads: Vec<Value> = r
                    .by_x()
                    .iter_nonempty()
                    .filter(|&(x, ys_x)| heavy_head(r, x) && reaches(ys_x))
                    .map(|(x, _)| x)
                    .collect();
                let mut row_of = vec![-1i32; r.x_domain()];
                for (i, &x) in heads.iter().enumerate() {
                    row_of[x as usize] = i as i32;
                }
                HeavyLeg {
                    reach: BitMatrix::from_adjacency(heads.len(), cols, &col_of, |i| {
                        r.ys_of(heads[i])
                    }),
                    under: BitMatrix::from_adjacency(cols, heads.len(), &row_of, |c| {
                        r.xs_of(ys[c])
                    }),
                    heads,
                }
            })
            .collect();
        Self { cols, legs }
    }

    /// The operands of `V · Wᵀ` over the first `⌈k/2⌉` legs and the rest:
    /// `W` transposed only for row-OR, or both filled into f32 for SGEMM.
    /// `None` when there is no heavy column, or when the rows, or the exact
    /// bytes of the operands and the product in the representation that
    /// runs, are over `4 · cell_cap`.
    fn build(&self, boolean: bool, cell_cap: usize) -> Option<Built> {
        if self.cols == 0 {
            return None;
        }
        let cap = cell_cap.saturating_mul(4);
        let (group_v, group_w) = self.legs.split_at(self.legs.len().div_ceil(2));
        let (v, v_bits) = half_tuples(group_v, self.cols, cap)?;
        let (w, w_bits) = half_tuples(group_w, self.cols, cap)?;
        let (m, k, n) = (v.len(), self.cols, w.len());
        let plan = BitProductPlan::choose(
            m,
            k,
            n,
            v_bits.count_ones() as f64,
            w_bits.count_ones() as f64,
        );
        let bytes = if boolean {
            plan.bytes
        } else {
            4 * (m * k + k * n + m * n)
        };
        if bytes > cap {
            return None;
        }
        // `V`'s rows that hold a column every `W` row has reach every `W`
        // row: the AND of `W`'s rows is its universal mask.
        let mut universal = all_columns(k);
        for j in 0..n {
            let row = w_bits.row_words(j);
            universal.iter_mut().zip(row).for_each(|(u, w)| *u &= w);
        }
        let operands = if boolean {
            let right = match plan.orientation {
                Orientation::RowOr => w_bits.transposed(),
                Orientation::AndAny => w_bits,
            };
            Operands::Bit(v_bits, right)
        } else {
            let cell = |bits: &BitMatrix, i, j| f32::from(u8::from(bits.get(i, j)));
            Operands::F32(
                DenseMatrix::from_fn(m, k, |i, c| cell(&v_bits, i, c)),
                DenseMatrix::from_fn(k, n, |c, j| cell(&w_bits, j, c)),
            )
        };
        Some(Built {
            v,
            w,
            operands,
            orientation: plan.orientation,
            universal,
        })
    }
}

/// The rows of one operand of `V · Wᵀ`: the distinct half-tuples over
/// `group` whose heads share a heavy column, in ascending lexicographic
/// order, and the columns each one's heads all reach. Grown one leg at a
/// time from the empty prefix, which reaches every column: a prefix's
/// candidates are the leg's heads under any column it reaches (those
/// columns' masks OR-ed), and a candidate's row AND-ed with the prefix's is
/// the longer half-tuple's — never empty, as the candidate sits under one of
/// the prefix's columns. Prefixes are taken in order and candidates ascend,
/// so the rows ascend. `None` once a leg's rows take more than `budget`
/// bytes.
fn half_tuples(group: &[HeavyLeg], cols: usize, budget: usize) -> Option<(FlatRows, BitMatrix)> {
    let stride = cols.div_ceil(64);
    let mut words = all_columns(cols);
    // The half-tuples, `arity` values each; the empty prefix is one row.
    let (mut rows, mut arity) = (Vec::new(), 0);
    for leg in group {
        let (mut next, mut next_words) = (Vec::new(), Vec::new());
        let mut candidates = vec![0u64; leg.heads.len().div_ceil(64)];
        for (p, prefix) in words.chunks_exact(stride).enumerate() {
            candidates.fill(0);
            for c in ones(prefix) {
                let mask = leg.under.row_words(c);
                candidates.iter_mut().zip(mask).for_each(|(to, m)| *to |= m);
            }
            for h in ones(&candidates) {
                next.extend_from_slice(&rows[p * arity..(p + 1) * arity]);
                next.push(leg.heads[h]);
                let reach = leg.reach.row_words(h);
                next_words.extend(prefix.iter().zip(reach).map(|(a, b)| a & b));
            }
            if 8 * next_words.len() > budget {
                return None;
            }
        }
        (rows, words, arity) = (next, next_words, arity + 1);
    }
    let rows = FlatRows::new(arity, rows);
    let bits = BitMatrix::from_words(rows.len(), cols, words);
    Some((rows, bits))
}

/// One bit row with all of `cols > 0` columns set, the padding zero.
fn all_columns(cols: usize) -> Vec<u64> {
    let mut words = vec![!0u64; cols.div_ceil(64)];
    words[cols.div_ceil(64) - 1] >>= (64 - cols % 64) % 64;
    words
}

/// What the build phase hands to the product and the extraction.
struct Built {
    /// The half-tuples of `V`'s rows, in order.
    v: FlatRows,
    /// The half-tuples of `W`'s rows, in order.
    w: FlatRows,
    operands: Operands,
    /// How a Boolean product runs (unread by SGEMM).
    orientation: Orientation,
    /// The heavy columns every row of `W` has (unread by SGEMM).
    universal: Vec<u64>,
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
            rows_filled: None,
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

    /// Line 2 of a star is the two-path's: expansion's price against the
    /// core built for the query. Four sets over 40 elements in each of
    /// three legs have `|OUT⋈| / N = 16` — expansion under the paper's
    /// `F = 20`, which the SGEMM pin keeps — and a core of a few words, so
    /// the star multiplies. A DBLP-like star (3 000 sets of 3 from a 3 000
    /// wide domain, `|OUT⋈| / N = 9`) has a core of tens of thousands of
    /// rows for 81 000 full-join tuples, and expands. A factor of `0` or
    /// `∞` forces either.
    #[test]
    fn a_star_takes_the_cheaper_side_of_line_two() {
        let dense = vec![clique(4, 40, 0); 3];
        let wide = rel(&(0..3000)
            .flat_map(|x| (0..3).map(move |j| (x, (7 * x + 1009 * j) % 3000)))
            .collect::<Vec<_>>());
        let wide = vec![wide; 3];
        let config = JoinConfig::default();
        let dense_plan = plan_reduced(&dense, &config);
        assert_eq!(dense_plan.full_join, Some(16 * 160));
        assert_eq!(dense_plan.kind, PlanKind::MatrixPartitioned);
        let prices = dense_plan.line_two.unwrap();
        assert_eq!(prices.core_secs, dense_plan.predicted_heavy_secs);
        assert!(prices.core_secs.unwrap() < prices.expand_secs, "{prices:?}");
        let pinned = JoinConfig {
            heavy_backend: crate::config::HeavyBackend::DenseF32,
            ..JoinConfig::default()
        };
        let pinned_plan = plan_reduced(&dense, &pinned);
        assert_eq!(
            (pinned_plan.kind, pinned_plan.line_two),
            (PlanKind::Wcoj, None)
        );

        let wide_plan = plan_reduced(&wide, &config);
        assert_eq!(wide_plan.full_join, Some(9 * 9000));
        assert_eq!(wide_plan.kind, PlanKind::Wcoj);
        let prices = wide_plan.line_two.unwrap();
        assert!(prices.core_secs.unwrap() > prices.expand_secs, "{prices:?}");

        for (factor, kind) in [
            (0.0, PlanKind::MatrixPartitioned),
            (f64::INFINITY, PlanKind::Wcoj),
        ] {
            let forced = JoinConfig {
                wcoj_fallback_factor: factor,
                ..JoinConfig::default()
            };
            for rels in [&dense, &wide] {
                assert_eq!(plan_reduced(rels, &forced).kind, kind, "{factor}");
            }
        }
    }

    /// The half-tuples come out in lexicographic order whatever order the
    /// columns list their heads in, each once, with every column its heads
    /// share.
    #[test]
    fn half_tuples_grow_in_ascending_order() {
        // Columns 0 and 1; the second repeats (9, 4) and adds smaller tuples.
        let first = rel(&[(9, 0), (70, 0), (2, 1), (9, 1)]);
        let second = rel(&[(4, 0), (1, 1), (4, 1)]);
        let core = HeavyCols::partition(&[first, second], 0, 0);
        assert_eq!(core.cols, 2);
        let (rows, bits) = half_tuples(&core.legs, core.cols, usize::MAX).unwrap();
        assert_eq!(rows.values(), [2, 1, 2, 4, 9, 1, 9, 4, 70, 4]);
        assert_eq!(
            bits.iter_ones().collect::<Vec<_>>(),
            [(0, 1), (1, 1), (2, 1), (3, 0), (3, 1), (4, 0)]
        );
        // Five rows of one word each do not fit 39 bytes.
        assert!(half_tuples(&core.legs, core.cols, 39).is_none());
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
