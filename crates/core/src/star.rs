//! MMJoin for star queries `Q*_k(x1,…,xk) = R1(x1,y), …, Rk(xk,y)` (§3.2).
//!
//! A star is planned like an existence two-path ([`crate::two_path`]): line
//! 2 of Algorithm 3 weighs expansion of the exact full join against the
//! *everything-heavy* core (`Δ1 = Δ2 = 0`), priced from the legs' `by_y`
//! degrees alone ([`counts`]); no leg is copied, and the semi-join reduction
//! is a mask of the `y`s every leg holds. The answer is the core's product,
//! handed to the sink as its cells ([`FlatRows::product`]): sorted, distinct.
//!
//! The core multiplies *grouped-variable* matrices over raw `y` columns:
//! rows of `V` are the distinct half-tuples over `x1..x⌈k/2⌉`, rows of `W`
//! over the rest ([`half_tuples`]), grown from the legs' memoised packed
//! forms (`mmjoin_storage::packed`) — packed by the first query that reads
//! them and shared by every later one. A one-leg `W` (`k = 3`) is its forms
//! as they lie — `y`-major for row-OR, `x`-major for AND-any, its universal
//! mask filling every `V` row with a `y` all its heads have — never built.
//! [`HeavyBackend::Auto`] multiplies bits, the `DenseF32` pin f32 operands
//! filled from them; a core over the cap runs the star as expansion.
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
//! `R⋄j`) for one relation at a time, and project; step 3 is the core over
//! the heavy heads and the `y` heavy in ≥ 2 relations ([`columns`]; `W`'s
//! light heads stay, and a row they add the light steps find too). An output
//! tuple with witness `y` is found in step 1 if some head is light, in step 2
//! if `y` is light in all-but-one relation, and otherwise every head is
//! heavy and `y` is heavy in ≥ 2 relations — step 3.
//!
//! A matrix-partitioned run records the two-path's five phases —
//! `partition`, `light`, `build`, `product`, `extract` — as `step` spans and
//! as [`PlanStats::measured_phase_secs`], beside the planner's predictions.
//!
//! [`HeavyBackend::Auto`]: crate::config::HeavyBackend::Auto

use crate::config::JoinConfig;
use crate::optimizer::{bit_core_cost, f32_core_cost, line_two, operand_source, F32_KERNEL};
use crate::two_path::{self, extract_label, extract_phase, phase, product_phase, view, Product};
use mmjoin_api::{FlatRows, OperandSource, PhaseSecs, PlanStats};
use mmjoin_matrix::bitmat::ones;
use mmjoin_matrix::{matmul_parallel_on, BitMatrix, BitProductPlan, DenseMatrix, Orientation};
use mmjoin_storage::{PackedForm, PackedRows, Relation, Value};
use mmjoin_wcoj::{star_full_join_for_each, star_join_project_flat, ProjectionAccumulator};

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
/// and, if `run`, evaluates it as planned, returning the rows and the record
/// with the run's half filled in — the Boolean core's product as its cells
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
    let legs: Vec<&Relation> = relations.iter().map(AsRef::as_ref).collect();
    let (full_join, nnz, common) = counts(&legs);
    if full_join == 0 {
        return (none(), PlanStats::wcoj());
    }
    let mut stats = plan_legs(&legs, (full_join, nnz, &common), config);
    if !run {
        return (none(), stats);
    }
    let expand = || FlatRows::new(k, star_join_project_flat(&legs));
    let (Some(delta1), Some(delta2)) = (stats.delta1, stats.delta2) else {
        return (expand(), stats);
    };

    let boolean = config.heavy_backend.is_boolean();
    let mut secs = PhaseSecs::default();
    let mut acc = ProjectionAccumulator::new(k);

    let cols = phase("partition", &mut secs.partition, || {
        columns(&legs, common, delta1)
    });
    // Nothing is light at Δ1 = Δ2 = 0: every substitute would be empty.
    phase("light", &mut secs.light, || {
        if (delta1, delta2) != (0, 0) {
            light_steps(&legs, delta1, delta2, &mut acc);
        }
    });
    // Every matrix plan records all five phases, whichever of them run —
    // unless its core is over the cap and it expands instead.
    let heavy = cols.iter().any(|&w| w != 0);
    let built = phase("build", &mut secs.build, || {
        let cap = config.matrix_cell_cap;
        heavy.then(|| build(&legs, &cols, delta2, boolean, cap))?
    });
    // The planner's bounds give way to what was built.
    stats.heavy_core_matrix = Some(built.is_some());
    stats.heavy_dims = built.as_ref().map(|built| built.dims);
    stats.heavy_backend = built.as_ref().map(|built| built.kernel);
    stats.heavy_operands = built.as_ref().map(|built| built.sources);
    if built.is_none() && heavy {
        // Over the cap: the whole star runs as expansion instead.
        return (expand(), stats);
    }
    let rows = built.as_ref().map_or(0, |built| built.v.len());
    let (product, filled) = product_phase(&mut secs.product, rows, || match built {
        Some(built) => {
            let (words, filled) = built.multiply(&cols, config);
            (Some((words, built.v, built.w.heads())), filled)
        }
        None => (None, None),
    });
    stats.rows_filled = filled;
    let extract = || {
        // Ascending half-tuples and heads, row-major cells: sorted, distinct
        // rows.
        let heavy = product.map_or_else(none, |(words, v, w)| FlatRows::product(words, v, w));
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

/// One zipped pass over each leg's `by_y` degrees (`CsrIndex::degrees`):
/// the full join `Σ_y Π_i deg_i(y)`, the set cells of `V` and of `W` (the
/// sum over each one's legs, [`halves`]) over the `y`s every leg holds, and
/// those `y`s as a mask over the raw ids all forms have. Sums are `f64`,
/// exact up to `2^53`.
fn counts(legs: &[&Relation]) -> (u64, [f64; 2], Vec<u64>) {
    let cells = |group: &[&Relation]| {
        let mut cells = vec![1.0f64; width(legs)];
        for r in group {
            let degrees = r.by_y().degrees().map(f64::from);
            cells.iter_mut().zip(degrees).for_each(|(c, d)| *c *= d);
        }
        cells
    };
    let (group_v, group_w) = halves(legs);
    let (v, w) = (cells(group_v), cells(group_w));
    let mut common = vec![0u64; v.len().div_ceil(64)];
    let (mut full_join, mut nnz) = (0.0, [0.0; 2]);
    for (y, (v, w)) in v.into_iter().zip(w).enumerate() {
        if v * w > 0.0 {
            common[y / 64] |= 1 << (y % 64);
            (nnz[0], nnz[1], full_join) = (nnz[0] + v, nnz[1] + w, full_join + v * w);
        }
    }
    (full_join as u64, nnz, common)
}

/// `V`'s legs and `W`'s: the first `⌈k/2⌉` and the rest, as §3.2 groups
/// them.
fn halves<T>(legs: &[T]) -> (&[T], &[T]) {
    legs.split_at(legs.len().div_ceil(2))
}

/// The raw `y` columns every leg's forms have.
fn width(legs: &[&Relation]) -> usize {
    legs.iter().map(|r| r.y_domain()).min().unwrap_or(0)
}

/// Algorithm 3 for a star, as for an existence two-path: line 2
/// ([`line_two`]) between expansion of the exact full join and the
/// everything-heavy core ([`price_all_heavy`]), whose record bounds `V`'s
/// rows (the run reports them exactly). A forced `delta_override` is
/// recorded unpriced; the run fills in the rest.
fn plan_legs(
    legs: &[&Relation],
    counts: (u64, [f64; 2], &[u64]),
    config: &JoinConfig,
) -> PlanStats {
    if let Some((delta1, delta2)) = config.delta_override {
        return PlanStats::partitioned(delta1, delta2);
    }
    let (full_join, nnz, common) = counts;
    let n = legs.iter().map(|r| r.len()).max().unwrap_or(1).max(1) as u64;
    let estimated_out = estimate_star_output(legs, full_join, n);
    let mut core = None;
    let (line_two, all_heavy) = line_two(config, full_join, n as usize, || {
        let plan = price_all_heavy(legs, nnz, common, estimated_out, config)?;
        let price = plan.predicted_heavy_secs.zip(plan.heavy_backend);
        core = Some(plan);
        price
    });
    let mut stats = all_heavy.and(core).unwrap_or_else(PlanStats::wcoj);
    stats.full_join = Some(full_join);
    stats.estimated_out = Some(estimated_out);
    stats.line_two = line_two;
    stats
}

/// `|OUT|` of a star, as §5 estimates a two-path's: the geometric mean of
/// the tightest bounds the counts give. Below, every head value occurs in
/// some output tuple and `|OUT⋈| ≤ N·|OUT|^{1−1/k}` (Proposition 1); above,
/// the output is a subset of the head domains' product and of the full join.
fn estimate_star_output(legs: &[&Relation], full_join: u64, n: u64) -> u64 {
    let k = legs.len() as f64;
    let heads = legs.iter().map(|r| r.active_x_count() as f64);
    let lower = (full_join as f64 / n as f64)
        .powf(k / (k - 1.0))
        .max(heads.clone().fold(1.0, f64::max));
    let upper = heads.product::<f64>().min(full_join as f64).max(lower);
    (lower * upper).sqrt().round() as u64
}

/// The everything-heavy core's record: the set cells of `V` and `W` bound
/// their rows, as do the products of their legs' heads; a one-leg `W` is
/// every head of its leg. Both backends grow the operands from the legs'
/// forms and pack only legs not packed yet (as `PackedCore`); the bit core
/// runs over raw `y` columns, the SGEMM pin fills f32 operands over the
/// `common` `y`s. `None` when the forms and [`core_bytes`] are over the cap.
fn price_all_heavy(
    legs: &[&Relation],
    [nnz_v, nnz_w]: [f64; 2],
    common: &[u64],
    estimated_out: u64,
    config: &JoinConfig,
) -> Option<PlanStats> {
    let (group_v, group_w) = halves(legs);
    let rows = |nnz: f64, group: &[&Relation]| {
        let heads: f64 = group.iter().map(|r| r.active_x_count() as f64).product();
        nnz.min(heads) as usize
    };
    // A one-leg `W` is read whole; a grown one walks its set cells.
    let (n, nnz_w, grown) = match group_w {
        [w] => (w.active_x_count(), w.len() as f64, 0.0),
        _ => (rows(nnz_w, group_w), nnz_w, nnz_w),
    };
    let (m, k) = (rows(nnz_v, group_v), width(legs));
    let record = |dims, (secs, kernel)| PlanStats {
        heavy_dims: Some(dims),
        heavy_core_matrix: Some(true),
        heavy_backend: Some(kernel),
        heavy_operands: Some(sources(legs)),
        predicted_light_secs: Some(0.0),
        predicted_heavy_secs: Some(secs),
        ..PlanStats::partitioned(0, 0)
    };
    let boolean = config.heavy_backend.is_boolean();
    let c = ones(common).count();
    let [bytes, fresh, tuples] = forms(legs);
    let own = core_bytes((m, k, n), c, boolean, group_w.len() > 1);
    if !boolean {
        let consts = config.cost_model.constants;
        let packing = consts.t_seq * tuples as f64 + consts.t_alloc * fresh as f64 / 32.0;
        let (secs, kernel) = f32_core_cost(config, (m, c, n), nnz_v, estimated_out as f64)?;
        let fits = bytes + own <= config.matrix_cell_cap.saturating_mul(4);
        return fits.then(|| record((m, k, n), (secs + packing, kernel)));
    }
    let plan = BitProductPlan::choose(m, k, n, nnz_v, nnz_w);
    let grown_words = grown_words(group_v, common) + grown_words(group_w, common);
    // Growing `V` walks its set cells, packing a form its relation's tuples.
    let secs = bit_core_cost(
        config,
        plan.words + grown_words,
        (m * n.div_ceil(64)) as f64,
        [bytes + own, fresh + own],
        nnz_v + grown + tuples as f64,
        0.0,
    )?;
    Some(record((m, k, n), (secs, plan.orientation.name())))
}

/// The words [`half_tuples`] ORs growing the rows over `group`, none for a
/// one-leg `W`, which is never grown: each leg's `y`-major row
/// (`⌈heads/64⌉` words) under each set cell of each prefix, twice (counted,
/// then filled). A prefix over the legs before it holds `y` once for each
/// of their head tuples that all hold it, so its set cells are, over the
/// `common` `y`s, the products of those legs' degrees.
fn grown_words(group: &[&Relation], common: &[u64]) -> f64 {
    if group.len() < 2 {
        return 0.0;
    }
    let strides: Vec<f64> = group
        .iter()
        .map(|r| r.active_x_count().div_ceil(64) as f64)
        .collect();
    let mut words = 0.0;
    for y in ones(common).map(|y| y as Value) {
        let mut cells = 1.0;
        for (r, stride) in group.iter().zip(&strides) {
            words += cells * stride;
            cells *= r.y_degree(y) as f64;
        }
    }
    2.0 * words
}

/// A core's bytes beside the forms: `V`'s bit rows (`m × k`), a grown `W`'s
/// and their transpose, and the bit product or the SGEMM pin's f32 operands
/// over the `c` masked columns.
fn core_bytes((m, k, n): (usize, usize, usize), c: usize, boolean: bool, grown: bool) -> usize {
    let w = usize::from(grown) * 8 * (n * k.div_ceil(64) + k * n.div_ceil(64));
    let product = if boolean {
        8 * m * n.div_ceil(64)
    } else {
        4 * (m * c + c * n + m * n)
    };
    8 * m * k.div_ceil(64) + w + product
}

/// A star reads every leg in both forms.
const FORMS: [PackedForm; 2] = [PackedForm::XMajor, PackedForm::YMajor];

/// Over each leg once, however often the star names it (or a clone of
/// it, which shares its forms): the bytes of its forms, of the forms not
/// packed yet, and the tuples packing those walks.
fn forms(legs: &[&Relation]) -> [usize; 3] {
    let mut totals = [0; 3];
    for (i, &r) in legs.iter().enumerate() {
        let first = !legs[..i].iter().any(|seen| seen.shares_packed_forms(r));
        for form in FORMS.into_iter().filter(|_| first) {
            let (bytes, fresh) = (8 * r.packed_words(form), !r.is_packed(form));
            totals[0] += bytes;
            totals[1] += bytes * usize::from(fresh);
            totals[2] += r.len() * usize::from(fresh);
        }
    }
    totals
}

/// Whether `V`'s legs, and `W`'s, are all packed in both forms already.
fn sources(legs: &[&Relation]) -> [OperandSource; 2] {
    let (v, w) = halves(legs);
    [v, w].map(|group| operand_source(forms(group)[1] == 0))
}

/// Steps 1–2, serially into `acc`: for each `j`, the star join with `R⁻j`
/// (light heads) and then `R⋄j` (`y` light in every other leg)
/// substituted. Only a forced partition has light steps.
fn light_steps(legs: &[&Relation], delta1: u32, delta2: u32, acc: &mut ProjectionAccumulator) {
    let light = |deg: usize, delta: u32| deg <= delta as usize;
    for (j, &r) in legs.iter().enumerate() {
        let light_elsewhere = |y: Value| {
            let mut others = legs.iter().enumerate().filter(|&(i, _)| i != j);
            others.all(|(_, o)| (y as usize) >= o.y_domain() || light(o.y_degree(y), delta1))
        };
        let substitute = |keep: &dyn Fn(Value, Value) -> bool| {
            let kept = r.tuples().filter(|&(x, y)| keep(x, y)).collect();
            Relation::from_sorted_edges(r.x_domain(), r.y_domain(), kept)
        };
        let substitutes = [
            substitute(&|x, _| light(r.x_degree(x), delta2)),
            substitute(&|_, y| light_elsewhere(y)),
        ];
        for substitute in substitutes.iter().filter(|s| !s.is_empty()) {
            let mut working = legs.to_vec();
            working[j] = substitute;
            star_full_join_for_each(&working, |_, tuple| acc.push(tuple));
        }
    }
}

/// Step 3's columns: the `common` `y`s, at a forced `Δ1 > 0` only those
/// heavier than `Δ1` in ≥ 2 legs.
fn columns(legs: &[&Relation], mut cols: Vec<u64>, delta1: u32) -> Vec<u64> {
    if delta1 == 0 {
        return cols;
    }
    for y in ones(&cols.clone()) {
        let heavy = |r: &&&Relation| r.y_degree(y as Value) > delta1 as usize;
        if legs.iter().filter(heavy).count() < 2 {
            cols[y / 64] &= !(1 << (y % 64));
        }
    }
    cols
}

/// A leg's `x`- and `y`-major forms, packed by their first reader.
fn packed(r: &Relation) -> [&PackedRows; 2] {
    FORMS.map(|form| r.packed(form).0)
}

/// `W`: one leg's forms as they lie, or the half-tuples grown over its legs,
/// their rows and the `y`s every row has (its universal mask).
enum Right<'a> {
    Leg([&'a PackedRows; 2]),
    Grown(FlatRows, BitMatrix, Vec<u64>),
}

impl Right<'_> {
    /// The half-tuples of the rows, in order.
    fn heads(self) -> FlatRows {
        match self {
            Right::Leg([x, _]) => FlatRows::new(1, x.ids().to_vec()),
            Right::Grown(heads, ..) => heads,
        }
    }

    /// Row `j`: the `y`s its heads share.
    fn row(&self, j: usize) -> &[u64] {
        match self {
            Right::Leg([x, _]) => x.row(j),
            Right::Grown(_, rows, _) => rows.row_words(j),
        }
    }
}

/// What the build phase hands to the product and the extraction.
struct Built<'a> {
    /// The half-tuples of `V`'s rows, in order, and the rows.
    v: FlatRows,
    v_bits: BitMatrix,
    w: Right<'a>,
    /// How a Boolean product runs (unread by SGEMM), the kernel's name and
    /// the shape, over raw `y` columns for either kernel.
    orientation: Orientation,
    kernel: &'static str,
    dims: (usize, usize, usize),
    /// Whether `V`'s and `W`'s legs were packed before this query.
    sources: [OperandSource; 2],
}

/// The build phase: the legs' forms, packed here or found packed, and `V`
/// (and a `W` of more than one leg) grown from them under the masks. `None`
/// when the exact bytes of the forms (checked before any is packed) and
/// [`core_bytes`] are over `4 · cell_cap`.
fn build<'a>(
    legs: &[&'a Relation],
    cols: &[u64],
    delta2: u32,
    boolean: bool,
    cell_cap: usize,
) -> Option<Built<'a>> {
    let budget = cell_cap.saturating_mul(4).checked_sub(forms(legs)[0])?;
    let sources = sources(legs);
    let forms: Vec<_> = legs.iter().map(|r| packed(r)).collect();
    let (group_v, group_w) = halves(&forms);
    let mask = (cols, width(legs));
    let (v, v_bits) = half_tuples(group_v, delta2, mask, budget)?;
    let (w, n, nnz_w) = match *group_w {
        [w] => (Right::Leg(w), w[0].rows(), legs[legs.len() - 1].len()),
        _ => {
            let (heads, rows) = half_tuples(group_w, delta2, mask, budget)?;
            let (n, nnz_w) = (heads.len(), rows.count_ones());
            // The `y`s every row has, none when there is no row.
            let mut universal = if n > 0 { cols.to_vec() } else { Vec::new() };
            for j in 0..n {
                let row = rows.row_words(j);
                universal.iter_mut().zip(row).for_each(|(u, w)| *u &= w);
            }
            (Right::Grown(heads, rows, universal), n, nnz_w)
        }
    };
    let (m, k) = (v.len(), v_bits.cols());
    let plan = BitProductPlan::choose(m, k, n, v_bits.count_ones() as f64, nnz_w as f64);
    let c = ones(cols).count();
    let kernel = if boolean {
        plan.orientation.name()
    } else {
        F32_KERNEL
    };
    let grown = matches!(w, Right::Grown(..));
    (core_bytes((m, k, n), c, boolean, grown) <= budget).then_some(Built {
        v,
        v_bits,
        w,
        orientation: plan.orientation,
        kernel,
        dims: (m, k, n),
        sources,
    })
}

impl Built<'_> {
    /// The product's words, `V`'s rows by `W`'s, and the rows `W`'s universal
    /// mask filled (row-OR reads a grown `W` transposed); SGEMM's f32
    /// operands hold the masked columns `cols`.
    fn multiply(&self, cols: &[u64], config: &JoinConfig) -> (Vec<u64>, Option<usize>) {
        let (v, n) = (&self.v_bits, self.dims.2);
        if config.heavy_backend.is_boolean() {
            let transposed;
            let (right, universal) = match (&self.w, self.orientation) {
                (Right::Leg([_, y]), Orientation::RowOr) => (view(y), y.universal()),
                (Right::Leg([x, _]), Orientation::AndAny) => (view(x), x.universal()),
                (Right::Grown(_, rows, all), Orientation::AndAny) => (rows.view(), &all[..]),
                (Right::Grown(_, rows, all), Orientation::RowOr) => {
                    transposed = rows.transposed();
                    (transposed.view(), &all[..])
                }
            };
            let (c, filled) = v.view().product(right, self.orientation, universal);
            return (c.into_words(), Some(filled));
        }
        let ys: Vec<usize> = ones(cols).collect();
        let bit = |row: &[u64], y: usize| f32::from(u8::from(row[y / 64] >> (y % 64) & 1 == 1));
        let a = DenseMatrix::from_fn(v.rows(), ys.len(), |i, c| bit(v.row_words(i), ys[c]));
        let b = DenseMatrix::from_fn(ys.len(), n, |c, j| bit(self.w.row(j), ys[c]));
        let c = matmul_parallel_on(config.exec(), &a, &b, config.effective_threads());
        (Product::F32(c).into_bits().into_words(), None)
    }
}

/// An operand's rows: the distinct half-tuples over `group` whose heads
/// share a column of `mask` (`cols` wide), ascending, with the columns they
/// share. Grown a leg at a time from the empty prefix, which has every masked
/// column: a prefix's candidates are the heads under any of its columns
/// ([`under`]; at a forced `Δ2 > 0`, the heavier), and a candidate's
/// `x`-major row AND the prefix's is the longer half-tuple's — never empty,
/// so a head that reaches no masked `y` is never one. A leg's candidates
/// are found twice into one buffer every prefix reuses: counted, so its
/// rows are checked against `budget` bytes (`None` when over) and allocated
/// once, then filled.
fn half_tuples(
    group: &[[&PackedRows; 2]],
    delta2: u32,
    (mask, cols): (&[u64], usize),
    budget: usize,
) -> Option<(FlatRows, BitMatrix)> {
    let stride = mask.len();
    let mut words = mask.to_vec();
    // The half-tuples, `arity` values each; the empty prefix is one row.
    let (mut rows, mut arity) = (Vec::new(), 0);
    for &[x, y] in group {
        // Every head, or at a forced `Δ2 > 0` those of more tuples.
        let mut heads = vec![!0u64; y.stride()];
        let degree = |h: usize| x.row(h).iter().map(|w| w.count_ones()).sum::<u32>();
        for h in (0..x.rows()).filter(|&h| delta2 > 0 && degree(h) <= delta2) {
            heads[h / 64] &= !(1 << (h % 64));
        }
        let mut candidates = vec![0u64; y.stride()];
        let mut count = 0;
        for prefix in words.chunks_exact(stride) {
            under(y, prefix, &heads, &mut candidates);
            count += candidates
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
        }
        if 8 * count * stride > budget {
            return None;
        }
        let mut next = Vec::with_capacity(count * (arity + 1));
        let mut next_words = Vec::with_capacity(count * stride);
        for (p, prefix) in words.chunks_exact(stride).enumerate() {
            under(y, prefix, &heads, &mut candidates);
            for h in ones(&candidates) {
                next.extend_from_slice(&rows[p * arity..(p + 1) * arity]);
                next.push(x.ids()[h]);
                next_words.extend(prefix.iter().zip(x.row(h)).map(|(a, b)| a & b));
            }
        }
        (rows, words, arity) = (next, next_words, arity + 1);
    }
    let bits = BitMatrix::from_words(words.len() / stride, cols, words);
    Some((FlatRows::new(arity, rows), bits))
}

/// The heads of `heads` under any column of `prefix` — those rows of the
/// `y`-major form `y` OR-ed — into `to`.
fn under(y: &PackedRows, prefix: &[u64], heads: &[u64], to: &mut [u64]) {
    to.fill(0);
    for c in ones(prefix) {
        to.iter_mut().zip(y.row(c)).for_each(|(to, m)| *to |= m);
    }
    to.iter_mut().zip(heads).for_each(|(to, h)| *to &= h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_api::PlanKind;
    use mmjoin_wcoj::star_join_project;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

        // The pin prices and runs SGEMM on the same cells, over the masked
        // columns, from the same forms: its run's record is its plan's too.
        let pinned = JoinConfig {
            heavy_backend: crate::config::HeavyBackend::DenseF32,
            ..JoinConfig::default()
        };
        let (_, pinned_plan) = plan_then_run(&rels, &pinned, false);
        assert_eq!(pinned_plan.heavy_backend, Some("f32"));
        assert_eq!(pinned_plan.heavy_dims, Some((600, 8, 10)));
        assert_eq!(pinned_plan.heavy_operands, Some([OperandSource::Reused; 2]));
        let (pinned_rows, pinned_stats) = star_join_project_mm_with_stats(&rels, &pinned);
        assert_eq!(pinned_rows, rows);
        let pinned_run = PlanStats {
            measured_phase_secs: None,
            ..pinned_stats.unwrap()
        };
        assert_eq!(pinned_run, pinned_plan);
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
        let dense_plan = plan_then_run(&dense, &config, false).1;
        assert_eq!(dense_plan.full_join, Some(16 * 160));
        assert_eq!(dense_plan.kind, PlanKind::MatrixPartitioned);
        let prices = dense_plan.line_two.unwrap();
        assert_eq!(prices.core_secs, dense_plan.predicted_heavy_secs);
        assert!(prices.core_secs.unwrap() < prices.expand_secs, "{prices:?}");
        let pinned = JoinConfig {
            heavy_backend: crate::config::HeavyBackend::DenseF32,
            ..JoinConfig::default()
        };
        let pinned_plan = plan_then_run(&dense, &pinned, false).1;
        assert_eq!(
            (pinned_plan.kind, pinned_plan.line_two),
            (PlanKind::Wcoj, None)
        );

        let wide_plan = plan_then_run(&wide, &config, false).1;
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
                assert_eq!(plan_then_run(rels, &forced, false).1.kind, kind, "{factor}");
            }
        }
    }

    /// The half-tuples come out in lexicographic order whatever order the
    /// columns list their heads in, each once, with every column its heads
    /// share — and a head that reaches no masked column is none of them.
    #[test]
    fn half_tuples_grow_in_ascending_order() {
        // Columns 0 and 1 (2 is masked off); the second repeats (9, 4) and
        // adds smaller tuples, and its head 6 reaches only column 2.
        let first = rel(&[(9, 0), (70, 0), (2, 1), (9, 1), (3, 2)]);
        let second = rel(&[(4, 0), (1, 1), (4, 1), (6, 2)]);
        let forms = [&first, &second].map(packed);
        let mask = [0b011];
        let (rows, bits) = half_tuples(&forms, 0, (&mask, 3), usize::MAX).unwrap();
        assert_eq!(rows.values(), [2, 1, 2, 4, 9, 1, 9, 4, 70, 4]);
        assert_eq!(
            bits.iter_ones().collect::<Vec<_>>(),
            [(0, 1), (1, 1), (2, 1), (3, 0), (3, 1), (4, 0)]
        );
        // A forced `Δ2 = 1` keeps each leg to its heads of two tuples.
        let (rows, _) = half_tuples(&forms, 1, (&mask, 3), usize::MAX).unwrap();
        assert_eq!(rows.values(), [9, 4]);
        // Five rows of one word each do not fit 39 bytes.
        assert!(half_tuples(&forms, 0, (&mask, 3), 39).is_none());
    }

    /// Growing `V` ORs a leg's whole `y`-major row for each set cell of
    /// each prefix: a middle leg of 100 000 heads, 8 of them on the common
    /// `y`s, makes each of the first leg's 320 cells cost 1 563 words, twice
    /// — dearer than expanding the 1 280-tuple full join, even with every
    /// form packed already (optimised build, 2-vCPU x86-64 host: 0.6 ms
    /// against 0.1 ms).
    #[test]
    fn a_star_over_a_wide_middle_leg_expands() {
        let first = clique(40, 8, 0);
        let wide = (0..100_000)
            .map(|x| (x, 8 + x % 50))
            .chain((0..8).map(|x| (x, x)));
        let middle = rel(&wide.collect::<Vec<_>>());
        let rels = [&first, &middle, &clique(4, 8, 0)];
        rels.iter().for_each(|r| _ = packed(r));
        assert_eq!(sources(&rels), [OperandSource::Reused; 2]);
        let config = JoinConfig::default();
        let (_, plan) = plan_then_run(&rels, &config, false);
        assert_eq!((plan.kind, plan.full_join), (PlanKind::Wcoj, Some(1_280)));
        let prices = plan.line_two.unwrap();
        assert!(prices.core_secs.unwrap() > prices.expand_secs, "{prices:?}");
        assert_eq!(
            star_join_project_mm(&rels, &config),
            star_join_project(&rels)
        );
    }

    /// The star of a 4-tuple relation (full join 28) expands: the core's
    /// fixed set-up is dearer than the whole expansion.
    #[test]
    fn a_star_of_four_tuples_expands() {
        let tiny = rel(&[(0, 0), (1, 0), (2, 1), (2, 0)]);
        let rels = [&tiny, &tiny, &tiny];
        let (_, plan) = plan_then_run(&rels, &JoinConfig::default(), false);
        assert_eq!((plan.kind, plan.full_join), (PlanKind::Wcoj, Some(28)));
        let prices = plan.line_two.unwrap();
        assert!(prices.core_secs.unwrap() > prices.expand_secs, "{prices:?}");
        assert_eq!(
            star_join_project_mm(&rels, &JoinConfig::default()),
            star_join_project(&rels)
        );
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

    /// The everything-heavy core over `legs`' memoised forms, run in
    /// `orientation` whatever the build chose: its rows, flat.
    fn core_rows(legs: &[&Relation], orientation: Orientation) -> Vec<Value> {
        let cols = counts(legs).2;
        if cols.iter().all(|&w| w == 0) {
            return Vec::new();
        }
        let config = JoinConfig::default();
        let mut built = build(legs, &cols, 0, true, config.matrix_cell_cap).unwrap();
        built.orientation = orientation;
        let (words, _) = built.multiply(&cols, &config);
        FlatRows::product(words, built.v, built.w.heads()).into_values()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `counts`' full join is the enumeration's length, and its mask
        /// the `y`s the enumeration finds a witness at.
        #[test]
        fn count_matches_enumeration(
            r_edges in proptest::collection::vec((0u32..15, 0u32..15), 0..40),
            s_edges in proptest::collection::vec((0u32..15, 0u32..12), 0..40),
            t_edges in proptest::collection::vec((0u32..15, 0u32..9), 0..40),
        ) {
            let rels = [rel(&r_edges), rel(&s_edges), rel(&t_edges)];
            let (mut n, mut ys) = (0u64, BTreeSet::new());
            star_full_join_for_each(&rels, |y, _| {
                n += 1;
                ys.insert(y as usize);
            });
            let (full_join, _, common) = counts(&[&rels[0], &rels[1], &rels[2]]);
            prop_assert_eq!(full_join, n);
            prop_assert_eq!(ones(&common).collect::<BTreeSet<_>>(), ys);
        }

        /// Stars multiplied from the legs' memoised forms equal the WCOJ
        /// reference in both orientations, and so does the engine forced
        /// onto the core: `k = 3` (a one-leg `W`, read as it lies), `k = 4`
        /// and `5` (a grown `W`), legs over different `y` domains with
        /// unused ids past their tuples, heads and `y`s that join nothing,
        /// and stars with no common `y` at all.
        #[test]
        fn stars_from_memoised_forms_match_the_reference(
            legs in proptest::collection::vec(
                (1u32..30, proptest::collection::vec((0u32..12, 0u32..40), 1..50)),
                3..6,
            ),
        ) {
            let rels: Vec<Relation> = legs
                .iter()
                .map(|(ys, edges)| {
                    let mut b = mmjoin_storage::RelationBuilder::with_domains(12, *ys as usize + 3);
                    edges.iter().for_each(|&(x, y)| b.push(x, y % ys));
                    b.build()
                })
                .collect();
            let legs: Vec<&Relation> = rels.iter().collect();
            let expected: Vec<Value> = star_join_project(&rels).concat();
            for orientation in [Orientation::RowOr, Orientation::AndAny] {
                prop_assert_eq!(&core_rows(&legs, orientation), &expected);
            }
            let forced = JoinConfig {
                wcoj_fallback_factor: 0.0,
                ..JoinConfig::default()
            };
            prop_assert_eq!(star_join_project_mm_flat(&rels, &forced).0, expected);
        }

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
