//! The paper's prototype, which the figures reproduce: Algorithm 1 and the
//! §3.2 star with every heavy core multiplied by f32 SGEMM, at degree
//! thresholds `(Δ1, Δ2)`.
//!
//! Line 2 is the paper's count test: a join whose full join `|OUT⋈|` is at
//! most `F` times its largest input (`F` = `wcoj_fallback_factor`, 20 by
//! default) runs expansion — WCOJ plus deduplication — and any other join
//! runs everything heavy, `Δ1 = Δ2 = 0`. An engine built with thresholds
//! skips line 2 and partitions at them:
//!
//! * **Light passes** (§3.1 step 1): pass A walks every `x` group of `R`; a
//!   light `x` (degree `≤ Δ2`) expands all its `y`s, a heavy one only the
//!   `y`s light (`≤ Δ1`) in `S`. Pass B does the same from `S` for the
//!   heavy `x`s through `y`s light in `R` and heavy in `S`.
//! * **Heavy core** (step 2): the heavy `x` and `z` joined through the `y`s
//!   heavier than `Δ1` in both relations, as 0/1 f32 matrices, multiplied
//!   by SGEMM. When its three matrices are over `matrix_cell_cap` cells (or
//!   a side is empty) the core is expanded instead.
//!
//! Counting keeps each pair's witnesses in one pass (L1: light `x`; L2: a
//! heavy `x` with a light `z`; L3: a heavy `x` with a heavy `z`, the
//! product's count plus the light witnesses), so the counts add up. A star
//! runs the light steps — the WCOJ star with one leg cut to its light heads,
//! then to the `y`s light in every other leg — and multiplies the
//! half-tuples over the heavy heads and the `y`s heavy in at least two legs.
//!
//! The served engine (`mmjoin_core`) plans none of this: line 2 compares
//! expansion's price with the bit core's, and the core multiplies the
//! relations' memoised bit rows. This module reads only public APIs.

use mmjoin_api::{
    emit_counted_pairs, emit_pairs, emit_rows, flatten_pairs, Engine, EngineError, ExecStats,
    FlatRows, PlanStats, Query, Sink,
};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_core::{estimate_output_size, two_path_with_counts, JoinConfig};
use mmjoin_executor::Executor;
use mmjoin_matrix::{matmul_parallel_on, DenseMatrix};
use mmjoin_storage::{DedupBuffer, Relation, Value};
use mmjoin_wcoj::{star_full_join_for_each, star_join_project_flat, ProjectionAccumulator};

/// The heavy-core kernel this engine records.
const KERNEL: &str = "f32";

/// The paper's MMJoin under `config` (threads, executor, `F`, the cell
/// cap), at the thresholds of line 2 or at `deltas`.
#[derive(Debug, Clone, Default)]
pub struct MMJoin {
    /// Threads, executor, line 2's `F` and the heavy core's cell cap.
    pub config: JoinConfig,
    /// Thresholds `(Δ1, Δ2)` that replace line 2.
    pub deltas: Option<(u32, u32)>,
}

impl MMJoin {
    /// The engine at line 2's thresholds.
    pub fn new(config: JoinConfig) -> Self {
        Self {
            config,
            deltas: None,
        }
    }

    /// The engine partitioning every join at `(Δ1, Δ2)`.
    pub fn at(deltas: (u32, u32)) -> Self {
        Self {
            deltas: Some(deltas),
            ..Self::default()
        }
    }

    /// Line 2, or the forced thresholds: `None` to expand.
    fn thresholds(&self, full_join: u64, n: usize) -> Option<(u32, u32)> {
        let f = self.config.wcoj_fallback_factor;
        self.deltas
            .or(((full_join as f64) > f * n.max(1) as f64).then_some((0, 0)))
    }

    /// Expansion's record, with the full join it rests on.
    fn expansion(full_join: u64) -> PlanStats {
        PlanStats {
            full_join: Some(full_join),
            ..PlanStats::wcoj()
        }
    }

    /// `π_{x,z}(R ⋈ S)`: sorted distinct pairs and the record of the run.
    pub fn two_path(&self, r: &Relation, s: &Relation) -> (Vec<(Value, Value)>, PlanStats) {
        let (threads, exec) = (self.config.effective_threads(), self.config.exec());
        let full_join = estimate_output_size(r, s).full_join;
        let Some((d1, d2)) = self.thresholds(full_join, r.len().max(s.len())) else {
            let pairs = ExpandDedupEngine::parallel(threads).join_project_on(r, s, exec);
            return (pairs, Self::expansion(full_join));
        };
        let heavy = HeavyIndex::build(r, s, d1, d2);
        let product = heavy.multiply(r, s, &self.config);
        let stats = heavy.record(r, s, (d1, d2), full_join, product.is_some());
        let mut out = light_passes(r, s, d1, d2, threads, exec);
        // Ascending ids, row-major cells: the product's pairs alone are
        // sorted and distinct.
        let sorted = out.is_empty() && product.is_some();
        match product {
            Some(c) => {
                let cells = c.entries_at_least(0.5);
                out.extend(cells.map(|(i, j, _)| (heavy.x[i], heavy.z[j])));
            }
            None => heavy.expand(r, s, &mut out),
        }
        if !sorted {
            out.sort_unstable();
            out.dedup();
        }
        (out, stats)
    }

    /// The two-path with exact witness counts: sorted `(x, z, count)` with
    /// `count >= min_count`.
    pub fn counts(
        &self,
        r: &Relation,
        s: &Relation,
        min_count: u32,
    ) -> (Vec<(Value, Value, u32)>, PlanStats) {
        let full_join = estimate_output_size(r, s).full_join;
        let Some((d1, d2)) = self.thresholds(full_join, r.len().max(s.len())) else {
            let expand = JoinConfig {
                wcoj_fallback_factor: f64::INFINITY,
                ..self.config.clone()
            };
            let triples = two_path_with_counts(r, s, min_count, &expand);
            return (triples, Self::expansion(full_join));
        };
        let heavy = HeavyIndex::build(r, s, d1, d2);
        let product = heavy.multiply(r, s, &self.config);
        let stats = heavy.record(r, s, (d1, d2), full_join, product.is_some());
        let triples = count_passes(r, s, d2, min_count, &heavy, product.as_ref(), &self.config);
        (triples, stats)
    }

    /// `π_{x1..xk}(R1 ⋈ … ⋈ Rk)`: sorted distinct tuples and the record of
    /// the run.
    pub fn star(&self, legs: &[&Relation]) -> (FlatRows, PlanStats) {
        let k = legs.len();
        if let [r, s] = legs {
            let (pairs, stats) = self.two_path(r, s);
            return (FlatRows::new(2, flatten_pairs(pairs)), stats);
        }
        let width = legs.iter().map(|r| r.y_domain()).min().unwrap_or(0);
        let degrees = |y: Value| legs.iter().map(move |r| r.y_degree(y) as u64);
        let common: Vec<Value> = (0..width as Value)
            .filter(|&y| degrees(y).all(|d| d > 0))
            .collect();
        let full_join = common.iter().map(|&y| degrees(y).product::<u64>()).sum();
        let largest = legs.iter().map(|r| r.len()).max().unwrap_or(0);
        let thresholds = self.thresholds(full_join, largest).filter(|_| k > 1);
        let Some((d1, d2)) = thresholds else {
            let rows = FlatRows::new(k, star_join_project_flat(legs));
            return (rows, Self::expansion(full_join));
        };
        let mut acc = ProjectionAccumulator::new(k);
        if (d1, d2) != (0, 0) {
            light_steps(legs, d1, d2, &mut acc);
        }
        // Step 3's columns: the `y`s heavier than `Δ1` in at least two legs.
        let cols: Vec<Value> = common
            .into_iter()
            .filter(|&y| degrees(y).filter(|&d| d > d1 as u64).count() >= 2)
            .collect();
        let (group_v, group_w) = legs.split_at(k.div_ceil(2));
        let (v, w) = (
            half_tuples(group_v, &cols, d2),
            half_tuples(group_w, &cols, d2),
        );
        let (m, c, n) = (v.len(), cols.len(), w.len());
        let fits = m * c + c * n + m * n <= self.config.matrix_cell_cap;
        let stats = PlanStats {
            heavy_dims: Some((m, c, n)),
            heavy_core_matrix: Some(fits),
            heavy_backend: Some(KERNEL),
            full_join: Some(full_join),
            ..PlanStats::partitioned(d1, d2)
        };
        if !fits {
            // Over the cap: the whole star runs as expansion instead.
            return (FlatRows::new(k, star_join_project_flat(legs)), stats);
        }
        let mut left = DenseMatrix::zeros(m, c);
        for (i, (_, shared)) in v.iter().enumerate() {
            shared.iter().for_each(|&col| left.set(i, col, 1.0));
        }
        let mut right = DenseMatrix::zeros(c, n);
        for (j, (_, shared)) in w.iter().enumerate() {
            shared.iter().for_each(|&col| right.set(col, j, 1.0));
        }
        let (threads, exec) = (self.config.effective_threads(), self.config.exec());
        let product = matmul_parallel_on(exec, &left, &right, threads);
        // Ascending half-tuples, row-major cells: sorted, distinct rows.
        let stride = n.div_ceil(64);
        let mut words = vec![0u64; m * stride];
        for (i, j, _) in product.entries_at_least(0.5) {
            words[i * stride + j / 64] |= 1 << (j % 64);
        }
        let ids = |half: &[(Vec<Value>, Vec<usize>)], arity| {
            FlatRows::new(
                arity,
                half.iter().flat_map(|(tuple, _)| tuple.clone()).collect(),
            )
        };
        let rows = FlatRows::product(words, ids(&v, group_v.len()), ids(&w, group_w.len()));
        if acc.is_empty() {
            return (rows, stats);
        }
        rows.into_values()
            .chunks_exact(k)
            .for_each(|row| acc.push(row));
        (FlatRows::new(k, acc.finish()), stats)
    }
}

impl Engine for MMJoin {
    fn name(&self) -> &str {
        "MMJoin"
    }

    fn supports(&self, query: &Query<'_>) -> bool {
        !matches!(query, Query::General { .. })
    }

    fn execute(&self, query: &Query<'_>, sink: &mut dyn Sink) -> Result<ExecStats, EngineError> {
        query.validate()?;
        let (rows, plan) = match *query {
            Query::TwoPath {
                r,
                s,
                with_counts: false,
                ..
            } => {
                let (pairs, plan) = self.two_path(r, s);
                (emit_pairs(sink, pairs), plan)
            }
            Query::TwoPath {
                r, s, min_count, ..
            } => {
                let (triples, plan) = self.counts(r, s, min_count);
                (emit_counted_pairs(sink, &triples, true), plan)
            }
            Query::Star { ref relations } => {
                let (rows, plan) = self.star(relations);
                (emit_rows(sink, rows), plan)
            }
            Query::SimilarityJoin { r, c, ordered } => {
                let (triples, plan) = self.counts(r, r, c);
                let mut pairs: Vec<_> = triples.into_iter().filter(|&(a, b, _)| a < b).collect();
                if ordered {
                    pairs.sort_by(|p, q| q.2.cmp(&p.2).then((p.0, p.1).cmp(&(q.0, q.1))));
                }
                (emit_counted_pairs(sink, &pairs, ordered), plan)
            }
            Query::ContainmentJoin { r } => {
                let (triples, plan) = self.counts(r, r, 1);
                let pairs = triples
                    .into_iter()
                    .filter(|&(a, b, count)| a != b && count as usize == r.x_degree(a))
                    .map(|(a, b, _)| (a, b));
                (emit_pairs(sink, pairs.collect()), plan)
            }
            Query::General { .. } => {
                return Err(EngineError::Unsupported {
                    engine: self.name().to_string(),
                    family: query.family(),
                })
            }
        };
        Ok(ExecStats {
            engine: self.name().to_string(),
            rows,
            plan: Some(plan),
        })
    }
}

/// The heavy values of one `(R, S, Δ1, Δ2)` and their matrix coordinates.
struct HeavyIndex {
    /// Heavy `x` (rows of `M1`), `y` heavy in both relations (the inner
    /// dimension) and heavy `z` (columns of `M2`), each ascending; an `x`
    /// or `z` none of whose `y`s is heavy is left out.
    x: Vec<Value>,
    y: Vec<Value>,
    z: Vec<Value>,
    /// `x → row`, `y → inner index`, `z → column`; `None` when not heavy.
    x_row: Vec<Option<usize>>,
    y_col: Vec<Option<usize>>,
    z_col: Vec<Option<usize>>,
    /// Tuples of `R` and of `S` under a heavy head.
    mass: (u64, u64),
}

impl HeavyIndex {
    fn build(r: &Relation, s: &Relation, d1: u32, d2: u32) -> Self {
        let mut y_col = vec![None; r.y_domain().max(s.y_domain())];
        let mut y = Vec::new();
        for v in 0..r.y_domain().min(s.y_domain()) as Value {
            if r.y_degree(v).min(s.y_degree(v)) > d1 as usize {
                y_col[v as usize] = Some(y.len());
                y.push(v);
            }
        }
        let heads = |rel: &Relation| {
            let (mut heads, mut index, mut mass) = (Vec::new(), vec![None; rel.x_domain()], 0);
            for (x, ys) in rel.by_x().iter_nonempty() {
                let joins = ys
                    .iter()
                    .any(|&y| y_col.get(y as usize).is_some_and(Option::is_some));
                if ys.len() > d2 as usize && joins {
                    index[x as usize] = Some(heads.len());
                    heads.push(x);
                    mass += ys.len() as u64;
                }
            }
            (heads, index, mass)
        };
        let ((x, x_row, mass_r), (z, z_col, mass_s)) = (heads(r), heads(s));
        Self {
            x,
            y,
            z,
            x_row,
            y_col,
            z_col,
            mass: (mass_r, mass_s),
        }
    }

    fn y_is_heavy(&self, y: Value) -> bool {
        self.y_col.get(y as usize).is_some_and(Option::is_some)
    }

    fn z_is_heavy(&self, z: Value) -> bool {
        self.z_col.get(z as usize).is_some_and(Option::is_some)
    }

    /// `M1 · M2` by SGEMM, or `None` when a side is empty or the three
    /// matrices are over the cell cap.
    fn multiply(&self, r: &Relation, s: &Relation, config: &JoinConfig) -> Option<DenseMatrix> {
        let (u, v, w) = (self.x.len(), self.y.len(), self.z.len());
        if u * v * w == 0 || u * v + v * w + u * w > config.matrix_cell_cap {
            return None;
        }
        let fill = |m: &mut DenseMatrix, heads: &[Value], rel: &Relation, transposed: bool| {
            for (h, &x) in heads.iter().enumerate() {
                for k in rel.ys_of(x).iter().filter_map(|&y| self.y_col[y as usize]) {
                    if transposed {
                        m.set(k, h, 1.0);
                    } else {
                        m.set(h, k, 1.0);
                    }
                }
            }
        };
        let (mut m1, mut m2) = (DenseMatrix::zeros(u, v), DenseMatrix::zeros(v, w));
        fill(&mut m1, &self.x, r, false);
        fill(&mut m2, &self.z, s, true);
        Some(matmul_parallel_on(
            config.exec(),
            &m1,
            &m2,
            config.effective_threads(),
        ))
    }

    /// The partition's record: its shape, the tuples left to the light
    /// passes, and whether the core was multiplied.
    fn record(
        &self,
        r: &Relation,
        s: &Relation,
        (d1, d2): (u32, u32),
        full_join: u64,
        matrix: bool,
    ) -> PlanStats {
        PlanStats {
            heavy_dims: Some((self.x.len(), self.y.len(), self.z.len())),
            heavy_core_matrix: Some(matrix),
            heavy_backend: Some(KERNEL),
            light_tuples: Some((r.len() as u64 - self.mass.0, s.len() as u64 - self.mass.1)),
            full_join: Some(full_join),
            ..PlanStats::partitioned(d1, d2)
        }
    }

    /// The core without a matrix: each heavy `x` expanded through the heavy
    /// `y`s.
    fn expand(&self, r: &Relation, s: &Relation, out: &mut Vec<(Value, Value)>) {
        let mut dedup = DedupBuffer::new(s.x_domain());
        for &x in &self.x {
            dedup.clear();
            for &y in r.ys_of(x).iter().filter(|&&y| self.y_is_heavy(y)) {
                out.extend(
                    s.xs_of(y)
                        .iter()
                        .filter(|&&z| dedup.insert(z))
                        .map(|&z| (x, z)),
                );
            }
        }
    }
}

/// `groups` of each relation chunked over `threads` tasks, `f` run on each
/// chunk with its side (`false` for `R`'s, `true` for `S`'s), the outputs
/// concatenated.
fn over_groups<T: Send>(
    (r, s): (&Relation, &Relation),
    threads: usize,
    exec: &Executor,
    f: impl Fn(bool, &[(Value, &[Value])], &mut Vec<T>) + Sync,
) -> Vec<T> {
    let a: Vec<_> = r.by_x().iter_nonempty().collect();
    let b: Vec<_> = s.by_x().iter_nonempty().collect();
    let chunk = |g: &[_]| g.len().div_ceil(threads.max(1)).max(1);
    let chunks: Vec<_> = (a.chunks(chunk(&a)).map(|c| (false, c)))
        .chain(b.chunks(chunk(&b)).map(|c| (true, c)))
        .collect();
    let run = |i: usize| {
        let mut out = Vec::new();
        f(chunks[i].0, chunks[i].1, &mut out);
        out
    };
    if threads <= 1 {
        return (0..chunks.len()).flat_map(run).collect();
    }
    exec.map(threads, chunks.len(), run)
        .into_iter()
        .flatten()
        .collect()
}

/// Light passes A (from `R`) and B (from `S`): every pair with a light
/// head or a witness light in one relation, some more than once.
fn light_passes(
    r: &Relation,
    s: &Relation,
    d1: u32,
    d2: u32,
    threads: usize,
    exec: &Executor,
) -> Vec<(Value, Value)> {
    if (d1, d2) == (0, 0) {
        return Vec::new(); // nothing is light
    }
    let light = |degree: usize, delta: u32| degree <= delta as usize;
    over_groups((r, s), threads, exec, |from_s, groups, out| {
        let (other, domain) = if from_s {
            (r, r.x_domain())
        } else {
            (s, s.x_domain())
        };
        let mut dedup = DedupBuffer::new(domain);
        for &(head, ys) in groups {
            dedup.clear();
            for &y in ys.iter().filter(|&&y| (y as usize) < other.y_domain()) {
                let expand = if from_s {
                    // Pass A found every pair through a `y` light in `S`.
                    !light(s.y_degree(y), d1) && (light(ys.len(), d2) || light(r.y_degree(y), d1))
                } else {
                    light(ys.len(), d2) || light(s.y_degree(y), d1)
                };
                if !expand {
                    continue;
                }
                for &v in other.xs_of(y) {
                    // Pass B: a light `x` was expanded whole by pass A.
                    if (!from_s || !light(r.x_degree(v), d2)) && dedup.insert(v) {
                        out.push(if from_s { (v, head) } else { (head, v) });
                    }
                }
            }
        }
    })
}

/// Counting passes L1–L3: each pair's witnesses counted in one pass, so
/// the counts are exact; sorted.
fn count_passes(
    r: &Relation,
    s: &Relation,
    d2: u32,
    min_count: u32,
    heavy: &HeavyIndex,
    product: Option<&DenseMatrix>,
    config: &JoinConfig,
) -> Vec<(Value, Value, u32)> {
    let light = |degree: usize| degree <= d2 as usize;
    let (threads, exec) = (config.effective_threads(), config.exec());
    let mut out = over_groups((r, s), threads, exec, |from_s, groups, out| {
        let other = if from_s { r } else { s };
        let mut dedup = DedupBuffer::new(other.x_domain());
        let mut touched: Vec<Value> = Vec::new();
        for &(head, ys) in groups {
            // L1 and L2 walk the light heads of each side, L3 the heavy `x`.
            if from_s && !light(ys.len()) {
                continue;
            }
            let l3 = !from_s && !light(ys.len());
            let row = if l3 { heavy.x_row[head as usize] } else { None };
            dedup.clear();
            touched.clear();
            for &y in ys.iter().filter(|&&y| (y as usize) < other.y_domain()) {
                // With a product, L3 leaves the heavy `y`s to it.
                if l3 && product.is_some() && heavy.y_is_heavy(y) {
                    continue;
                }
                touched.extend(other.xs_of(y).iter().filter(|&&v| dedup.insert(v)));
            }
            let mut emit = |x: Value, z: Value, count: u32| {
                if count >= min_count && count > 0 {
                    out.push((x, z, count));
                }
            };
            if let (Some(row), Some(m)) = (row, product) {
                for (j, &z) in heavy.z.iter().enumerate() {
                    emit(head, z, m.get(row, j) as u32 + dedup.multiplicity(z));
                }
            }
            for &v in &touched {
                let count = dedup.multiplicity(v);
                match (from_s, l3) {
                    // L2: a heavy `x` only; L1 found the light ones.
                    (true, _) if !light(r.x_degree(v)) => emit(v, head, count),
                    (true, _) => {}
                    (false, false) => emit(head, v, count),
                    // L3: the heavy `z`, less those the column scan wrote.
                    (false, true) => {
                        let scanned = row.is_some() && product.is_some() && heavy.z_is_heavy(v);
                        if !scanned && !light(s.x_degree(v)) {
                            emit(head, v, count);
                        }
                    }
                }
            }
        }
    });
    out.sort_unstable();
    out
}

/// Steps 1–2 of the star, into `acc`: for each leg `j`, the WCOJ star with
/// leg `j` cut to its light heads, then to the `y`s light in every other
/// leg.
fn light_steps(legs: &[&Relation], d1: u32, d2: u32, acc: &mut ProjectionAccumulator) {
    for (j, &r) in legs.iter().enumerate() {
        let light_elsewhere = |y: Value| {
            let others = legs.iter().enumerate().filter(|&(i, _)| i != j);
            let light = |o: &&Relation| y as usize >= o.y_domain() || o.y_degree(y) <= d1 as usize;
            others.map(|(_, o)| o).all(light)
        };
        let cut = |keep: &dyn Fn(Value, Value) -> bool| {
            let kept = r.tuples().filter(|&(x, y)| keep(x, y)).collect();
            Relation::from_sorted_edges(r.x_domain(), r.y_domain(), kept)
        };
        let light_heads = cut(&|x, _| r.x_degree(x) <= d2 as usize);
        let light_ys = cut(&|_, y| light_elsewhere(y));
        for cut in [light_heads, light_ys].iter().filter(|c| !c.is_empty()) {
            let mut working = legs.to_vec();
            working[j] = cut;
            star_full_join_for_each(&working, |_, tuple| acc.push(tuple));
        }
    }
}

/// The distinct half-tuples over `group` — heads heavier than `Δ2` sharing
/// a column of `cols` — ascending, each with the indices of the columns
/// its heads share. Grown a leg at a time from the empty prefix, which
/// shares every column.
fn half_tuples(group: &[&Relation], cols: &[Value], d2: u32) -> Vec<(Vec<Value>, Vec<usize>)> {
    let mut col_of = vec![None; cols.last().map_or(0, |&y| y as usize + 1)];
    cols.iter()
        .enumerate()
        .for_each(|(k, &y)| col_of[y as usize] = Some(k));
    let mut rows = vec![(Vec::new(), (0..cols.len()).collect::<Vec<_>>())];
    let mut shares = vec![false; cols.len()];
    for r in group {
        let (mut next, mut seen) = (Vec::new(), DedupBuffer::new(r.x_domain()));
        for (prefix, shared) in &rows {
            seen.clear();
            let mut heads = Vec::new();
            for &k in shared {
                shares[k] = true;
                let new = |&&x: &&Value| r.x_degree(x) > d2 as usize && seen.insert(x);
                heads.extend(r.xs_of(cols[k]).iter().filter(new));
            }
            heads.sort_unstable();
            for x in heads {
                let ks = r.ys_of(x).iter().filter_map(|&y| *col_of.get(y as usize)?);
                let keep = ks.filter(|&k| shares[k]).collect();
                next.push(([&prefix[..], &[x]].concat(), keep));
            }
            shared.iter().for_each(|&k| shares[k] = false);
        }
        rows = next;
    }
    rows
}
