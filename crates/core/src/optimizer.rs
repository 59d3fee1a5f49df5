//! Algorithm 3 — the cost-based optimizer choosing degree thresholds.
//!
//! Given the threshold indexes of §5 (O(log N) queries for the light-part
//! work at any candidate `(Δ1, Δ2)`) and the calibrated cost model, the
//! optimizer walks `Δ1` down geometrically from `N`, couples
//! `Δ2 = N·Δ1 / |OUT|` (the balance point of Eq. 1's `N·Δ1` and `|OUT|·Δ2`
//! terms), evaluates the predicted light and heavy costs, and keeps the
//! cheapest — the loop of Algorithm 3. When the full join is no larger than
//! `20·N` (paper's constant) it skips partitioning entirely and reports the
//! plain-WCOJ plan; that line-2 test is [`prefers_wcoj`] on its own, for
//! callers that only choose between engines.
//!
//! The heavy term is priced for the kernel that will run
//! ([`HeavyBackend::is_boolean`]): word operations of the Boolean product for
//! existence queries, effective multiply-adds of SGEMM for counting ones.
//! The boundary candidate *everything heavy* (`Δ1 = Δ2 = 0`) is priced from
//! the relation counts before any index exists. For an existence query it
//! means no light pass and a heavy output that needs no sort, and it is the
//! only partition considered: past line 2 the Boolean core takes everything
//! that fits the memory cap, and expansion takes the rest (a mixed Boolean
//! partition lost to the better of those two on every instance measured —
//! DESIGN.md, "Algorithm 3"). Its operands are the relations' memoised
//! packed rows ([`PackedCore`]): the cap is checked against their real size
//! before anything is packed, and the build term is charged only for a
//! relation not packed yet — which moves the prediction, never the choice.
//! A candidate whose heavy side would be empty, or whose matrices would not
//! fit the cap, is never returned.
//!
//! [`HeavyBackend::is_boolean`]: crate::config::HeavyBackend::is_boolean

use crate::config::JoinConfig;
use crate::estimate::{estimate_output_size, OutputEstimate};
use mmjoin_api::OperandSource;
use mmjoin_matrix::{BitProductPlan, Orientation};
use mmjoin_storage::{PackedForm, Relation, ThresholdIndexes};

/// Which execution strategy the optimizer picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanChoice {
    /// Full join + dedup via the combinatorial WCOJ path (Algorithm 3
    /// line 3): the join is output-like already.
    Wcoj,
    /// Partitioned plan with the chosen degree thresholds.
    Mm {
        /// Join-variable (`y`) degree threshold `Δ1`.
        delta1: u32,
        /// Head-variable (`x`/`z`) degree threshold `Δ2`.
        delta2: u32,
    },
}

/// The optimizer's full decision record (for experiment logging).
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Chosen strategy.
    pub choice: PlanChoice,
    /// The output estimate that drove the choice.
    pub estimate: OutputEstimate,
    /// Predicted light-part seconds at the chosen thresholds (0 for WCOJ).
    pub predicted_light: f64,
    /// Predicted heavy-part seconds at the chosen thresholds (0 for WCOJ).
    pub predicted_heavy: f64,
    /// Number of candidate threshold pairs evaluated.
    pub iterations: usize,
    /// Name of the GEMM kernel the heavy path would dispatch to
    /// (`mmjoin_matrix::active_kernel`) — recorded so experiment logs and
    /// the misprediction gate can tell which kernel a plan was priced for.
    pub kernel: &'static str,
    /// The heavy-core kernel the chosen thresholds were priced for —
    /// `"bit row-or"` / `"bit and-any"` ([`Orientation::name`], from the
    /// relations' counts; the engine decides again on the exact partition)
    /// or `"f32"`; `None` for WCOJ.
    ///
    /// [`Orientation::name`]: mmjoin_matrix::Orientation::name
    pub heavy_kernel: Option<&'static str>,
    /// For a Boolean core over the relations' memoised packed rows: whether
    /// each operand is packed already ([`PackedCore::sources`]); `None`
    /// otherwise.
    pub heavy_operands: Option<[OperandSource; 2]>,
}

/// [`ExecutionPlan::heavy_kernel`] of a heavy core multiplied by SGEMM.
pub(crate) const F32_KERNEL: &str = "f32";

/// Geometric step for the Δ1 walk. The paper's footnote fixes ε = 0.95 in
/// `Δ1 ← (1-ε)·Δ1`; a 0.05× jump per step converges in very few, coarse
/// steps, so we use a finer 0.7× step (same asymptotics, better plans).
const DELTA1_STEP: f64 = 0.7;

/// Algorithm 3 line 2 on its own: whether the full join is output-like
/// (`|OUT⋈| ≤ F · N`, `F` being [`JoinConfig::fallback_factor`] for a query
/// that does or does not read counts), so that plain expansion beats any
/// partitioning, together with the §5 estimate it rests on. Costs two
/// passes over the domains — no threshold indexes, no grid — which is all
/// a caller choosing between a combinatorial and a matrix-capable engine
/// needs.
pub fn prefers_wcoj(
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
    counting: bool,
) -> (bool, OutputEstimate) {
    let estimate = estimate_output_size(r, s);
    let n = r.len().max(s.len()).max(1) as f64;
    let wcoj = (estimate.full_join as f64) <= config.fallback_factor(counting) * n;
    (wcoj, estimate)
}

/// Runs Algorithm 3 for the existence-only 2-path query over `r`, `s`
/// (plain join-project, chain steps): the heavy core is priced as the
/// kernel [`JoinConfig::heavy_backend`] names for a query without counts.
pub fn choose_thresholds(r: &Relation, s: &Relation, config: &JoinConfig) -> ExecutionPlan {
    choose_thresholds_for(r, s, config, false)
}

/// Runs Algorithm 3 for the 2-path query over `r`, `s`; `counting` says
/// whether the caller reads witness counts, which decides the heavy-core
/// kernel and therefore its price.
pub fn choose_thresholds_for(
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
    counting: bool,
) -> ExecutionPlan {
    let (wcoj, estimate) = prefers_wcoj(r, s, config, counting);
    let boolean = config.heavy_backend.is_boolean(counting);
    let plan = |best: Option<Candidate>, iterations: usize| ExecutionPlan {
        choice: best.map_or(PlanChoice::Wcoj, |c| PlanChoice::Mm {
            delta1: c.delta1,
            delta2: c.delta2,
        }),
        estimate,
        predicted_light: best.map_or(0.0, |c| c.light),
        predicted_heavy: best.map_or(0.0, |c| c.heavy),
        iterations,
        kernel: mmjoin_matrix::active_kernel().name(),
        heavy_kernel: best.map(|c| c.kernel),
        heavy_operands: None,
    };
    // Line 2: small full join ⇒ plain WCOJ plan.
    if wcoj {
        return plan(None, 0);
    }

    let consts = config.cost_model.constants;
    let n = r.len().max(s.len()).max(1) as f64;
    let out_est = estimate.estimate.max(1) as f64;
    // The Boolean core searches no further: everything heavy, multiplied
    // from the relations' packed rows, if that fits the cap; expansion if
    // not.
    if boolean {
        let core = PackedCore::of(r, s);
        let sources = core.sources(r, s);
        let all_heavy =
            core.cost(config, sources, [r.len(), s.len()], out_est)
                .map(|(heavy, kernel)| Candidate {
                    delta1: 0,
                    delta2: 0,
                    light: 0.0,
                    heavy,
                    kernel,
                });
        return ExecutionPlan {
            heavy_operands: all_heavy.map(|_| sources),
            ..plan(all_heavy, 1)
        };
    }
    // SGEMM from here on.
    let heavy_cost =
        |dims, nnz1: f64, nnz2: f64| heavy_core_cost(config, false, dims, nnz1, nnz2, out_est);

    // The boundary candidate "everything heavy" needs no index: every
    // active value is heavy and every tuple is in an operand.
    let dom_x = r.active_x_count().max(1);
    let all_heavy = heavy_cost(
        (
            dom_x,
            r.active_y_count().min(s.active_y_count()),
            s.active_x_count(),
        ),
        r.len() as f64,
        s.len() as f64,
    )
    .map(|(heavy, kernel)| Candidate {
        delta1: 0,
        delta2: 0,
        light: consts.t_alloc * dom_x as f64,
        heavy,
        kernel,
    });

    let ti = ThresholdIndexes::build(r, s);
    let eval = |d1: u32, d2: u32| -> Option<Candidate> {
        // Lines 10–11: light cost from the threshold indexes.
        let light = consts.t_insert * (ti.sum_y(d1) as f64 + ti.sum_x(d2) as f64)
            + consts.t_alloc * dom_x as f64
            + consts.t_seq * ti.cdfx_y(d1) as f64;
        let (heavy, kernel) = heavy_cost(
            ti.heavy_counts(d1, d2),
            ti.x.degree_sum_gt(d2) as f64,
            ti.z.degree_sum_gt(d2) as f64,
        )?;
        Some(Candidate {
            delta1: d1,
            delta2: d2,
            light,
            heavy,
            kernel,
        })
    };

    // Walk Δ1 geometrically down from the largest join-variable degree
    // (values above it are all equivalent to "everything light"). For each
    // Δ1 evaluate both the coupled Δ2 = N·Δ1/|OUT| (balancing Eq. 1's
    // N·Δ1 and |OUT|·Δ2 terms) and the boundary Δ2 = Δ1 (§3.1 case 2), and
    // keep the global minimum. The paper stops at the first local minimum;
    // scanning the whole O(log N)-point grid costs the same O(log² N)
    // index queries and is robust to plateaus. The coupled Δ2 is held
    // below the largest head degree on either side: past it no `x` or `z`
    // is heavy and the "partition" is pure expansion under another name.
    let head_cap = (ti.x.max_degree().min(ti.z.max_degree())).saturating_sub(1);
    let max_deg = ti.y.max_degree().max(ti.y_r.max_degree()).max(2) as f64;
    let mut delta1 = max_deg;
    let mut best: Option<Candidate> = None;
    let mut consider = |c: Option<Candidate>| {
        if let Some(c) = c {
            if best.is_none_or(|b| c.total() < b.total()) {
                best = Some(c);
            }
        }
    };
    let mut iterations = 1usize;
    while delta1 >= 1.0 && iterations < 256 {
        iterations += 1;
        let d1 = (delta1.round() as u32).max(1);
        let coupled = ((n * delta1 / out_est).round() as u32).clamp(1, head_cap.max(1));
        for d2 in [coupled, d1] {
            consider(eval(d1, d2));
        }
        delta1 *= DELTA1_STEP;
    }
    // Last, so that a counting query — for which everything-heavy saves
    // nothing over an equal partition — keeps the grid's pick on a tie.
    consider(all_heavy);
    // No candidate with a non-empty heavy core under the cap: expansion.
    plan(best, iterations)
}

/// Lines 12–13: cost of a heavy core over `u × v × w` with `nnz1` / `nnz2`
/// set cells in the two operands, and the kernel it is the cost of — or
/// `None` when the core would be empty or over the memory cap (such a
/// partition runs no matrix). Shared by the two-path and star planners.
pub(crate) fn heavy_core_cost(
    config: &JoinConfig,
    boolean: bool,
    (u, v, w): (usize, usize, usize),
    nnz1: f64,
    nnz2: f64,
    out_est: f64,
) -> Option<(f64, &'static str)> {
    if u == 0 || v == 0 || w == 0 {
        return None;
    }
    let consts = config.cost_model.constants;
    let cap_bytes = config.matrix_cell_cap.saturating_mul(4);
    let (uf, vf, wf) = (u as f64, v as f64, w as f64);
    let (nnz1, nnz2) = (nnz1.min(uf * vf), nnz2.min(vf * wf));
    let emit = consts.t_insert * (uf * wf).min(out_est);
    if boolean {
        // Operands built for this query alone: every tuple is walked and
        // every byte allocated.
        let bit = BitProductPlan::choose(u, v, w, nnz1, nnz2);
        bit_core_cost(
            config,
            &bit,
            (uf, wf),
            bit.bytes,
            bit.bytes,
            nnz1 + nnz2,
            emit,
        )
    } else {
        // The GEMM term is priced by its *effective* work — the kernel
        // skips zero rows of M1, so the madds executed are ≈ nnz(M1)·w
        // — plus the zero-branch scan of M1, the (calloc-cheap) matrix
        // allocations, and the extraction scan of all u·w cells (the
        // paper's `Tm·(u·v + u·w)`).
        let cells = uf * vf + vf * wf + uf * wf;
        (4.0 * cells <= cap_bytes as f64).then(|| {
            let cost = config
                .cost_model
                .estimate_effective(nnz1 * wf, config.effective_threads())
                + consts.t_seq * (uf * vf + uf * wf)
                + 0.1e-9 * cells
                + emit;
            (cost, F32_KERNEL)
        })
    }
}

/// The Boolean branch of [`heavy_core_cost`] once the product is planned:
/// `None` when `bytes` — both operands and the product — are over the cap,
/// else the product's word operations, one pass over the `build_nnz` tuples
/// of the operands this query fills, `fresh_bytes` allocated zeroed (`Tm` is
/// per 32 bytes), one scan of the product's `u · ⌈w/64⌉` words, and `emit`.
fn bit_core_cost(
    config: &JoinConfig,
    bit: &BitProductPlan,
    (uf, wf): (f64, f64),
    bytes: usize,
    fresh_bytes: usize,
    build_nnz: f64,
    emit: f64,
) -> Option<(f64, &'static str)> {
    let consts = config.cost_model.constants;
    (bytes <= config.matrix_cell_cap.saturating_mul(4)).then(|| {
        let cost = config.cost_model.estimate_bit_product(bit.words)
            + consts.t_seq * build_nnz
            + consts.t_alloc * fresh_bytes as f64 / 32.0
            + consts.t_seq * uf * (wf / 64.0).ceil()
            + emit;
        (cost, bit.orientation.name())
    })
}

/// An operand that was `packed` before the query needed it is reused.
pub(crate) fn operand_source(packed: bool) -> OperandSource {
    if packed {
        OperandSource::Reused
    } else {
        OperandSource::Built
    }
}

/// The everything-heavy Boolean core of `R(x, y) ⋈ S(z, y)` over the
/// relations' memoised packed rows (`mmjoin_storage::packed`), from O(1)
/// counts: planning and the run both derive it, so they agree on the
/// orientation, and nothing is packed to find out whether it fits.
pub(crate) struct PackedCore {
    /// `(active x of R, y ids both relations have, active x of S)`: the
    /// inner dimension is the raw-id prefix the kernel scans, not the count
    /// of `y`s active in both.
    pub dims: (usize, usize, usize),
    /// The product over those dimensions with every tuple a set bit.
    pub bit: BitProductPlan,
    /// The form of `S` that orientation multiplies (`R` is always `x`-major).
    pub right: PackedForm,
    /// Bytes of `R`'s and of `S`'s form as packed — each over its own
    /// relation's `y` domain, so not what `bit.bytes` assumes.
    operand_bytes: [usize; 2],
}

impl PackedCore {
    pub(crate) fn of(r: &Relation, s: &Relation) -> Self {
        let (u, v, w) = (
            r.active_x_count(),
            r.y_domain().min(s.y_domain()),
            s.active_x_count(),
        );
        let (nnz1, nnz2) = (
            (r.len() as f64).min((u * v) as f64),
            (s.len() as f64).min((v * w) as f64),
        );
        let bit = BitProductPlan::choose(u, v, w, nnz1, nnz2);
        let right = match bit.orientation {
            Orientation::RowOr => PackedForm::YMajor,
            Orientation::AndAny => PackedForm::XMajor,
        };
        Self {
            dims: (u, v, w),
            bit,
            right,
            operand_bytes: [
                8 * r.packed_words(PackedForm::XMajor),
                8 * s.packed_words(right),
            ],
        }
    }

    fn product_bytes(&self) -> usize {
        let (u, _, w) = self.dims;
        8 * u * w.div_ceil(64)
    }

    /// Bytes of both operands and the product: what the memory cap admits.
    pub(crate) fn bytes(&self) -> usize {
        self.operand_bytes[0] + self.operand_bytes[1] + self.product_bytes()
    }

    /// Whether each operand is packed already, as of now.
    pub(crate) fn sources(&self, r: &Relation, s: &Relation) -> [OperandSource; 2] {
        [(r, PackedForm::XMajor), (s, self.right)]
            .map(|(rel, form)| operand_source(rel.is_packed(form)))
    }

    /// [`heavy_core_cost`] for this core: only an operand that `sources`
    /// says is still to be built is charged its tuples and its bytes.
    fn cost(
        &self,
        config: &JoinConfig,
        sources: [OperandSource; 2],
        tuples: [usize; 2],
        out_est: f64,
    ) -> Option<(f64, &'static str)> {
        let (uf, wf) = (self.dims.0 as f64, self.dims.2 as f64);
        let (mut build_nnz, mut fresh_bytes) = (0.0, self.product_bytes());
        for i in 0..2 {
            if sources[i] == OperandSource::Built {
                build_nnz += tuples[i] as f64;
                fresh_bytes += self.operand_bytes[i];
            }
        }
        let emit = config.cost_model.constants.t_insert * (uf * wf).min(out_est);
        let bytes = self.bytes();
        bit_core_cost(
            config,
            &self.bit,
            (uf, wf),
            bytes,
            fresh_bytes,
            build_nnz,
            emit,
        )
    }
}

/// One priced `(Δ1, Δ2)`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    delta1: u32,
    delta2: u32,
    light: f64,
    heavy: f64,
    /// The kernel `heavy` is the price of.
    kernel: &'static str,
}

impl Candidate {
    fn total(&self) -> f64 {
        self.light + self.heavy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeavyBackend;
    use mmjoin_storage::{Relation, Value};

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    /// `sets` sets that all hold the same `elems` elements, `stride` apart.
    fn clique(sets: u32, elems: u32, stride: u32) -> Relation {
        let mut edges = Vec::new();
        for x in 0..sets {
            for y in 0..elems {
                edges.push((x, y * stride));
            }
        }
        rel(&edges)
    }

    fn with_factor(factor: f64) -> JoinConfig {
        JoinConfig {
            wcoj_fallback_factor: factor,
            ..JoinConfig::default()
        }
    }

    #[test]
    fn sparse_instance_picks_wcoj() {
        // Perfect matching: full join == N, way under 20·N.
        let edges: Vec<(Value, Value)> = (0..100).map(|i| (i, i)).collect();
        let r = rel(&edges);
        let plan = choose_thresholds(&r, &r, &JoinConfig::default());
        assert_eq!(plan.choice, PlanChoice::Wcoj);
        assert_eq!(plan.iterations, 0);
    }

    /// 60 sets over 4 shared elements: full join = 4·60² = 14400 >> 20·240.
    /// An existence query takes everything-heavy — no light pass, no sort —
    /// as soon as it is predicted to beat expansion, without building an
    /// index or searching the grid; the counting variant searches.
    #[test]
    fn dense_existence_instance_goes_all_heavy_unsearched() {
        let r = clique(60, 4, 1);
        let plan = choose_thresholds(&r, &r, &JoinConfig::default());
        assert_eq!(
            plan.choice,
            PlanChoice::Mm {
                delta1: 0,
                delta2: 0
            },
            "{plan:?}"
        );
        assert!(plan.heavy_kernel.unwrap().starts_with("bit "));
        assert_eq!(plan.predicted_light, 0.0);
        assert_eq!(plan.iterations, 1);
        assert!(choose_thresholds_for(&r, &r, &JoinConfig::default(), true).iterations > 1);
    }

    #[test]
    fn fallback_factor_respected() {
        // Full join is 20x input (3·400 vs 60 tuples): default factor 20
        // keeps WCOJ; factor 5 switches to MM.
        let r = clique(20, 3, 10);
        let default_plan = choose_thresholds(&r, &r, &JoinConfig::default());
        assert_eq!(default_plan.choice, PlanChoice::Wcoj);
        let tight_plan = choose_thresholds(&r, &r, &with_factor(5.0));
        assert!(matches!(tight_plan.choice, PlanChoice::Mm { .. }));
    }

    /// Line 2 on its own gives the verdict and the estimate the full
    /// optimizer starts from.
    #[test]
    fn prefers_wcoj_is_line_two_of_choose_thresholds() {
        let r = clique(20, 3, 10);
        for config in [JoinConfig::default(), with_factor(5.0), with_factor(0.0)] {
            let (wcoj, estimate) = prefers_wcoj(&r, &r, &config, false);
            let plan = choose_thresholds(&r, &r, &config);
            assert_eq!(wcoj, plan.choice == PlanChoice::Wcoj);
            assert_eq!(estimate, plan.estimate);
        }
        assert_eq!(
            prefers_wcoj(&r, &r, &JoinConfig::default(), true)
                .1
                .full_join,
            1200
        );
    }

    #[test]
    fn plan_records_dispatched_kernel() {
        let edges: Vec<(Value, Value)> = (0..10).map(|i| (i, i)).collect();
        let r = rel(&edges);
        let plan = choose_thresholds(&r, &r, &JoinConfig::default());
        assert_eq!(plan.kernel, mmjoin_matrix::active_kernel().name());
        assert_eq!(plan.heavy_kernel, None, "WCOJ runs no heavy core");
    }

    /// One instance, two prices: the existence variant is priced for the bit
    /// product, the counting variant for SGEMM — and the counting variant
    /// still picks what it picked before the Boolean core existed (the
    /// thresholds the parent commit chose on these fixtures).
    #[test]
    fn existence_and_counting_variants_are_priced_for_different_kernels() {
        for (r, factor, parent_choice) in [
            (clique(60, 4, 1), 20.0, (42, 3)),
            (clique(20, 3, 10), 5.0, (14, 2)),
            (clique(50, 5, 1), 1.0, (35, 4)),
            (clique(12, 6, 1), 1.0, (8, 4)),
            (clique(120, 30, 1), 20.0, (84, 21)),
        ] {
            let config = with_factor(factor);
            let existence = choose_thresholds_for(&r, &r, &config, false);
            let counting = choose_thresholds_for(&r, &r, &config, true);
            assert!(existence.heavy_kernel.unwrap().starts_with("bit "));
            assert_eq!(counting.heavy_kernel, Some(F32_KERNEL));
            assert!(
                existence.predicted_heavy != counting.predicted_heavy,
                "{existence:?} vs {counting:?}"
            );
            assert_eq!(
                counting.choice,
                PlanChoice::Mm {
                    delta1: parent_choice.0,
                    delta2: parent_choice.1
                }
            );
            // Pinning SGEMM prices the existence query like the counting one.
            let pinned = JoinConfig {
                heavy_backend: HeavyBackend::DenseF32,
                ..config
            };
            let pinned = choose_thresholds_for(&r, &r, &pinned, false);
            assert_eq!(pinned.predicted_heavy, counting.predicted_heavy);
        }
    }

    /// A cap no matrix fits under leaves no candidate: the plan is
    /// expansion, not a partition that would expand under another name.
    #[test]
    fn no_partition_is_returned_over_the_memory_cap() {
        let r = clique(60, 4, 1);
        for counting in [false, true] {
            let config = JoinConfig {
                matrix_cell_cap: 0,
                ..JoinConfig::default()
            };
            let plan = choose_thresholds_for(&r, &r, &config, counting);
            assert_eq!(plan.choice, PlanChoice::Wcoj, "counting={counting}");
            assert!(plan.iterations > 0, "the grid ran and rejected everything");
        }
        // The bit core fits where f32 does not: 60×4 + 4×60 + 60×60 cells
        // are 16 k bytes of f32 but under 2 k bytes of bits.
        let config = JoinConfig {
            matrix_cell_cap: 512,
            ..JoinConfig::default()
        };
        assert!(matches!(
            choose_thresholds_for(&r, &r, &config, false).choice,
            PlanChoice::Mm { .. }
        ));
        assert_eq!(
            choose_thresholds_for(&r, &r, &config, true).choice,
            PlanChoice::Wcoj
        );
    }

    #[test]
    fn predicted_costs_nonnegative() {
        let r = clique(50, 5, 1);
        let plan = choose_thresholds(&r, &r, &with_factor(1.0));
        assert!(plan.predicted_light >= 0.0);
        assert!(plan.predicted_heavy >= 0.0);
    }
}
