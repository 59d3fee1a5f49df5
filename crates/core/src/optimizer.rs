//! Algorithm 3 — the cost-based optimizer's choice for a two-path.
//!
//! Line 2 decides between plain expansion and an *everything-heavy* plan
//! (`Δ1 = Δ2 = 0`). Under [`HeavyBackend::Auto`] it compares two prices,
//! both from exact counts the relations hold (`line_two`): expansion's,
//! `t_insert` per tuple of the exact full join `|OUT⋈|`, and the bit core's
//! (`PackedCore`: its word operations at the bit-word rate, the build of
//! any operand not packed yet, its allocation, the product scan and, for
//! counting, popcount's emit). The core runs when it is cheaper; a tie, or a
//! core over the memory cap, expands. [`JoinConfig::wcoj_fallback_factor`]
//! scales expansion's price: neutral at its default, and still forcing the
//! matrix at 0 and expansion at `∞`. Under the [`HeavyBackend::DenseF32`]
//! pin line 2 is the paper's fixed test `|OUT⋈| ≤ F · N`, and the core is
//! SGEMM over f32 operands filled per query, priced as a star's. No
//! threshold index is built and no `(Δ1, Δ2)` grid is searched: a mixed
//! partition lost to the better of those two plans on every instance
//! measured (DESIGN.md, "Algorithm 3"), and it runs only when forced
//! (`delta_override`).
//!
//! Under `Auto` the core's operands are the relations' memoised packed rows:
//! an existence query multiplies them over the Boolean semiring, a counting
//! one takes `popcount(R[x] & S[z])` over both relations' `x`-major rows. The
//! cap is checked against their real size before anything is packed.
//!
//! [`HeavyBackend::Auto`]: crate::config::HeavyBackend::Auto
//! [`HeavyBackend::DenseF32`]: crate::config::HeavyBackend::DenseF32

use crate::config::JoinConfig;
use crate::estimate::{estimate_output_size, OutputEstimate};
use mmjoin_api::{LineTwoPrices, OperandSource};
use mmjoin_matrix::{BitProductPlan, Orientation};
use mmjoin_storage::{PackedForm, Relation};

/// Which execution strategy the optimizer picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanChoice {
    /// Full join + dedup via the combinatorial WCOJ path (Algorithm 3
    /// line 3): expansion is the cheaper side of line 2.
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
    /// The output estimate, with the exact full join line 2 rests on.
    pub estimate: OutputEstimate,
    /// Line 2's two prices under the bit kernels, whichever won; `None`
    /// under the SGEMM pin.
    pub line_two: Option<LineTwoPrices>,
    /// Predicted heavy-core seconds (0 for WCOJ); nothing is light in an
    /// everything-heavy plan.
    pub predicted_heavy: f64,
    /// Number of heavy cores priced: 1, except under the SGEMM pin when
    /// its fixed test decided.
    pub iterations: usize,
    /// The heavy-core kernel the plan was priced for — `"bit row-or"` /
    /// `"bit and-any"` ([`Orientation::name`]), `"bit popcount"` or
    /// `"f32"`; `None` for WCOJ.
    ///
    /// [`Orientation::name`]: mmjoin_matrix::Orientation::name
    pub heavy_kernel: Option<&'static str>,
    /// For a bit core over the relations' memoised packed rows: whether
    /// each operand is packed already ([`PackedCore::sources`]); `None`
    /// otherwise.
    pub heavy_operands: Option<[OperandSource; 2]>,
}

/// [`ExecutionPlan::heavy_kernel`] of a heavy core multiplied by SGEMM.
pub(crate) const F32_KERNEL: &str = "f32";

/// [`ExecutionPlan::heavy_kernel`] of a counting core over bit rows
/// ([`BitRows::and_popcount`]).
///
/// [`BitRows::and_popcount`]: mmjoin_matrix::BitRows::and_popcount
pub(crate) const POPCOUNT_KERNEL: &str = "bit popcount";

/// Algorithm 3 line 2 for a join whose exact full join is `full_join` over
/// inputs of at most `n` tuples, with `price` the everything-heavy core's
/// price and kernel (`None` over the cap): line 2's two prices (under the
/// bit kernels) and the core, if it runs. Under the bit kernels the core
/// runs when it is cheaper than expansion, `t_insert` per full-join tuple
/// scaled by [`JoinConfig::expansion_scale`]; under the SGEMM pin when the
/// full join is over `F · N`. Two-paths and stars both decide here.
pub(crate) fn line_two(
    config: &JoinConfig,
    full_join: u64,
    n: usize,
    price: impl FnOnce() -> Option<(f64, &'static str)>,
) -> (Option<LineTwoPrices>, Option<(f64, &'static str)>) {
    if !config.heavy_backend.is_boolean() {
        let output_like = full_join as f64 <= config.wcoj_fallback_factor * n.max(1) as f64;
        return (None, if output_like { None } else { price() });
    }
    // Expansion of nothing costs nothing — unless a factor below 0 sends
    // even an empty join to the core, as the paper's test did.
    let expand_secs = match config.expansion_scale() {
        scale if scale < 0.0 => f64::INFINITY,
        _ if full_join == 0 => 0.0,
        scale => config.cost_model.constants.t_insert * full_join as f64 * scale,
    };
    let core = price();
    let prices = LineTwoPrices {
        expand_secs,
        core_secs: core.map(|(secs, _)| secs),
    };
    (Some(prices), core.filter(|&(secs, _)| secs < expand_secs))
}

/// Runs Algorithm 3 for the existence-only 2-path query over `r`, `s`
/// (plain join-project, chain steps).
pub fn choose_thresholds(r: &Relation, s: &Relation, config: &JoinConfig) -> ExecutionPlan {
    choose_plan(r, s, config, false)
}

/// Algorithm 3 for the 2-path over `r`, `s`: line 2 between expansion and
/// everything heavy, priced for the kernel `config` runs on a query that
/// does (`counting`) or does not read witness counts.
pub(crate) fn choose_plan(
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
    counting: bool,
) -> ExecutionPlan {
    let estimate = estimate_output_size(r, s);
    let out_est = estimate.estimate.max(1) as f64;
    let (mut iterations, mut operands) = (0, None);
    let (line_two, core) = line_two(config, estimate.full_join, r.len().max(s.len()), || {
        iterations = 1;
        if config.heavy_backend.is_boolean() {
            let core = PackedCore::of(r, s, counting);
            let sources = core.sources(r, s);
            operands = Some(sources);
            core.cost(config, sources, [r.len(), s.len()], out_est)
        } else {
            // Every active value is heavy and every tuple an operand cell.
            let dims = (
                r.active_x_count(),
                r.active_y_count().min(s.active_y_count()),
                s.active_x_count(),
            );
            f32_core_cost(config, dims, r.len() as f64, out_est)
        }
    });
    let mut plan = ExecutionPlan {
        choice: PlanChoice::Wcoj,
        estimate,
        line_two,
        predicted_heavy: 0.0,
        iterations,
        heavy_kernel: None,
        heavy_operands: None,
    };
    if let Some((heavy, kernel)) = core {
        plan.choice = PlanChoice::Mm {
            delta1: 0,
            delta2: 0,
        };
        plan.predicted_heavy = heavy;
        plan.heavy_kernel = Some(kernel);
        plan.heavy_operands = operands;
    }
    plan
}

/// Lines 12–13: cost of a heavy core multiplied by SGEMM over `u × v × w`
/// f32 operands with `nnz1` set cells on the left, filled for this query
/// alone, and its kernel — or `None` when the core would be empty or over
/// the memory cap (such a partition runs no matrix). The GEMM term is
/// priced by its *effective* work — the kernel skips zero rows of M1, so
/// the madds executed are ≈ nnz(M1)·w — plus the zero-branch scan of M1,
/// the (calloc-cheap) matrix allocations, the extraction scan of all u·w
/// cells (the paper's `Tm·(u·v + u·w)`), and the rows written. Shared by
/// the two-path's and the star's SGEMM pin.
pub(crate) fn f32_core_cost(
    config: &JoinConfig,
    (u, v, w): (usize, usize, usize),
    nnz1: f64,
    out_est: f64,
) -> Option<(f64, &'static str)> {
    if u == 0 || v == 0 || w == 0 {
        return None;
    }
    let consts = config.cost_model.constants;
    let (uf, vf, wf) = (u as f64, v as f64, w as f64);
    let nnz1 = nnz1.min(uf * vf);
    let cells = uf * vf + vf * wf + uf * wf;
    let cap_bytes = config.matrix_cell_cap.saturating_mul(4);
    (4.0 * cells <= cap_bytes as f64).then(|| {
        let cost = config
            .cost_model
            .estimate_effective(nnz1 * wf, config.effective_threads())
            + consts.t_seq * (uf * vf + uf * wf)
            + 0.1e-9 * cells
            + consts.t_insert * (uf * wf).min(out_est);
        (cost, F32_KERNEL)
    })
}

/// Fixed cost of running one bit heavy core, whatever its size: its
/// allocations, its phases' spans and clock reads, and the kernel's set-up.
/// Not micro-benchmarked: measured as what a 4-tuple bit core takes beyond
/// the expansion of the same join (0.80 µs against 0.44 µs, best of 2 000
/// runs on a 2-vCPU x86-64 host) — expansion's price has no fixed term.
pub(crate) const T_SETUP: f64 = 0.4e-6;

/// A bit core's price once its work is known: `None` when `bytes` — its
/// operands and product — are over the cap, else its fixed set-up
/// ([`T_SETUP`]), `words` word operations, one pass over
/// the `build_nnz` tuples of the operands this query fills, `fresh_bytes`
/// allocated zeroed (`Tm` is per 32 bytes), one scan of the `product_words`
/// words of the product, and `emit` for the rows it writes. The fixed term
/// sends a join of a few tuples to expansion, whose price is a few
/// nanoseconds there.
pub(crate) fn bit_core_cost(
    config: &JoinConfig,
    words: f64,
    product_words: f64,
    [bytes, fresh_bytes]: [usize; 2],
    build_nnz: f64,
    emit: f64,
) -> Option<f64> {
    let consts = config.cost_model.constants;
    (bytes <= config.matrix_cell_cap.saturating_mul(4)).then(|| {
        T_SETUP
            + config.cost_model.estimate_bit_product(words)
            + consts.t_seq * build_nnz
            + consts.t_alloc * fresh_bytes as f64 / 32.0
            + consts.t_seq * product_words
            + emit
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

/// The everything-heavy bit core of `R(x, y) ⋈ S(z, y)` over the
/// relations' memoised packed rows (`mmjoin_storage::packed`), from O(1)
/// counts: planning and the run both derive it, so they agree on the
/// kernel, and nothing is packed to find out whether it fits.
pub(crate) struct PackedCore {
    /// `(active x of R, y ids both relations have, active x of S)`: the
    /// inner dimension is the raw-id prefix the kernel scans, not the count
    /// of `y`s active in both.
    pub dims: (usize, usize, usize),
    /// An existence core's Boolean product over those dimensions, with
    /// every tuple a set bit; `None` for a counting core, which runs
    /// AND-popcount.
    pub bit: Option<BitProductPlan>,
    /// The form of `S` the kernel reads (`R` is always `x`-major).
    pub right: PackedForm,
    /// Bytes of `R`'s and of `S`'s form as packed — each over its own
    /// relation's `y` domain, so not what `BitProductPlan::bytes` assumes.
    operand_bytes: [usize; 2],
}

impl PackedCore {
    /// The core of a query that does (`counting`) or does not read witness
    /// counts.
    pub(crate) fn of(r: &Relation, s: &Relation, counting: bool) -> Self {
        let (u, v, w) = (
            r.active_x_count(),
            r.y_domain().min(s.y_domain()),
            s.active_x_count(),
        );
        let bit = (!counting).then(|| {
            let (nnz1, nnz2) = (
                (r.len() as f64).min((u * v) as f64),
                (s.len() as f64).min((v * w) as f64),
            );
            BitProductPlan::choose(u, v, w, nnz1, nnz2)
        });
        let right = match bit.map(|bit| bit.orientation) {
            Some(Orientation::RowOr) => PackedForm::YMajor,
            _ => PackedForm::XMajor,
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

    /// The kernel's name in the plan record.
    pub(crate) fn kernel(&self) -> &'static str {
        self.bit
            .map_or(POPCOUNT_KERNEL, |bit| bit.orientation.name())
    }

    /// Words of the product: AND-popcount builds none.
    fn product_words(&self) -> usize {
        let (u, _, w) = self.dims;
        self.bit.map_or(0, |_| u * w.div_ceil(64))
    }

    /// Bytes of both operands and the product: what the memory cap admits.
    pub(crate) fn bytes(&self) -> usize {
        self.operand_bytes[0] + self.operand_bytes[1] + 8 * self.product_words()
    }

    /// Whether each operand is packed already, as of now.
    pub(crate) fn sources(&self, r: &Relation, s: &Relation) -> [OperandSource; 2] {
        [(r, PackedForm::XMajor), (s, self.right)]
            .map(|(rel, form)| operand_source(rel.is_packed(form)))
    }

    /// The price of this core and its kernel: only an operand that
    /// `sources` says is still to be built is charged its tuples and its
    /// bytes. A Boolean product is the answer and writes no row;
    /// AND-popcount tests every row pair over the `⌈v/64⌉` common words and
    /// writes its `(x, z, count)` triples.
    fn cost(
        &self,
        config: &JoinConfig,
        sources: [OperandSource; 2],
        tuples: [usize; 2],
        out_est: f64,
    ) -> Option<(f64, &'static str)> {
        let (u, v, w) = self.dims;
        let (mut build_nnz, mut fresh_bytes) = (0.0, 8 * self.product_words());
        for i in 0..2 {
            if sources[i] == OperandSource::Built {
                build_nnz += tuples[i] as f64;
                fresh_bytes += self.operand_bytes[i];
            }
        }
        let (words, emit) = match self.bit {
            Some(bit) => (bit.words, 0.0),
            None => (
                (u * w * v.div_ceil(64)) as f64,
                config.cost_model.constants.t_insert * ((u * w) as f64).min(out_est),
            ),
        };
        let cost = bit_core_cost(
            config,
            words,
            self.product_words() as f64,
            [self.bytes(), fresh_bytes],
            build_nnz,
            emit,
        )?;
        Some((cost, self.kernel()))
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
        // Perfect matching: full join == N, and the core's words cost more.
        let edges: Vec<(Value, Value)> = (0..100).map(|i| (i, i)).collect();
        let r = rel(&edges);
        let plan = choose_thresholds(&r, &r, &JoinConfig::default());
        assert_eq!(plan.choice, PlanChoice::Wcoj);
        assert_eq!(plan.iterations, 1, "line 2 prices the core");
        let prices = plan.line_two.unwrap();
        assert!(
            prices.core_secs.unwrap() >= prices.expand_secs,
            "{prices:?}"
        );
    }

    /// 60 sets over 4 shared elements: full join = 4·60² = 14400 >> 20·240.
    /// Existence and counting both take everything-heavy — no light pass —
    /// without building an index or searching a grid, each priced for its
    /// own bit kernel.
    #[test]
    fn dense_existence_instance_goes_all_heavy_unsearched() {
        let r = clique(60, 4, 1);
        for counting in [false, true] {
            let plan = choose_plan(&r, &r, &JoinConfig::default(), counting);
            assert_eq!(
                plan.choice,
                PlanChoice::Mm {
                    delta1: 0,
                    delta2: 0
                },
                "{plan:?}"
            );
            let kernel = plan.heavy_kernel.unwrap();
            assert!(kernel.starts_with("bit "), "{kernel}");
            assert_eq!(kernel == POPCOUNT_KERNEL, counting);
            assert_eq!(plan.iterations, 1);
        }
    }

    /// The shape the paper's `F = 20` sent to expansion: `|OUT⋈| / N = 15`,
    /// a dense core of a few words. Its price is far below expansion's, so
    /// line 2 takes the matrix for existence and counting alike; the SGEMM
    /// pin keeps the paper's test, and expands.
    #[test]
    fn a_dense_pair_under_twenty_times_its_input_takes_the_cheaper_core() {
        let r = clique(15, 40, 1);
        let (full_join, n) = (9_000u64, r.len() as u64);
        assert!((10 * n..20 * n).contains(&full_join));
        for counting in [false, true] {
            let plan = choose_plan(&r, &r, &JoinConfig::default(), counting);
            assert_eq!(plan.estimate.full_join, full_join);
            assert!(matches!(plan.choice, PlanChoice::Mm { .. }), "{plan:?}");
            let prices = plan.line_two.unwrap();
            assert_eq!(prices.core_secs, Some(plan.predicted_heavy));
            assert!(plan.predicted_heavy < prices.expand_secs, "{prices:?}");
        }
        let pinned = JoinConfig {
            heavy_backend: HeavyBackend::DenseF32,
            ..JoinConfig::default()
        };
        let plan = choose_thresholds(&r, &r, &pinned);
        assert_eq!((plan.choice, plan.line_two), (PlanChoice::Wcoj, None));
        assert_eq!(plan.iterations, 0, "the pin's fixed test decided");
    }

    /// A DBLP-like pair: 3 000 sets of 3 elements from a 3 000-wide domain,
    /// every element in 3 sets — `|OUT⋈| / N = 3`, and a core of millions of
    /// bit words for 27 000 full-join tuples. Expansion is cheaper, for
    /// existence and counting alike.
    #[test]
    fn a_sparse_wide_pair_stays_on_expansion() {
        let edges: Vec<(Value, Value)> = (0..3000)
            .flat_map(|x| (0..3).map(move |j| (x, (7 * x + 1009 * j) % 3000)))
            .collect();
        let r = rel(&edges);
        for counting in [false, true] {
            let plan = choose_plan(&r, &r, &JoinConfig::default(), counting);
            assert_eq!(plan.estimate.full_join, 27_000);
            let core = PackedCore::of(&r, &r, counting);
            let words = core
                .bit
                .map_or((3000 * 3000 * 3000usize.div_ceil(64)) as f64, |bit| {
                    bit.words
                });
            assert!(words > 10.0 * 27_000.0, "{words}");
            assert_eq!(plan.choice, PlanChoice::Wcoj, "{plan:?}");
            let prices = plan.line_two.unwrap();
            assert!(prices.core_secs.unwrap() > prices.expand_secs, "{prices:?}");
        }
    }

    /// A join of a few tuples expands: the core's fixed set-up alone is
    /// dearer than expanding them, for existence and counting.
    #[test]
    fn a_join_of_four_tuples_expands() {
        let tiny = rel(&[(0, 0), (1, 0), (2, 1), (2, 0)]);
        for counting in [false, true] {
            let plan = choose_plan(&tiny, &tiny, &JoinConfig::default(), counting);
            assert_eq!(plan.choice, PlanChoice::Wcoj, "{plan:?}");
            let prices = plan.line_two.unwrap();
            assert!(prices.core_secs.unwrap() > T_SETUP, "{prices:?}");
            assert!(prices.expand_secs < T_SETUP, "{prices:?}");
        }
    }

    /// The factor scales expansion's price and nothing else: at `0` the
    /// matrix runs whenever its core fits (even the matching, where it
    /// loses), at `∞` expansion always does (even the clique, where it
    /// loses), for existence and counting.
    #[test]
    fn a_factor_of_zero_or_infinity_still_forces() {
        let matching = rel(&(0..100).map(|i| (i, i)).collect::<Vec<_>>());
        for r in [matching, clique(60, 4, 1)] {
            for counting in [false, true] {
                let plan = |factor| choose_plan(&r, &r, &with_factor(factor), counting);
                assert!(matches!(plan(0.0).choice, PlanChoice::Mm { .. }));
                assert_eq!(plan(0.0).line_two.unwrap().expand_secs, f64::INFINITY);
                assert_eq!(plan(f64::INFINITY).choice, PlanChoice::Wcoj);
                assert_eq!(plan(f64::INFINITY).line_two.unwrap().expand_secs, 0.0);
            }
        }
        // A join with no tuple expands at any factor.
        let (a, b) = (rel(&[(0, 0)]), rel(&[(0, 1)]));
        let plan = choose_thresholds(&a, &b, &with_factor(0.0));
        assert_eq!(plan.choice, PlanChoice::Wcoj);
    }

    /// Line 2 compares the two prices it records: `t_insert` per full-join
    /// tuple times the factor's scale, and the core's; a higher `t_insert`
    /// or a lower factor moves only expansion's, a slower bit-word rate only
    /// the core's.
    #[test]
    fn line_two_records_the_prices_it_compared() {
        let r = clique(20, 3, 10);
        let base = choose_thresholds(&r, &r, &JoinConfig::default());
        let prices = base.line_two.unwrap();
        let t_insert = JoinConfig::default().cost_model.constants.t_insert;
        assert!((prices.expand_secs - t_insert * 1200.0).abs() < 1e-15);
        let halved = choose_thresholds(&r, &r, &with_factor(10.0))
            .line_two
            .unwrap();
        assert!((halved.expand_secs - 2.0 * prices.expand_secs).abs() < 1e-15);
        assert_eq!(halved.core_secs, prices.core_secs);
        let mut slow = JoinConfig::default();
        slow.cost_model = slow.cost_model.with_bit_word_secs(1e-6);
        let slowed = choose_thresholds(&r, &r, &slow);
        assert_eq!(slowed.line_two.unwrap().expand_secs, prices.expand_secs);
        assert!(slowed.line_two.unwrap().core_secs > prices.core_secs);
        for plan in [base, slowed] {
            let prices = plan.line_two.unwrap();
            let matrix = matches!(plan.choice, PlanChoice::Mm { .. });
            assert_eq!(matrix, prices.core_secs.unwrap() < prices.expand_secs);
        }
    }

    /// The record names the heavy-core kernel a plan dispatches to, and
    /// none for expansion.
    #[test]
    fn plan_records_dispatched_kernel() {
        let edges: Vec<(Value, Value)> = (0..10).map(|i| (i, i)).collect();
        let r = rel(&edges);
        let plan = choose_thresholds(&r, &r, &JoinConfig::default());
        assert_eq!(plan.heavy_kernel, None, "WCOJ runs no heavy core");
        let pinned = JoinConfig {
            heavy_backend: HeavyBackend::DenseF32,
            ..with_factor(0.0)
        };
        let plan = choose_thresholds(&r, &r, &pinned);
        assert_eq!(plan.heavy_kernel, Some(F32_KERNEL));
    }

    /// One instance, three prices: under `Auto` the existence variant is
    /// priced for the Boolean product and the counting variant for
    /// AND-popcount; under the SGEMM pin both are one SGEMM price. Past
    /// line 2 every one of them is everything heavy.
    #[test]
    fn existence_and_counting_variants_are_priced_for_different_kernels() {
        for (r, factor) in [
            (clique(60, 4, 1), 20.0),
            (clique(20, 3, 10), 5.0),
            (clique(50, 5, 1), 1.0),
            (clique(12, 6, 1), 1.0),
            (clique(120, 30, 1), 20.0),
        ] {
            let config = with_factor(factor);
            let existence = choose_plan(&r, &r, &config, false);
            let counting = choose_plan(&r, &r, &config, true);
            assert!(existence.heavy_kernel.unwrap().starts_with("bit "));
            assert_eq!(counting.heavy_kernel, Some(POPCOUNT_KERNEL));
            assert!(
                existence.predicted_heavy != counting.predicted_heavy,
                "{existence:?} vs {counting:?}"
            );
            let pinned = JoinConfig {
                heavy_backend: HeavyBackend::DenseF32,
                ..config
            };
            let [pinned_existence, pinned_counting] =
                [false, true].map(|counting| choose_plan(&r, &r, &pinned, counting));
            assert_eq!(pinned_counting.heavy_kernel, Some(F32_KERNEL));
            assert_eq!(
                pinned_existence.predicted_heavy,
                pinned_counting.predicted_heavy
            );
            for plan in [existence, counting, pinned_existence, pinned_counting] {
                let all_heavy = PlanChoice::Mm {
                    delta1: 0,
                    delta2: 0,
                };
                assert_eq!(plan.choice, all_heavy, "{plan:?}");
            }
        }
    }

    /// Writing rows is charged only to the kernel that writes them:
    /// AND-popcount's triples, not the Boolean product, which is the answer.
    #[test]
    fn only_popcount_is_charged_for_the_rows_it_writes() {
        let r = clique(60, 4, 1);
        let mut config = JoinConfig::default();
        let price = |config: &JoinConfig| {
            [false, true].map(|counting| choose_plan(&r, &r, config, counting).predicted_heavy)
        };
        let before = price(&config);
        config.cost_model.constants.t_insert *= 10.0;
        let after = price(&config);
        assert_eq!(after[0], before[0]);
        assert!(after[1] > before[1], "{before:?} → {after:?}");
    }

    /// A cap no heavy core fits under leaves expansion, not a partition that
    /// would expand under another name.
    #[test]
    fn no_partition_is_returned_over_the_memory_cap() {
        let r = clique(60, 4, 1);
        for backend in [HeavyBackend::Auto, HeavyBackend::DenseF32] {
            for counting in [false, true] {
                let config = JoinConfig {
                    matrix_cell_cap: 0,
                    heavy_backend: backend,
                    ..JoinConfig::default()
                };
                let plan = choose_plan(&r, &r, &config, counting);
                assert_eq!(plan.choice, PlanChoice::Wcoj, "{backend:?} {counting}");
                assert_eq!(plan.iterations, 1, "the core was priced and rejected");
            }
        }
        // The bit cores fit where f32 does not: 60×4 + 4×60 + 60×60 cells
        // are 16 k bytes of f32, but two 480-byte packed forms (and a
        // 480-byte product) of bits.
        let config = JoinConfig {
            matrix_cell_cap: 512,
            ..JoinConfig::default()
        };
        let pinned = JoinConfig {
            heavy_backend: HeavyBackend::DenseF32,
            ..config.clone()
        };
        for counting in [false, true] {
            assert!(matches!(
                choose_plan(&r, &r, &config, counting).choice,
                PlanChoice::Mm { .. }
            ));
            assert_eq!(
                choose_plan(&r, &r, &pinned, counting).choice,
                PlanChoice::Wcoj
            );
        }
    }

    #[test]
    fn predicted_costs_nonnegative() {
        let r = clique(50, 5, 1);
        for counting in [false, true] {
            let plan = choose_plan(&r, &r, &with_factor(1.0), counting);
            assert!(plan.predicted_heavy > 0.0);
        }
    }
}
