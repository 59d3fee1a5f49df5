//! Execution configuration for the MMJoin engine.

use mmjoin_executor::Executor;
use mmjoin_matrix::{CostModel, REFERENCE_BIT_WORD_SECS};
use std::sync::Arc;

/// Which kernel evaluates the heavy-core product of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeavyBackend {
    /// Bit kernels over the relations' memoised packed rows, for either
    /// semiring: the Boolean product when only the existence of a witness
    /// is read (plain join-project, stars, chain steps), AND-popcount when
    /// witness counts are (counting, similarity, containment).
    #[default]
    Auto,
    /// Pin f32 SGEMM for every query — the paper's prototype; the figure
    /// reproductions and the ablation bench use it.
    DenseF32,
}

impl HeavyBackend {
    /// Whether the heavy core runs a bit kernel; it is f32 SGEMM otherwise.
    pub fn is_boolean(self) -> bool {
        self == HeavyBackend::Auto
    }
}

/// Configuration shared by the 2-path and star MMJoin evaluators.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Requested parallelism for the light-part expansion, the matrix
    /// multiplication, and composed-plan wavefronts. Normalized once by
    /// [`JoinConfig::effective_threads`]: `0` means "the executor's full
    /// thread budget", `1` means serial, `n` means `n` threads. Actual
    /// concurrency is arbitrated by the shared executor's token budget.
    pub threads: usize,
    /// The executor running this configuration's parallel work; `None`
    /// uses the process-global pool. Services install their own so one
    /// budget governs all in-flight queries.
    pub executor: Option<Arc<Executor>>,
    /// Calibrated matmul cost model driving Algorithm 3. The default is the
    /// deterministic analytic model; experiment binaries install a measured
    /// calibration (`CostModel::calibrate`).
    pub cost_model: CostModel,
    /// Force the degree thresholds `(Δ1, Δ2)` instead of running the
    /// optimizer — used by tests and the ablation benchmarks.
    pub delta_override: Option<(u32, u32)>,
    /// Algorithm 3 line 2: when the full join size is at most this factor
    /// times the input size, skip partitioning entirely and run the plain
    /// WCOJ + dedup plan. The paper uses 20.
    pub wcoj_fallback_factor: f64,
    /// Heavy-core multiplication kernel; leave it on
    /// [`HeavyBackend::Auto`] outside ablations and paper reproductions.
    pub heavy_backend: HeavyBackend,
    /// Memory cap on the heavy core, in f32 cells: the two operands and the
    /// product may take `4 · matrix_cell_cap` bytes *in the representation
    /// that runs* (`u·v + v·w + u·w` cells of 4 bytes for SGEMM, 1 bit per
    /// cell for the bit kernels, which therefore fit 32× the shape;
    /// AND-popcount writes no product matrix).
    /// The optimizer does not pick a partition over it, and a forced one
    /// evaluates its heavy core combinatorially instead of allocating.
    pub matrix_cell_cap: usize,
}

impl Default for JoinConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            executor: None,
            cost_model: CostModel::analytic_default(),
            delta_override: None,
            wcoj_fallback_factor: 20.0,
            heavy_backend: HeavyBackend::default(),
            matrix_cell_cap: 200_000_000,
        }
    }
}

impl JoinConfig {
    /// Convenience: default config with fixed thresholds.
    pub fn with_deltas(delta1: u32, delta2: u32) -> Self {
        Self {
            delta_override: Some((delta1, delta2)),
            ..Self::default()
        }
    }

    /// The executor this configuration's parallel primitives run on.
    pub fn exec(&self) -> &Executor {
        match &self.executor {
            Some(exec) => exec,
            None => Executor::global(),
        }
    }

    /// The single normalization point for [`JoinConfig::threads`]:
    /// `0` ⇒ the executor's thread budget (all available parallelism),
    /// `1` ⇒ serial, `n` ⇒ `n`. Every evaluator resolves its worker
    /// count here — there are no scattered `.max(1)` fallbacks.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => self.exec().budget(),
            n => n,
        }
    }

    /// Installs a measured cost model and re-derives the strategy
    /// crossover from it.
    ///
    /// The Algorithm 3 line-2 short-circuit (`wcoj_fallback_factor`) encodes
    /// "the matrix path only pays off once the full join is ≳ F× the input".
    /// The paper's F = 20 assumes the analytic reference throughput; a
    /// calibrated model reporting [`CostModel::speed_vs_reference`] = r
    /// shifts the crossover by the matrix path's *effective* speedup. Only
    /// part of that path is kernel time — partitioning, adjacency
    /// construction and result handling are memory-bound and do not scale
    /// with GEMM throughput — so the shift is Amdahl-damped by
    /// [`Self::MM_GEMM_FRACTION`] rather than applied linearly (the
    /// `experiments crossover` sweep shows the forced matrix-path time is
    /// nearly flat across the sweep while the WCOJ time grows with the
    /// full join; a linear `20 / r` over-shifts the crossover and trips
    /// the misprediction gate). Clamped to [2, 200] so a wild calibration
    /// sample cannot disable either strategy outright.
    ///
    /// When this configuration will actually run GEMM in parallel
    /// (`effective_threads() > 1`), the kernel-time fraction additionally
    /// shrinks by the model's *measured* multi-core speedup at that
    /// thread count — the parallel scheduler speeds up only the GEMM
    /// term, so the shift composes multiplicatively with the single-core
    /// speed before the Amdahl damping. A serial config (the default)
    /// gets no parallel shift, and a model without multi-core samples
    /// contributes the analytic curve only until a cores sweep is
    /// installed.
    ///
    /// The stored factor is the one for a heavy core that is SGEMM;
    /// [`Self::fallback_factor`] is what line 2 reads, and moves it for the
    /// bit kernels.
    pub fn install_measured_model(&mut self, model: CostModel) {
        if let Some(factor) = self.sgemm_crossover(&model) {
            self.wcoj_fallback_factor = factor;
        }
        self.cost_model = model;
    }

    /// Algorithm 3 line 2's factor, one for every query this configuration
    /// plans.
    ///
    /// Under [`HeavyBackend::DenseF32`] line 2 reads `wcoj_fallback_factor`
    /// as it stands. The bit kernels make the matrix path several times
    /// cheaper, so under [`HeavyBackend::Auto`] a query crosses over earlier
    /// — but only a *measured* model says by how much: the factor is then
    /// scaled by the ratio of the two crossovers derived from that model
    /// (Boolean: base [`Self::BOOLEAN_CROSSOVER_F`], shifted by the measured
    /// bit-word rate and damped by [`Self::BOOLEAN_PRODUCT_FRACTION`]; no
    /// thread term, the bit kernels run on the calling thread). Scaling
    /// keeps a factor forced to `0` or `∞` forced. Under the analytic
    /// default model both backends read the paper's factor unchanged.
    pub fn fallback_factor(&self) -> f64 {
        let factor = self.wcoj_fallback_factor;
        if !self.heavy_backend.is_boolean() || self.cost_model.kernel() == "analytic" {
            return factor;
        }
        let boolean = damped_crossover(
            Self::BOOLEAN_CROSSOVER_F,
            Self::BOOLEAN_PRODUCT_FRACTION,
            REFERENCE_BIT_WORD_SECS / self.cost_model.bit_word_secs(),
        );
        match (boolean, self.sgemm_crossover(&self.cost_model)) {
            (Some(boolean), Some(sgemm)) => factor * boolean / sgemm,
            _ => factor,
        }
    }

    /// The SGEMM path's crossover under `model` at this configuration's
    /// thread count (see [`Self::install_measured_model`]).
    fn sgemm_crossover(&self, model: &CostModel) -> Option<f64> {
        let cores = self.effective_threads();
        let par = if cores > 1 {
            model.speedup(cores).max(1.0)
        } else {
            1.0
        };
        damped_crossover(
            Self::MEASURED_CROSSOVER_F,
            Self::MM_GEMM_FRACTION,
            model.speed_vs_reference() * par,
        )
    }

    /// Fraction of the matrix-path runtime that is GEMM kernel time at
    /// crossover-scale inputs (the rest is partitioning and result
    /// bookkeeping). Used by [`Self::install_measured_model`] to damp how
    /// far a measured kernel speed moves the strategy crossover.
    pub const MM_GEMM_FRACTION: f64 = 0.25;

    /// The crossover factor this implementation exhibits at reference
    /// kernel throughput, measured with `experiments crossover` on the
    /// dense-hub reference family (the scalar-kernel sweep times the two
    /// forced strategies to a dead tie near `full join / N ≈ 46`; the
    /// reference throughput sits below that box's scalar kernel, which
    /// scales the measured tie back up by the calibration ratio). It is
    /// ~3× the paper's analytic F = 20 (which stays as the uncalibrated
    /// default) because the partitioned plan's light path — threshold
    /// indexes plus hash inserts — costs several× a plain WCOJ probe per
    /// tuple, so the matrix plan only pays off once the heavy core
    /// dominates outright.
    pub const MEASURED_CROSSOVER_F: f64 = 62.0;

    /// Fraction of the existence matrix path's runtime that is Boolean
    /// product time at crossover-scale inputs (the rest is operand
    /// construction and pair extraction): 0.28–0.30 on the dense-hub family
    /// at `N` from 19 k to 77 k.
    pub const BOOLEAN_PRODUCT_FRACTION: f64 = 0.3;

    /// [`Self::MEASURED_CROSSOVER_F`] for the Boolean core, at the reference
    /// bit-product rate: the two forced strategies of an existence query tie
    /// near `full join / N ≈ 7` at `N = 19 k` and near `13` at `N = 77 k`
    /// (the everything-heavy product grows with the square of the domain,
    /// expansion with the full join, so the tie drifts up with `√N`); 10
    /// keeps the misprediction gate inside its 25 % at both sizes.
    pub const BOOLEAN_CROSSOVER_F: f64 = 10.0;
}

/// A base crossover factor moved by a kernel running `speed`× its reference
/// rate, when only `kernel_fraction` of the matrix path is kernel time
/// (Amdahl); `None` for a speed that is not a positive finite number.
fn damped_crossover(base: f64, kernel_fraction: f64, speed: f64) -> Option<f64> {
    (speed.is_finite() && speed > 0.0)
        .then(|| (base * (kernel_fraction / speed + 1.0 - kernel_fraction)).clamp(2.0, 200.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_serial_with_paper_fallback() {
        let c = JoinConfig::default();
        assert_eq!(c.threads, 1);
        assert_eq!(c.wcoj_fallback_factor, 20.0);
        assert!(c.delta_override.is_none());
        assert_eq!(c.heavy_backend, HeavyBackend::Auto);
    }

    /// One kernel family per backend, whatever the query reads.
    #[test]
    fn auto_means_bit_kernels_and_the_pin_means_sgemm() {
        assert!(HeavyBackend::Auto.is_boolean());
        assert!(!HeavyBackend::DenseF32.is_boolean());
    }

    #[test]
    fn with_deltas_sets_override() {
        let c = JoinConfig::with_deltas(4, 9);
        assert_eq!(c.delta_override, Some((4, 9)));
    }

    #[test]
    fn install_measured_model_rederives_crossover() {
        use mmjoin_matrix::cost::{Sample, SystemConstants};
        // A sample 4× faster than the 20 GFLOP/s reference: p=512 at
        // 1 core → reference time = 2·512³/20e9 s; quarter it.
        let p = 512usize;
        let reference = 2.0 * (p as f64).powi(3) / 20.0e9;
        let fast = CostModel::from_samples(
            vec![Sample {
                p,
                cores: 1,
                seconds: reference / 4.0,
            }],
            SystemConstants::default(),
        );
        let mut c = JoinConfig::default();
        c.install_measured_model(fast);
        // Amdahl-damped: with MM_GEMM_FRACTION of the path at 4× speed,
        // the effective matrix-path speedup is 1 / (0.25/4 + 0.75) and
        // the measured base crossover shifts by that — not by 4×.
        let expected =
            JoinConfig::MEASURED_CROSSOVER_F * (JoinConfig::MM_GEMM_FRACTION / 4.0 + 0.75);
        assert!(
            (c.wcoj_fallback_factor - expected).abs() < 1e-6,
            "4× kernel speed should damp the crossover to {expected}, got {}",
            c.wcoj_fallback_factor
        );
        assert!(
            c.wcoj_fallback_factor < JoinConfig::MEASURED_CROSSOVER_F,
            "faster kernel must still lower the crossover"
        );
        // A pathologically slow sample clamps instead of exploding.
        let slow = CostModel::from_samples(
            vec![Sample {
                p,
                cores: 1,
                seconds: reference * 1000.0,
            }],
            SystemConstants::default(),
        );
        let mut c = JoinConfig::default();
        c.install_measured_model(slow);
        assert_eq!(c.wcoj_fallback_factor, 200.0);
    }

    #[test]
    fn install_measured_model_damps_by_measured_parallel_speedup() {
        use mmjoin_matrix::cost::{Sample, SystemConstants};
        // Reference-speed single-core sample plus a measured 3× speedup
        // at 8 cores — the curve the cores sweep would produce.
        let p = 512usize;
        let reference = 2.0 * (p as f64).powi(3) / 20.0e9;
        let model = CostModel::from_samples(
            vec![
                Sample {
                    p,
                    cores: 1,
                    seconds: reference,
                },
                Sample {
                    p,
                    cores: 8,
                    seconds: reference / 3.0,
                },
            ],
            SystemConstants::default(),
        );
        // Serial config: parallel speedup must not shift the crossover.
        let mut serial = JoinConfig::default();
        serial.install_measured_model(model.clone());
        assert!(
            (serial.wcoj_fallback_factor - JoinConfig::MEASURED_CROSSOVER_F).abs() < 1e-6,
            "threads=1 must ignore the parallel curve, got {}",
            serial.wcoj_fallback_factor
        );
        // 8-thread config: the GEMM fraction runs 3× faster (measured,
        // not the analytic 6.6×), so the crossover drops by the
        // Amdahl-damped factor of r = 3.
        let mut par = JoinConfig {
            threads: 8,
            ..JoinConfig::default()
        };
        par.install_measured_model(model);
        let expected =
            JoinConfig::MEASURED_CROSSOVER_F * (JoinConfig::MM_GEMM_FRACTION / 3.0 + 0.75);
        assert!(
            (par.wcoj_fallback_factor - expected).abs() < 1e-6,
            "8 threads at measured 3× should damp to {expected}, got {}",
            par.wcoj_fallback_factor
        );
        assert!(par.wcoj_fallback_factor < serial.wcoj_fallback_factor);
    }

    /// Line 2 reads the stored factor under the SGEMM pin and, under a
    /// measured model only, a lower one for the bit kernels — derived from
    /// the bit rate, blind to the thread count, and still forced when the
    /// stored factor is.
    #[test]
    fn fallback_factor_moves_only_the_boolean_core_and_only_when_measured() {
        use mmjoin_matrix::cost::{Sample, SystemConstants};
        let mut c = JoinConfig::default();
        assert_eq!(c.fallback_factor(), 20.0);

        // Reference GEMM speed, 3× at 8 cores, bit product 4× the reference.
        let p = 512usize;
        let reference = 2.0 * (p as f64).powi(3) / 20.0e9;
        let sample = |cores, seconds| Sample { p, cores, seconds };
        let model = CostModel::from_samples(
            vec![sample(1, reference), sample(8, reference / 3.0)],
            SystemConstants::default(),
        )
        .with_bit_word_secs(REFERENCE_BIT_WORD_SECS / 4.0);
        let boolean = JoinConfig::BOOLEAN_CROSSOVER_F
            * (JoinConfig::BOOLEAN_PRODUCT_FRACTION / 4.0 + 1.0
                - JoinConfig::BOOLEAN_PRODUCT_FRACTION);
        let mut sgemm = Vec::new();
        for threads in [1, 8] {
            c = JoinConfig {
                threads,
                ..JoinConfig::default()
            };
            c.install_measured_model(model.clone());
            assert!((c.fallback_factor() - boolean).abs() < 1e-9);
            sgemm.push(c.wcoj_fallback_factor);
            // Pinning SGEMM pins its crossover too.
            c.heavy_backend = HeavyBackend::DenseF32;
            assert_eq!(c.fallback_factor(), c.wcoj_fallback_factor);
            c.heavy_backend = HeavyBackend::Auto;
        }
        assert!(sgemm[1] < sgemm[0], "threads move the SGEMM crossover only");
        for forced in [0.0, f64::INFINITY] {
            c.wcoj_fallback_factor = forced;
            assert_eq!(c.fallback_factor(), forced);
        }
    }

    #[test]
    fn effective_threads_normalizes_zero_and_n() {
        let auto = JoinConfig {
            threads: 0,
            ..JoinConfig::default()
        };
        assert_eq!(auto.effective_threads(), auto.exec().budget());
        let budgeted = JoinConfig {
            threads: 0,
            executor: Some(Arc::new(Executor::new(3))),
            ..JoinConfig::default()
        };
        assert_eq!(budgeted.effective_threads(), 3);
        for n in [1usize, 2, 7] {
            let c = JoinConfig {
                threads: n,
                ..JoinConfig::default()
            };
            assert_eq!(c.effective_threads(), n);
        }
    }
}
