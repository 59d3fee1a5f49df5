//! Execution configuration for the MMJoin engine.

use mmjoin_executor::Executor;
use mmjoin_matrix::CostModel;
use std::sync::Arc;

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
    /// Algorithm 3 line 2's factor `F`. Line 2 compares expansion's price
    /// with the bit core's, and `F` scales expansion's
    /// (`JoinConfig::expansion_scale`): neutral at the paper's 20, the
    /// matrix whenever its core fits at `0`, expansion at `∞`.
    pub wcoj_fallback_factor: f64,
    /// Memory cap on the heavy core: its operands and product may take
    /// `4 · matrix_cell_cap` bytes (the bit kernels' packed rows, 1 bit a
    /// cell; AND-popcount writes no product matrix). The optimizer does
    /// not pick a core over it.
    pub matrix_cell_cap: usize,
}

impl Default for JoinConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            executor: None,
            cost_model: CostModel::analytic_default(),
            wcoj_fallback_factor: 20.0,
            matrix_cell_cap: 200_000_000,
        }
    }
}

impl JoinConfig {
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

    /// Installs a measured cost model: line 2 then prices both sides at
    /// its measured rates (`t_insert` and the bit-word rate). The factor is
    /// left as it is.
    pub fn install_measured_model(&mut self, model: CostModel) {
        self.cost_model = model;
    }

    /// How far `wcoj_fallback_factor` moves line 2: the factor expansion's
    /// price is multiplied by. It is `1` at the paper's 20, so the default
    /// decides by the two prices alone; `∞` at a factor of 0 (the matrix
    /// whenever its core fits) and `0` at `∞` (expansion).
    pub(crate) fn expansion_scale(&self) -> f64 {
        20.0 / self.wcoj_fallback_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_serial_with_paper_fallback() {
        let c = JoinConfig::default();
        assert_eq!(c.threads, 1);
        assert_eq!(c.wcoj_fallback_factor, 20.0);
    }

    /// The factor scales expansion's price: neutral at the default and
    /// after a measured model is installed — whatever its bit-word rate or
    /// thread count, which move the prices themselves — and still forcing
    /// at `0` and `∞`.
    #[test]
    fn the_factor_is_neutral_unless_moved_and_still_forces() {
        use mmjoin_matrix::cost::{Sample, SystemConstants};
        use mmjoin_matrix::REFERENCE_BIT_WORD_SECS;
        assert_eq!(JoinConfig::default().expansion_scale(), 1.0);

        // Reference GEMM speed, 3× at 8 cores, bit product 4× the reference.
        let p = 512usize;
        let reference = 2.0 * (p as f64).powi(3) / 20.0e9;
        let sample = |cores, seconds| Sample { p, cores, seconds };
        let model = CostModel::from_samples(
            vec![sample(1, reference), sample(8, reference / 3.0)],
            SystemConstants::default(),
        )
        .with_bit_word_secs(REFERENCE_BIT_WORD_SECS / 4.0);
        for threads in [1, 8] {
            let mut c = JoinConfig {
                threads,
                ..JoinConfig::default()
            };
            c.install_measured_model(model.clone());
            assert_eq!(c.wcoj_fallback_factor, 20.0);
            assert_eq!(c.expansion_scale(), 1.0, "{c:?}");
            c.wcoj_fallback_factor = 10.0;
            assert_eq!(c.expansion_scale(), 2.0);
            c.wcoj_fallback_factor = 0.0;
            assert_eq!(c.expansion_scale(), f64::INFINITY);
            c.wcoj_fallback_factor = f64::INFINITY;
            assert_eq!(c.expansion_scale(), 0.0);
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
