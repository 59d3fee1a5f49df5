//! The calibrated matrix-multiplication cost model `M̂(u, v, w, co)`.
//!
//! Algorithm 3 (§5) needs to predict, for candidate degree thresholds, how
//! long the heavy-part multiplication will take on *this* machine with *this*
//! kernel. The paper pre-measures square products `M̂(p, p, p, co)` for
//! `p ∈ {1000, 2000, …, 20000}` and `co ∈ [5]`, then extrapolates to
//! arbitrary rectangular shapes. We do the same, scaled to our kernel: we
//! measure a handful of square sizes per core count (or accept injected
//! measurements), fit effective FLOP throughput per sample, and interpolate
//! by total work `u·v·w`.
//!
//! The model also exposes the §5 constants of Table 1 — sequential-access
//! time `Ts`, allocation time `Tm`, random insert time `TI` — which the
//! light-part cost formula (Algorithm 3 lines 10–11) multiplies against the
//! threshold-index sums.

use crate::bitmat::{BitMatrix, BitProductPlan, Orientation};
use crate::dense::DenseMatrix;
use crate::gemm::matmul_parallel;
use crate::kernel::active_kernel;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::time::Instant;

/// The analytic reference throughput (GFLOP/s, single core) that
/// [`CostModel::analytic_default`] assumes. [`CostModel::speed_vs_reference`]
/// reports measured speed relative to this, which is what
/// `JoinConfig::install_measured_model` uses to re-derive the
/// combinatorial/matrix crossover.
pub const REFERENCE_GFLOPS: f64 = 20.0;

/// Seconds per word operation of the Boolean product that
/// [`CostModel::analytic_default`] assumes, and that a model without a
/// measured rate falls back to: about one cycle per word at 2 GHz.
pub const REFERENCE_BIT_WORD_SECS: f64 = 0.5e-9;

/// Runs `f` once as warmup, then three times, and returns the median
/// wall-clock seconds. Mirrors `bench::timed_median(1, 3, …)` — single-shot
/// timings on a shared machine routinely mispredict by 2–3× from cold
/// caches and frequency ramps.
fn median_of_3(mut f: impl FnMut()) -> f64 {
    f();
    let mut runs = [0.0f64; 3];
    for r in &mut runs {
        let t0 = Instant::now();
        f();
        *r = t0.elapsed().as_secs_f64();
    }
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// One calibration sample: a `p × p × p` product on `cores` threads took
/// `seconds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Square dimension measured.
    pub p: usize,
    /// Worker threads used.
    pub cores: usize,
    /// Wall-clock seconds for the product.
    pub seconds: f64,
}

/// System constants of Table 1 (per-element costs, in seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConstants {
    /// `Ts`: average sequential access cost per element.
    pub t_seq: f64,
    /// `Tm`: average cost to allocate 32 bytes.
    pub t_alloc: f64,
    /// `TI`: average random access + insert cost per element.
    pub t_insert: f64,
}

impl Default for SystemConstants {
    fn default() -> Self {
        // Modern-x86 defaults; `measure()` refines them. The insert cost
        // assumes the dedup scratch buffer mostly stays in cache (§6's
        // design goal) — overpricing it biases Algorithm 3 toward matrices
        // even where expansion wins.
        Self {
            t_seq: 1.0e-9,
            t_alloc: 4.0e-9,
            t_insert: 2.5e-9,
        }
    }
}

impl SystemConstants {
    /// Micro-benchmarks the three constants on the current machine.
    ///
    /// Each micro-bench gets a warmup pass and is then timed three times,
    /// keeping the median — the same discipline as `bench::timed_median`.
    /// The first run pays page faults and cold caches; a single-shot
    /// measurement here used to inflate `Ts` enough to visibly skew the
    /// Algorithm 3 light-part cost.
    pub fn measure() -> Self {
        const N: usize = 1 << 20;
        // Sequential scan.
        let v: Vec<u32> = (0..N as u32).collect();
        let t_seq = median_of_3(|| {
            let mut acc = 0u64;
            for &x in &v {
                acc = acc.wrapping_add(x as u64);
            }
            std::hint::black_box(acc);
        }) / N as f64;
        // Allocation (vec push growth amortized).
        let t_alloc = median_of_3(|| {
            let mut w: Vec<u64> = Vec::new();
            for i in 0..(N / 4) as u64 {
                w.push(i);
            }
            std::hint::black_box(&w);
        }) / (N / 4) as f64
            * 4.0;
        // Random access + increment.
        let mut d = vec![0u32; N];
        let t_insert = median_of_3(|| {
            let mut idx = 123456789usize;
            for _ in 0..N / 4 {
                idx = idx.wrapping_mul(6364136223846793005).wrapping_add(1);
                d[idx % N] += 1;
            }
            std::hint::black_box(&d);
        }) / (N / 4) as f64;
        Self {
            t_seq: t_seq.max(1e-11),
            t_alloc: t_alloc.max(1e-11),
            t_insert: t_insert.max(1e-11),
        }
    }
}

/// Calibrated estimator for multiplication and construction cost.
#[derive(Debug, Clone)]
pub struct CostModel {
    samples: Vec<Sample>,
    /// System constants for non-GEMM terms.
    pub constants: SystemConstants,
    /// Name of the GEMM kernel the samples were measured under
    /// (`"scalar"`, `"avx2"`, `"avx512"`, …; `"analytic"` for the
    /// synthetic default). A model calibrated under one kernel mispredicts
    /// another by the kernels' speed ratio, so consumers should re-calibrate
    /// when this disagrees with [`active_kernel`].
    kernel: String,
    /// Per-core speedup curve `(cores, speedup over 1 core)` derived from
    /// the samples at construction, sorted by core count; empty when the
    /// samples cover fewer than two core counts (then [`CostModel::speedup`]
    /// falls back to the analytic 80%-efficiency guess).
    curve: Vec<(usize, f64)>,
    /// Seconds per word operation of the Boolean product
    /// ([`BitProductPlan::words`]), single core.
    bit_word_secs: f64,
}

/// Derives the measured per-core speedup curve from calibration samples:
/// for each sampled core count, effective throughput at the *largest*
/// measured `p` (small products are dominated by fixed overheads)
/// relative to the single-core throughput. Needs a 1-core baseline plus
/// at least one multi-core point; anything less yields an empty curve.
fn efficiency_curve(samples: &[Sample]) -> Vec<(usize, f64)> {
    let mut cores_list: Vec<usize> = samples.iter().map(|s| s.cores).collect();
    cores_list.sort_unstable();
    cores_list.dedup();
    if cores_list.first() != Some(&1) || cores_list.len() < 2 {
        return Vec::new();
    }
    let throughput = |c: usize| -> f64 {
        let best = samples
            .iter()
            .filter(|s| s.cores == c)
            .max_by_key(|s| s.p)
            .expect("core count came from the samples");
        (best.p as f64).powi(3) / best.seconds.max(1e-12)
    };
    let base = throughput(1);
    cores_list
        .into_iter()
        .map(|c| {
            // Pin the baseline at exactly 1.0 so single-core estimates
            // are the raw samples; floor multi-core points so a noisy
            // measurement can never zero out an estimate.
            let s = if c == 1 {
                1.0
            } else {
                (throughput(c) / base).max(0.05)
            };
            (c, s)
        })
        .collect()
}

/// Times the Boolean product of two `p × p` operands with the calibration
/// patterns of the GEMM samples, in the orientation the planner would pick
/// for them, and returns seconds per planned word operation.
fn measure_bit_word_secs(p: usize) -> f64 {
    let a_bit = |i: usize, j: usize| (i * 31 + j * 17).is_multiple_of(7);
    let b_bit = |i: usize, j: usize| (i * 13 + j * 29).is_multiple_of(5);
    let ones = |bit: &dyn Fn(usize, usize) -> bool| {
        (0..p * p).filter(|&c| bit(c / p, c % p)).count() as f64
    };
    let plan = BitProductPlan::choose(p, p, p, ones(&a_bit), ones(&b_bit));
    let fill = |transposed: bool, bit: &dyn Fn(usize, usize) -> bool| {
        let mut m = BitMatrix::zeros(p, p);
        for (i, j) in (0..p * p)
            .map(|c| (c / p, c % p))
            .filter(|&(i, j)| bit(i, j))
        {
            if transposed {
                m.set(j, i);
            } else {
                m.set(i, j);
            }
        }
        m
    };
    let a = fill(false, &a_bit);
    let b = fill(plan.orientation == Orientation::AndAny, &b_bit);
    let seconds = median_of_3(|| {
        std::hint::black_box(a.product(&b, plan.orientation));
    });
    (seconds / plan.words.max(1.0)).max(1e-12)
}

impl CostModel {
    /// The one true constructor: derives the parallel-speedup curve from
    /// the samples so every model — measured, injected or loaded — prices
    /// core counts the same way.
    fn finish(samples: Vec<Sample>, constants: SystemConstants, kernel: String) -> Self {
        assert!(!samples.is_empty(), "cost model needs at least one sample");
        let curve = efficiency_curve(&samples);
        Self {
            samples,
            constants,
            kernel,
            curve,
            bit_word_secs: REFERENCE_BIT_WORD_SECS,
        }
    }

    /// A model from explicit samples (useful for tests and for loading cached
    /// calibration data).
    pub fn from_samples(samples: Vec<Sample>, constants: SystemConstants) -> Self {
        Self::finish(samples, constants, "injected".to_string())
    }

    /// A deterministic default model assuming an effective single-core
    /// throughput of `20 GFLOP/s` (2 ops per multiply-add; the blocked
    /// kernel of this crate measures ~35 GFLOP/s on AVX-512 hardware, so
    /// this is a conservative portable default) with 80% parallel
    /// efficiency — adequate for unit tests that must not spend time
    /// calibrating. Experiment binaries should prefer [`CostModel::calibrate`].
    pub fn analytic_default() -> Self {
        let mut samples = Vec::new();
        for cores in 1..=8usize {
            let eff = cores as f64 * 0.8 + 0.2;
            for p in [512usize, 1024, 2048] {
                let flops = 2.0 * (p as f64).powi(3);
                samples.push(Sample {
                    p,
                    cores,
                    seconds: flops / (20.0e9 * eff),
                });
            }
        }
        Self::finish(samples, SystemConstants::default(), "analytic".to_string())
    }

    /// Calibrates by actually running the dispatched kernel at the cross
    /// product of the given square sizes and core counts (the paper's
    /// `p ∈ {1000, …, 20000}` table, scaled). Multi-core points run on
    /// the tiled parallel scheduler, so the fitted speedup curve measures
    /// the machine the planner will actually schedule on.
    pub fn calibrate(sizes: &[usize], core_counts: &[usize]) -> Self {
        let points: Vec<(usize, usize)> = core_counts
            .iter()
            .flat_map(|&cores| sizes.iter().map(move |&p| (p, cores)))
            .collect();
        Self::calibrate_points(&points)
    }

    /// Calibrates an explicit list of `(p, cores)` points. Each point gets
    /// a warmup pass and the median of three timed runs, and the resulting
    /// model is tagged with [`active_kernel`] so stale calibrations are
    /// detectable.
    pub fn calibrate_points(points: &[(usize, usize)]) -> Self {
        let mut samples = Vec::new();
        for &(p, cores) in points {
            let a = DenseMatrix::from_fn(p, p, |i, j| ((i * 31 + j * 17) % 7 == 0) as u8 as f32);
            let b = DenseMatrix::from_fn(p, p, |i, j| ((i * 13 + j * 29) % 5 == 0) as u8 as f32);
            let seconds = median_of_3(|| {
                let c = matmul_parallel(&a, &b, cores);
                std::hint::black_box(&c);
            })
            .max(1e-9);
            samples.push(Sample { p, cores, seconds });
        }
        let mut model = Self::finish(
            samples,
            SystemConstants::measure(),
            active_kernel().name().to_string(),
        );
        // The Boolean product beside the GEMM samples, at the largest
        // single-core size swept.
        let p = points.iter().map(|&(p, _)| p).max().unwrap_or(256);
        model.bit_word_secs = measure_bit_word_secs(p);
        model
    }

    /// A fast calibration pass suitable for service startup: square sizes
    /// {128, 256, 512} on one core, then a cores sweep over
    /// `{2, 4, workers} ∩ (1, workers]` at `p = 512` to fit the measured
    /// parallel-speedup curve. Takes well under a second, which is enough
    /// to place the dispatched kernel's real throughput *and* its real
    /// multi-core scaling, and re-derive the strategy crossover.
    pub fn calibrate_quick(workers: usize) -> Self {
        let budget = workers.max(1);
        let mut points = vec![(128usize, 1usize), (256, 1), (512, 1)];
        let mut cores = vec![2usize, 4, budget];
        cores.retain(|&c| c > 1 && c <= budget);
        cores.sort_unstable();
        cores.dedup();
        points.extend(cores.into_iter().map(|c| (512, c)));
        Self::calibrate_points(&points)
    }

    /// Seconds per word operation of the Boolean product, single core:
    /// measured by [`CostModel::calibrate`], [`REFERENCE_BIT_WORD_SECS`]
    /// otherwise.
    pub fn bit_word_secs(&self) -> f64 {
        self.bit_word_secs
    }

    /// The same model with an injected Boolean-product rate (tests, and
    /// callers that measured it themselves).
    ///
    /// # Panics
    /// Panics unless `secs` is finite and positive.
    pub fn with_bit_word_secs(mut self, secs: f64) -> Self {
        assert!(secs.is_finite() && secs > 0.0, "bit-product rate {secs}");
        self.bit_word_secs = secs;
        self
    }

    /// Predicted seconds for a Boolean product of `words` word operations
    /// ([`BitProductPlan::words`]); it runs on the calling thread whatever
    /// the budget.
    pub fn estimate_bit_product(&self, words: f64) -> f64 {
        words.max(0.0) * self.bit_word_secs
    }

    /// Kernel name the samples were measured under (`"analytic"` or
    /// `"injected"` for synthetic models).
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// Parallel speedup over one core at `cores` workers.
    ///
    /// When the samples cover ≥ 2 core counts this interpolates the
    /// *measured* efficiency curve (piecewise-linear between sampled core
    /// counts; extrapolation past the largest sampled count continues the
    /// last segment's slope, clamped to [0, 1] speedup per core). Only a
    /// model with no multi-core samples falls back to the old analytic
    /// `0.8·c + 0.2` guess — so once calibration sweeps the cores axis,
    /// the analytic formula is out of the loop entirely.
    pub fn speedup(&self, cores: usize) -> f64 {
        let c = cores.max(1) as f64;
        if self.curve.len() < 2 {
            return 0.8 * c + 0.2;
        }
        if c <= self.curve[0].0 as f64 {
            return self.curve[0].1;
        }
        for pair in self.curve.windows(2) {
            let ((c0, s0), (c1, s1)) = (pair[0], pair[1]);
            if c <= c1 as f64 {
                let t = (c - c0 as f64) / ((c1 - c0) as f64);
                return s0 + t * (s1 - s0);
            }
        }
        let ((c0, s0), (c1, s1)) = (
            self.curve[self.curve.len() - 2],
            self.curve[self.curve.len() - 1],
        );
        let slope = ((s1 - s0) / ((c1 - c0) as f64)).clamp(0.0, 1.0);
        s1 + slope * (c - c1 as f64)
    }

    /// Highest core count among the samples — the parallelism this
    /// calibration actually measured. Consumers use it to detect a stale
    /// single-core manifest when a larger thread budget is configured.
    pub fn max_cores(&self) -> usize {
        self.samples.iter().map(|s| s.cores).max().unwrap_or(1)
    }

    /// Measured effective single-core throughput divided by the analytic
    /// reference ([`REFERENCE_GFLOPS`]). `> 1.0` means this machine's
    /// dispatched kernel is faster than the default model assumes, so
    /// matrix plans become profitable earlier (the crossover shifts toward
    /// smaller instances).
    pub fn speed_vs_reference(&self) -> f64 {
        let single: Vec<&Sample> = self.samples.iter().filter(|s| s.cores == 1).collect();
        let pool: Vec<&Sample> = if single.is_empty() {
            self.samples.iter().collect()
        } else {
            single
        };
        // Use the largest sample per the pool — small products are
        // dominated by fixed overheads, not kernel throughput.
        let best = pool.iter().max_by_key(|s| s.p).expect("non-empty samples");
        let flops = 2.0 * (best.p as f64).powi(3);
        let gflops = flops / best.seconds / 1.0e9 / self.speedup(best.cores);
        gflops / REFERENCE_GFLOPS
    }

    /// Persists the model as a small text manifest (one line per sample)
    /// so a calibration can be reused across service restarts. The
    /// `cores` line records the swept core-count axis explicitly;
    /// [`CostModel::load`] accepts manifests without it (pre-sweep
    /// format), deriving everything from the samples.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut out = Vec::new();
        writeln!(out, "mmjoin-cost-model v1")?;
        writeln!(out, "kernel {}", self.kernel)?;
        let mut cores: Vec<usize> = self.samples.iter().map(|s| s.cores).collect();
        cores.sort_unstable();
        cores.dedup();
        let cores_line = cores
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        writeln!(out, "cores {cores_line}")?;
        writeln!(
            out,
            "constants {:e} {:e} {:e}",
            self.constants.t_seq, self.constants.t_alloc, self.constants.t_insert
        )?;
        writeln!(out, "bitword {:e}", self.bit_word_secs)?;
        for s in &self.samples {
            writeln!(out, "sample {} {} {:e}", s.p, s.cores, s.seconds)?;
        }
        std::fs::write(path, out)
    }

    /// Loads a manifest written by [`CostModel::save`]. Returns an error on
    /// unknown versions or malformed lines; callers should fall back to
    /// re-calibrating.
    pub fn load(path: &Path) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let file = std::fs::File::open(path)?;
        let mut lines = io::BufReader::new(file).lines();
        match lines.next().transpose()? {
            Some(ref h) if h.trim() == "mmjoin-cost-model v1" => {}
            _ => return Err(bad("not a v1 cost-model manifest")),
        }
        let mut kernel = "injected".to_string();
        let mut constants = SystemConstants::default();
        // Manifests written before the Boolean core carry no rate.
        let mut bit_word_secs = REFERENCE_BIT_WORD_SECS;
        let mut samples = Vec::new();
        for line in lines {
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("kernel") => {
                    kernel = parts.next().ok_or_else(|| bad("kernel line"))?.to_string();
                }
                Some("cores") => {
                    // The swept core-count axis. Informational — the
                    // samples already carry per-point core counts — but
                    // malformed tokens still fail loudly rather than
                    // silently feeding a bogus manifest to the planner.
                    for tok in parts.by_ref() {
                        tok.parse::<usize>().map_err(|_| bad("cores line"))?;
                    }
                }
                Some("constants") => {
                    let mut next = || -> io::Result<f64> {
                        parts
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| bad("constants line"))
                    };
                    constants = SystemConstants {
                        t_seq: next()?,
                        t_alloc: next()?,
                        t_insert: next()?,
                    };
                }
                Some("bitword") => {
                    bit_word_secs = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .filter(|&r: &f64| r.is_finite() && r > 0.0)
                        .ok_or_else(|| bad("bitword line"))?;
                }
                Some("sample") => {
                    let p = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("sample line"))?;
                    let cores = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("sample line"))?;
                    let seconds = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("sample line"))?;
                    samples.push(Sample { p, cores, seconds });
                }
                _ => return Err(bad("unknown manifest line")),
            }
        }
        if samples.is_empty() {
            return Err(bad("manifest has no samples"));
        }
        let mut model = Self::finish(samples, constants, kernel);
        model.bit_word_secs = bit_word_secs;
        Ok(model)
    }

    /// `M̂(u, v, w, co)` — predicted seconds to multiply `u×v` by `v×w` on
    /// `co` cores: pick the sample nearest in per-core work and scale by the
    /// work ratio (our kernel is cubic, so the scaling is linear in
    /// `u·v·w`, matching the paper's observation that Eigen's runtime is
    /// predictable).
    pub fn estimate(&self, u: usize, v: usize, w: usize, cores: usize) -> f64 {
        if u == 0 || v == 0 || w == 0 {
            return 0.0;
        }
        let work = u as f64 * v as f64 * w as f64;
        // Nearest sample by (core distance, work distance).
        let best = self
            .samples
            .iter()
            .min_by(|s1, s2| {
                let key = |s: &Sample| {
                    let core_gap = (s.cores as f64 - cores as f64).abs();
                    let w_s = (s.p as f64).powi(3);
                    let work_gap = (w_s.ln() - work.ln()).abs();
                    core_gap * 1000.0 + work_gap
                };
                key(s1).total_cmp(&key(s2))
            })
            .expect("non-empty samples");
        let sample_work = (best.p as f64).powi(3);
        let scaled = best.seconds * work / sample_work;
        // Correct a core-count mismatch with the measured speedup curve
        // (analytic only for models with no multi-core samples).
        scaled * self.speedup(best.cores) / self.speedup(cores)
    }

    /// Predicted seconds for a GEMM that will execute `madds` effective
    /// multiply-adds on `cores` workers. The blocked kernel skips zero
    /// entries of the left operand, so for 0/1 adjacency matrices the
    /// effective work is `nnz(A) · w`, often far below `u·v·w` — pricing
    /// the dense product would bias Algorithm 3 away from profitable plans.
    pub fn estimate_effective(&self, madds: f64, cores: usize) -> f64 {
        if madds <= 0.0 {
            return 0.0;
        }
        let best = self
            .samples
            .iter()
            .min_by(|s1, s2| {
                let key = |s: &Sample| {
                    let core_gap = (s.cores as f64 - cores as f64).abs();
                    let work_gap = ((s.p as f64).powi(3).ln() - madds.ln()).abs();
                    core_gap * 1000.0 + work_gap
                };
                key(s1).total_cmp(&key(s2))
            })
            .expect("non-empty samples");
        let scaled = best.seconds * madds / (best.p as f64).powi(3);
        scaled * self.speedup(best.cores) / self.speedup(cores)
    }

    /// All samples (for reporting / Figure 3 reproduction).
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_model() -> CostModel {
        CostModel::from_samples(
            vec![
                Sample {
                    p: 100,
                    cores: 1,
                    seconds: 1.0,
                },
                Sample {
                    p: 200,
                    cores: 1,
                    seconds: 8.0,
                },
                Sample {
                    p: 100,
                    cores: 4,
                    seconds: 0.3,
                },
            ],
            SystemConstants::default(),
        )
    }

    #[test]
    fn estimate_scales_linearly_in_work() {
        let m = flat_model();
        let t1 = m.estimate(100, 100, 100, 1);
        let t2 = m.estimate(200, 100, 100, 1);
        assert!((t2 / t1 - 2.0).abs() < 1e-9, "doubling u doubles time");
    }

    #[test]
    fn estimate_prefers_matching_cores() {
        let m = flat_model();
        let t1 = m.estimate(100, 100, 100, 1);
        let t4 = m.estimate(100, 100, 100, 4);
        assert!(t4 < t1, "4-core estimate should be faster");
    }

    #[test]
    fn estimate_zero_dims() {
        let m = flat_model();
        assert_eq!(m.estimate(0, 10, 10, 1), 0.0);
        assert_eq!(m.estimate(10, 0, 10, 2), 0.0);
    }

    #[test]
    fn rectangular_uses_nearest_work() {
        let m = flat_model();
        // u*v*w == 8e6 == 200^3: should pick the p=200 sample.
        let t = m.estimate(800, 100, 100, 1);
        assert!((t - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_rejected() {
        let _ = CostModel::from_samples(vec![], SystemConstants::default());
    }

    #[test]
    fn analytic_default_sane() {
        let m = CostModel::analytic_default();
        let t = m.estimate(1000, 1000, 1000, 1);
        assert!(t > 0.0 && t < 100.0);
        // More cores must not be slower under the analytic model.
        assert!(m.estimate(1000, 1000, 1000, 8) < t);
    }

    #[test]
    fn measured_constants_positive() {
        let c = SystemConstants::measure();
        assert!(c.t_seq > 0.0 && c.t_alloc > 0.0 && c.t_insert > 0.0);
    }

    #[test]
    fn calibrate_tiny_runs() {
        let m = CostModel::calibrate(&[32, 64], &[1]);
        assert_eq!(m.samples().len(), 2);
        assert!(m.estimate(64, 64, 64, 1) > 0.0);
        assert_eq!(m.kernel(), active_kernel().name());
    }

    #[test]
    fn bit_rate_defaults_is_measured_and_survives_the_manifest() {
        assert_eq!(flat_model().bit_word_secs(), REFERENCE_BIT_WORD_SECS);
        assert_eq!(
            CostModel::analytic_default().bit_word_secs(),
            REFERENCE_BIT_WORD_SECS
        );
        let measured = CostModel::calibrate(&[64], &[1]);
        let rate = measured.bit_word_secs();
        assert!(rate > 0.0 && rate < 1e-6, "implausible rate {rate}");
        // Linear in words.
        assert!((measured.estimate_bit_product(1000.0) - 1000.0 * rate).abs() < 1e-18);

        let path =
            std::env::temp_dir().join(format!("mmjoin-cost-bitword-{}.txt", std::process::id()));
        measured.save(&path).unwrap();
        assert_eq!(CostModel::load(&path).unwrap().bit_word_secs(), rate);
        // A manifest from before the Boolean core loads with the default
        // rate; a malformed rate is rejected like any other bad line.
        std::fs::write(&path, "mmjoin-cost-model v1\nsample 100 1 1.0\n").unwrap();
        assert_eq!(
            CostModel::load(&path).unwrap().bit_word_secs(),
            REFERENCE_BIT_WORD_SECS
        );
        std::fs::write(
            &path,
            "mmjoin-cost-model v1\nbitword -1\nsample 100 1 1.0\n",
        )
        .unwrap();
        assert!(CostModel::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kernel_tags_are_stable() {
        assert_eq!(CostModel::analytic_default().kernel(), "analytic");
        assert_eq!(flat_model().kernel(), "injected");
    }

    #[test]
    fn analytic_speed_ratio_is_unity() {
        // The analytic default samples are generated at exactly
        // REFERENCE_GFLOPS, so the ratio must come back as 1.
        let r = CostModel::analytic_default().speed_vs_reference();
        assert!((r - 1.0).abs() < 1e-9, "got {r}");
    }

    #[test]
    fn manifest_roundtrip() {
        let m = flat_model();
        let path =
            std::env::temp_dir().join(format!("mmjoin-cost-roundtrip-{}.txt", std::process::id()));
        m.save(&path).unwrap();
        let loaded = CostModel::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.samples(), m.samples());
        assert_eq!(loaded.kernel(), m.kernel());
        assert!((loaded.constants.t_seq - m.constants.t_seq).abs() < 1e-15);
        assert!((loaded.constants.t_insert - m.constants.t_insert).abs() < 1e-15);
    }

    /// The per-core scaling must come from the measured samples, not the
    /// analytic `0.8·c + 0.2` guess, whenever the samples cover the
    /// cores axis (the ISSUE-9 acceptance criterion).
    #[test]
    fn measured_speedup_curve_replaces_analytic() {
        let m = flat_model();
        // throughput(1) = 200³/8 s; throughput(4) = 100³/0.3 s →
        // measured speedup(4) = 10/3, nowhere near the analytic 3.4.
        let s4 = m.speedup(4);
        assert!((s4 - 10.0 / 3.0).abs() < 1e-9, "got {s4}");
        // Interpolation between the sampled core counts is linear.
        let s2 = m.speedup(2);
        let want = 1.0 + (10.0 / 3.0 - 1.0) / 3.0;
        assert!((s2 - want).abs() < 1e-9, "got {s2}, want {want}");
        assert_eq!(m.speedup(1), 1.0);
        // And the estimates flow through the measured curve: a 2-core
        // estimate sits strictly between the 1- and 4-core ones.
        let (t1, t2, t4) = (
            m.estimate(100, 100, 100, 1),
            m.estimate(100, 100, 100, 2),
            m.estimate(100, 100, 100, 4),
        );
        assert!(t4 < t2 && t2 < t1, "t1={t1} t2={t2} t4={t4}");
    }

    /// A single-core-only model has no measured curve and falls back to
    /// the analytic guess — the only case where it is still used.
    #[test]
    fn single_core_model_falls_back_to_analytic_speedup() {
        let m = CostModel::from_samples(
            vec![Sample {
                p: 100,
                cores: 1,
                seconds: 1.0,
            }],
            SystemConstants::default(),
        );
        assert!((m.speedup(4) - 3.4).abs() < 1e-9);
        assert_eq!(m.max_cores(), 1);
    }

    /// The analytic default's derived curve reproduces its own generating
    /// formula exactly (it *is* piecewise linear), including slope-0.8
    /// extrapolation past the largest sampled core count.
    #[test]
    fn analytic_curve_matches_closed_form() {
        let m = CostModel::analytic_default();
        for c in 1usize..=8 {
            let want = 0.8 * c as f64 + 0.2;
            assert!((m.speedup(c) - want).abs() < 1e-9, "cores={c}");
        }
        assert!((m.speedup(16) - (0.8 * 16.0 + 0.2)).abs() < 1e-9);
        assert_eq!(m.max_cores(), 8);
    }

    #[test]
    fn manifest_records_cores_axis_and_reads_legacy_format() {
        let m = flat_model();
        let path =
            std::env::temp_dir().join(format!("mmjoin-cost-cores-{}.txt", std::process::id()));
        m.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("cores 1 4"), "manifest:\n{text}");
        // Pre-sweep manifests (no `cores` line) still load, deriving the
        // curve from the samples alone.
        std::fs::write(
            &path,
            "mmjoin-cost-model v1\nkernel scalar\nconstants 1e-9 4e-9 2.5e-9\n\
             sample 100 1 1.0\nsample 100 4 0.3\n",
        )
        .unwrap();
        let legacy = CostModel::load(&path).unwrap();
        assert_eq!(legacy.max_cores(), 4);
        assert!((legacy.speedup(4) - 1.0 / 0.3).abs() < 1e-9);
        // A malformed cores line is rejected, like any other bad line.
        std::fs::write(
            &path,
            "mmjoin-cost-model v1\ncores 1 banana\nsample 100 1 1.0\n",
        )
        .unwrap();
        assert!(CostModel::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_rejects_garbage() {
        let path =
            std::env::temp_dir().join(format!("mmjoin-cost-garbage-{}.txt", std::process::id()));
        std::fs::write(&path, "not a manifest\n").unwrap();
        assert!(CostModel::load(&path).is_err());
        std::fs::write(&path, "mmjoin-cost-model v1\nkernel scalar\n").unwrap();
        let err = CostModel::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
