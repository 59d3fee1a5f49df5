//! The cost-model misprediction experiment behind `experiments crossover`.
//!
//! Algorithm 3's line 2 decides between the combinatorial WCOJ plan and
//! the matrix plan by comparing their prices; a cost model calibrated
//! against the wrong kernel moves that crossover and silently picks the
//! slower strategy. This experiment measures the crossover directly: a
//! family of hub instances whose `full join / N` ratio sweeps across the
//! predicted crossover, with *both* strategies forced and timed at every
//! point. The `--gate` check ([`crate::gate::check_crossover`]) fails CI
//! when the model's pick is more than 25% (and > 2 ms) slower than the
//! strategy it rejected — the misprediction gate ROADMAP asks for.
//!
//! The table also carries two `gemm n=…` rows timing the dispatched GEMM
//! kernel against the scalar fallback on the same shapes the cost model
//! samples; under `--features simd` the gate requires the ≥ 1.25×
//! speedup that justifies the feature at all. `par n=… t=…`
//! rows time
//! the tiled multi-core scheduler against the serial kernel at the
//! requested thread counts and record whether the products are
//! bit-identical — the gate requires `identical` always, plus a scaling
//! floor keyed on the granted core budget (≥ 3× at 8 cores).
//!
//! Column reuse: the `wcoj ms` / `mm ms` columns hold the two forced
//! strategies for crossover rows, the scalar / dispatched kernel times
//! for `gemm` rows, and the serial / parallel scheduler times for `par`
//! rows (same "slow path vs fast path" shape).

use crate::report::Table;
use crate::timed_median;
use mmjoin::{CountSink, Engine, JoinConfig, MmJoinEngine, PackedForm, Query, Relation};
use mmjoin_core::{choose_thresholds, PlanChoice};
use mmjoin_matrix::{
    active_kernel, matmul_parallel_with_kernel, matmul_with_kernel, CostModel, DenseMatrix, Kernel,
};

/// Multipliers applied to the *priced* crossover — the `full join / N`
/// ratio at which line 2 changes sides on the hub family ([`priced_crossover`])
/// — to build the sweep grid. Centering the grid on the planner's own
/// crossover (instead of a fixed factor list) guarantees the sweep brackets
/// it — points at 8× and ⅛× stay on opposite sides even though hub-instance
/// dedup makes the realized `full join / N` ratio track the requested one
/// only within about 2×.
const FACTOR_MULTIPLIERS: [f64; 8] = [8.0, 4.0, 2.0, 1.3, 0.77, 0.5, 0.25, 0.125];

/// Square sizes for the kernel-speedup rows (the same orders the cost
/// model samples in `CostModel::calibrate_quick`).
const GEMM_SIZES: [usize; 2] = [256, 384];

/// Square size for the parallel-scheduler rows. The gate's multi-core
/// scaling floor applies from this size up — below it the packed-panel
/// reuse cannot amortize the fork cost and the floor would only measure
/// scheduler overhead.
const PAR_SIZE: usize = 512;

/// A hub instance: `sets · deg` edges with *both* endpoints drawn from a
/// universe sized so the expected two-path full join is `factor · N`.
/// Every join-variable degree is ≈ `N / universe`, so
/// `full_join ≈ N² / universe`; solving for `factor = full_join / N`
/// gives `universe = N / factor`. Shrinking both endpoint universes
/// together is what makes the adjacency *dense* (and the result matrix
/// small) as the factor grows — the regime where the partitioned matrix
/// plan actually beats WCOJ, rather than a sparse tall matrix whose
/// product costs more than enumerating the join.
fn hub_instance(sets: u32, deg: u32, factor: f64) -> Relation {
    let n = (sets * deg) as f64;
    let universe = (n / factor).round().max(4.0) as u64;
    // splitmix64 finalizer: a multiplicative hash alone keeps enough
    // linear structure that `% universe` aliases for unlucky universe
    // sizes, skewing degrees and blowing the full join up ~5× past the
    // requested factor. Deterministic (no RNG): the gate must time
    // identical instances on every run.
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut edges = Vec::with_capacity((sets * deg) as usize);
    for i in 0..(sets * deg) as u64 {
        let hx = mix(i.wrapping_mul(0x9E3779B97F4A7C15));
        let hy = mix(i.wrapping_mul(0xD1B54A32D192ED03).wrapping_add(0x8BB8_4B93));
        edges.push(((hx % universe) as u32, (hy % universe) as u32));
    }
    Relation::from_edges(edges)
}

/// The requested `full join / N` ratio, between 1 and `cap`, at which
/// line 2 under `config` turns from expansion to the matrix on the hub
/// instances of `sets · deg` edges, found by bisecting on the planner's own
/// decision. Both packed forms are built first, as the timed runs find them.
fn priced_crossover(config: &JoinConfig, sets: u32, deg: u32, cap: f64) -> f64 {
    let picks_matrix = |factor: f64| {
        let r = hub_instance(sets, deg, factor);
        r.packed(PackedForm::XMajor);
        r.packed(PackedForm::YMajor);
        matches!(
            choose_thresholds(&r, &r, config).choice,
            PlanChoice::Mm { .. }
        )
    };
    let (mut lo, mut hi) = (1.0f64, cap.max(1.0));
    if picks_matrix(lo) {
        return lo;
    }
    if !picks_matrix(hi) {
        return hi;
    }
    for _ in 0..10 {
        let mid = (lo * hi).sqrt();
        if picks_matrix(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (lo * hi).sqrt()
}

/// Times the two-path self-join of `r` under `config` (median of
/// `trials`, one warmup) without materialising the output.
fn time_strategy(r: &Relation, config: &JoinConfig, trials: usize) -> f64 {
    let engine = MmJoinEngine::new(config.clone());
    let q = Query::two_path(r, r).build().expect("valid two-path query");
    let (_, secs) = timed_median(1, trials, || {
        let mut sink = CountSink::new();
        engine
            .execute(&q, &mut sink)
            .expect("two-path execution succeeds");
        sink.rows
    });
    secs
}

/// Runs the crossover sweep plus the kernel-speedup and
/// parallel-scheduler rows. `trials` is the measured-run count per point
/// (the gate uses 3; interactive runs 1); `threads` is the intra-query
/// budget whose cores axis the calibration sweeps. Installs a measured
/// model exactly the way a `--calibrate --threads n` service would, so
/// the sweep exercises the prices the planner would actually compare at
/// that budget.
pub fn crossover_experiment(scale: f64, trials: usize, threads: usize) -> Table {
    let mut config = JoinConfig {
        threads,
        ..JoinConfig::default()
    };
    config.install_measured_model(CostModel::calibrate_quick(threads));
    crossover_sweep(config, scale, trials, threads)
}

/// The sweep body, parameterised on the (already recalibrated) config so
/// tests can keep the analytic model instead of depending on how fast the
/// build machine happens to be.
pub fn crossover_sweep(config: JoinConfig, scale: f64, trials: usize, threads: usize) -> Table {
    let kernel = active_kernel();
    // The realized ratio is capped near `sets` (each element's degree is
    // at most the set count), so keep `sets` comfortably above the
    // crossover times the largest multiplier's dedup slack.
    let sets = ((4800.0 * scale).round() as u32).max(400);
    let deg = 16u32;
    // Beyond factor ≈ ½√N the universe is so small that edge dedup
    // saturates it (every cell filled) and the realized ratio *falls*
    // as the requested one rises — those instances are degenerate
    // near-complete graphs, not points near the crossover. Cap the grid
    // at the saturation bound and drop the duplicate rows the cap makes.
    let saturation_cap = 0.5 * ((sets * deg) as f64).sqrt();
    let priced = priced_crossover(&config, sets, deg, saturation_cap);

    let mut t = Table::new(
        format!("Crossover misprediction sweep (kernel {kernel}, priced crossover {priced:.1})"),
        vec![
            "point".into(),
            "N".into(),
            "full join".into(),
            "predicted".into(),
            "wcoj ms".into(),
            "mm ms".into(),
            "winner".into(),
            "penalty %".into(),
            "excess ms".into(),
        ],
    );

    let force = |factor: f64| JoinConfig {
        wcoj_fallback_factor: factor,
        ..config.clone()
    };
    let mut prev_factor = f64::NAN;
    for mult in FACTOR_MULTIPLIERS {
        let factor = (priced * mult).min(saturation_cap);
        if factor == prev_factor {
            continue;
        }
        prev_factor = factor;
        let r = hub_instance(sets, deg, factor);
        let t_wcoj = time_strategy(&r, &force(f64::INFINITY), trials);
        let t_mm = time_strategy(&r, &force(0.0), trials);
        // Planned as the timed runs found the relation: packed.
        let plan = choose_thresholds(&r, &r, &config);
        let predicted = match plan.choice {
            PlanChoice::Wcoj => "wcoj",
            PlanChoice::Mm { .. } => "mm",
        };
        let (winner, t_best) = if t_wcoj <= t_mm {
            ("wcoj", t_wcoj)
        } else {
            ("mm", t_mm)
        };
        let t_pred = if predicted == "wcoj" { t_wcoj } else { t_mm };
        t.push_row(
            format!("f={factor:.1}"),
            vec![
                r.len().to_string(),
                format!("{}", plan.estimate.full_join),
                predicted.to_string(),
                format!("{:.3}", t_wcoj * 1e3),
                format!("{:.3}", t_mm * 1e3),
                winner.to_string(),
                format!("{:.1}", (t_pred / t_best - 1.0) * 100.0),
                format!("{:.3}", (t_pred - t_best) * 1e3),
            ],
        );
    }

    // Kernel-speedup rows: scalar fallback vs the dispatched kernel on
    // 0/1 matrices of calibration-order sizes. Under the scalar build
    // both columns time the same kernel (speedup 1×) and the gate's
    // ≥ 1.25× clause is dormant.
    for n in GEMM_SIZES {
        // Density 1/4 — the bench suite's `adjacency()` density, and what
        // the sweep's own heavy cores run at near the crossover
        // (`m / u² ≈ 0.2` for the instances the matrix plan wins).
        let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 4 == 0) as u8 as f32);
        let b = DenseMatrix::from_fn(n, n, |i, j| ((i * 13 + j * 29) % 4 == 0) as u8 as f32);
        // Sub-millisecond timings on a shared box need deeper medians
        // than the multi-ms crossover points; the extra runs are cheap.
        let gemm_trials = trials.max(3) * 3;
        let (_, t_scalar) = timed_median(2, gemm_trials, || {
            matmul_with_kernel(Kernel::Scalar, &a, &b)
        });
        let (_, t_active) = timed_median(2, gemm_trials, || matmul_with_kernel(kernel, &a, &b));
        t.push_row(
            format!("gemm n={n}"),
            vec![
                n.to_string(),
                "-".into(),
                kernel.name().into(),
                format!("{:.3}", t_scalar * 1e3),
                format!("{:.3}", t_active * 1e3),
                if t_active <= t_scalar {
                    kernel.name().into()
                } else {
                    "scalar".into()
                },
                "-".into(),
                "-".into(),
            ],
        );
    }

    // Parallel-scheduler rows: the serial dispatched kernel (`wcoj ms`
    // column) against the tiled multi-core scheduler (`mm ms`) on a
    // dense all-nonzero matrix — arbitrary floats, so any accumulation
    // reorder would show up bit-for-bit. `predicted` records the
    // bit-exactness verdict, `penalty %` holds the measured speedup, and
    // `excess ms` carries `requested/granted` thread counts so the gate
    // can pick a scaling floor the host can actually meet.
    let cores = config.exec().budget();
    let mut t_list = vec![2usize, threads];
    t_list.retain(|&v| v >= 2);
    t_list.sort_unstable();
    t_list.dedup();
    let n = PAR_SIZE;
    let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 97 + 1) as f32);
    let b = DenseMatrix::from_fn(n, n, |i, j| ((i * 13 + j * 29) % 89 + 1) as f32);
    let par_trials = trials.max(2);
    let (serial, t_serial) = timed_median(1, par_trials, || matmul_with_kernel(kernel, &a, &b));
    for t_req in t_list {
        let (par, t_par) = timed_median(1, par_trials, || {
            matmul_parallel_with_kernel(kernel, &a, &b, t_req)
        });
        let identical = par.data() == serial.data();
        t.push_row(
            format!("par n={n} t={t_req}"),
            vec![
                n.to_string(),
                "-".into(),
                if identical { "identical" } else { "diverged" }.into(),
                format!("{:.3}", t_serial * 1e3),
                format!("{:.3}", t_par * 1e3),
                if t_par <= t_serial { "par" } else { "serial" }.into(),
                format!("{:.2}", t_serial / t_par.max(1e-9)),
                format!("{t_req}/{cores}"),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_instance_hits_requested_factor() {
        for factor in [4.0, 32.0] {
            let r = hub_instance(400, 16, factor);
            let n = r.len() as f64;
            let plan = choose_thresholds(&r, &r, &JoinConfig::default());
            let measured = plan.estimate.full_join as f64 / n;
            // Hash mixing spreads degrees, so the realized ratio tracks
            // the requested one loosely but monotonically.
            assert!(
                measured > factor * 0.5 && measured < factor * 2.0,
                "factor {factor}: measured full-join ratio {measured:.1}"
            );
        }
    }

    #[test]
    fn tiny_sweep_has_both_prediction_kinds_and_gemm_rows() {
        // The analytic model (no calibration) so the grid — and hence
        // which predictions appear — doesn't depend on machine speed.
        let t = crossover_sweep(JoinConfig::default(), 0.05, 1, 2);
        // The saturation cap may merge the top grid points, but the
        // sweep must keep enough of the grid to bracket the crossover.
        let crossover_rows = t.rows.iter().filter(|(k, _)| k.starts_with("f=")).count();
        assert!(
            (4..=FACTOR_MULTIPLIERS.len()).contains(&crossover_rows),
            "unexpected sweep size {crossover_rows}"
        );
        // threads = 2 collapses the par thread list to the single t=2 row.
        assert_eq!(t.rows.len(), crossover_rows + GEMM_SIZES.len() + 1);
        let predictions: Vec<&str> = t
            .rows
            .iter()
            .filter(|(k, _)| k.starts_with("f="))
            .map(|(_, cells)| cells[2].as_str())
            .collect();
        assert!(
            predictions.contains(&"wcoj"),
            "no wcoj prediction: {predictions:?}"
        );
        assert!(
            predictions.contains(&"mm"),
            "no mm prediction: {predictions:?}"
        );
        assert!(t.rows.iter().any(|(k, _)| k == "gemm n=256"));
    }

    #[test]
    fn par_rows_are_bit_exact_and_carry_thread_budget() {
        let t = crossover_sweep(JoinConfig::default(), 0.05, 1, 8);
        let par_rows: Vec<&(String, Vec<String>)> = t
            .rows
            .iter()
            .filter(|(k, _)| k.starts_with("par "))
            .collect();
        // threads = 8 requests both the fixed t=2 probe and the budget.
        assert_eq!(par_rows.len(), 2, "expected t=2 and t=8 rows");
        for (key, cells) in par_rows {
            assert_eq!(cells[2], "identical", "{key} diverged");
            let (req, granted) = cells[7].split_once('/').expect("t/cores cell");
            assert!(req.parse::<usize>().is_ok(), "{key}: bad requested `{req}`");
            assert!(
                granted.parse::<usize>().map(|c| c >= 1).unwrap_or(false),
                "{key}: bad granted budget `{granted}`"
            );
            assert!(
                cells[6].parse::<f64>().map(|s| s > 0.0).unwrap_or(false),
                "{key}: speedup cell `{}` must be a positive number",
                cells[6]
            );
        }
    }
}
