//! Per-figure experiment drivers (§7). Each function regenerates one table
//! or figure of the paper and returns a rendered [`Table`].
//!
//! Engines are enumerated through the [`EngineRegistry`] — a figure asks
//! the registry for "everything that can run this query" (or for a named
//! engine) instead of hard-coding engine constructors, so newly registered
//! engines show up in the experiment tables automatically.

use crate::report::{fmt_secs, Table};
use crate::{core_grid, dataset, star_dataset, timed, timed_median, SEED};
use mmjoin::{
    default_registry, registry_with_config, CountSink, Engine, EngineRegistry, ExecStats,
    HeavyBackend, JoinConfig, MmJoinEngine, PlanKind, Query, Relation,
};
use mmjoin_api::{flatten_pairs, FlatRows};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_bsi::{random_workload, simulate_batching, BsiStrategy};
use mmjoin_datagen::DatasetKind;
use mmjoin_matrix::{matmul_parallel, BitMatrix, BitRows, DenseMatrix, Orientation};
use mmjoin_ssj::{unordered_ssj, SizeAwarePPOpts, SsjAlgorithm};
use mmjoin_storage::{PackedForm, PackedRows};

/// The roster the paper's figures are reproduced with: the serving roster
/// on `cores` threads, but with MMJoin's heavy core pinned to f32 SGEMM —
/// the paper's prototype multiplies with SGEMM (Eigen/MKL) for every query,
/// and its numbers are what these tables are compared against. (Without the
/// pin an existence query would run the Boolean bit product; counting
/// queries run SGEMM either way.)
fn paper_registry(cores: usize) -> EngineRegistry {
    registry_with_config(&JoinConfig {
        threads: cores,
        heavy_backend: HeavyBackend::DenseF32,
        ..JoinConfig::default()
    })
}

/// Runs `query` on `engine`, returning `(stats, seconds)` without
/// materialising the output (a [`CountSink`] absorbs the rows).
fn run_counted(engine: &dyn Engine, query: &Query<'_>) -> (ExecStats, f64) {
    let mut sink = CountSink::new();
    let (stats, secs) = timed(|| {
        engine
            .execute(query, &mut sink)
            .expect("engine advertised support for this query")
    });
    (stats, secs)
}

/// One row of engine timings for `query` over every supporting engine in
/// `registry`; returns the cells plus the (engine-agreed) output size.
fn sweep_engines(registry: &EngineRegistry, query: &Query<'_>) -> (Vec<String>, u64) {
    let mut cells = Vec::new();
    let mut out_rows = 0u64;
    for engine in registry.engines_for(query) {
        let (stats, secs) = run_counted(engine, query);
        out_rows = stats.rows;
        cells.push(fmt_secs(secs));
    }
    (cells, out_rows)
}

/// Two-edge probe relation: engine support depends only on the query
/// family, so header construction never needs a generated dataset.
fn probe_relation() -> Relation {
    Relation::from_edges([(0, 0), (1, 0)])
}

/// Header row listing the engines that support `query`.
fn engine_headers(registry: &EngineRegistry, query: &Query<'_>, key: &str) -> Vec<String> {
    let mut headers: Vec<String> = vec![key.into()];
    headers.extend(
        registry
            .engines_for(query)
            .iter()
            .map(|e| e.name().to_string()),
    );
    headers
}

/// Table 2: dataset characteristics at the experiment scale.
pub fn table2(scale: f64) -> String {
    format!(
        "== Table 2: dataset characteristics (scale {scale}) ==\n{}",
        mmjoin_datagen::table2_report(scale, SEED)
    )
}

/// Figure 3a: single-core GEMM runtime vs square dimension.
pub fn fig3a() -> Table {
    let mut t = Table::new(
        "Figure 3a: matrix multiplication, single core",
        vec!["n".into(), "multiply".into(), "GFLOP/s".into()],
    );
    // Warm up caches/frequency so the first row is not an outlier.
    {
        let a = DenseMatrix::from_fn(256, 256, |i, j| ((i + j) % 2) as f32);
        std::hint::black_box(matmul_parallel(&a, &a, 1));
    }
    for &n in &[256usize, 384, 512, 768, 1024, 1536] {
        let a = DenseMatrix::from_fn(n, n, |i, j| ((i + j) % 3 == 0) as u8 as f32);
        let b = DenseMatrix::from_fn(n, n, |i, j| ((i * j) % 5 == 0) as u8 as f32);
        let (_, secs) = timed(|| std::hint::black_box(matmul_parallel(&a, &b, 1)));
        let gflops = 2.0 * (n as f64).powi(3) / secs / 1e9;
        t.push_row(n.to_string(), vec![fmt_secs(secs), format!("{gflops:.2}")]);
    }
    t
}

/// Figure 3b: construction + multiplication vs core count (fixed n).
pub fn fig3b() -> Table {
    const N: usize = 1024;
    let mut t = Table::new(
        format!("Figure 3b: {N}x{N} GEMM scaling with cores"),
        vec![
            "cores".into(),
            "construct".into(),
            "multiply".into(),
            "speedup".into(),
        ],
    );
    let mut base = 0.0f64;
    for cores in core_grid() {
        let (ab, construct) = timed(|| {
            let a = DenseMatrix::from_fn(N, N, |i, j| ((i + j) % 3 == 0) as u8 as f32);
            let b = DenseMatrix::from_fn(N, N, |i, j| ((i * j) % 5 == 0) as u8 as f32);
            (a, b)
        });
        let (_, mult) = timed(|| std::hint::black_box(matmul_parallel(&ab.0, &ab.1, cores)));
        if cores == 1 {
            base = mult;
        }
        t.push_row(
            cores.to_string(),
            vec![
                fmt_secs(construct),
                fmt_secs(mult),
                format!("{:.2}x", base / mult),
            ],
        );
    }
    t
}

/// Figure 4a: 2-path join-project across datasets, every registered
/// 2-path engine, single core.
pub fn fig4a(scale: f64) -> Table {
    let registry = paper_registry(1);
    let probe = probe_relation();
    let probe_q = Query::two_path(&probe, &probe).build().unwrap();
    let mut headers = engine_headers(&registry, &probe_q, "Dataset");
    headers.push("|OUT|".into());
    let mut t = Table::new("Figure 4a: two-path query, single core", headers);
    for kind in DatasetKind::ALL {
        let r = dataset(kind, scale);
        let q = Query::two_path(&r, &r).build().unwrap();
        let (mut cells, out_rows) = sweep_engines(&registry, &q);
        cells.push(out_rows.to_string());
        t.push_row(kind.name(), cells);
    }
    t
}

/// Figure 4b: star query (k = 3), MMJoin vs Non-MMJoin, single core.
pub fn fig4b(scale: f64) -> Table {
    let registry = paper_registry(1);
    let mut t = Table::new(
        "Figure 4b: three-relation star query, single core",
        vec![
            "Dataset".into(),
            "MMJoin".into(),
            "Non-MMJoin".into(),
            "|OUT|".into(),
        ],
    );
    for kind in DatasetKind::ALL {
        let rels = star_dataset(kind, scale, 3);
        let q = Query::star(&rels).build().unwrap();
        let (mm_stats, secs_mm) = run_counted(registry.get("MMJoin").unwrap(), &q);
        let (nm_stats, secs_nm) = run_counted(registry.get("Non-MMJoin").unwrap(), &q);
        assert_eq!(mm_stats.rows, nm_stats.rows, "{kind:?}: engines disagree");
        t.push_row(
            kind.name(),
            vec![
                fmt_secs(secs_mm),
                fmt_secs(secs_nm),
                mm_stats.rows.to_string(),
            ],
        );
    }
    t
}

/// Figure 4c: set-containment join across datasets, every registered
/// containment engine, single core.
pub fn fig4c(scale: f64) -> Table {
    let registry = paper_registry(1);
    let probe = probe_relation();
    let probe_q = Query::containment(&probe).build().unwrap();
    let mut headers = engine_headers(&registry, &probe_q, "Dataset");
    headers.push("|SCJ|".into());
    let mut t = Table::new("Figure 4c: set containment join, single core", headers);
    for kind in DatasetKind::ALL {
        let r = dataset(kind, scale);
        let q = Query::containment(&r).build().unwrap();
        let (mut cells, out_rows) = sweep_engines(&registry, &q);
        cells.push(out_rows.to_string());
        t.push_row(kind.name(), cells);
    }
    t
}

/// Figures 4d/4e: 2-path multicore scaling (Jokes, Words).
pub fn fig4de(scale: f64) -> Table {
    let mut t = Table::new(
        "Figures 4d/4e: two-path query, multicore",
        vec![
            "cores".into(),
            "Jokes MMJoin".into(),
            "Jokes Non-MM".into(),
            "Words MMJoin".into(),
            "Words Non-MM".into(),
        ],
    );
    let jokes = dataset(DatasetKind::Jokes, scale);
    let words = dataset(DatasetKind::Words, scale);
    for cores in core_grid() {
        let registry = paper_registry(cores);
        let mut cells = Vec::new();
        for r in [&jokes, &words] {
            let q = Query::two_path(r, r).build().unwrap();
            let (_, secs_mm) = run_counted(registry.get("MMJoin").unwrap(), &q);
            let (_, secs_nm) = run_counted(registry.get("Non-MMJoin").unwrap(), &q);
            cells.push(fmt_secs(secs_mm));
            cells.push(fmt_secs(secs_nm));
        }
        t.push_row(cores.to_string(), cells);
    }
    t
}

/// Figures 4f/4g: star query multicore scaling (Jokes, Words).
pub fn fig4fg(scale: f64) -> Table {
    let mut t = Table::new(
        "Figures 4f/4g: star query, multicore",
        vec![
            "cores".into(),
            "Jokes MMJoin".into(),
            "Jokes Non-MM".into(),
            "Words MMJoin".into(),
            "Words Non-MM".into(),
        ],
    );
    let jokes = star_dataset(DatasetKind::Jokes, scale, 3);
    let words = star_dataset(DatasetKind::Words, scale, 3);
    for cores in core_grid() {
        let registry = paper_registry(cores);
        let mut cells = Vec::new();
        for rels in [&jokes, &words] {
            let q = Query::star(rels).build().unwrap();
            let (_, secs_mm) = run_counted(registry.get("MMJoin").unwrap(), &q);
            let (_, secs_nm) = run_counted(registry.get("Non-MMJoin").unwrap(), &q);
            cells.push(fmt_secs(secs_mm));
            cells.push(fmt_secs(secs_nm));
        }
        t.push_row(cores.to_string(), cells);
    }
    t
}

/// Figures 5a/5b/5c: unordered SSJ vs overlap threshold `c`, every
/// registered similarity engine.
pub fn fig5_unordered(kind: DatasetKind, scale: f64) -> Table {
    let registry = paper_registry(1);
    let r = dataset(kind, scale);
    let probe_q = Query::similarity(&r, 2).build().unwrap();
    let mut headers = engine_headers(&registry, &probe_q, "c");
    headers.push("|OUT|".into());
    let mut t = Table::new(
        format!("Figure 5 (unordered SSJ, {})", kind.name()),
        headers,
    );
    for c in 2..=6u32 {
        let q = Query::similarity(&r, c).build().unwrap();
        let (mut cells, out_rows) = sweep_engines(&registry, &q);
        cells.push(out_rows.to_string());
        t.push_row(c.to_string(), cells);
    }
    t
}

/// Figures 5d/5g/5h: parallel unordered SSJ at `c = 2`.
pub fn fig5_parallel(kind: DatasetKind, scale: f64) -> Table {
    let r = dataset(kind, scale);
    let probe_q = Query::similarity(&r, 2).build().unwrap();
    let headers = engine_headers(&paper_registry(1), &probe_q, "cores");
    let mut t = Table::new(
        format!("Figure 5 (parallel unordered SSJ c=2, {})", kind.name()),
        headers,
    );
    for cores in core_grid() {
        let registry = paper_registry(cores);
        let (cells, _) = sweep_engines(&registry, &probe_q);
        t.push_row(cores.to_string(), cells);
    }
    t
}

/// Figures 5e/5f/6a: ordered SSJ vs overlap threshold.
pub fn fig_ordered_ssj(kind: DatasetKind, scale: f64) -> Table {
    let registry = paper_registry(1);
    let r = dataset(kind, scale);
    let probe_q = Query::similarity(&r, 2).ordered().build().unwrap();
    let headers = engine_headers(&registry, &probe_q, "c");
    let mut t = Table::new(
        format!("Figures 5e/5f/6a (ordered SSJ, {})", kind.name()),
        headers,
    );
    for c in 2..=6u32 {
        let q = Query::similarity(&r, c).ordered().build().unwrap();
        let (cells, _) = sweep_engines(&registry, &q);
        t.push_row(c.to_string(), cells);
    }
    t
}

/// Figures 6b/6c/6d: BSI average delay vs batch size.
pub fn fig6_bsi(kind: DatasetKind, scale: f64) -> Table {
    let mut t = Table::new(
        format!("Figure 6 (BSI average delay, {})", kind.name()),
        vec![
            "batch".into(),
            "MMJoin delay".into(),
            "Non-MM delay".into(),
            "MM machines".into(),
            "Non-MM machines".into(),
        ],
    );
    let r = dataset(kind, scale);
    let workload = random_workload(&r, &r, 20_000, SEED);
    // The paper's arrival rate (1000 q/s) matched datasets ~1000× larger;
    // the scaled-down instances need a proportionally faster stream for the
    // queueing/processing trade-off to be visible.
    const RATE: f64 = 100_000.0;
    for &batch in &[250usize, 500, 1000, 2000, 4000] {
        let mm = simulate_batching(&r, &r, &workload, batch, RATE, &BsiStrategy::mm(1));
        let nm = simulate_batching(&r, &r, &workload, batch, RATE, &BsiStrategy::NonMm);
        t.push_row(
            batch.to_string(),
            vec![
                fmt_secs(mm.avg_delay_secs),
                fmt_secs(nm.avg_delay_secs),
                mm.machines_needed.to_string(),
                nm.machines_needed.to_string(),
            ],
        );
    }
    t
}

/// Figure 7: parallel SCJ, MMJoin vs PIEJoin, dense datasets.
pub fn fig7(scale: f64) -> Table {
    let kinds = [
        DatasetKind::Jokes,
        DatasetKind::Words,
        DatasetKind::Protein,
        DatasetKind::Image,
    ];
    let mut headers: Vec<String> = vec!["cores".into()];
    for k in kinds {
        headers.push(format!("{} MMJoin", k.name()));
        headers.push(format!("{} PIEJoin", k.name()));
    }
    let mut t = Table::new("Figure 7: parallel SCJ", headers);
    let datasets: Vec<_> = kinds.iter().map(|&k| dataset(k, scale)).collect();
    for cores in core_grid() {
        let registry = paper_registry(cores);
        let mut cells = Vec::new();
        for r in &datasets {
            let q = Query::containment(r).build().unwrap();
            let (_, mm) = run_counted(registry.get("MMJoin").unwrap(), &q);
            let (_, pie) = run_counted(registry.get("PIEJoin").unwrap(), &q);
            cells.push(fmt_secs(mm));
            cells.push(fmt_secs(pie));
        }
        t.push_row(cores.to_string(), cells);
    }
    t
}

/// Figure 8: SizeAware++ optimization ablation on Words (c = 2), reported
/// as a percentage of the NO-OP runtime. (An ablation of one algorithm's
/// internal flags, so it drives the `unordered_ssj` dispatcher directly
/// rather than the registry.)
pub fn fig8(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 8: SizeAware++ ablation on Words (c=2)",
        vec!["Optimizations".into(), "time".into(), "% of NO-OP".into()],
    );
    let r = dataset(DatasetKind::Words, scale);
    let variants: Vec<(&str, SizeAwarePPOpts)> = vec![
        ("NO-OP", SizeAwarePPOpts::none()),
        (
            "Light",
            SizeAwarePPOpts {
                light: true,
                heavy: false,
                prefix: false,
            },
        ),
        (
            "Heavy",
            SizeAwarePPOpts {
                light: true,
                heavy: true,
                prefix: false,
            },
        ),
        ("Prefix", SizeAwarePPOpts::all()),
    ];
    let config = JoinConfig::default();
    let mut noop = 0.0f64;
    for (name, opts) in variants {
        let algo = SsjAlgorithm::SizeAwarePP(opts);
        let (_, secs) = timed(|| unordered_ssj(&r, 2, &algo, &config));
        if name == "NO-OP" {
            noop = secs;
        }
        t.push_row(
            name,
            vec![fmt_secs(secs), format!("{:.1}%", 100.0 * secs / noop)],
        );
    }
    t
}

/// Ablation (beyond the paper): the heavy core of the 2-path join on a
/// dense dataset with SGEMM pinned (the paper's prototype) and with the
/// default, which multiplies this existence query over the Boolean
/// semiring — then, at the matrix level, the row-OR bit product against
/// plain expansion on sparse square blocks. From 0.5% density up the bit
/// product wins by an order of magnitude (row-OR is itself sparse in its
/// left operand); below that expansion — which is what the optimizer picks
/// for such a block — overtakes it.
///
/// Last, the served core's product over dense shapes with no universal
/// element — random, and 2 and 8 communities — in both orientations: the
/// relations' packed rows under the right one's (empty) universal mask, so
/// what these rows time is the per-row mask test on top of the plain loop.
pub fn ablation_matrix_backends(scale: f64) -> Table {
    let mut t = Table::new(
        "Ablation: heavy-core backend (Jokes dataset; sparse 2048³ blocks)",
        vec!["backend".into(), "time".into(), "|OUT|".into()],
    );
    let r = dataset(DatasetKind::Jokes, scale);
    let q = Query::two_path(&r, &r).build().unwrap();
    let backend_cfg = |backend| JoinConfig {
        heavy_backend: backend,
        ..JoinConfig::default()
    };
    for (name, cfg) in [
        ("f32 GEMM (pinned)", backend_cfg(HeavyBackend::DenseF32)),
        ("bit product (default)", backend_cfg(HeavyBackend::Auto)),
    ] {
        let engine = MmJoinEngine::new(cfg);
        let (stats, secs) = run_counted(&engine, &q);
        t.push_row(name, vec![fmt_secs(secs), stats.rows.to_string()]);
    }
    let p = 2048usize;
    for per_mille in [1u64, 5, 20] {
        // A multiplicative hash as the coin: the same block on every run.
        let pairs: Vec<(u32, u32)> = (0..(p * p) as u64)
            .filter(|c| c.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32 & 1023 < per_mille)
            .map(|c| ((c / p as u64) as u32, (c % p as u64) as u32))
            .collect();
        let mut bits = BitMatrix::zeros(p, p);
        for &(i, j) in &pairs {
            bits.set(i as usize, j as usize);
        }
        // The same product as a join: C[i][j] = ⋁ₖ A[i][k] ∧ A[k][j].
        let left = Relation::from_edges(pairs.iter().copied());
        let right = Relation::from_edges(pairs.iter().map(|&(k, j)| (j, k)));
        // Each to the sorted pair list a join returns (median of three).
        let ids = || FlatRows::new(1, (0..p as u32).collect());
        let (boolean, bit_secs) = timed_median(1, 3, || {
            let words = bits.bool_product(&bits).into_words();
            FlatRows::product(words, ids(), ids()).into_values()
        });
        let (expanded, expand_secs) = timed_median(1, 3, || {
            ExpandDedupEngine::serial().join_project(&left, &right)
        });
        let out = expanded.len();
        assert_eq!(flatten_pairs(expanded), boolean);
        let density = format!("{:.1}%", per_mille as f64 * 100.0 / 1024.0);
        for (name, secs) in [("bit row-OR", bit_secs), ("expansion", expand_secs)] {
            t.push_row(
                format!("{name}, {density} dense"),
                vec![fmt_secs(secs), out.to_string()],
            );
        }
    }
    let (sets, elems) = (176u32, 4000u32);
    for (shape, communities, keep_of_16) in [
        ("random", 1, 4),
        ("2-community", 2, 12),
        ("8-community", 8, 12),
    ] {
        // Set `x` holds elements of its own community only, each by a
        // seeded coin: no element is in every set.
        let relation = |salt: u32| {
            let coin = move |x: u32, y: u32| {
                (x.wrapping_mul(0x9E37_79B1) ^ y.wrapping_mul(0x85EB_CA6B) ^ salt)
                    .wrapping_mul(0xC2B2_AE35)
                    >> 28
            };
            Relation::from_edges((0..sets).flat_map(move |x| {
                (0..elems)
                    .filter(move |&y| y % communities == x % communities && coin(x, y) < keep_of_16)
                    .map(move |y| (x, y))
            }))
        };
        let (r, s) = (relation(1), relation(2));
        let (left, _) = r.packed(PackedForm::XMajor);
        for (orientation, form) in [
            (Orientation::RowOr, PackedForm::YMajor),
            (Orientation::AndAny, PackedForm::XMajor),
        ] {
            let (right, _) = s.packed(form);
            let ((product, filled), secs) = timed_median(3, 31, || {
                packed_view(left).product(packed_view(right), orientation, right.universal())
            });
            assert_eq!(filled, 0, "{shape}: no row meets an empty mask");
            t.push_row(
                format!("{}, {shape} dense {sets}×{elems}", orientation.name()),
                // To 0.1 us: the sweep compares these across builds.
                vec![
                    format!("{:.1}us", secs * 1e6),
                    product.count_ones().to_string(),
                ],
            );
        }
    }
    t
}

/// A relation's packed rows as the view the Boolean kernels multiply.
fn packed_view(p: &PackedRows) -> BitRows<'_> {
    BitRows::new(p.rows(), p.cols(), p.words())
}

/// Plan report (beyond the paper): what MMJoin's optimizer decided per
/// dataset, for the self two-path and for two stars — plan kind, chosen
/// `(Δ1, Δ2)`, heavy-core shape and light tuple mass — straight out of
/// [`ExecStats`].
pub fn plan_report(scale: f64) -> Table {
    let registry = default_registry(1);
    let mut t = Table::new(
        "Plan report: MMJoin optimizer decisions per dataset",
        vec![
            "Dataset".into(),
            "plan".into(),
            "Δ1".into(),
            "Δ2".into(),
            "heavy (u×v×w)".into(),
            "matrix core".into(),
            "predicted l+h".into(),
            "measured l+h".into(),
            "light tuples".into(),
            "est |OUT|".into(),
            "|OUT|".into(),
        ],
    );
    let mut row = |name: String, q: &Query<'_>| {
        let (stats, _) = run_counted(registry.get("MMJoin").unwrap(), q);
        let plan = stats.plan.expect("MMJoin reports a plan");
        let fmt_opt = |v: Option<u32>| v.map_or("-".to_string(), |x| x.to_string());
        t.push_row(
            name,
            vec![
                match plan.kind {
                    PlanKind::Wcoj => "wcoj".to_string(),
                    PlanKind::MatrixPartitioned => "matrix".to_string(),
                },
                fmt_opt(plan.delta1),
                fmt_opt(plan.delta2),
                plan.heavy_dims
                    .map_or("-".to_string(), |(u, v, w)| format!("{u}x{v}x{w}")),
                // Which kernel multiplied the heavy core, if one did.
                match (plan.heavy_core_matrix, plan.heavy_backend) {
                    (Some(true), Some(kernel)) => kernel.to_string(),
                    (Some(false), _) => "no".to_string(),
                    _ => "-".to_string(),
                },
                // The optimizer's two predictions beside what the phases
                // then took: light, and build + product + extract.
                match (plan.predicted_light_secs, plan.predicted_heavy_secs) {
                    (Some(l), Some(h)) => format!("{}+{}", fmt_secs(l), fmt_secs(h)),
                    _ => "-".to_string(),
                },
                plan.measured_phase_secs.map_or("-".to_string(), |m| {
                    format!("{}+{}", fmt_secs(m.light), fmt_secs(m.heavy()))
                }),
                plan.light_tuples
                    .map_or("-".to_string(), |(lr, _)| lr.to_string()),
                plan.estimated_out
                    .map_or("-".to_string(), |e| e.to_string()),
                stats.rows.to_string(),
            ],
        );
    };
    for kind in DatasetKind::ALL {
        let r = dataset(kind, scale);
        row(
            kind.name().to_string(),
            &Query::two_path(&r, &r).build().unwrap(),
        );
    }
    // Stars report the same record: a dense instance (everything heavy)
    // and a skewed one.
    for kind in [DatasetKind::Jokes, DatasetKind::Words] {
        let rels = star_dataset(kind, scale, 3);
        row(
            format!("{} star k=3", kind.name()),
            &Query::star(&rels).build().unwrap(),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin::PairSink;

    const TINY: f64 = 0.03;

    #[test]
    fn table2_renders() {
        let s = table2(TINY);
        assert!(s.contains("DBLP"));
    }

    #[test]
    fn registry_engines_agree_on_tiny_scale() {
        let r = dataset(DatasetKind::Jokes, TINY);
        let registry = default_registry(1);
        let q = Query::two_path(&r, &r).build().unwrap();
        let engines = registry.engines_for(&q);
        assert!(engines.len() >= 6, "expected the full 2-path roster");
        let mut reference: Option<Vec<(u32, u32)>> = None;
        for e in engines {
            let mut sink = PairSink::new();
            e.execute(&q, &mut sink).unwrap();
            match &reference {
                None => reference = Some(sink.pairs),
                Some(r0) => assert_eq!(&sink.pairs, r0, "{}", e.name()),
            }
        }
    }

    #[test]
    fn fig8_variants_run() {
        let t = fig8(TINY);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn fig6_runs_tiny() {
        let r = dataset(DatasetKind::Words, TINY);
        let w = random_workload(&r, &r, 50, 1);
        let rep = simulate_batching(&r, &r, &w, 25, 1000.0, &BsiStrategy::NonMm);
        assert!(rep.machines_needed >= 1);
    }

    #[test]
    fn plan_report_reports_thresholds_for_dense_data() {
        let t = plan_report(TINY);
        // One two-path per dataset, then the two stars.
        assert_eq!(t.rows.len(), DatasetKind::ALL.len() + 2);
        let (two_paths, stars) = t.rows.split_at(DatasetKind::ALL.len());
        // At least one dense dataset must take the matrix plan and report
        // concrete thresholds.
        assert!(
            two_paths
                .iter()
                .any(|(_, cells)| cells[0] == "matrix" && cells[1] != "-"),
            "{t:?}"
        );
        // The dense star does, and shows a prediction beside a measurement.
        let (name, cells) = &stars[0];
        assert!(name.contains("star"), "{name}");
        assert_eq!(cells[0], "matrix", "{t:?}");
        assert!(cells[5].contains('+') && cells[6].contains('+'), "{t:?}");
    }
}
