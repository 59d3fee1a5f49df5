//! The engine layers: `core` (planner, optimizer, the MMJoin engine and its
//! strategy choice), `matrix` (the GEMM the heavy part runs) and `baseline`
//! (the combinatorial path the light part and the WCOJ plan run).

use super::{fastest, Ctx};
use crate::metrics::Sheet;
use crate::reference::Reference;
use crate::rng::Rng;
use crate::stats::mean;
use crate::workload::Kind;
use mmjoin_api::{CountSink, Engine, PlanKind, PlanStats, QueryGraph};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_core::{choose_thresholds, plan_general, JoinConfig, MmJoinEngine, PlanChoice};
use mmjoin_matrix::{matmul, matmul_parallel_on, DenseMatrix};
use std::hint::black_box;

/// One engine execution with a counting sink: seconds (fastest of three),
/// rows, and the plan it reports.
fn execute(
    ctx: &Ctx<'_>,
    engine: &MmJoinEngine,
    q: usize,
    label: &str,
) -> (f64, u64, Option<PlanStats>) {
    let def = &ctx.w.queries[q];
    ctx.with_query(def, |query| {
        let mut rows = 0;
        let mut plan = None;
        let secs = fastest(3, || {
            let mut sink = CountSink::new();
            let (stats, _) = ctx.rec.time(label, || {
                engine
                    .execute(query, &mut sink)
                    .expect("the served engine runs its own workload")
            });
            rows = sink.rows;
            plan = stats.plan;
        });
        (secs, rows, plan)
    })
}

/// Returns the plan each sampled query reported, for [`matrix`].
pub fn core(ctx: &Ctx<'_>, reference: &Reference, sheet: &mut Sheet) -> Vec<(usize, PlanStats)> {
    let engine = MmJoinEngine::new(ctx.config.clone());

    // The optimizer alone, then the chain planner alone.
    let thresholds: Vec<f64> = ctx
        .sampled_of(Kind::TwoPath)
        .map(|q| {
            let rels = ctx.relations_of(q);
            1e6 * fastest(3, || {
                black_box(choose_thresholds(rels[0], rels[1], &ctx.config).iterations);
            })
        })
        .collect();
    sheet.put("core.choose_thresholds_us", mean(&thresholds));
    let planning: Vec<f64> = ctx
        .sampled_of(Kind::Chain)
        .map(|q| {
            let rels = ctx.relations_of(q);
            let graph = QueryGraph::chain(&rels).expect("chain over ≥ 1 relation");
            1e6 * fastest(3, || {
                black_box(plan_general(&graph).map(|p| p.steps.len()).ok());
            })
        })
        .collect();
    sheet.put("core.plan_general_us", mean(&planning));

    // The engine on every sampled query. Each plan decision — one per
    // two-path or star, one per join step of a chain — counts towards the
    // matrix share; heavy dimensions and light tuples are exact counts.
    let mut by_kind: Vec<(Kind, f64)> = Vec::new();
    let (mut matrix_plans, mut plans) = (0u64, 0u64);
    let (mut madds, mut light) = (0f64, 0f64);
    let mut estimate_error = Vec::new();
    let mut reported = Vec::new();
    for &q in &ctx.sampled {
        let kind = ctx.w.queries[q].kind;
        let (secs, rows, plan) = execute(ctx, &engine, q, "core.engine");
        assert_eq!(
            rows, reference.rows[q],
            "engine disagrees with the reference"
        );
        by_kind.push((kind, secs * 1e6));
        let Some(plan) = plan else { continue };
        reported.push((q, plan.clone()));
        let step_kinds: Vec<PlanKind> = plan.steps.iter().filter_map(|s| s.kind).collect();
        let decisions = if step_kinds.is_empty() {
            vec![plan.kind]
        } else {
            step_kinds
        };
        plans += decisions.len() as u64;
        matrix_plans += decisions
            .iter()
            .filter(|&&k| k == PlanKind::MatrixPartitioned)
            .count() as u64;
        if let Some((u, v, w)) = plan.heavy_dims {
            madds += u as f64 * v as f64 * w as f64;
        }
        if let Some((a, b)) = plan.light_tuples {
            light += (a + b) as f64;
        }
        if let (Kind::TwoPath, Some(est)) = (kind, plan.estimated_out) {
            let (est, rows) = (est.max(1) as f64, rows.max(1) as f64);
            estimate_error.push((est / rows).max(rows / est).ln());
        }
    }
    let of = |kind: Kind| -> Vec<f64> {
        by_kind
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, us)| us)
            .collect()
    };
    sheet.put("core.engine_twopath_us", mean(&of(Kind::TwoPath)));
    sheet.put("core.engine_star_us", mean(&of(Kind::Star)));
    sheet.put("core.engine_chain_us", mean(&of(Kind::Chain)));
    sheet.put(
        "core.mm_plan_ratio",
        matrix_plans as f64 / plans.max(1) as f64,
    );
    sheet.put("core.heavy_madds", madds);
    sheet.put("core.light_tuples", light);
    // Geometric mean of the over- or under-estimate factor.
    if !estimate_error.is_empty() {
        sheet.put("core.estimate_error_x", mean(&estimate_error).exp());
    }
    // Rows → `Vec<Vec<Value>>` plus the cache insert: the in-process cold
    // path minus the engine, on the same queries.
    let all: Vec<f64> = by_kind.iter().map(|&(_, us)| us).collect();
    let cold_us = sheet.get("service.inproc_cold_us");
    sheet.put("service.materialize_us", cold_us - mean(&all));

    forced_strategies(ctx, sheet);
    reported
}

/// Both strategies forced on the sampled two-paths: what the optimizer's pick
/// costs over the better of the two.
fn forced_strategies(ctx: &Ctx<'_>, sheet: &mut Sheet) {
    let force = |factor: f64| {
        MmJoinEngine::new(JoinConfig {
            wcoj_fallback_factor: factor,
            ..ctx.config.clone()
        })
    };
    let (wcoj_engine, mm_engine) = (force(f64::INFINITY), force(0.0));
    let (mut wcoj, mut mm) = (Vec::new(), Vec::new());
    let (mut picked, mut best) = (0f64, 0f64);
    for &q in &ctx.sampled {
        let def = &ctx.w.queries[q];
        if def.kind != Kind::TwoPath {
            continue;
        }
        let (t_wcoj, _, _) = execute(ctx, &wcoj_engine, q, "core.forced_wcoj");
        let (t_mm, _, _) = execute(ctx, &mm_engine, q, "core.forced_mm");
        let rels = ctx.relations_of(def);
        picked += match choose_thresholds(rels[0], rels[1], &ctx.config).choice {
            PlanChoice::Wcoj => t_wcoj,
            PlanChoice::Mm { .. } => t_mm,
        };
        best += t_wcoj.min(t_mm);
        wcoj.push(t_wcoj * 1e6);
        mm.push(t_mm * 1e6);
    }
    sheet.put("core.forced_wcoj_us", mean(&wcoj));
    sheet.put("core.forced_mm_us", mean(&mm));
    if best > 0.0 {
        sheet.put("core.mispredict_penalty_pct", 100.0 * (picked / best - 1.0));
    }
}

/// A seeded 0/1 matrix with about `density` of its cells set.
fn adjacency(rows: usize, cols: usize, density: f64, rng: &mut Rng) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |_, _| (rng.unit() < density) as u8 as f32)
}

pub fn matrix(ctx: &Ctx<'_>, plans: &[(usize, PlanStats)], sheet: &mut Sheet) {
    // The largest heavy product among the sampled two-paths, rebuilt as 0/1
    // matrices of the recorded dimensions at the measured density: the heavy
    // tuples of each side over the cells of its factor matrix.
    let mut largest: Option<((usize, usize, usize), f64, f64)> = None;
    for (q, plan) in plans {
        let def = &ctx.w.queries[*q];
        let (Kind::TwoPath, Some((u, v, w)), Some((light_r, light_s))) =
            (def.kind, plan.heavy_dims, plan.light_tuples)
        else {
            continue;
        };
        if u * v * w == 0 {
            continue;
        }
        let rels = ctx.relations_of(def);
        let density = |tuples: usize, light: u64, cells: usize| {
            ((tuples as f64 - light as f64) / cells as f64).clamp(0.0, 1.0)
        };
        let d1 = density(rels[0].len(), light_r, u * v);
        let d2 = density(rels[1].len(), light_s, v * w);
        if largest.is_none_or(|((a, b, c), _, _)| a * b * c < u * v * w) {
            largest = Some(((u, v, w), d1, d2));
        }
    }
    let Some(((u, v, w), d1, d2)) = largest else {
        return;
    };
    let mut rng = Rng::new(u as u64 ^ ((v as u64) << 20) ^ ((w as u64) << 40));
    let a = adjacency(u, v, d1, &mut rng);
    let b = adjacency(v, w, d2, &mut rng);

    let mut product = None;
    let serial = fastest(5, || {
        let (c, _) = ctx.rec.time("matrix.gemm_serial", || matmul(&a, &b));
        product = Some(c);
    });
    let product = product.expect("at least one run");
    sheet.put("matrix.gemm_serial_us", serial * 1e6);
    sheet.put(
        "matrix.gemm_gflops",
        2.0 * (u * v * w) as f64 / serial / 1e9,
    );

    let before = ctx.exec.stats().granted_tokens;
    let runs = 5;
    let parallel = fastest(runs, || {
        let (c, _) = ctx.rec.time("matrix.gemm_parallel", || {
            matmul_parallel_on(&ctx.exec, &a, &b, ctx.exec.budget())
        });
        black_box(c.rows());
    });
    let granted = ctx.exec.stats().granted_tokens - before;
    sheet.put("matrix.gemm_par_speedup", serial / parallel);
    sheet.put("matrix.gemm_par_tokens", granted as f64 / runs as f64);

    let extract = fastest(5, || {
        let (n, _) = ctx
            .rec
            .time("matrix.extract", || product.entries_at_least(0.5).count());
        black_box(n);
    });
    sheet.put("matrix.extract_us", extract * 1e6);

    let predicted = ctx.config.cost_model.estimate(u, v, w, 1);
    if predicted > 0.0 && serial > 0.0 {
        sheet.put(
            "matrix.cost_model_error_x",
            (predicted / serial).max(serial / predicted),
        );
    }
}

pub fn baseline(ctx: &Ctx<'_>, sheet: &mut Sheet) {
    let engine = ExpandDedupEngine::serial();
    let mut times = Vec::new();
    let (mut full_join, mut out) = (0u64, 0u64);
    for q in ctx.sampled_of(Kind::TwoPath) {
        let rels = ctx.relations_of(q);
        let (pairs, secs) = ctx.rec.time("baseline.expand_dedup", || {
            engine.join_project(rels[0], rels[1])
        });
        times.push(secs * 1e6);
        full_join += rels[0].full_join_size(rels[1]);
        out += pairs.len() as u64;
    }
    sheet.put("baseline.expand_dedup_us", mean(&times));
    sheet.put("baseline.dup_ratio", full_join as f64 / out.max(1) as f64);
}
