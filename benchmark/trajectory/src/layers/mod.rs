//! The traced pass: one untraced and one traced round over the wire, then
//! the workload's own inputs replayed through each crate's public functions.
//!
//! Every timed call is wrapped in a span of this benchmark's own
//! ([`crate::span`]); the stage spans the program already records through
//! `mmjoin_obs` are switched on for the traced round and folded in. All of
//! it is written as one Chrome trace file when the pass ends.
//!
//! Replay never touches the served state: it works on the workload's
//! relations, on fresh in-process services, or on read-only calls, so the
//! final-state check of an update workload still holds afterwards.

mod engines;
mod serving;
mod substrate;

use crate::harness::{replay, Replay, Stack, THREAD_BUDGET};
use crate::metrics::Sheet;
use crate::reference::Reference;
use crate::rng::Rng;
use crate::span::{self, Recorder};
use crate::stats::Metric;
use crate::workload::{Kind, QueryDef, Workload};
use mmjoin_api::{Query, QueryGraph};
use mmjoin_core::JoinConfig;
use mmjoin_executor::Executor;
use mmjoin_obs::trace::Tracer;
use mmjoin_storage::Relation;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Queries of each family replayed through the engine-level layers.
const SAMPLED_PER_KIND: usize = 16;

/// What every layer's replay reads.
pub struct Ctx<'a> {
    pub w: &'a Workload,
    pub stack: &'a Stack,
    pub rec: &'a Recorder,
    /// The engine configuration the served stack runs: the whole budget per
    /// query, on an executor of the same size as the service's.
    pub config: JoinConfig,
    pub exec: Arc<Executor>,
    /// Indices into `w.queries`: a seeded sample of each family, without
    /// limited duplicates.
    pub sampled: Vec<usize>,
}

impl Ctx<'_> {
    pub fn sampled_of(&self, kind: Kind) -> impl Iterator<Item = &QueryDef> + '_ {
        self.sampled
            .iter()
            .map(|&q| &self.w.queries[q])
            .filter(move |q| q.kind == kind)
    }

    pub fn relations_of(&self, q: &QueryDef) -> Vec<&Relation> {
        q.rels.iter().map(|&r| &self.w.relations[r].1).collect()
    }

    /// Runs `f` on the engine-level form of `q`.
    pub fn with_query<T>(&self, q: &QueryDef, f: impl FnOnce(&Query<'_>) -> T) -> T {
        let rels = self.relations_of(q);
        match q.kind {
            Kind::TwoPath => f(&Query::two_path(rels[0], rels[1])
                .build()
                .expect("two-path over registered relations")),
            Kind::Star => f(&Query::star(&rels).build().expect("star over ≥ 1 relation")),
            Kind::Chain => {
                let graph = QueryGraph::chain(&rels).expect("chain over ≥ 1 relation");
                f(&Query::general(graph).expect("chains are acyclic"))
            }
            Kind::Explain | Kind::Update => unreachable!("not a query family"),
        }
    }
}

/// Seconds of the fastest of `reps` runs of `f`.
pub fn fastest(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn sample(w: &Workload, seed: u64) -> Vec<usize> {
    let mut out = Vec::new();
    for kind in [Kind::TwoPath, Kind::Star, Kind::Chain] {
        let mut of_kind: Vec<usize> = (0..w.queries.len())
            .filter(|&q| w.queries[q].kind == kind && w.queries[q].limit.is_none())
            .collect();
        Rng::new(seed).fork(400 + kind as u64).shuffle(&mut of_kind);
        of_kind.truncate(SAMPLED_PER_KIND);
        out.extend(of_kind);
    }
    out
}

/// Where the span file goes: beside the build output, inside the checkout.
fn span_file(w: &Workload) -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(base)
        .join("trajectory")
        .join(format!("{}.trace.json", w.name))
}

/// Runs the traced pass and returns the merged replay log (both rounds) with
/// every per-layer metric.
pub fn traced_pass(
    w: &Workload,
    stack: &Stack,
    reference: &Reference,
    seed: u64,
    reference_s: f64,
) -> Result<(Replay, Vec<Metric>), String> {
    // The benchmark's spans go on the program tracer's timeline.
    let tracer = Tracer::global();
    tracer.set_enabled(true);
    let epoch = span::tracer_epoch(tracer);
    tracer.set_enabled(false);
    let rec = Recorder::new(epoch.ok_or("the program's tracer refused a trace")?);
    let exec = Arc::new(Executor::new(THREAD_BUDGET));
    let ctx = Ctx {
        w,
        stack,
        rec: &rec,
        config: JoinConfig {
            threads: 0,
            executor: Some(Arc::clone(&exec)),
            ..JoinConfig::default()
        },
        exec,
        sampled: sample(w, seed),
    };
    let mut sheet = Sheet::new();
    sheet.put("bench.reference_s", reference_s);

    // One round untraced, then the same round traced: their difference is
    // what tracing costs. Counters are zeroed in between so they describe
    // exactly the traced round.
    let plain = replay(stack, w, None, None)?;
    stack.reset_stats()?;
    tracer.clear();
    tracer.set_capacity(w.ops_per_round() + 64);
    tracer.set_sample_every(1);
    tracer.set_enabled(true);
    let traced = replay(stack, w, None, Some(&rec));
    tracer.set_enabled(false);
    let mut traced = traced?;
    let traces = tracer.last(usize::MAX);
    tracer.clear();

    let mut spans = span::from_traces(&traces);
    serving::counters(&ctx, &mut sheet);
    serving::stages(&spans, &plain, &traced, &mut sheet);
    serving::net(&ctx, &mut sheet)?;
    serving::service(&ctx, &mut sheet);
    let plans = engines::core(&ctx, reference, &mut sheet);
    engines::matrix(&ctx, &plans, &mut sheet);
    engines::baseline(&ctx, &mut sheet);
    substrate::storage(&ctx, &mut sheet);
    substrate::executor(&ctx, &mut sheet);

    spans.extend(rec.take());
    let path = span_file(w);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, span::chrome_json(&spans)));
    match written {
        Ok(()) => eprintln!(
            "trajectory: wrote {} spans to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => return Err(format!("write {}: {e}", path.display())),
    }

    traced.log.merge(plain.log);
    Ok((traced, sheet.into_metrics()))
}
