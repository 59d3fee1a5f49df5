//! The layers underneath the engines: `storage` (relation build, delta
//! normalise and apply, sort-dedup, threshold indexes) and `executor` (what
//! handing a batch to the pool costs before any work is done).

use super::{fastest, Ctx};
use crate::metrics::Sheet;
use crate::stats::mean;
use crate::workload::{Action, Kind};
use mmjoin_storage::dedup::sort_dedup;
use mmjoin_storage::{Relation, RelationDelta, ThresholdIndexes, Value};
use std::hint::black_box;

pub fn storage(ctx: &Ctx<'_>, sheet: &mut Sheet) {
    // Index build, as registration-from-edges pays it.
    let (mut build_s, mut edges) = (0f64, 0usize);
    for (_, relation) in ctx.w.relations.iter().take(8) {
        let (built, secs) = ctx.rec.time("storage.from_edges", || {
            Relation::from_edges(relation.edges().iter().copied())
        });
        black_box(built.len());
        build_s += secs;
        edges += relation.len();
    }
    sheet.put(
        "storage.build_ns_per_edge",
        build_s * 1e9 / edges.max(1) as f64,
    );

    // Sort-dedup over a column with the relation's own duplication.
    let (mut sort_s, mut values) = (0f64, 0usize);
    for (_, relation) in ctx.w.relations.iter().take(4) {
        let column: Vec<Value> = relation.edges().iter().map(|e| e.1).collect();
        values += column.len();
        sort_s += fastest(3, || {
            let mut buf = column.clone();
            black_box(sort_dedup(&mut buf));
        });
    }
    sheet.put(
        "storage.sort_dedup_ns_per_value",
        sort_s * 1e9 / values.max(1) as f64,
    );

    let indexes: Vec<f64> = ctx
        .sampled_of(Kind::TwoPath)
        .map(|q| {
            let rels = ctx.relations_of(q);
            let (built, secs) = ctx.rec.time("storage.threshold_indexes", || {
                ThresholdIndexes::build(rels[0], rels[1])
            });
            black_box(built.y.active());
            secs * 1e6
        })
        .collect();
    sheet.put("storage.threshold_index_us", mean(&indexes));

    // The script's own update batches against the relation as registered.
    // Only batches that change it count: a revert of a batch not yet applied
    // normalises to nothing.
    let (mut normalize, mut apply) = (Vec::new(), Vec::new());
    for op in ctx.w.scripts.iter().flatten() {
        let Action::Update { rel, insert, edges } = &op.action else {
            continue;
        };
        let relation = &ctx.w.relations[*rel].1;
        let delta = if *insert {
            RelationDelta::inserting(edges.iter().copied())
        } else {
            RelationDelta::deleting(edges.iter().copied())
        };
        let (normalized, secs) = ctx
            .rec
            .time("storage.delta_normalize", || delta.normalize(relation));
        if normalized.len() != edges.len() {
            continue;
        }
        normalize.push(secs * 1e6);
        let (merged, secs) = ctx.rec.time("storage.delta_apply", || {
            relation.apply_normalized(&normalized)
        });
        black_box(merged.len());
        apply.push(secs * 1e6);
    }
    sheet.put("storage.delta_normalize_us", mean(&normalize));
    sheet.put("storage.delta_apply_us", mean(&apply));
}

pub fn executor(ctx: &Ctx<'_>, sheet: &mut Sheet) {
    // Two empty tasks on two threads: the grant, the hand-off and the join.
    let rounds = 2000;
    let (_, secs) = ctx.rec.time("executor.fork_noop", || {
        for _ in 0..rounds {
            ctx.exec.run(2, 2, |i| {
                black_box(i);
            });
        }
    });
    sheet.put("executor.fork_overhead_us", secs * 1e6 / rounds as f64);
}
