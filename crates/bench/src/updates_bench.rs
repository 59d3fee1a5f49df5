//! The `updates` experiment target: replay a mixed query/update trace
//! against a live [`Service`] twice — once with incremental maintenance
//! enabled, once under the service's default, which drops the cached
//! results an update touches — and report cache hit rate, update latency
//! and wall time for both, the latency by batch class: the 8-tuple
//! batches every round stages, and a 2048-tuple batch toggled on a dense
//! and on a skewed relation.
//!
//! This is the trade the default takes: under invalidation every relation
//! update cold-starts all cached results over that relation, while
//! maintenance keeps them warm by patching support counts, so the
//! measured hit rate must come out strictly higher for maintenance — and
//! the `wall` column shows what keeping them warm costs.

use crate::report::Table;
use crate::{dataset, timed};
use mmjoin::{MaintenancePolicy, MetricsSnapshot, Request, Service, ServiceConfig, Value};
use mmjoin_datagen::DatasetKind;

/// Query/update rounds in the trace.
const ROUNDS: usize = 6;
/// Tuples per staged insert (and per trailing delete) batch.
const BATCH: usize = 8;
/// Tuples in a bulk batch.
const BULK: usize = 2048;
/// The relations that take a bulk batch: one dense, one skewed.
const BULK_RELATIONS: [&str; 2] = ["jokes", "words"];

/// Every query in the replay is a maintainable two-path shape, across
/// self joins, cross joins, and the counting variant.
fn workload() -> Vec<Request> {
    vec![
        Request::two_path("jokes", "jokes"),
        Request::two_path("dblp", "dblp"),
        Request::two_path_counts("jokes", "jokes", 1),
        Request::two_path("jokes", "dblp"),
        Request::two_path("words", "words"),
    ]
}

/// One replay's measurements.
struct Outcome {
    metrics: MetricsSnapshot,
    /// Mean milliseconds of the small batches, then of the bulk batch on
    /// each of [`BULK_RELATIONS`].
    update_mean_ms: [f64; 3],
    wall_secs: f64,
}

/// `n` absent tuples: fresh set ids from `first_x` up, each joined to an
/// element the relation's own tuples hold (`offset` picks which), so they
/// hit the join values the cached results were built over.
fn fresh_sets(
    base: &[(Value, Value)],
    first_x: Value,
    offset: usize,
    n: usize,
) -> Vec<(Value, Value)> {
    (0..n)
        .map(|j| {
            let (_, y) = base[(offset * 131 + j * 17) % base.len()];
            (first_x + j as Value, y)
        })
        .collect()
}

/// Replays the trace under `policy`: each round runs the whole workload,
/// then stages a deterministic insert batch on `jokes` plus a delete of
/// the previous round's batch (so deletions always hit live tuples and
/// the relation stays bounded), then toggles the bulk batch of one of
/// [`BULK_RELATIONS`] — in on its first visit, out on the next. A final
/// query pass closes the trace.
fn replay(policy: MaintenancePolicy, scale: f64) -> Outcome {
    let service = Service::with_config(ServiceConfig {
        maintenance: policy,
        ..ServiceConfig::default()
    });
    service.register("jokes", dataset(DatasetKind::Jokes, scale * 0.4));
    service.register("dblp", dataset(DatasetKind::Dblp, scale * 0.4));
    service.register("words", dataset(DatasetKind::Words, scale * 0.4));
    let queries = workload();
    let base_edges = service.relation_edges("jokes").expect("registered");
    let max_x = base_edges.iter().map(|&(x, _)| x).max().unwrap_or(0);
    let bulk = BULK_RELATIONS.map(|name| {
        let edges = service.relation_edges(name).expect("registered");
        let past = edges.iter().map(|&(x, _)| x + 1).max().unwrap_or(0);
        // Past the ids the small batches take.
        fresh_sets(&edges, past + (ROUNDS * BATCH) as Value, 7, BULK)
    });

    let mut update_secs: [Vec<f64>; 3] = Default::default();
    let mut prev_batch: Vec<(Value, Value)> = Vec::new();
    let (_, wall_secs) = timed(|| {
        for round in 0..ROUNDS {
            for request in &queries {
                service.query(request.clone()).expect("trace query");
            }
            let batch = fresh_sets(
                &base_edges,
                max_x + 1 + (round * BATCH) as Value,
                round,
                BATCH,
            );
            let (_, secs) = timed(|| {
                service
                    .insert("jokes", batch.clone())
                    .expect("insert batch");
                if !prev_batch.is_empty() {
                    service
                        .delete("jokes", prev_batch.clone())
                        .expect("delete batch");
                }
            });
            update_secs[0].push(secs);
            prev_batch = batch;

            let which = round % BULK_RELATIONS.len();
            let (name, edges) = (BULK_RELATIONS[which], bulk[which].clone());
            let (_, secs) = timed(|| {
                if (round / BULK_RELATIONS.len()).is_multiple_of(2) {
                    service.insert(name, edges).expect("bulk insert");
                } else {
                    service.delete(name, edges).expect("bulk delete");
                }
            });
            update_secs[1 + which].push(secs);
        }
        for request in &queries {
            service.query(request.clone()).expect("final pass");
        }
    });

    Outcome {
        metrics: service.metrics(),
        update_mean_ms: update_secs.map(|secs| secs.iter().sum::<f64>() / secs.len() as f64 * 1e3),
        wall_secs,
    }
}

/// Runs the trace under both policies and tabulates them side by side.
pub fn updates_experiment(scale: f64) -> Table {
    let maintain = replay(MaintenancePolicy::enabled(), scale);
    let invalidate = replay(MaintenancePolicy::default(), scale);

    let mut table = Table::new(
        format!(
            "updates: {} rounds x {} queries + {}-tuple delta batches on jokes \
             + a {}-tuple batch on jokes (dense) or words (skewed) (scale {scale})",
            ROUNDS,
            workload().len(),
            BATCH,
            BULK
        ),
        vec![
            "policy".into(),
            "queries".into(),
            "updates".into(),
            "hit rate".into(),
            "maintained".into(),
            "recomputed".into(),
            "invalidated".into(),
            format!("update b{BATCH}"),
            format!("update b{BULK} dense"),
            format!("update b{BULK} skewed"),
            "wall".into(),
        ],
    );
    for (key, outcome) in [("maintain", &maintain), ("invalidate", &invalidate)] {
        let m = &outcome.metrics;
        table.push_row(
            key,
            vec![
                m.queries_served.to_string(),
                m.updates.to_string(),
                format!("{:.1}%", m.cache_hit_rate * 100.0),
                m.maintained.to_string(),
                m.recomputed.to_string(),
                m.invalidated.to_string(),
                format!("{:.2}ms", outcome.update_mean_ms[0]),
                format!("{:.2}ms", outcome.update_mean_ms[1]),
                format!("{:.2}ms", outcome.update_mean_ms[2]),
                crate::report::fmt_secs(outcome.wall_secs),
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate;

    #[test]
    fn maintenance_beats_invalidation_on_hit_rate() {
        let table = updates_experiment(0.02);
        let hit = |key: &str| {
            gate::cell(&table, key, "hit rate")
                .and_then(gate::parse_percent)
                .unwrap_or_else(|| panic!("missing hit rate for {key}"))
        };
        let (maintain, invalidate) = (hit("maintain"), hit("invalidate"));
        assert!(
            maintain > invalidate,
            "maintenance must strictly beat the invalidate baseline: \
             {maintain}% vs {invalidate}%"
        );
        let maintained: u64 = gate::cell(&table, "maintain", "maintained")
            .unwrap()
            .parse()
            .unwrap();
        assert!(maintained >= 1, "at least one entry must be patched");
        // The baseline run must not have maintained anything.
        assert_eq!(gate::cell(&table, "invalidate", "maintained").unwrap(), "0");
    }
}
