//! The `updates` experiment target: replay a mixed query/update trace
//! against a live [`Service`] twice — once with incremental maintenance
//! enabled, once with the invalidate-everything baseline — and report
//! cache hit rate and update (maintenance) latency for both.
//!
//! This is the serving-path payoff of the delta-join machinery: under the
//! baseline every relation update cold-starts all cached results over
//! that relation, while maintenance keeps them warm by patching support
//! counts, so the measured hit rate must come out strictly higher.

use crate::report::Table;
use crate::{dataset, timed};
use mmjoin::{MaintenancePolicy, MetricsSnapshot, Request, Service, ServiceConfig, Value};
use mmjoin_datagen::DatasetKind;

/// Query/update rounds in the trace.
const ROUNDS: usize = 6;
/// Tuples per staged insert (and per trailing delete) batch.
const BATCH: usize = 8;

/// Every query in the replay is a maintainable two-path shape, across
/// self joins, cross joins, and the counting variant.
fn workload() -> Vec<Request> {
    vec![
        Request::two_path("jokes", "jokes"),
        Request::two_path("dblp", "dblp"),
        Request::two_path_counts("jokes", "jokes", 1),
        Request::two_path("jokes", "dblp"),
    ]
}

/// One replay's measurements.
struct Outcome {
    metrics: MetricsSnapshot,
    update_mean_ms: f64,
    update_max_ms: f64,
    wall_secs: f64,
}

/// Replays the trace under `policy`: each round runs the whole workload,
/// then stages a deterministic insert batch on `jokes` plus a delete of
/// the previous round's batch (so deletions always hit live tuples and
/// the relation stays bounded). A final query pass closes the trace.
fn replay(policy: MaintenancePolicy, scale: f64) -> Outcome {
    let service = Service::with_config(ServiceConfig {
        maintenance: policy,
        ..ServiceConfig::default()
    });
    service.register("jokes", dataset(DatasetKind::Jokes, scale * 0.4));
    service.register("dblp", dataset(DatasetKind::Dblp, scale * 0.4));
    let queries = workload();
    let base_edges = service.relation_edges("jokes").expect("registered");
    let max_x = base_edges.iter().map(|&(x, _)| x).max().unwrap_or(0);

    let mut update_secs: Vec<f64> = Vec::with_capacity(ROUNDS);
    let mut prev_batch: Vec<(Value, Value)> = Vec::new();
    let (_, wall_secs) = timed(|| {
        for round in 0..ROUNDS {
            for request in &queries {
                service.query(request.clone()).expect("trace query");
            }
            // Fresh set ids joined to existing elements: the inserts hit
            // the same join values the cached results were built over.
            let batch: Vec<(Value, Value)> = (0..BATCH)
                .map(|j| {
                    let (_, y) = base_edges[(round * 131 + j * 17) % base_edges.len()];
                    (max_x + 1 + (round * BATCH + j) as Value, y)
                })
                .collect();
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
            update_secs.push(secs);
            prev_batch = batch;
        }
        for request in &queries {
            service.query(request.clone()).expect("final pass");
        }
    });

    let mean = update_secs.iter().sum::<f64>() / update_secs.len().max(1) as f64;
    let max = update_secs.iter().cloned().fold(0.0, f64::max);
    Outcome {
        metrics: service.metrics(),
        update_mean_ms: mean * 1e3,
        update_max_ms: max * 1e3,
        wall_secs,
    }
}

/// Runs the trace under both policies and tabulates them side by side.
pub fn updates_experiment(scale: f64) -> Table {
    let maintain = replay(MaintenancePolicy::default(), scale);
    let invalidate = replay(MaintenancePolicy::disabled(), scale);

    let mut table = Table::new(
        format!(
            "updates: {} rounds x {} queries + {}-tuple delta batches on jokes (scale {scale})",
            ROUNDS,
            workload().len(),
            BATCH
        ),
        vec![
            "policy".into(),
            "queries".into(),
            "updates".into(),
            "hit rate".into(),
            "maintained".into(),
            "recomputed".into(),
            "invalidated".into(),
            "update mean".into(),
            "update max".into(),
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
                format!("{:.2}ms", outcome.update_mean_ms),
                format!("{:.2}ms", outcome.update_max_ms),
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
