//! The `service` experiment target: replay a mixed multi-family workload
//! against a live [`Service`] from concurrent clients and report
//! throughput, cache hit rate, and tail latency — the serving-path
//! numbers the figure experiments (single-query, cold) cannot show.

use crate::report::Table;
use crate::{dataset, timed};
use mmjoin::{MetricsSnapshot, Request, Service, ServiceConfig};
use mmjoin_datagen::DatasetKind;

/// Clients firing concurrently in the warm phase.
const CLIENTS: usize = 4;
/// Workload replays per client.
const ROUNDS: usize = 5;

/// The mixed workload: every query family, both dense and sparse inputs,
/// one bounded query.
fn workload() -> Vec<Request> {
    vec![
        Request::two_path("jokes", "jokes"),
        Request::two_path("dblp", "dblp"),
        Request::two_path_counts("jokes", "dblp", 1),
        Request::star(["dblp", "dblp", "dblp"]),
        Request::similarity("jokes", 2),
        Request::similarity("dblp", 2),
        Request::containment("dblp"),
        Request::two_path("jokes", "jokes").limit(100),
    ]
}

/// Runs the workload: one cold pass, then `CLIENTS` threads × `ROUNDS`
/// replays, and reports per-phase throughput plus the service metrics.
pub fn service_experiment(scale: f64) -> Table {
    let service = Service::with_default_registry();
    // Registration profiles stats once; time it to show it is a
    // pay-once cost.
    let (_, reg_secs) = timed(|| {
        service.register("jokes", dataset(DatasetKind::Jokes, scale * 0.4));
        service.register("dblp", dataset(DatasetKind::Dblp, scale * 0.4));
    });

    let queries = workload();

    let (_, cold_secs) = timed(|| {
        for request in &queries {
            service.query(request.clone()).expect("cold query");
        }
    });
    let cold = service.metrics();

    // Measure warm latencies at the client so the warm row reports
    // phase-local percentiles (the service-wide window still contains
    // the cold samples and would skew the warm tail).
    let mut warm_latencies_us: Vec<u64> = Vec::new();
    let (_, warm_secs) = timed(|| {
        // lint:allow(thread-spawn): bench client threads simulate an
        // external load generator hammering the service; they are not
        // workspace compute and must not consume executor tokens.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let service = &service;
                    let queries = &queries;
                    scope.spawn(move || {
                        let mut latencies = Vec::with_capacity(ROUNDS * queries.len());
                        for _ in 0..ROUNDS {
                            for request in queries {
                                let (_, secs) =
                                    timed(|| service.query(request.clone()).expect("warm query"));
                                latencies.push((secs * 1e6).round() as u64);
                            }
                        }
                        latencies
                    })
                })
                .collect();
            for handle in handles {
                warm_latencies_us.extend(handle.join().expect("client thread"));
            }
        });
    });
    warm_latencies_us.sort_unstable();
    let warm = service.metrics();

    let mut table = Table::new(
        format!(
            "service: mixed workload, {} relations, {} clients x {} rounds (scale {scale})",
            service.relation_names().len(),
            CLIENTS,
            ROUNDS
        ),
        vec![
            "phase".into(),
            "queries".into(),
            "wall".into(),
            "qps".into(),
            "hit rate".into(),
            "p50".into(),
            "p99".into(),
        ],
    );
    table.push_row(
        "register",
        vec![
            "2".into(),
            crate::report::fmt_secs(reg_secs),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ],
    );
    table.push_row("cold", phase_cells(queries.len() as u64, cold_secs, &cold));
    let warm_queries = warm.queries_served - cold.queries_served;
    let pct = |p: f64| -> u64 {
        if warm_latencies_us.is_empty() {
            return 0;
        }
        warm_latencies_us[((warm_latencies_us.len() as f64 - 1.0) * p).round() as usize]
    };
    let warm_delta = MetricsSnapshot {
        queries_served: warm_queries,
        cache_hits: warm.cache_hits - cold.cache_hits,
        cache_hit_rate: if warm_queries == 0 {
            0.0
        } else {
            (warm.cache_hits - cold.cache_hits) as f64 / warm_queries as f64
        },
        p50_latency_us: pct(0.50),
        p99_latency_us: pct(0.99),
        ..warm
    };
    table.push_row("warm", phase_cells(warm_queries, warm_secs, &warm_delta));
    table.push_row(
        "total",
        vec![
            warm.queries_served.to_string(),
            crate::report::fmt_secs(cold_secs + warm_secs),
            format!(
                "{:.0}",
                warm.queries_served as f64 / (cold_secs + warm_secs)
            ),
            format!("{:.1}%", warm.cache_hit_rate * 100.0),
            format!("{}us", warm.p50_latency_us),
            format!("{}us", warm.p99_latency_us),
        ],
    );

    // Thread-budget scaling axis: the same cold query set under an
    // intra-query budget of 1 vs 4 — the executor's wavefronts and
    // light/heavy passes are the only difference (all cache misses, so
    // hit rate is not meaningful here).
    for budget in [1usize, 4] {
        let svc = Service::with_config(ServiceConfig {
            thread_budget: budget,
            join_config: mmjoin::JoinConfig {
                threads: 0, // auto: use the whole budget per query
                ..mmjoin::JoinConfig::default()
            },
            ..ServiceConfig::default()
        });
        svc.register("jokes", dataset(DatasetKind::Jokes, scale * 0.4));
        svc.register("dblp", dataset(DatasetKind::Dblp, scale * 0.4));
        let cold_queries: Vec<Request> = vec![
            Request::two_path("jokes", "jokes"),
            Request::two_path("dblp", "dblp"),
            Request::two_path_counts("jokes", "dblp", 1),
            Request::star(["dblp", "dblp", "dblp"]),
        ];
        let (_, secs) = timed(|| {
            for request in &cold_queries {
                svc.query(request.clone()).expect("budget-axis query");
            }
        });
        let m = svc.metrics();
        table.push_row(
            format!("budget {budget}"),
            vec![
                cold_queries.len().to_string(),
                crate::report::fmt_secs(secs),
                format!("{:.0}", cold_queries.len() as f64 / secs.max(1e-9)),
                "-".into(),
                format!("{}us", m.p50_latency_us),
                format!("{}us", m.p99_latency_us),
            ],
        );
    }

    // Tracing-overhead axis: replay the (warm, cached) workload serially
    // with tracing off vs. fully on, and bound the *disabled* cost — the
    // contract is that every span site degenerates to one relaxed atomic
    // load, so "trace off" must track the untraced rows above. The
    // "overhead" row puts the disabled-path bound in the hit-rate column
    // (measured probe ns × span sites / per-query time) for the gate.
    let tracer = mmjoin::obs::trace::Tracer::global();
    tracer.set_enabled(false);
    let replay = || {
        for request in &queries {
            service.query(request.clone()).expect("replay query");
        }
    };
    let (_, off_secs) = crate::timed_median(1, 3, replay);
    tracer.clear();
    tracer.set_sample_every(1);
    tracer.set_enabled(true);
    let (_, on_secs) = crate::timed_median(1, 3, replay);
    tracer.set_enabled(false);
    tracer.clear();
    // The disabled fast path, measured directly: one span-site probe.
    const PROBES: u32 = 1_000_000;
    let (_, probe_secs) = timed(|| {
        for _ in 0..PROBES {
            std::hint::black_box(mmjoin::obs::trace::current_if_enabled());
        }
    });
    let probe_ns = probe_secs * 1e9 / PROBES as f64;
    // Span sites a served query crosses end to end (root, cache-probe,
    // plan, exec, ~2 steps, serialize).
    const SPAN_SITES: f64 = 7.0;
    let per_query_ns = off_secs.max(1e-9) * 1e9 / queries.len() as f64;
    let overhead_pct = probe_ns * SPAN_SITES / per_query_ns * 100.0;
    for (phase, secs) in [("trace off", off_secs), ("trace on", on_secs)] {
        table.push_row(
            phase,
            vec![
                queries.len().to_string(),
                crate::report::fmt_secs(secs),
                format!("{:.0}", queries.len() as f64 / secs.max(1e-9)),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
        );
    }
    table.push_row(
        "trace overhead",
        vec![
            queries.len().to_string(),
            "-".into(),
            "-".into(),
            format!("{overhead_pct:.3}%"),
            format!("{probe_ns:.1}ns"),
            "-".into(),
        ],
    );
    table
}

fn phase_cells(queries: u64, wall: f64, metrics: &MetricsSnapshot) -> Vec<String> {
    vec![
        queries.to_string(),
        crate::report::fmt_secs(wall),
        format!("{:.0}", queries as f64 / wall.max(1e-9)),
        format!("{:.1}%", metrics.cache_hit_rate * 100.0),
        format!("{}us", metrics.p50_latency_us),
        format!("{}us", metrics.p99_latency_us),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_experiment_reports_hits() {
        let table = service_experiment(0.02);
        // register / cold / warm / total + two thread-budget rows + the
        // trace off / trace on / trace overhead rows.
        assert_eq!(table.rows.len(), 9);
        assert!(table.rows.iter().any(|(k, _)| k == "budget 1"));
        assert!(table.rows.iter().any(|(k, _)| k == "budget 4"));
        let (_, total) = &table.rows[3];
        // 8 cold + 4×5×8 warm = 168 queries.
        assert_eq!(total[0], "168");
        // Warm phase must be nearly all cache hits.
        let (_, warm) = &table.rows[2];
        let hit_rate: f64 = warm[3].trim_end_matches('%').parse().unwrap();
        assert!(hit_rate > 90.0, "warm hit rate {hit_rate}%");
        // The disabled-tracing overhead row must be present and parse. Its
        // 5 % bound is a wall-clock ratio, so `gate::check_service` holds
        // it in CI's release `--gate` run, not a debug build under the
        // parallel test suite.
        let (_, overhead) = table
            .rows
            .iter()
            .find(|(k, _)| k == "trace overhead")
            .unwrap();
        let pct: f64 = overhead[3].trim_end_matches('%').parse().unwrap();
        assert!(pct.is_finite(), "disabled-tracing overhead {pct}%");
    }
}
