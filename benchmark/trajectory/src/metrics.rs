//! The end-to-end metrics, computed from one untraced replay.
//!
//! Every name means what it says: throughput is completed operations over
//! measured wall time, CPU per operation is process CPU time over the same
//! operations, and a latency percentile is taken over every sample of every
//! round, pooled — nothing is trimmed, so queue wait, eviction stalls and
//! whatever else slows only some rounds are in the numbers. A name with
//! `norm` in it is that number taken to a host of nominal speed: divided (a
//! time) or multiplied (a rate) by the slowdown the run measured beside the
//! workload, see [`crate::host`].
//!
//! [`END_TO_END`] is the list `BENCHMARK.json` gates: metrics every workload
//! has, the timed ones normalised, because on a shared host the plain ones
//! repeat worse than any bound the gate allows. [`SUITE`] are the plain
//! throughput and CPU time, the slowdown itself, the latency percentiles and
//! the failure ratio. A percentile exists on a workload when one round of its script has enough
//! requests of that kind for it (a star median needs stars; p99 needs a
//! thousand queries), so whether a run prints it depends on the script alone;
//! where it does not exist it is left out, never printed as 0. They are gated
//! by `benchmark/compare.py`, which reads their bounds from
//! `benchmark/suite.json`.

use crate::harness::Replay;
use crate::stats::{percentile, sorted_ms, supports, Metric};
use crate::workload::{Kind, Workload};

/// `(name, unit)` of the metrics `BENCHMARK.json` lists, in print order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_norm_qps", "1/s"),
    ("cpu_norm_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of the end-to-end metrics `benchmark/suite.json` lists.
pub const SUITE: [(&str, &str); 12] = [
    ("throughput_qps", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("host_slowdown_x", "x"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("twopath_p50_ms", "ms"),
    ("star_p50_ms", "ms"),
    ("chain_p50_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("failed_ops_ratio", "ratio"),
];

fn named(table: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(table.len(), values.len());
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric { name, value, unit })
        .collect()
}

/// Requests the measured rounds completed, over all clients.
fn completed(w: &Workload, out: &Replay) -> usize {
    w.scripts
        .iter()
        .zip(&out.latency_ns)
        .map(|(script, rounds)| script.len() * rounds.len())
        .sum()
}

/// The `permille`-th percentile, in milliseconds, of the latencies of every
/// request `pick` selects, pooled over clients and rounds — or `None` when
/// one round has too few such requests for that percentile (fewer than ten
/// beyond it).
fn latency(
    w: &Workload,
    out: &Replay,
    pick: impl Fn(Kind) -> bool,
    permille: usize,
) -> Option<f64> {
    let per_round = w
        .scripts
        .iter()
        .flatten()
        .filter(|op| pick(op.kind))
        .count();
    if !supports(per_round, permille) {
        return None;
    }
    let picked: Vec<u64> = w
        .scripts
        .iter()
        .zip(&out.latency_ns)
        .flat_map(|(script, rounds)| {
            rounds
                .iter()
                .flat_map(move |round| script.iter().zip(round))
        })
        .filter(|(op, _)| pick(op.kind))
        .map(|(_, &ns)| ns)
        .collect();
    percentile(&sorted_ms(&picked), permille)
}

/// Completed requests per second of measured wall time.
fn throughput_qps(w: &Workload, out: &Replay) -> f64 {
    completed(w, out) as f64 / out.wall_s
}

/// Process CPU milliseconds per completed request.
fn cpu_ms_per_op(w: &Workload, out: &Replay) -> f64 {
    out.cpu_s * 1e3 / completed(w, out) as f64
}

/// `setup_s` arrives normalised (each set-up by the slowdown around it);
/// `slowdown` is the measured phase's.
pub fn end_to_end(
    w: &Workload,
    out: &Replay,
    setup_s: f64,
    peak_rss_mb: f64,
    slowdown: f64,
) -> Vec<Metric> {
    named(
        &END_TO_END,
        &[
            setup_s,
            throughput_qps(w, out) * slowdown,
            cpu_ms_per_op(w, out) / slowdown,
            peak_rss_mb,
        ],
    )
}

/// The suite metrics this workload has, in [`SUITE`] order.
pub fn suite(w: &Workload, out: &Replay, slowdown: f64) -> Vec<Metric> {
    let of = |pick: fn(Kind) -> bool, permille| latency(w, out, pick, permille);
    let values = [
        Some(throughput_qps(w, out)),
        Some(cpu_ms_per_op(w, out)),
        Some(slowdown),
        of(Kind::is_query, 500),
        of(Kind::is_query, 900),
        of(Kind::is_query, 990),
        of(|k| k == Kind::TwoPath, 500),
        of(|k| k == Kind::Star, 500),
        of(|k| k == Kind::Chain, 500),
        of(|k| k == Kind::Update, 500),
        of(|k| k == Kind::Update, 900),
        Some(out.log.failed as f64 / out.log.attempted.max(1) as f64),
    ];
    SUITE
        .iter()
        .zip(values)
        .filter_map(|(&(name, unit), value)| {
            Some(Metric {
                name,
                value: value?,
                unit,
            })
        })
        .collect()
}

/// `(name, unit)` of every per-layer metric the traced pass prints, grouped
/// by crate. A metric the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("net.wire_codec_ns", "ns"),
    ("net.noop_roundtrip_us", "us"),
    ("net.overhead_us", "us"),
    ("net.max_queue_depth", "count"),
    ("net.rejected_overloaded", "count"),
    ("service.parse_ns", "ns"),
    ("service.fingerprint_ns", "ns"),
    ("service.cache_hit_ns", "ns"),
    ("service.cache_miss_ns", "ns"),
    ("service.format_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.cache_invalidations", "count"),
    ("service.select_us", "us"),
    ("service.inproc_cold_us", "us"),
    ("service.materialize_us", "us"),
    ("service.maintain_b1_us", "us"),
    ("service.maintain_b8_us", "us"),
    ("service.maintain_b64_us", "us"),
    ("service.maintain_b2048_us", "us"),
    ("service.maintained", "count"),
    ("service.recomputed", "count"),
    ("service.invalidated", "count"),
    ("service.budget2_speedup", "x"),
    ("obs.stage.parse_us", "us"),
    ("obs.stage.queue-wait_us", "us"),
    ("obs.stage.cache-probe_us", "us"),
    ("obs.stage.plan_us", "us"),
    ("obs.stage.exec_us", "us"),
    ("obs.stage.step_us", "us"),
    ("obs.stage.maintain_us", "us"),
    ("obs.stage.serialize_us", "us"),
    ("obs.stage.request_us", "us"),
    ("obs.traced_request_us", "us"),
    ("obs.attributed_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
    ("core.choose_thresholds_us", "us"),
    ("core.plan_general_us", "us"),
    ("core.engine_twopath_us", "us"),
    ("core.engine_star_us", "us"),
    ("core.engine_chain_us", "us"),
    ("core.mm_plan_ratio", "ratio"),
    ("core.heavy_madds", "count"),
    ("core.light_tuples", "count"),
    ("core.forced_wcoj_us", "us"),
    ("core.forced_mm_us", "us"),
    ("core.mispredict_penalty_pct", "%"),
    ("core.estimate_error_x", "x"),
    ("matrix.gemm_serial_us", "us"),
    ("matrix.gemm_gflops", "gflop/s"),
    ("matrix.gemm_par_speedup", "x"),
    ("matrix.gemm_par_tokens", "count"),
    ("matrix.extract_us", "us"),
    ("matrix.cost_model_error_x", "x"),
    ("baseline.expand_dedup_us", "us"),
    ("baseline.dup_ratio", "x"),
    ("storage.build_ns_per_edge", "ns"),
    ("storage.delta_normalize_us", "us"),
    ("storage.delta_apply_us", "us"),
    ("storage.sort_dedup_ns_per_value", "ns"),
    ("storage.threshold_index_us", "us"),
    ("executor.batches", "count"),
    ("executor.stolen_tasks", "count"),
    ("executor.granted_tokens", "count"),
    ("executor.inline_serial", "count"),
    ("executor.fork_overhead_us", "us"),
    ("bench.reference_s", "s"),
    ("bench.traced_requests", "count"),
];

/// The per-layer results being filled in; anything never [`put`](Sheet::put)
/// stays 0, so every run prints every name.
#[derive(Debug)]
pub struct Sheet {
    values: Vec<f64>,
}

impl Sheet {
    pub fn new() -> Self {
        Sheet {
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    fn slot(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
    }

    /// Sets `name`, which must be in [`PER_LAYER`].
    pub fn put(&mut self, name: &str, value: f64) {
        self.values[Self::slot(name)] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[Self::slot(name)]
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        named(&PER_LAYER, &self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The binary's tables, `BENCHMARK.json` and `benchmark/suite.json` must
    /// name the same metrics with the same units, or the driver refuses the
    /// output and `compare.py` gates something the binary does not print.
    #[test]
    fn tables_match_the_manifests() {
        let manifest = include_str!("../../../BENCHMARK.json");
        let suite = include_str!("../../suite.json");
        let listed = |file: &str, name: &str, unit: &str| {
            file.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                listed(manifest, name, unit),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            manifest.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the binary does not print"
        );
        for (name, unit) in &SUITE {
            assert!(
                listed(suite, name, unit),
                "{name} [{unit}] missing from suite.json"
            );
        }
        assert_eq!(
            suite.matches("\"unit\":").count(),
            SUITE.len(),
            "suite.json lists a metric the binary does not print"
        );
        for w in crate::workload::WORKLOADS {
            assert!(manifest.contains(&format!("{{\"name\": \"{w}\", \"why\":")));
        }
        assert_eq!(manifest.matches("\"why\":").count(), 4);
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER).chain(&SUITE) {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    /// Two clients, two rounds each, 20 queries and 2 explains per round.
    #[test]
    fn metrics_pool_every_sample_and_leave_out_what_a_workload_lacks() {
        let mut w = crate::workload::build("warm_mix", 2020, &crate::workload::Sizes::tiny())
            .expect("a workload name");
        for script in &mut w.scripts {
            script.truncate(11);
            for (i, op) in script.iter_mut().enumerate() {
                op.kind = if i == 10 {
                    Kind::Explain
                } else {
                    Kind::TwoPath
                };
            }
        }
        // Client 0 answers in 1 ms, client 1 in 3 ms; explains take 50 ms and
        // must not be in a query percentile.
        let round = |ms: u64| {
            let mut r = vec![ms * 1_000_000; 10];
            r.push(50_000_000);
            r
        };
        let mut out = Replay {
            log: Default::default(),
            latency_ns: vec![vec![round(1), round(1)], vec![round(3), round(3)]],
            wall_s: 0.5,
            cpu_s: 0.25,
        };
        out.log.attempted = 44;
        out.log.failed = 11;
        // The host ran at half its nominal speed.
        let e2e = end_to_end(&w, &out, 0.1, 7.0, 2.0);
        let value = |ms: &[Metric], name: &str| ms.iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(value(&e2e, "throughput_norm_qps"), Some(2.0 * 44.0 / 0.5));
        assert_eq!(value(&e2e, "cpu_norm_ms_per_op"), Some(250.0 / 44.0 / 2.0));
        assert_eq!(value(&e2e, "setup_s"), Some(0.1));
        assert_eq!(value(&e2e, "peak_rss_mb"), Some(7.0));
        let suite = suite(&w, &out, 2.0);
        assert_eq!(value(&suite, "throughput_qps"), Some(44.0 / 0.5));
        assert_eq!(value(&suite, "cpu_ms_per_op"), Some(250.0 / 44.0));
        assert_eq!(value(&suite, "host_slowdown_x"), Some(2.0));
        // 40 pooled query samples: rank 20 is the last 1 ms answer.
        assert_eq!(value(&suite, "query_p50_ms"), Some(1.0));
        assert_eq!(value(&suite, "twopath_p50_ms"), Some(1.0));
        assert_eq!(value(&suite, "failed_ops_ratio"), Some(0.25));
        // A round has 20 queries: too few for p90, and no star at all.
        for absent in [
            "query_p90_ms",
            "query_p99_ms",
            "star_p50_ms",
            "update_p50_ms",
        ] {
            assert_eq!(value(&suite, absent), None, "{absent}");
        }
    }

    #[test]
    fn sheet_prints_every_name_once() {
        let mut sheet = Sheet::new();
        sheet.put("core.heavy_madds", 12.0);
        let metrics = sheet.into_metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics
                .iter()
                .find(|m| m.name == "core.heavy_madds")
                .unwrap()
                .value,
            12.0
        );
        assert!(metrics.iter().filter(|m| m.value != 0.0).count() == 1);
    }
}
