//! Service-level metrics: queries served, cache hit rate, latency
//! percentiles, and what relation updates dropped.
//!
//! Since PR 7 the recorder is a façade over the [`mmjoin_obs`] metrics
//! registry: every instrument is a named atomic (counter/gauge) or a
//! log-bucketed [`Histogram`], so recording needs no lock and the
//! latency distribution covers **all-time** samples — mean, p50 and p99
//! all come from the same histogram (the old 4096-sample ring reported
//! an all-time mean next to window-local percentiles). Percentiles are
//! bucket-midpoint approximations with relative error ≤ 1/16 (6.25%);
//! count, sum/mean and max are exact.

use crate::service::UpdateReport;
use mmjoin_api::{OperandSource, PlanStats};
use mmjoin_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Lock-free metrics recorder backed by a shared [`Registry`] (the
/// instruments below are also reachable by name through
/// [`ServiceMetrics::registry`], e.g. for `stats --json`).
#[derive(Debug)]
pub struct ServiceMetrics {
    registry: Arc<Registry>,
    queries: Arc<Counter>,
    cache_hits: Arc<Counter>,
    errors: Arc<Counter>,
    slow: Arc<Counter>,
    updates: Arc<Counter>,
    invalidated: Arc<Counter>,
    operand_packs: Arc<Counter>,
    operand_reuses: Arc<Counter>,
    latency_us: Arc<Histogram>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Fresh, zeroed metrics over a private registry.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        Self {
            queries: registry.counter("service.queries_served"),
            cache_hits: registry.counter("service.cache_hits"),
            errors: registry.counter("service.errors"),
            slow: registry.counter("service.slow_queries"),
            updates: registry.counter("service.updates"),
            invalidated: registry.counter("service.invalidated"),
            operand_packs: registry.counter("service.operand_packs"),
            operand_reuses: registry.counter("service.operand_reuses"),
            latency_us: registry.histogram("service.latency_us"),
            registry,
        }
    }

    /// The registry holding every instrument, for name-addressed export.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one served query (`latency_secs` = service time, from
    /// entering [`Service::query`](crate::Service::query) to its answer;
    /// time queued at a front end is that front end's to report).
    pub fn record_query(&self, latency_secs: f64, cached: bool) {
        self.queries.inc();
        if cached {
            self.cache_hits.inc();
        }
        self.latency_us.record((latency_secs * 1e6).round() as u64);
    }

    /// Records a failed query.
    pub fn record_error(&self) {
        self.errors.inc();
    }

    /// Records a query that crossed the slow-query threshold.
    pub fn record_slow(&self) {
        self.slow.inc();
    }

    /// Records one effective relation update and the entries it dropped.
    pub fn record_update(&self, report: &UpdateReport) {
        self.updates.inc();
        self.invalidated.add(report.invalidated as u64);
    }

    /// Records where an executed plan's memoised heavy-core operands came
    /// from ([`PlanStats::heavy_operands`]): a relation packed by this query,
    /// or one an earlier query left packed.
    pub fn record_operands(&self, plan: &PlanStats) {
        for source in plan.heavy_operands.into_iter().flatten() {
            match source {
                OperandSource::Built => self.operand_packs.inc(),
                OperandSource::Reused => self.operand_reuses.inc(),
            }
        }
    }

    /// Zeroes every instrument (`stats reset`) while keeping all
    /// registrations and handles valid.
    pub fn reset(&self) {
        self.registry.reset();
    }

    /// An immutable snapshot for reporting. The recorder cannot see the
    /// result cache, so the churn counter is passed in by the caller (the
    /// `Service::metrics` seam) rather than patched up afterwards.
    pub fn snapshot(&self, cache_invalidations: u64) -> MetricsSnapshot {
        let queries = self.queries.get();
        let cache_hits = self.cache_hits.get();
        let latency = self.latency_us.snapshot();
        MetricsSnapshot {
            queries_served: queries,
            cache_hits,
            errors: self.errors.get(),
            slow_queries: self.slow.get(),
            updates: self.updates.get(),
            maintained: 0,
            recomputed: 0,
            invalidated: self.invalidated.get(),
            operand_packs: self.operand_packs.get(),
            operand_reuses: self.operand_reuses.get(),
            cache_invalidations,
            cache_hit_rate: if queries == 0 {
                0.0
            } else {
                cache_hits as f64 / queries as f64
            },
            mean_latency_us: latency.mean,
            p50_latency_us: latency.p50,
            p99_latency_us: latency.p99,
            max_latency_us: latency.max,
        }
    }
}

/// Point-in-time service statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Successfully answered queries (cached or executed).
    pub queries_served: u64,
    /// Of those, how many came from the result cache.
    pub cache_hits: u64,
    /// Failed queries.
    pub errors: u64,
    /// Queries whose latency crossed the configured slow-query
    /// threshold (0 when no threshold is set).
    pub slow_queries: u64,
    /// Effective (non-no-op) relation updates applied.
    pub updates: u64,
    /// Always 0: no update refreshes an entry in place. Kept because the
    /// external benchmark harness (`benchmark/trajectory`) reads the field.
    #[doc(hidden)]
    pub maintained: u64,
    /// Always 0, like `maintained`, and kept for the same reader.
    #[doc(hidden)]
    pub recomputed: u64,
    /// Cache entries dropped by updates.
    pub invalidated: u64,
    /// Heavy-core operands packed by the query that read them (once per
    /// relation value and form).
    pub operand_packs: u64,
    /// Heavy-core operands found packed by an earlier query.
    pub operand_reuses: u64,
    /// Cache slots displaced by update-driven draining or `clear()` —
    /// the result cache's own churn counter (supplied to
    /// [`ServiceMetrics::snapshot`] by the caller holding the cache).
    /// Unlike `invalidated` (entries dropped by inserts and deletes), this
    /// also counts the entries a `register` or `remove` freed.
    pub cache_invalidations: u64,
    /// `cache_hits / queries_served` (0 when idle).
    pub cache_hit_rate: f64,
    /// Mean service time in microseconds — exact, over **all** samples
    /// (same histogram as the percentiles). Service time only: a wire
    /// request's queue wait is the net front end's to report.
    pub mean_latency_us: u64,
    /// All-time median latency in microseconds (log-bucket midpoint,
    /// relative error ≤ 6.25%).
    pub p50_latency_us: u64,
    /// All-time 99th-percentile latency, microseconds (same bound).
    pub p99_latency_us: u64,
    /// Largest latency ever observed, microseconds (exact).
    pub max_latency_us: u64,
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} (cache hits {}, {:.1}%), errors {}, \
             updates {} (invalidated {}), cache churn {}, latency mean {}us p50 {}us p99 {}us max {}us, slow {}, \
             operands packed {} reused {}",
            self.queries_served,
            self.cache_hits,
            self.cache_hit_rate * 100.0,
            self.errors,
            self.updates,
            self.invalidated,
            self.cache_invalidations,
            self.mean_latency_us,
            self.p50_latency_us,
            self.p99_latency_us,
            self.max_latency_us,
            self.slow_queries,
            self.operand_packs,
            self.operand_reuses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_percentiles() {
        let m = ServiceMetrics::new();
        for i in 1..=100u64 {
            m.record_query(i as f64 * 1e-6, i % 4 == 0);
        }
        let s = m.snapshot(0);
        assert_eq!(s.queries_served, 100);
        assert_eq!(s.cache_hits, 25);
        assert!((s.cache_hit_rate - 0.25).abs() < 1e-9);
        // Histogram percentiles: within the documented 1/16 bound of the
        // exact nearest-rank values (51 and 99 on 1..=100).
        assert!(
            s.p50_latency_us.abs_diff(51) <= 51 / 16 + 1,
            "{}",
            s.p50_latency_us
        );
        assert!(
            s.p99_latency_us.abs_diff(99) <= 99 / 16 + 1,
            "{}",
            s.p99_latency_us
        );
        // Mean and max are exact.
        assert_eq!(s.mean_latency_us, 51); // mean of 1..=100 rounded
        assert_eq!(s.max_latency_us, 100);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = ServiceMetrics::new().snapshot(0);
        assert_eq!(s.queries_served, 0);
        assert_eq!(s.p99_latency_us, 0);
        assert_eq!(s.cache_hit_rate, 0.0);
    }

    #[test]
    fn update_counters_accumulate() {
        let m = ServiceMetrics::new();
        for invalidated in [3, 0] {
            m.record_update(&UpdateReport {
                epoch: 2,
                inserted: 1,
                deleted: 0,
                invalidated,
            });
        }
        let s = m.snapshot(5);
        assert_eq!((s.updates, s.invalidated), (2, 3));
        assert_eq!((s.maintained, s.recomputed), (0, 0));
        assert!(
            format!("{s}").contains("updates 2 (invalidated 3), cache churn 5,"),
            "{s}"
        );
    }

    #[test]
    fn percentiles_cover_all_time_not_a_window() {
        // One early outlier followed by far more samples than the old
        // 4096-entry ring held: the outlier must still be visible in the
        // max and keep its weight in the distribution.
        let m = ServiceMetrics::new();
        m.record_query(0.5, false); // 500_000us
        for _ in 0..10_000 {
            m.record_query(10e-6, false);
        }
        let s = m.snapshot(0);
        assert_eq!(s.queries_served, 10_001);
        assert_eq!(s.max_latency_us, 500_000, "all-time max survives");
        assert!(s.p50_latency_us <= 11, "bulk of the mass is small");
    }

    #[test]
    fn reset_zeroes_counters_and_latency() {
        let m = ServiceMetrics::new();
        m.record_query(1e-3, true);
        m.record_error();
        m.record_slow();
        assert_eq!(m.snapshot(0).max_latency_us, 1000);
        m.reset();
        let s = m.snapshot(0);
        assert_eq!(s.queries_served, 0);
        assert_eq!(s.errors, 0);
        assert_eq!(s.slow_queries, 0);
        assert_eq!(s.max_latency_us, 0, "the all-time max has a reset path");
        assert_eq!(s.p99_latency_us, 0);
        // Instruments still record after the reset.
        m.record_query(1e-6, false);
        assert_eq!(m.snapshot(0).queries_served, 1);
    }
}
