//! Service-level metrics: queries served, cache hit rate, latency
//! percentiles, and relation-update maintenance outcomes.
//!
//! Since PR 7 the recorder is a façade over the [`mmjoin_obs`] metrics
//! registry: every instrument is a named atomic (counter/gauge) or a
//! log-bucketed [`Histogram`], so recording needs no lock and the
//! latency distribution covers **all-time** samples — mean, p50 and p99
//! all come from the same histogram (the old 4096-sample ring reported
//! an all-time mean next to window-local percentiles). Percentiles are
//! bucket-midpoint approximations with relative error ≤ 1/16 (6.25%);
//! count, sum/mean and max are exact.

use crate::maintain::{DropReason, MaintenanceReport};
use mmjoin_api::{OperandSource, PlanStats};
use mmjoin_obs::{Counter, Histogram, HistogramSnapshot, Registry};
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
    maintained: Arc<Counter>,
    recomputed: Arc<Counter>,
    invalidated: Arc<Counter>,
    /// `service.invalidated.<reason>`, indexed by [`DropReason`].
    dropped: [Arc<Counter>; DropReason::ALL.len()],
    /// `service.refresh_mispredict_x`, in hundredths.
    refresh_mispredict: Arc<Histogram>,
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
            maintained: registry.counter("service.maintained"),
            recomputed: registry.counter("service.recomputed"),
            invalidated: registry.counter("service.invalidated"),
            dropped: DropReason::ALL
                .map(|reason| registry.counter(&format!("service.invalidated.{}", reason.name()))),
            refresh_mispredict: registry.histogram("service.refresh_mispredict_x"),
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

    /// Records the maintenance outcome of one effective relation update.
    pub fn record_update(&self, report: &MaintenanceReport) {
        self.updates.inc();
        self.maintained.add(report.maintained as u64);
        self.recomputed.add(report.recomputed as u64);
        self.invalidated.add(report.invalidated as u64);
        for (counter, &dropped) in self.dropped.iter().zip(&report.dropped) {
            counter.add(dropped as u64);
        }
    }

    /// Records one refresh that carried a prediction: the seconds the side
    /// that ran took over the seconds it was priced at.
    pub fn record_refresh(&self, measured_secs: f64, predicted_secs: f64) {
        let ratio = measured_secs / predicted_secs.max(1e-9);
        self.refresh_mispredict.record((ratio * 100.0) as u64);
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
            maintained: self.maintained.get(),
            recomputed: self.recomputed.get(),
            invalidated: self.invalidated.get(),
            invalidated_by: std::array::from_fn(|reason| self.dropped[reason].get()),
            refresh_mispredict: self.refresh_mispredict.snapshot(),
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
    /// Cache entries patched in place by delta maintenance.
    pub maintained: u64,
    /// Cache entries eagerly re-executed during an update.
    pub recomputed: u64,
    /// Cache entries dropped by updates.
    pub invalidated: u64,
    /// `invalidated` by rule, indexed by [`DropReason`] (`as usize`).
    pub invalidated_by: [u64; DropReason::ALL.len()],
    /// `service.refresh_mispredict_x`: measured / predicted seconds, in
    /// hundredths, of every refresh that ran with a prediction. The maintain
    /// price has no fixed term, so a small delta against a small entry
    /// reads far above 1 whatever the decision was worth.
    pub refresh_mispredict: HistogramSnapshot,
    /// Heavy-core operands packed by the query that read them (once per
    /// relation value and form).
    pub operand_packs: u64,
    /// Heavy-core operands found packed by an earlier query.
    pub operand_reuses: u64,
    /// Cache slots displaced by update-driven draining or `clear()` —
    /// the result cache's own churn counter (supplied to
    /// [`ServiceMetrics::snapshot`] by the caller holding the cache).
    /// Unlike `invalidated` (entries that ended an update dropped), this
    /// also counts slots whose refreshed successor was re-inserted.
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
        // The rules that dropped entries, e.g. `[limit 46]`.
        let by: Vec<String> = DropReason::ALL
            .iter()
            .zip(self.invalidated_by)
            .filter(|&(_, n)| n > 0)
            .map(|(reason, n)| format!("{} {n}", reason.name()))
            .collect();
        write!(
            f,
            "served {} (cache hits {}, {:.1}%), errors {}, \
             updates {} (maintained {}, recomputed {}, invalidated {} [{}]), \
             refresh mispredict p50 {:.2}x p99 {:.2}x over {}, \
             cache churn {}, latency mean {}us p50 {}us p99 {}us max {}us, slow {}, \
             operands packed {} reused {}",
            self.queries_served,
            self.cache_hits,
            self.cache_hit_rate * 100.0,
            self.errors,
            self.updates,
            self.maintained,
            self.recomputed,
            self.invalidated,
            by.join(", "),
            self.refresh_mispredict.p50 as f64 / 100.0,
            self.refresh_mispredict.p99 as f64 / 100.0,
            self.refresh_mispredict.count,
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
        m.record_update(&MaintenanceReport {
            epoch: 2,
            inserted: 1,
            deleted: 0,
            maintained: 2,
            recomputed: 1,
            invalidated: 3,
            dropped: [0, 2, 0, 0, 0, 0, 1],
        });
        m.record_refresh(3e-3, 2e-3);
        let s = m.snapshot(0);
        assert_eq!(
            (s.updates, s.maintained, s.recomputed, s.invalidated),
            (1, 2, 1, 3)
        );
        assert!(format!("{s}").contains("maintained 2"));
        assert!(
            format!("{s}").contains("invalidated 3 [limit 2, failed 1])"),
            "{s}"
        );
        assert_eq!(s.invalidated_by[DropReason::Limit as usize], 2);
        assert_eq!(s.refresh_mispredict.count, 1);
        assert!(format!("{s}").contains("mispredict p50 1.50x"), "{s}");
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
