//! The join service: the query path tying catalog + planner + cache +
//! registry together. It owns no request thread and no queue — a query
//! runs on the thread that calls [`Service::query`]; how many run at once
//! is the caller's business (the TCP front end's compute slots, which
//! [`Service::query_with`] asks for, or however many threads an
//! in-process caller brings).

use crate::cache::{CacheEntry, ResultCache};
use crate::catalog::Catalog;
use crate::error::ServiceError;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::planner::{Planner, SelectionReason, PLANNING_ENGINE};
use crate::request::{Fnv1a, QuerySpec, Request};
use mmjoin_api::ir::{Atom, QueryGraph};
use mmjoin_api::{EngineRegistry, ExecStats, FlatRows, LimitSink, Query, VecSink};
use mmjoin_core::{plan_query, JoinConfig};
use mmjoin_executor::{Executor, ExecutorStats};
use mmjoin_obs::trace::{self, Stage, Tracer};
use mmjoin_storage::{Edge, Relation, RelationDelta, Value};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Construction-time service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    // Nothing reads this. The service had a worker pool of this size
    // until PR 13; `benchmark/trajectory/src/harness.rs` still sets the
    // field by name and a change to the service may not edit the
    // benchmark. A `benchmark`-only PR drops that line, then this goes
    // (see ROADMAP).
    #[doc(hidden)]
    pub workers: usize,
    /// Global intra-query thread budget: the service builds one shared
    /// [`Executor`] of this size and every engine's parallel work
    /// (light passes, GEMM bands, plan wavefronts) runs on it, with
    /// token arbitration splitting the budget across in-flight queries
    /// instead of each assuming it owns `join_config.threads` cores.
    /// `0` means "the machine's available parallelism".
    ///
    /// The budget caps parallelism; `join_config.threads` *requests* it
    /// per query (`0` ⇒ the whole budget, `1` ⇒ serial — the default).
    /// With the all-default configuration (serial engines, budget 0) no
    /// per-service pool is built at all, so idle services cost no
    /// threads. Ignored when [`ServiceConfig::join_config`] already
    /// carries an executor.
    pub thread_budget: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Configuration shared by the router, `explain` (and by
    /// [`Service::with_config`]'s default registry).
    pub join_config: JoinConfig,
    /// Slow-query threshold in microseconds; `0` disables the slow-query
    /// log. A query whose latency crosses the threshold bumps the
    /// `slow_queries` counter and, when the global tracer is enabled,
    /// dumps its span tree to stderr with per-stage durations. When the
    /// calling thread carries no trace context, [`Service::query`] mints
    /// one itself (bypassing sampling) so the tree is available if the
    /// query turns out slow.
    pub slow_query_us: u64,
    /// Calibrate the matmul cost model against the dispatched GEMM kernel
    /// at startup (`CostModel::calibrate_quick`) and re-derive the
    /// combinatorial/matrix crossover from the measurement
    /// (`JoinConfig::install_measured_model`). Costs tens of milliseconds
    /// once; off by default so unit tests stay deterministic.
    pub calibrate_cost: bool,
    /// Cost-model manifest path. With [`ServiceConfig::calibrate_cost`]:
    /// load a matching manifest instead of re-measuring (a stale kernel
    /// tag forces a re-measure), and save freshly measured models here.
    pub calibration_path: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            thread_budget: 0,
            cache_capacity: 256,
            join_config: JoinConfig::default(),
            slow_query_us: 0,
            calibrate_cost: false,
            calibration_path: None,
        }
    }
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct Response {
    /// Output rows, in the engine's emission order, as one flat array
    /// (`rows.arity()` values per row). Shared with the cache, so a hit
    /// returns the *same* buffer the cold run's sink filled.
    pub rows: Arc<FlatRows>,
    /// Per-row witness counts; empty where the family emits none.
    pub counts: Arc<Vec<u32>>,
    /// The stats of the execution that produced these rows (for a cache
    /// hit: the original cold execution's, shared with the entry).
    pub stats: Arc<ExecStats>,
    /// Whether this response came from the result cache.
    pub cached: bool,
    /// Whether the row limit was reached (the stream *may* have been cut
    /// short; an output of exactly `limit` rows also reports `true`).
    pub truncated: bool,
    /// The cache key this result is stored under (fingerprint ⊕ epochs).
    pub cache_key: u64,
}

impl Response {
    /// The answer a cache entry gives, sharing its arrays.
    fn of(entry: CacheEntry, cached: bool, cache_key: u64) -> Self {
        Self {
            rows: entry.rows,
            counts: entry.counts,
            stats: entry.stats,
            cached,
            truncated: entry.truncated,
            cache_key,
        }
    }
}

/// What one update ([`Service::apply_delta`]) changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// The relation's epoch after the update (unchanged for no-op
    /// batches).
    pub epoch: u64,
    /// Effective tuples inserted (after normalization).
    pub inserted: usize,
    /// Effective tuples deleted (after normalization).
    pub deleted: usize,
    /// Cached results over the relation that the update freed.
    pub invalidated: usize,
}

impl UpdateReport {
    /// True when the batch changed nothing (no epoch bump happened).
    pub fn is_noop(&self) -> bool {
        self.inserted == 0 && self.deleted == 0
    }
}

/// A long-lived, thread-safe join service.
///
/// Every mutex/rwlock acquisition recovers from poisoning via
/// `unwrap_or_else(PoisonError::into_inner)`: a panicking engine already
/// fails its own query (see [`Service::query`]), and the guarded state
/// stays valid across a panic — the cache is epoch-keyed (an entry under
/// a moved epoch is merely unreachable), metrics are plain counters, and the
/// catalog commits entries atomically — so abandoning the whole service
/// over a poisoned lock would turn one bad query into a permanent outage.
///
/// ```
/// use mmjoin_service::{Request, Service, ServiceConfig};
/// use mmjoin_storage::Relation;
///
/// let service = Service::with_default_registry();
/// service.register("friends", Relation::from_edges([(0, 0), (1, 0), (2, 1)]));
///
/// let cold = service.query(Request::two_path("friends", "friends"))?;
/// let warm = service.query(Request::two_path("friends", "friends"))?;
/// assert!(!cold.cached && warm.cached);
/// assert_eq!(cold.rows, warm.rows);
/// # Ok::<(), mmjoin_service::ServiceError>(())
/// ```
pub struct Service {
    registry: EngineRegistry,
    planner: Planner,
    catalog: Catalog,
    cache: Mutex<ResultCache>,
    /// Lock-free since PR 7: every instrument is atomic, so recording
    /// needs no mutex (and can never poison).
    metrics: ServiceMetrics,
    slow_query_us: u64,
}

/// The core count the startup calibration should sweep up to: the
/// installed per-service executor's budget when there is one, else the
/// configured [`ServiceConfig::thread_budget`], else the process-global
/// pool's budget (machine parallelism). Deliberately *not*
/// `join_config.effective_threads()` — that defaults to 1 (serial
/// engines) and used to reduce `--calibrate` to a single-core sweep even
/// on an 8-thread budget.
fn calibration_cores(config: &ServiceConfig) -> usize {
    if let Some(exec) = &config.join_config.executor {
        exec.budget()
    } else if config.thread_budget > 0 {
        config.thread_budget
    } else {
        Executor::global().budget()
    }
}

/// Applies [`ServiceConfig::calibrate_cost`]: installs a measured cost
/// model into `config.join_config` (loading a manifest with a matching
/// kernel tag when one is given, measuring and saving otherwise) and
/// clears the flag so the calibration runs at most once per config. The
/// measurement sweeps the cores axis up to [`calibration_cores`]; a
/// cached manifest whose samples stop short of that budget (e.g. one
/// written by a pre-sweep build, or measured under a smaller budget) is
/// treated as stale and re-measured.
fn apply_calibration(config: &mut ServiceConfig) {
    if !config.calibrate_cost {
        return;
    }
    config.calibrate_cost = false;
    let kernel = mmjoin_matrix::active_kernel().name();
    let budget = calibration_cores(config);
    let cached = config.calibration_path.as_deref().and_then(|path| {
        let model = mmjoin_matrix::CostModel::load(path).ok()?;
        (model.kernel() == kernel && model.max_cores() >= budget).then_some(model)
    });
    let model = cached.unwrap_or_else(|| {
        let model = mmjoin_matrix::CostModel::calibrate_quick(budget);
        if let Some(path) = &config.calibration_path {
            if let Err(e) = model.save(path) {
                eprintln!("mmjoin: could not save calibration to {path:?}: {e}");
            }
        }
        model
    });
    config.join_config.install_measured_model(model);
}

impl Service {
    /// A service over `registry` with the given configuration.
    pub fn new(registry: EngineRegistry, mut config: ServiceConfig) -> Self {
        apply_calibration(&mut config);
        Self {
            registry,
            planner: Planner::new(config.join_config.clone()),
            catalog: Catalog::new(),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            metrics: ServiceMetrics::new(),
            slow_query_us: config.slow_query_us,
        }
    }

    /// A service with the full default engine roster and the default
    /// configuration: engines run serially, so queries run in parallel
    /// only across the threads that call in. For intra-query parallelism
    /// use [`Service::with_config`] with a multi-threaded [`JoinConfig`].
    pub fn with_default_registry() -> Self {
        Self::with_config(ServiceConfig::default())
    }

    /// A service with the full default engine roster, all knobs explicit.
    /// Installs the service's shared intra-query [`Executor`] (sized by
    /// [`ServiceConfig::thread_budget`]) into the configuration before
    /// building the roster, so every engine draws from one budget.
    pub fn with_config(mut config: ServiceConfig) -> Self {
        // Build the pool only when something can use it: engines stay
        // serial under the default `threads == 1` unless the caller also
        // asked for a budget, and a fully-serial service must not pay
        // for `available_parallelism() − 1` permanently idle workers.
        let wants_pool = config.join_config.threads != 1 || config.thread_budget != 0;
        if config.join_config.executor.is_none() && wants_pool {
            config.join_config.executor = Some(Arc::new(Executor::new(config.thread_budget)));
        }
        // Calibrate before building the roster so engines and planner see
        // the same measured model and re-derived crossover.
        apply_calibration(&mut config);
        let registry = crate::roster::registry_with_config(&config.join_config);
        Self::new(registry, config)
    }

    /// The intra-query thread budget of the executor governing this
    /// service's engines (the process-global pool's budget when no
    /// per-service executor is installed).
    pub fn thread_budget(&self) -> usize {
        self.planner.config.exec().budget()
    }

    /// Registers (or replaces) a named relation. Returns the epoch of the
    /// new entry. The epoch moves even when the tuples are the ones already
    /// registered, so whatever is asked next misses; the cached results
    /// over the name it replaced are freed at once.
    pub fn register(&self, name: impl Into<String>, relation: Relation) -> u64 {
        let name = name.into();
        let epoch = self.catalog.register(name.as_str(), relation);
        self.free_cached(&name);
        epoch
    }

    /// Replaces an existing relation. A replacement with other tuples bumps
    /// its epoch and frees the cached results over it; one with the same
    /// tuples changes nothing, and its cached results stay.
    pub fn update(&self, name: &str, relation: Relation) -> Result<u64, ServiceError> {
        let before = self.relation_epoch(name.trim());
        let epoch = self.catalog.update(name, relation)?;
        if before != Some(epoch) {
            self.free_cached(name);
        }
        Ok(epoch)
    }

    /// Drains every cached result over `name` — an epoch the catalog no
    /// longer holds keys all of them, so no request can reach them again —
    /// and frees them once the cache lock is released. They count as
    /// `invalidations`. A miss that pinned the old epoch and finishes after
    /// this inserts nothing ([`execute`] checks the epochs it pinned).
    /// Returns how many it freed.
    fn free_cached(&self, name: &str) -> usize {
        let drained = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain_referencing(name.trim());
        drained.len()
    }

    /// Stages a batch of tuple inserts; see [`Service::apply_delta`].
    pub fn insert(
        &self,
        name: &str,
        edges: impl IntoIterator<Item = Edge>,
    ) -> Result<UpdateReport, ServiceError> {
        self.apply_delta(name, &RelationDelta::inserting(edges))
    }

    /// Stages a batch of tuple deletes; the counterpart of
    /// [`Service::insert`], with the same effect on the cache.
    pub fn delete(
        &self,
        name: &str,
        edges: impl IntoIterator<Item = Edge>,
    ) -> Result<UpdateReport, ServiceError> {
        self.apply_delta(name, &RelationDelta::deleting(edges))
    }

    /// Applies a staged insert/delete batch to a registered relation.
    ///
    /// The batch is normalized against the current relation (no-op
    /// batches change nothing — not even the epoch) and merged into a
    /// fresh indexed [`Relation`]. Then every cached result over the
    /// relation is freed, as [`Service::register`] frees them, and counts
    /// as `invalidated`: no entry is refreshed, and whichever is asked for
    /// again is recomputed by the normal miss path.
    pub fn apply_delta(
        &self,
        name: &str,
        delta: &RelationDelta,
    ) -> Result<UpdateReport, ServiceError> {
        let staged = self.catalog.apply_delta(name, delta)?;
        let mut report = UpdateReport {
            epoch: staged.epoch,
            inserted: staged.delta.inserts.len(),
            deleted: staged.delta.deletes.len(),
            invalidated: 0,
        };
        if report.is_noop() {
            // Nothing changed: cached entries stay addressable as-is.
            return Ok(report);
        }
        let name = name.trim();
        let mut span = trace::span_dyn(Stage::Maintain, || format!("update {name}"));
        report.invalidated = self.free_cached(name);
        span.relabel(|| format!("update {name}: dropped {}", report.invalidated));
        self.metrics.record_update(&report);
        Ok(report)
    }

    /// Removes a relation from the catalog and frees the cached results
    /// over it.
    pub fn remove(&self, name: &str) -> bool {
        let removed = self.catalog.remove(name);
        if removed {
            self.free_cached(name);
        }
        removed
    }

    /// Current catalog-wide epoch: the count of effective catalog writes.
    pub fn catalog_epoch(&self) -> u64 {
        self.catalog.epoch()
    }

    /// The current epoch of a relation's catalog entry, if registered.
    /// Updates to *other* relations never change it.
    pub fn relation_epoch(&self, name: &str) -> Option<u64> {
        self.catalog.get(name).map(|entry| entry.epoch)
    }

    /// Registered relation names, sorted.
    pub fn relation_names(&self) -> Vec<String> {
        self.catalog.names()
    }

    /// A relation as currently registered.
    pub fn relation(&self, name: &str) -> Option<Arc<Relation>> {
        self.catalog.get(name).map(|entry| entry.relation)
    }

    /// A snapshot of a relation's current tuples (for read-modify-write
    /// updates).
    pub fn relation_edges(&self, name: &str) -> Option<Vec<(Value, Value)>> {
        self.relation(name).map(|r| {
            let mut edges = Vec::with_capacity(r.len());
            edges.extend(r.tuples());
            edges
        })
    }

    /// Answers `request` on the calling thread: canonicalize → resolve →
    /// cache probe → plan → execute → cache fill.
    ///
    /// A panicking engine fails this query with
    /// [`ServiceError::Internal`] and nothing else: the caller's thread —
    /// a connection's reader, say — survives to serve the next one.
    pub fn query(&self, request: Request) -> Result<Response, ServiceError> {
        self.query_with(request, || Some(()))
            .unwrap_or_else(|| unreachable!("a miss admitted unconditionally was refused"))
    }

    /// [`Service::query`] with an admission step between the probe and the
    /// execution of a miss, for a front end that rations computation. A hit
    /// is answered at once. A miss calls `admit` and executes only if it
    /// returns `Some`; what it returned — a compute slot — is held until the
    /// execution ends, and dropped then, also on a panic. `None` means the
    /// miss was refused: nothing executed and nothing counted. Time spent in
    /// `admit` is waiting, not service: it stays out of the latency
    /// histogram.
    pub fn query_with<T>(
        &self,
        request: Request,
        admit: impl FnOnce() -> Option<T>,
    ) -> Option<Result<Response, ServiceError>> {
        let started = Instant::now();
        // With a slow-query threshold armed and no trace on this thread,
        // mint one — bypassing sampling — so the span tree exists if this
        // query turns out slow.
        let minted = if self.slow_query_us > 0 && trace::current_if_enabled().is_none() {
            request
                .relation_names()
                .first()
                .map(|n| format!("query {n}"))
                .and_then(|label| Tracer::global().begin_forced(&label))
        } else {
            None
        };
        let traced = trace::current_if_enabled();
        let mut waited = Duration::ZERO;
        let result = isolated(|| match probe(self, request)? {
            Probed::Hit(response) => Ok(Some(response)),
            Probed::Miss(miss) => {
                let asked = Instant::now();
                let Some(_admitted) = admit() else {
                    return Ok(None);
                };
                waited = asked.elapsed();
                self.cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .record_miss();
                execute(self, miss).map(Some)
            }
        });
        drop(minted);
        let result = result.transpose()?;
        Some(self.observed(started + waited, traced, result))
    }

    /// Books one finished query and passes its result on: the latency
    /// histogram, the hit or error counter, and the slow-query log
    /// (`traced` is the trace it ran under, if any).
    fn observed(
        &self,
        started: Instant,
        traced: Option<trace::Ctx>,
        result: Result<Response, ServiceError>,
    ) -> Result<Response, ServiceError> {
        let latency = started.elapsed().as_secs_f64();
        match &result {
            Ok(response) => self.metrics.record_query(latency, response.cached),
            Err(_) => self.metrics.record_error(),
        }
        let latency_us = (latency * 1e6).round() as u64;
        if self.slow_query_us > 0 && latency_us >= self.slow_query_us {
            self.metrics.record_slow();
            // A trace minted here is finished and carries the full tree;
            // an inbound one is still open at the front end, so we render
            // what has landed so far.
            match traced.and_then(|c| Tracer::global().spans_of(c.trace)) {
                Some(t) => eprintln!(
                    "[mmjoin] slow query: {latency_us}us >= {}us\n{}",
                    self.slow_query_us,
                    t.render()
                ),
                None => eprintln!(
                    "[mmjoin] slow query: {latency_us}us >= {}us (enable tracing for a span tree)",
                    self.slow_query_us
                ),
            }
        }
        result
    }

    /// Explains how `request` would run, without executing any join: the
    /// routed engine, the cache status and — when that engine is `MMJoin`,
    /// the one that plans — [`plan_query`]'s record rendered by its
    /// `Display`, which is the record a run then returns in
    /// [`ExecStats::plan`]. Returns display-ready lines.
    pub fn explain(&self, request: Request) -> Result<Vec<String>, ServiceError> {
        let request = request.canonical();
        let (handles, epochs) = resolve_handles(self, &request)?;
        let fingerprint = request.fingerprint_assuming_canonical();
        let key = cache_key(fingerprint, &epochs);
        let cached = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .peek(key, &request, &epochs);
        let query = build_query(&request.spec, &handles)?;
        let selection = self
            .planner
            .select(&self.registry, &query, request.engine.as_deref())?;

        let mut lines = vec![
            format!(
                "engine {} ({})",
                selection.engine,
                match selection.reason {
                    SelectionReason::Pinned => "pinned",
                    SelectionReason::Routed => "routed",
                    SelectionReason::Fallback => "fallback",
                }
            ),
            format!(
                "fingerprint {fingerprint:016x}, cache {}",
                if cached { "hit" } else { "miss" }
            ),
        ];
        if selection.engine == PLANNING_ENGINE {
            let plan = plan_query(&query, &self.planner.config)?;
            let atoms: Vec<&str> = match &request.spec {
                QuerySpec::General { atoms, .. } => {
                    atoms.iter().map(|a| a.relation.as_str()).collect()
                }
                _ => Vec::new(),
            };
            lines.extend(plan.named(&atoms).to_string().lines().map(String::from));
        }
        Ok(lines)
    }

    /// Service-level metrics snapshot, including the result cache's
    /// update-driven invalidation churn.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.cache_counters().3)
    }

    /// Snapshot of the shared intra-query executor's counters (batches,
    /// tasks, steals, token grants, inline degradations).
    pub fn executor_stats(&self) -> ExecutorStats {
        self.planner.config.exec().stats()
    }

    /// Zeroes the service metrics, the executor counters, and the result
    /// cache's hit/miss/eviction/invalidation counters, keeping every
    /// registration and cached entry (`stats reset`).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
        self.planner.config.exec().reset_stats();
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reset_counters();
    }

    /// `(hits, misses, evictions, invalidations)` of the result cache.
    pub fn cache_counters(&self) -> (u64, u64, u64, u64) {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counters()
    }

    /// `(entries, bytes)` the result cache holds: how many results, and
    /// the heap bytes of their result arrays ([`CacheEntry::bytes`]).
    pub fn cache_size(&self) -> (usize, usize) {
        let cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        (cache.len(), cache.bytes())
    }

    /// Heap bytes of the registered relations: indexes, packed forms and
    /// any flattened edge list ([`Relation::heap_bytes`]).
    pub fn catalog_bytes(&self) -> usize {
        self.catalog.heap_bytes()
    }

    /// The engine registry this service executes on.
    pub fn registry(&self) -> &EngineRegistry {
        &self.registry
    }
}

/// Combines the canonical request fingerprint with the epochs of the
/// referenced relations into the result-cache key.
fn cache_key(fingerprint: u64, epochs: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(fingerprint);
    for &epoch in epochs {
        h.u64(epoch);
    }
    h.finish()
}

/// Best-effort text of a panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "query panicked".to_string()
    }
}

/// Resolves a canonical request's relation names to shared handles and
/// their epochs — the query's *pinned epoch vector* — under one brief
/// catalog read guard (see [`Catalog::pin`]): execution must not block
/// catalog writers.
fn resolve_handles(
    service: &Service,
    request: &Request,
) -> Result<(Vec<Arc<Relation>>, Vec<u64>), ServiceError> {
    service.catalog.pin(&request.relation_names())
}

/// Builds the borrowed [`Query`] over the resolved handles (`handles`
/// follows `request.relation_names()` order). Every family — star
/// included — borrows straight from the `Arc`s: no relation payload is
/// cloned on the query path.
fn build_query<'a>(
    spec: &QuerySpec,
    handles: &'a [Arc<Relation>],
) -> Result<Query<'a>, ServiceError> {
    let query = match spec {
        QuerySpec::TwoPath {
            with_counts,
            min_count,
            ..
        } => Query::TwoPath {
            r: &handles[0],
            s: &handles[1],
            with_counts: *with_counts,
            min_count: *min_count,
        },
        QuerySpec::Star { .. } => Query::Star {
            relations: handles.iter().map(|h| &**h).collect(),
        },
        QuerySpec::Similarity { c, ordered, .. } => Query::SimilarityJoin {
            r: &handles[0],
            c: *c,
            ordered: *ordered,
        },
        QuerySpec::Containment { .. } => Query::ContainmentJoin { r: &handles[0] },
        QuerySpec::General { atoms, projection } => {
            let graph = QueryGraph::new(
                atoms
                    .iter()
                    .enumerate()
                    .map(|(i, a)| Atom {
                        relation: &handles[i],
                        x: a.x,
                        y: a.y,
                    })
                    .collect(),
                projection.clone(),
            )?;
            Query::General { graph }
        }
    };
    query.validate()?;
    Ok(query)
}

/// Runs the query path with a panic turned into
/// [`ServiceError::Internal`]: it costs the request, not the thread —
/// a connection's reader, say.
fn isolated<T>(run: impl FnOnce() -> Result<T, ServiceError>) -> Result<T, ServiceError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .unwrap_or_else(|payload| Err(ServiceError::Internal(panic_message(payload))))
}

/// What [`probe`] found.
enum Probed {
    /// The cache held the answer.
    Hit(Response),
    /// It did not: everything [`execute`] needs to compute it.
    Miss(Miss),
}

/// A canonical request resolved against the catalog, not in the cache.
struct Miss {
    request: Request,
    /// The relations in `request.relation_names()` order, pinned with…
    handles: Vec<Arc<Relation>>,
    /// …their epochs at that moment.
    epochs: Vec<u64>,
    cache_key: u64,
}

/// First half of the query path: canonicalise → pin the relations → key →
/// cache lookup. A hit is counted here; a miss is counted by the caller
/// once it is admitted to [`execute`].
fn probe(service: &Service, request: Request) -> Result<Probed, ServiceError> {
    #[cfg(test)]
    tests::PROBE_PANICS.with(|armed| assert!(!armed.get(), "probe told to panic"));
    let request = request.canonical();
    let (handles, epochs) = resolve_handles(service, &request)?;

    // Cache key: canonical fingerprint ⊕ the epochs of every referenced
    // relation (names are already inside the fingerprint). Any update
    // bumps an epoch and the key changes — stale results are unreachable.
    // The key is a hash, so hits additionally verify the stored request
    // and epochs (see ResultCache::get); a collision degrades to a miss.
    let fingerprint = request.fingerprint_assuming_canonical();
    let cache_key = cache_key(fingerprint, &epochs);

    let _probe_span = trace::span(Stage::CacheProbe, "result-cache");
    let mut cache = service.cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(hit) = cache.get(cache_key, &request, &epochs) {
        return Ok(Probed::Hit(Response::of(hit, true, cache_key)));
    }
    Ok(Probed::Miss(Miss {
        request,
        handles,
        epochs,
        cache_key,
    }))
}

/// Second half: plan → execute → cache fill, for a request [`probe`] did
/// not find.
fn execute(service: &Service, miss: Miss) -> Result<Response, ServiceError> {
    let Miss {
        request,
        handles,
        epochs,
        cache_key,
    } = miss;
    let plan_span = trace::span(Stage::Plan, "select-engine");
    let query = build_query(&request.spec, &handles)?;

    let selection = service
        .planner
        .select(&service.registry, &query, request.engine.as_deref())?;
    drop(plan_span);

    let exec_span = trace::span_dyn(Stage::Exec, || selection.engine.clone());
    let mut sink = LimitSink::new(VecSink::new(), request.limit.unwrap_or(u64::MAX));
    let stats = service
        .registry
        .execute(&selection.engine, &query, &mut sink)?;
    let truncated = request.limit.is_some() && sink.limit_reached();
    let mut sink = sink.into_inner();
    drop(exec_span);
    if let Some(plan) = &stats.plan {
        service.metrics.record_operands(plan);
    }

    // The sink kept the engine's own buffers: a limit cut them in place, and
    // an engine that grew one by doubling left room past the answer. Give
    // that back rather than cache it (a no-op on an exact buffer).
    sink.rows.shrink_to_fit();
    sink.counts.shrink_to_fit();
    let entry = CacheEntry {
        rows: Arc::new(sink.rows),
        counts: Arc::new(sink.counts),
        stats: Arc::new(stats),
        truncated,
    };
    // The one copy of the entry a miss makes: a bump of each array's
    // reference count.
    let response = Response::of(entry.clone(), false, cache_key);
    let mut cache = service.cache.lock().unwrap_or_else(PoisonError::into_inner);
    // Cached only while its relations are the ones it was computed on: a
    // `register`, `update`, delta or `remove` that moved one since the pin
    // has drained the name already, and an entry under the old epochs could
    // never be reached. Read under the cache lock, the epochs cannot move
    // before the insert without a drain after it — no writer holds the
    // catalog lock while it takes the cache lock.
    let current = service.catalog.epochs_of(&request.relation_names());
    let live = current.into_iter().eq(epochs.iter().copied().map(Some));
    // The LRU victim is freed after the lock is released: its rows must not
    // stall another query's probe.
    let displaced = live.then(|| cache.insert(cache_key, request, epochs, entry));
    drop(cache);
    drop(displaced);
    Ok(response)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        /// Armed by a test to make the next [`probe`]s on its thread panic:
        /// the one fault the reader path of a front end can be handed that
        /// no request text produces.
        pub(crate) static PROBE_PANICS: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    fn service() -> Service {
        Service::with_default_registry()
    }

    fn tiny() -> Relation {
        Relation::from_edges([(0, 0), (1, 0), (2, 1), (2, 0)])
    }

    #[test]
    fn cold_then_warm_round_trip() {
        let s = service();
        s.register("R", tiny());
        let cold = s.query(Request::two_path("R", "R")).unwrap();
        assert!(!cold.cached);
        let warm = s.query(Request::two_path("R", "R")).unwrap();
        assert!(warm.cached);
        assert_eq!(cold.rows, warm.rows);
        assert_eq!(cold.counts, warm.counts);
        assert_eq!(cold.cache_key, warm.cache_key);
        let m = s.metrics();
        assert_eq!(m.queries_served, 2);
        assert_eq!(m.cache_hits, 1);
    }

    #[test]
    fn calibration_installs_measured_model_and_saves_manifest() {
        let path =
            std::env::temp_dir().join(format!("mmjoin-svc-calibration-{}.txt", std::process::id()));
        std::fs::remove_file(&path).ok();
        let s = Service::with_config(ServiceConfig {
            calibrate_cost: true,
            calibration_path: Some(path.clone()),
            ..ServiceConfig::default()
        });
        // The planner's config now carries a measured model tagged with
        // the dispatched kernel, and the manifest was persisted.
        let cfg = &s.planner.config;
        assert_eq!(
            cfg.cost_model.kernel(),
            mmjoin_matrix::active_kernel().name()
        );
        assert!(cfg.wcoj_fallback_factor >= 2.0 && cfg.wcoj_fallback_factor <= 200.0);
        let saved = mmjoin_matrix::CostModel::load(&path).unwrap();
        assert_eq!(saved.kernel(), mmjoin_matrix::active_kernel().name());
        drop(s);
        // A second service reuses the manifest (same kernel tag) rather
        // than re-measuring: loaded samples match the saved ones.
        let s2 = Service::with_config(ServiceConfig {
            calibrate_cost: true,
            calibration_path: Some(path.clone()),
            ..ServiceConfig::default()
        });
        assert_eq!(s2.planner.config.cost_model.samples(), saved.samples());
        std::fs::remove_file(&path).ok();
    }

    /// A cached manifest whose cores axis stops short of the configured
    /// thread budget is stale: the service must re-measure (sweeping up
    /// to the budget) instead of trusting single-core-era samples.
    #[test]
    fn calibration_remeasures_when_manifest_lacks_cores() {
        use mmjoin_matrix::cost::{Sample, SystemConstants};
        let path = std::env::temp_dir().join(format!(
            "mmjoin-svc-calibration-stale-{}.txt",
            std::process::id()
        ));
        // Hand-write a single-core manifest under the *active* kernel tag
        // (the pre-sweep format a PR-8 build would have left behind).
        let mut legacy = mmjoin_matrix::CostModel::from_samples(
            vec![Sample {
                p: 128,
                cores: 1,
                seconds: 0.001,
            }],
            SystemConstants::default(),
        );
        // from_samples tags "injected"; rewrite the file with the active
        // kernel so only the cores axis (not the kernel tag) is stale.
        legacy.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap().replace(
            "kernel injected",
            &format!("kernel {}", mmjoin_matrix::active_kernel().name()),
        );
        std::fs::write(&path, text).unwrap();
        legacy = mmjoin_matrix::CostModel::load(&path).unwrap();
        assert_eq!(legacy.max_cores(), 1);

        let s = Service::with_config(ServiceConfig {
            thread_budget: 2,
            calibrate_cost: true,
            calibration_path: Some(path.clone()),
            ..ServiceConfig::default()
        });
        let model = &s.planner.config.cost_model;
        assert!(
            model.max_cores() >= 2,
            "budget 2 must force a cores sweep, got max_cores {}",
            model.max_cores()
        );
        assert_ne!(model.samples(), legacy.samples());
        // The re-measured sweep also replaced the stale manifest on disk.
        let saved = mmjoin_matrix::CostModel::load(&path).unwrap();
        assert!(saved.max_cores() >= 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let s = service();
        assert!(matches!(
            s.query(Request::two_path("nope", "nope")),
            Err(ServiceError::UnknownRelation(_))
        ));
        assert_eq!(s.metrics().errors, 1);
    }

    #[test]
    fn update_invalidates() {
        let s = service();
        s.register("R", tiny());
        let before = s.query(Request::two_path("R", "R")).unwrap();
        // Adding a hub tuple changes the output.
        s.update(
            "R",
            Relation::from_edges([(0, 0), (1, 0), (2, 1), (2, 0), (3, 1)]),
        )
        .unwrap();
        let after = s.query(Request::two_path("R", "R")).unwrap();
        assert!(!after.cached, "update must force re-execution");
        assert_ne!(before.rows, after.rows);
        assert_ne!(before.cache_key, after.cache_key);
    }

    /// A miss whose relation is replaced — registered again, or changed by
    /// an insert or a delete — between its pin and its insert answers with
    /// the rows it computed on the pinned relation, and caches nothing: an
    /// entry under the old epoch could never be reached.
    #[test]
    fn a_miss_that_finishes_after_a_replacement_caches_nothing() {
        for what in ["register", "insert", "delete"] {
            let s = service();
            s.register("R", tiny());
            let expected = s.query(Request::two_path("R", "R")).unwrap().rows;
            s.register("R", tiny());
            let Probed::Miss(miss) = probe(&s, Request::two_path("R", "R")).unwrap() else {
                panic!("a re-registered relation is cold");
            };
            match what {
                "register" => {
                    s.register("R", Relation::from_edges([(0, 0)]));
                }
                "insert" => assert_eq!(s.insert("R", [(9, 0)]).unwrap().inserted, 1),
                _ => assert_eq!(s.delete("R", [(2, 1)]).unwrap().deleted, 1),
            }
            let invalidations = s.cache_counters().3;
            let response = execute(&s, miss).unwrap();
            assert_eq!(
                response.rows, expected,
                "{what}: the pinned relation's answer"
            );
            assert_eq!(
                s.cache_size().0,
                0,
                "{what}: nothing cached under a dead epoch"
            );
            assert_eq!(
                s.cache_counters().3,
                invalidations,
                "{what}: nothing to drain"
            );
            // The live relation is computed and cached as usual.
            let fresh = service();
            fresh.register("R", Relation::from_edges(s.relation_edges("R").unwrap()));
            let want = fresh.query(Request::two_path("R", "R")).unwrap();
            let live = s.query(Request::two_path("R", "R")).unwrap();
            assert!(!live.cached, "{what}");
            assert_eq!(sorted_rows(&live), sorted_rows(&want), "{what}");
            assert_eq!(s.cache_size().0, 1, "{what}");
        }
    }

    #[test]
    fn limit_truncates_and_keys_separately() {
        let s = service();
        s.register("R", tiny());
        let full = s.query(Request::two_path("R", "R")).unwrap();
        let limited = s.query(Request::two_path("R", "R").limit(2)).unwrap();
        assert!(!limited.cached, "different fingerprint, no false hit");
        assert!(limited.truncated);
        assert_eq!(limited.rows.len(), 2);
        assert_eq!(limited.rows.values(), &full.rows.values()[..4]);
        // The limited entry is cached under its own key.
        let again = s.query(Request::two_path("R", "R").limit(2)).unwrap();
        assert!(again.cached);
        assert_eq!(again.rows, limited.rows);
    }

    #[test]
    fn star_and_self_families_work() {
        let s = service();
        s.register("R", tiny());
        let star = s.query(Request::star(["R", "R", "R"])).unwrap();
        assert_eq!(star.rows.arity(), 3);
        assert!(!star.rows.is_empty());
        let sim = s.query(Request::similarity("R", 1)).unwrap();
        assert_eq!(sim.rows.arity(), 2);
        let scj = s.query(Request::containment("R")).unwrap();
        assert_eq!(scj.rows.arity(), 2);
    }

    #[test]
    fn pinned_engine_is_respected() {
        let s = service();
        s.register("R", tiny());
        let r = s
            .query(Request::two_path("R", "R").on_engine("MergeJoin(MySQL)"))
            .unwrap();
        assert_eq!(r.stats.engine, "MergeJoin(MySQL)");
    }

    /// Engine that panics on 2-path queries (stand-in for an engine bug
    /// on adversarial input).
    struct Grenade;
    impl mmjoin_api::Engine for Grenade {
        fn name(&self) -> &str {
            "Grenade"
        }
        fn supports(&self, query: &Query<'_>) -> bool {
            query.family() == mmjoin_api::QueryFamily::TwoPath
        }
        fn execute(
            &self,
            _query: &Query<'_>,
            _sink: &mut dyn mmjoin_api::Sink,
        ) -> Result<ExecStats, mmjoin_api::EngineError> {
            panic!("boom");
        }
    }

    #[test]
    fn caller_survives_engine_panic() {
        let mut registry = EngineRegistry::new();
        registry.register(Box::new(Grenade));
        let s = Service::new(registry, ServiceConfig::default());
        s.register("R", tiny());
        // The panicking query fails cleanly…
        match s.query(Request::two_path("R", "R").on_engine("Grenade")) {
            Err(ServiceError::Internal(msg)) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        // …and this thread, which ran it, is still here to ask the next
        // one (an error response, but a response).
        match s.query(Request::two_path("R", "R").on_engine("nope")) {
            Err(ServiceError::UnknownEngine(_)) => {}
            other => panic!("expected UnknownEngine, got {other:?}"),
        }
        assert_eq!(s.metrics().errors, 2);
    }

    #[test]
    fn panicking_query_leaves_service_fully_functional() {
        // The full roster plus a grenade: one query panics mid-execution,
        // and afterwards the service must keep serving — warm cache hits,
        // cold executions, updates, and metrics alike.
        let mut registry = crate::roster::registry_with_config(&JoinConfig::default());
        registry.register(Box::new(Grenade));
        let s = Service::new(registry, ServiceConfig::default());
        s.register("R", tiny());
        s.register("S", Relation::from_edges([(5, 0), (6, 1)]));
        let cached = s.query(Request::two_path("R", "R")).unwrap();

        match s.query(Request::two_path("R", "R").on_engine("Grenade")) {
            Err(ServiceError::Internal(msg)) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Internal, got {other:?}"),
        }

        // Warm hit still served from the pre-panic entry…
        let warm = s.query(Request::two_path("R", "R")).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.rows, cached.rows);
        // …cold queries still execute…
        let cold = s.query(Request::two_path("S", "S")).unwrap();
        assert!(!cold.cached);
        // …updates still apply, and metrics still answer.
        let report = s.insert("R", [(9, 0)]).unwrap();
        assert_eq!((report.inserted, report.invalidated), (1, 1));
        assert!(!s.query(Request::two_path("R", "R")).unwrap().cached);
        let m = s.metrics();
        assert_eq!(m.errors, 1);
        assert!(m.queries_served >= 4);
    }

    #[test]
    fn poisoned_locks_recover() {
        // Poison the cache mutex the hard way — panic while holding it —
        // then drive every path that acquires it. (Metrics are atomic
        // and cannot poison.)
        let s = service();
        s.register("R", tiny());
        let warm = s.query(Request::two_path("R", "R")).unwrap();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _cache = s.cache.lock().unwrap();
                panic!("poison the cache");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(s.cache.lock().is_err(), "cache mutex is poisoned");
        let hit = s.query(Request::two_path("R", "R")).unwrap();
        assert!(hit.cached, "poisoned cache still serves its entries");
        assert_eq!(hit.rows, warm.rows);
        assert_eq!(s.insert("R", [(7, 1)]).unwrap().invalidated, 1);
        assert_eq!(
            s.cache_size(),
            (0, 0),
            "the update drained the poisoned cache"
        );
        assert!(s.metrics().queries_served >= 2);
        assert!(s.cache_counters().0 >= 1);
    }

    #[test]
    fn update_churn_is_visible_in_metrics() {
        let s = service();
        s.register("R", tiny());
        s.register("S", tiny());
        s.query(Request::two_path("R", "R")).unwrap();
        s.query(Request::star(["R", "R"])).unwrap();
        s.query(Request::two_path("S", "S")).unwrap();
        // Both entries over R are dropped, whatever their family; S's stays.
        let report = s.insert("R", [(8, 1)]).unwrap();
        assert_eq!(report.invalidated, 2);
        // Replacing S drains its entry too: churn, but not an update.
        s.register("S", tiny());
        let m = s.metrics();
        assert_eq!((m.updates, m.invalidated), (1, 2));
        assert_eq!(m.cache_invalidations, 3, "drained slots are churn");
        assert_eq!(s.cache_counters().3, 3);
        assert!(
            format!("{m}").contains("updates 1 (invalidated 2), cache churn 3,"),
            "{m}"
        );
    }

    /// Sorted copy of response rows (engines serve emission order).
    fn sorted_rows(response: &Response) -> Vec<&[Value]> {
        let mut rows: Vec<&[Value]> = response.rows.iter().collect();
        rows.sort();
        rows
    }

    #[test]
    fn noop_delta_keeps_cache_and_epoch() {
        let s = service();
        s.register("R", tiny());
        let epoch = s.catalog_epoch();
        s.query(Request::two_path("R", "R")).unwrap();
        // Insert of an existing tuple + delete of an absent one.
        let report = s.insert("R", [(0, 0)]).unwrap();
        assert!(report.is_noop());
        let report = s.delete("R", [(99, 99)]).unwrap();
        assert!(report.is_noop());
        assert_eq!(s.catalog_epoch(), epoch, "no-op batches never bump");
        let warm = s.query(Request::two_path("R", "R")).unwrap();
        assert!(warm.cached, "no-op update must not cold-start the cache");
    }

    #[test]
    fn chain_query_caches_and_invalidates_on_any_relation() {
        use crate::request::AtomSpec;
        let s = service();
        s.register("R", tiny());
        s.register("S", Relation::from_edges([(0, 0), (1, 1), (2, 2)]));
        s.register("T", Relation::from_edges([(0, 3), (1, 3), (2, 4)]));

        let cold = s.query(Request::chain(["R", "S", "T"])).unwrap();
        assert!(!cold.cached);
        assert_eq!(cold.rows.arity(), 2);
        assert_eq!(cold.stats.engine, "MMJoin");

        // Isomorphic rewrite (different variable numbering) hits the
        // same cache entry.
        let warm = s
            .query(Request::general(
                vec![
                    AtomSpec {
                        relation: "R".into(),
                        x: 7,
                        y: 3,
                    },
                    AtomSpec {
                        relation: "S".into(),
                        x: 3,
                        y: 11,
                    },
                    AtomSpec {
                        relation: "T".into(),
                        x: 11,
                        y: 5,
                    },
                ],
                vec![7, 5],
            ))
            .unwrap();
        assert!(warm.cached, "isomorphic chain must share the entry");
        assert_eq!(warm.rows, cold.rows);

        // Updating the *middle* relation of the chain invalidates.
        s.update("S", Relation::from_edges([(0, 0), (1, 1)]))
            .unwrap();
        let after = s.query(Request::chain(["R", "S", "T"])).unwrap();
        assert!(
            !after.cached,
            "epoch of every referenced relation keys the entry"
        );
        // Updating an unrelated relation leaves the fresh entry warm.
        s.update("R", tiny()).unwrap(); // identical → no-op, stays warm
        assert!(s.query(Request::chain(["R", "S", "T"])).unwrap().cached);
    }

    #[test]
    fn chain_of_two_matches_two_path_of_transpose() {
        // Q(x, z) :- R(x, y), S(y, z) equals the classic 2-path over
        // (R, Sᵀ) — the chain joins S on its *first* column.
        let s = service();
        let r = tiny();
        let t = Relation::from_edges([(0, 5), (1, 5), (1, 6)]);
        s.register("R", r.clone());
        s.register("S", t.clone());
        s.register("St", t.transposed());
        let chain = s.query(Request::chain(["R", "S"])).unwrap();
        let classic = s.query(Request::two_path("R", "St")).unwrap();
        assert_eq!(sorted_rows(&chain), sorted_rows(&classic));
    }

    #[test]
    fn explain_reports_plan_without_executing() {
        let s = service();
        s.register("R", tiny());
        s.register("S", tiny());
        s.register("T", tiny());
        let lines = s.explain(Request::chain(["R", "S", "T"])).unwrap();
        let text = lines.join("\n");
        assert!(text.contains("engine MMJoin"), "{text}");
        assert!(text.contains("cache miss"), "{text}");
        assert!(text.contains("join"), "{text}");
        assert!(text.contains("final: project"), "{text}");
        // Nothing executed or cached.
        assert_eq!(s.cache_size(), (0, 0));
        assert_eq!(s.metrics().queries_served, 0);

        // After a real query the same explain reports a hit.
        s.query(Request::chain(["R", "S", "T"])).unwrap();
        let lines = s.explain(Request::chain(["R", "S", "T"])).unwrap();
        assert!(lines.join("\n").contains("cache hit"));
    }

    /// `explain star` prints the star engine's own decision — the record
    /// the run then reports — not the two-path plan of its first two legs.
    #[test]
    fn explain_star_reports_what_the_star_engine_runs() {
        let s = service();
        s.register(
            "D",
            Relation::from_edges((0..30u32).flat_map(|x| (0..8u32).map(move |y| (x, y)))),
        );
        // A matching: its star's full join is its input.
        s.register("R", Relation::from_edges((0..50u32).map(|i| (i, i))));
        let text = s
            .explain(Request::star(["D", "D", "D"]))
            .unwrap()
            .join("\n");
        assert!(
            text.contains("plan: matrix-partitioned Δ1=0 Δ2=0, heavy core bit"),
            "{text}"
        );
        assert!(
            text.contains(" 900 × 8 × 30 over operands built/built (predicted light 0us"),
            "{text}"
        );
        assert!(text.contains("full join 216000, est out 27000"), "{text}");
        assert!(text.contains("; line 2: expand 540us > core "), "{text}");
        let plan = s.query(Request::star(["D", "D", "D"])).unwrap();
        let plan = plan.stats.plan.as_ref().unwrap();
        assert_eq!((plan.delta1, plan.delta2), (Some(0), Some(0)));
        assert_eq!(plan.heavy_dims, Some((900, 8, 30)));

        // Output-like: line 2. Two legs: the two-path they run as.
        let text = s
            .explain(Request::star(["R", "R", "R"]))
            .unwrap()
            .join("\n");
        assert!(text.contains("plan: expand (WCOJ)"), "{text}");
        assert!(text.contains("full join 50 is output-like"), "{text}");
        assert!(text.contains("; line 2: expand 0.125us ≤ core "), "{text}");
        let text = s.explain(Request::star(["D", "D"])).unwrap().join("\n");
        assert!(text.contains("plan: matrix-partitioned"), "{text}");
        assert!(!text.contains('×'), "{text}");
    }

    #[test]
    fn unsupported_general_shape_is_a_clean_error() {
        use crate::request::AtomSpec;
        let s = service();
        s.register("R", tiny());
        // Q(x, y, z) :- R(x, y), R(y, z): projected interior variable.
        let atoms = vec![
            AtomSpec {
                relation: "R".into(),
                x: 0,
                y: 1,
            },
            AtomSpec {
                relation: "R".into(),
                x: 1,
                y: 2,
            },
        ];
        match s.query(Request::general(atoms, vec![0, 1, 2])) {
            Err(ServiceError::Engine(mmjoin_api::EngineError::Plan(msg))) => {
                assert!(msg.contains("interior"), "{msg}");
            }
            other => panic!("expected plan error, got {other:?}"),
        }
    }

    #[test]
    fn star_query_serves_without_cloning_payloads() {
        // Behavioural proxy for the borrow refactor: results must match
        // the facade's direct star evaluation (and the query path no
        // longer constructs owned Relations — enforced by the type of
        // `Query::Star`).
        let s = service();
        s.register("R", tiny());
        let via_service = s.query(Request::star(["R", "R", "R"])).unwrap();
        let r = tiny();
        let direct =
            mmjoin_core::star_join_project_mm(&[&r, &r, &r], &mmjoin_core::JoinConfig::default());
        assert!(via_service.rows.iter().eq(direct.iter().map(Vec::as_slice)));
    }
}
