//! `mmjoin-executor` — the workspace's shared fork-join thread pool.
//!
//! Every parallel primitive in the workspace (light-pass expansion, the
//! dense GEMM bands, the star group loops, the composed-plan wavefronts)
//! used to spawn fresh `std::thread::scope` threads per call. Under a
//! concurrent service that oversubscribes badly: K in-flight queries each
//! assume they own `config.threads` cores. This crate replaces the ad-hoc
//! spawning with one fixed worker set sized by a **global thread budget**:
//!
//! * [`Executor::run`] executes `n` index-addressed tasks. The calling
//!   thread always participates (so progress never depends on pool
//!   capacity) and idle pool workers *steal* remaining task indices from
//!   the shared batch — chunk-granularity work stealing through one
//!   atomic cursor.
//! * **Token arbitration**: the pool holds `budget − 1` helper tokens.
//!   A batch is granted `min(parallelism − 1, tokens free)` helpers at
//!   submission; concurrent batches therefore *split* the budget instead
//!   of each assuming it owns the machine. Tokens return when the batch
//!   completes. A grant of zero degrades to inline serial execution.
//! * Results are deterministic: task decomposition is fixed by the caller
//!   (not by the grant), so outputs are identical at any pool size —
//!   the property the workspace's parallel-consistency suite asserts.
//!
//! Nesting is safe: a task may itself call [`Executor::run`]; the inner
//! call drains its own batch as a caller, so completion never waits on a
//! queued ticket (no circular wait, no deadlock). A panicking task is
//! caught on the worker, the batch still completes, and the panic resumes
//! on the submitting thread — pool workers are never lost.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use mmjoin_obs::trace;

/// Acquires a mutex, recovering the guard if a previous holder panicked
/// (executor state is a queue of `Arc`s and plain counters — always
/// consistent between operations, so poisoning is recoverable).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One submitted fork-join batch: `tasks` index-addressed closure calls,
/// claimed via the `next` cursor by the caller and by any pool worker
/// holding one of the batch's tickets.
struct Batch {
    /// Type-erased task body. Raw pointer because the closure lives on
    /// the submitting caller's stack; see the safety argument on
    /// [`Batch::work`].
    f: *const (dyn Fn(usize) + Sync),
    tasks: usize,
    /// Next unclaimed task index (may overshoot `tasks`).
    next: AtomicUsize,
    /// Finished tasks (panicked ones included).
    completed: AtomicUsize,
    /// First panic payload, replayed on the submitting thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done_lock: Mutex<()>,
    done: Condvar,
}

// SAFETY: `f` points at a `Sync` closure, so concurrent shared calls are
// fine; the pointer itself is only dereferenced under the liveness
// protocol documented on `Batch::work`.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and executes tasks until the batch is exhausted, returning
    /// how many tasks this thread executed (so pool workers can account
    /// the indices they stole from the submitting caller).
    ///
    /// # Safety (liveness of `f`)
    /// The closure behind `f` lives on the stack of the `Executor::run`
    /// call that created this batch, which does not return before
    /// `completed == tasks`. A claim `i < tasks` therefore
    /// happens-before the closure's death: the claimer will execute and
    /// then bump `completed` (release), and the submitter only observes
    /// `completed == tasks` (acquire) after every claimed call returned.
    /// Workers that claim `i >= tasks` never touch `f`.
    fn work(&self) -> usize {
        let mut executed = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return executed;
            }
            executed += 1;
            // SAFETY: i < tasks, see above.
            let f = unsafe { &*self.f };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.tasks {
                // Lock-then-notify so the submitter can't check the
                // counter and sleep between our increment and the wake.
                let _g = lock(&self.done_lock);
                self.done.notify_all();
            }
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    work_available: Condvar,
    shutdown: AtomicBool,
    /// Helper tokens not currently granted to a batch.
    tokens_free: AtomicUsize,
    /// Batches submitted through [`Executor::run`] (tasks > 0).
    batches: AtomicU64,
    /// Task indices executed, across all batches.
    tasks_run: AtomicU64,
    /// Of those, tasks executed by pool workers rather than the
    /// submitting caller — the work-stealing volume.
    stolen_tasks: AtomicU64,
    /// Helper tokens granted across all batches.
    granted_tokens: AtomicU64,
    /// Batches that wanted helpers but were granted none and degraded
    /// to an inline serial loop (budget exhausted by concurrent work).
    inline_serial: AtomicU64,
}

/// Point-in-time counters for one [`Executor`] — surfaced by the
/// service's `stats executor` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Total thread budget (callers + pool workers).
    pub budget: usize,
    /// Helper tokens currently unclaimed.
    pub tokens_free: usize,
    /// Batches submitted.
    pub batches: u64,
    /// Task closure invocations.
    pub tasks: u64,
    /// Tasks executed by pool workers (stolen from the caller).
    pub stolen_tasks: u64,
    /// Helper tokens granted, summed over batches.
    pub granted_tokens: u64,
    /// Batches that degraded to inline serial on a zero grant.
    pub inline_serial: u64,
}

impl std::fmt::Display for ExecutorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "budget {} (tokens free {}), batches {}, tasks {} (stolen {}), \
             tokens granted {}, inline degradations {}",
            self.budget,
            self.tokens_free,
            self.batches,
            self.tasks,
            self.stolen_tasks,
            self.granted_tokens,
            self.inline_serial,
        )
    }
}

/// A fixed-size fork-join pool; see the crate docs.
///
/// The process-global instance ([`Executor::global`]) is sized by
/// `MMJOIN_THREADS` (when set) or the machine's available parallelism.
/// Subsystems that want their own budget (e.g. a [`Service`] arbitrating
/// intra- vs inter-query parallelism) construct one with
/// [`Executor::new`] and share it via `Arc`.
///
/// [`Service`]: https://docs.rs/mmjoin-service
pub struct Executor {
    shared: Arc<Shared>,
    budget: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("budget", &self.budget)
            .field("tokens_free", &self.tokens_free())
            .finish()
    }
}

impl Executor {
    /// A pool with `budget` total threads of parallelism: the caller of
    /// each [`run`](Executor::run) plus `budget − 1` pool workers.
    /// `budget = 0` means "all available parallelism".
    pub fn new(budget: usize) -> Self {
        let budget = if budget == 0 {
            available_parallelism()
        } else {
            budget
        };
        let helpers = budget.saturating_sub(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tokens_free: AtomicUsize::new(helpers),
            batches: AtomicU64::new(0),
            tasks_run: AtomicU64::new(0),
            stolen_tasks: AtomicU64::new(0),
            granted_tokens: AtomicU64::new(0),
            inline_serial: AtomicU64::new(0),
        });
        let workers = (0..helpers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mmjoin-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Self {
            shared,
            budget,
            workers: Mutex::new(workers),
        }
    }

    /// The process-global executor, sized once from `MMJOIN_THREADS` or
    /// the available parallelism. Code paths without an explicitly
    /// plumbed executor run here.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let budget = std::env::var("MMJOIN_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(available_parallelism);
            Executor::new(budget)
        })
    }

    /// Total thread budget (callers + pool workers), at least 1.
    pub fn budget(&self) -> usize {
        self.budget.max(1)
    }

    /// Helper tokens currently unclaimed — `budget() − 1` when idle.
    pub fn tokens_free(&self) -> usize {
        self.shared.tokens_free.load(Ordering::Relaxed)
    }

    /// Snapshot of the pool's lifetime counters.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            budget: self.budget(),
            tokens_free: self.tokens_free(),
            batches: self.shared.batches.load(Ordering::Relaxed),
            tasks: self.shared.tasks_run.load(Ordering::Relaxed),
            stolen_tasks: self.shared.stolen_tasks.load(Ordering::Relaxed),
            granted_tokens: self.shared.granted_tokens.load(Ordering::Relaxed),
            inline_serial: self.shared.inline_serial.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the lifetime counters (`stats reset`); the token state is
    /// live bookkeeping and is left alone.
    pub fn reset_stats(&self) {
        self.shared.batches.store(0, Ordering::Relaxed);
        self.shared.tasks_run.store(0, Ordering::Relaxed);
        self.shared.stolen_tasks.store(0, Ordering::Relaxed);
        self.shared.granted_tokens.store(0, Ordering::Relaxed);
        self.shared.inline_serial.store(0, Ordering::Relaxed);
    }

    /// Takes up to `want` helper tokens, returning the grant.
    fn acquire_tokens(&self, want: usize) -> usize {
        let free = &self.shared.tokens_free;
        let mut cur = free.load(Ordering::Relaxed);
        loop {
            let take = want.min(cur);
            if take == 0 {
                return 0;
            }
            match free.compare_exchange_weak(cur, cur - take, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return take,
                Err(now) => cur = now,
            }
        }
    }

    fn release_tokens(&self, n: usize) {
        if n > 0 {
            self.shared.tokens_free.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Executes `f(0), f(1), …, f(tasks − 1)` with up to `parallelism`
    /// threads (the caller plus granted pool helpers), returning when
    /// every call has finished. The task decomposition — and therefore
    /// any output assembled per task index — is independent of the
    /// grant, so results are deterministic. Panics in any task resume on
    /// this thread after the batch completes.
    pub fn run<F: Fn(usize) + Sync>(&self, parallelism: usize, tasks: usize, f: F) {
        if tasks == 0 {
            return;
        }
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        self.shared
            .tasks_run
            .fetch_add(tasks as u64, Ordering::Relaxed);
        let want_helpers = parallelism.max(1).min(tasks) - 1;
        let granted = if want_helpers == 0 {
            0
        } else {
            self.acquire_tokens(want_helpers)
        };
        if granted == 0 {
            if want_helpers > 0 {
                self.shared.inline_serial.fetch_add(1, Ordering::Relaxed);
            }
            // No helpers (serial request, exhausted budget, or a
            // zero-worker pool): plain inline loop, no erasure needed.
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        self.shared
            .granted_tokens
            .fetch_add(granted as u64, Ordering::Relaxed);

        // When the submitting thread is part of a trace, tasks executed
        // by pool workers must contribute their spans to the same trace:
        // wrap the body so each invocation installs (and panic-safely
        // restores) the submitter's ctx. The wrapper is chosen *before*
        // lifetime erasure, so a disabled tracer costs one atomic load
        // per batch and the raw closure runs unwrapped.
        match trace::current_if_enabled() {
            Some(ctx) => {
                let wrapped = move |i: usize| {
                    let _ctx = trace::install(Some(ctx));
                    f(i);
                };
                self.run_batch(granted, tasks, &wrapped);
            }
            None => self.run_batch(granted, tasks, &f),
        }
    }

    /// Submits the erased batch and drains it as a participant; split
    /// out of [`run`](Executor::run) so the traced and untraced paths
    /// share one unsafe block.
    fn run_batch(&self, granted: usize, tasks: usize, f_obj: &(dyn Fn(usize) + Sync)) {
        // SAFETY: erases the stack lifetime of `f` in the stored pointer;
        // the wait below keeps `f` alive until every claimed task
        // returned (see `Batch::work`).
        let f_ptr: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_obj) };
        let batch = Arc::new(Batch {
            f: f_ptr,
            tasks,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        });
        {
            let mut q = lock(&self.shared.queue);
            for _ in 0..granted {
                q.push_back(Arc::clone(&batch));
            }
        }
        if granted == 1 {
            self.shared.work_available.notify_one();
        } else {
            self.shared.work_available.notify_all();
        }

        // The caller is always one of the batch's threads.
        let _ = batch.work();
        {
            let mut g = lock(&batch.done_lock);
            while batch.completed.load(Ordering::Acquire) < tasks {
                g = batch.done.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.release_tokens(granted);
        let payload = lock(&batch.panic).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// [`run`](Executor::run) collecting each task's return value, in
    /// task order.
    pub fn map<T, F>(&self, parallelism: usize, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        self.run(parallelism, tasks, |i| {
            *lock(&slots[i]) = Some(f(i));
        });
        slots
            .into_iter()
            .map(|slot| {
                lock(&slot)
                    .take()
                    .expect("every task index ran to completion")
            })
            .collect()
    }

    /// Splits `items` into at most `parallelism` contiguous chunks
    /// (`len.div_ceil(parallelism)` each — the workspace's historical
    /// static partitioning) and maps `f` over them, preserving chunk
    /// order. Empty input yields no chunks.
    pub fn map_chunks<T, R, F>(&self, parallelism: usize, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let parts = parallelism.max(1).min(items.len());
        let chunks: Vec<&[T]> = items.chunks(items.len().div_ceil(parts)).collect();
        self.map(parts, chunks.len(), |i| f(chunks[i]))
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // lint:allow(seqcst): the shutdown latch must be globally
        // ordered with the queue mutex and notify_all so no worker can
        // observe a stale `false` after waking and sleep forever.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_available.notify_all();
        for handle in lock(&self.workers).drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut q = lock(&shared.queue);
            loop {
                // lint:allow(seqcst): pairs with the SeqCst store in
                // `Drop for Executor`; the latch check and queue pop
                // must not be reordered across the condvar wait.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(batch) = q.pop_front() {
                    break batch;
                }
                q = shared
                    .work_available
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let stolen = batch.work();
        if stolen > 0 {
            shared
                .stolen_tasks
                .fetch_add(stolen as u64, Ordering::Relaxed);
        }
    }
}

/// `std::thread::available_parallelism`, defaulting to 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_budget_runs_inline() {
        let exec = Executor::new(1);
        assert_eq!(exec.budget(), 1);
        assert_eq!(exec.tokens_free(), 0);
        let hits = AtomicUsize::new(0);
        exec.run(8, 10, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn map_preserves_task_order() {
        let exec = Executor::new(4);
        let out = exec.map(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        // Tokens return after every batch.
        assert_eq!(exec.tokens_free(), 3);
    }

    #[test]
    fn map_chunks_matches_serial_partitioning() {
        let exec = Executor::new(3);
        let items: Vec<u64> = (0..997).collect();
        for parallelism in [1, 2, 3, 8, 997, 2000] {
            let sums = exec.map_chunks(parallelism, &items, |chunk| chunk.iter().sum::<u64>());
            assert_eq!(
                sums.len(),
                items
                    .chunks(items.len().div_ceil(parallelism.min(items.len())))
                    .count()
            );
            assert_eq!(sums.iter().sum::<u64>(), items.iter().sum::<u64>());
        }
        assert!(exec.map_chunks(4, &[] as &[u64], |_| 0u64).is_empty());
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let exec = Executor::new(4);
        let total = AtomicU64::new(0);
        exec.run(4, 8, |i| {
            // Inner batches contend for the same tokens; the caller
            // always drains its own batch, so this completes even when
            // every helper token is taken.
            exec.run(4, 8, |j| {
                total.fetch_add((i * 8 + j) as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..64).sum::<u64>());
        assert_eq!(exec.tokens_free(), 3);
    }

    #[test]
    fn panicking_task_resumes_on_caller_and_pool_survives() {
        let exec = Executor::new(4);
        let before = exec.tokens_free();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.run(4, 16, |i| {
                if i == 7 {
                    panic!("boom at {i}");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate to the submitter");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom"), "{msg}");
        // Tokens returned, workers alive: the next batch still runs.
        assert_eq!(exec.tokens_free(), before);
        let hits = AtomicUsize::new(0);
        exec.run(4, 32, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn concurrent_batches_split_the_token_budget() {
        let exec = Arc::new(Executor::new(4));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let exec = Arc::clone(&exec);
                let in_flight = Arc::clone(&in_flight);
                let peak = Arc::clone(&peak);
                scope.spawn(move || {
                    exec.run(4, 64, |_| {
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                    });
                });
            }
        });
        // 4 submitters + 3 helper tokens: never more than budget+callers.
        assert!(peak.load(Ordering::SeqCst) <= 7, "{peak:?}");
        assert_eq!(exec.tokens_free(), 3);
    }

    #[test]
    fn global_executor_is_usable() {
        let exec = Executor::global();
        assert!(exec.budget() >= 1);
        let out = exec.map(exec.budget(), 9, |i| i + 1);
        assert_eq!(out, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn stats_count_batches_grants_and_steals() {
        let exec = Executor::new(4);
        assert_eq!(exec.stats().batches, 0);
        // A batch big enough that helpers almost surely steal some work.
        exec.run(4, 10_000, |_| {});
        let s = exec.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.tasks, 10_000);
        assert_eq!(s.granted_tokens, 3);
        assert_eq!(s.inline_serial, 0);
        assert!(s.stolen_tasks <= s.tasks);
        // A parallelism-1 request wants no helpers: not a degradation.
        exec.run(1, 5, |_| {});
        assert_eq!(exec.stats().inline_serial, 0);
        exec.reset_stats();
        let s = exec.stats();
        assert_eq!((s.batches, s.tasks, s.granted_tokens), (0, 0, 0));
        assert_eq!(s.budget, 4);

        // On a zero-helper pool, wanting parallelism degrades inline.
        let serial = Executor::new(1);
        serial.run(8, 4, |_| {});
        assert_eq!(serial.stats().inline_serial, 1);
        let display = format!("{}", serial.stats());
        assert!(display.contains("inline degradations 1"), "{display}");
    }

    #[test]
    fn trace_ctx_propagates_to_stolen_tasks() {
        use mmjoin_obs::trace::{self, Stage, Tracer};
        let exec = Executor::new(4);
        let tracer = Tracer::global();
        tracer.set_enabled(true);
        let seen: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let expected = {
            let root = tracer.begin_forced("propagation test").unwrap();
            let trace_id = root.ctx().trace;
            exec.run(4, 64, |i| {
                let _s = trace::span(Stage::Step, "task");
                seen[i].store(
                    trace::current().map(|c| c.trace).unwrap_or(0),
                    Ordering::Relaxed,
                );
                // Give helpers a chance to actually steal.
                std::thread::yield_now();
            });
            trace_id
        };
        tracer.set_enabled(false);
        // Every task — caller-run or stolen — observed the same trace.
        for (i, slot) in seen.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), expected, "task {i}");
        }
        // And their spans landed in that trace's tree.
        let t = tracer.spans_of(expected).expect("trace retained");
        let steps = t.spans.iter().filter(|s| s.stage == Stage::Step).count();
        assert_eq!(steps, 64);
        // The pool workers' thread-locals were restored.
        exec.run(4, 8, |_| {
            assert_eq!(trace::current(), None);
        });
    }

    #[test]
    fn determinism_across_pool_sizes() {
        let items: Vec<u32> = (0..1000).map(|i| i * 7 % 313).collect();
        let reference: Vec<Vec<u32>> = Executor::new(1).map_chunks(4, &items, |c| c.to_vec());
        for budget in [2, 4, 8] {
            let exec = Executor::new(budget);
            for _ in 0..3 {
                assert_eq!(
                    exec.map_chunks(4, &items, |c| c.to_vec()),
                    reference,
                    "budget={budget}"
                );
            }
        }
    }
}
