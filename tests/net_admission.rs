//! Admission-control stress for the TCP front end: more in-flight work
//! than the queue bound must bounce with OVERLOADED *promptly* (from
//! the reader thread, not after the queue drains), every accepted
//! query must complete with rows identical to a serial replay, a
//! modest client must keep completing while a chatty one floods
//! (per-client fairness floor), and `shutdown` must drain admitted
//! jobs before the server stops.
//!
//! The admission queue is the only queue and its dispatchers the only
//! threads that compute, so the second half pins that down with a probe
//! engine: a query runs on the thread that took it off the queue,
//! `dispatchers` is exactly the number in flight, and an engine panic
//! costs one request, not a dispatcher. A cache hit computes nothing and
//! never queues: the reader of its connection answers it, while the only
//! dispatcher is busy and without a slot of a queue that is full.
//!
//! The last three tests are the census of what a connection costs the
//! server: one thread while it lives, no thread and no descriptor after
//! it ends, and one lock under which whoever produced a response writes
//! its frame whole.

use mmjoin::{Engine, EngineError, EngineRegistry, ExecStats, Query, QueryFamily, Sink};
use mmjoin_net::{serve, Client, NetConfig, Server, Status};
use mmjoin_service::{command, Request, Service, ServiceConfig};
use mmjoin_storage::Relation;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// `ok rows <n> …` → n.
fn rows_of(body: &str) -> u64 {
    let mut it = body.split_whitespace();
    assert_eq!(it.next(), Some("ok"), "{body}");
    assert_eq!(it.next(), Some("rows"), "{body}");
    it.next().unwrap().parse().unwrap()
}

/// Distinct `min <i>` thresholds keep every query cold (distinct
/// fingerprints), so each one costs real execution time and the queue
/// genuinely backs up behind a single dispatcher.
fn cold_query(i: u32) -> String {
    format!("query twopath R R min {i}")
}

const GEN: &str = "gen R Jokes 0.15";

#[test]
fn overloaded_is_prompt_and_accepted_queries_complete_correctly() {
    let service = Arc::new(Service::with_default_registry());
    let server = serve(
        service,
        NetConfig {
            queue_capacity: 3,
            per_client_quota: 3,
            dispatchers: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.call(GEN).unwrap().status, Status::Ok);

    // Burst: pipeline far more work than the queue bound in one go.
    let lines: Vec<String> = (1..=10).map(cold_query).collect();
    let mut by_id: HashMap<u64, String> = HashMap::new();
    for line in &lines {
        by_id.insert(c.send(line).unwrap(), line.clone());
    }

    let mut rows: HashMap<String, u64> = HashMap::new();
    let mut bounced: Vec<String> = Vec::new();
    let mut ok_after_bounce = false;
    for _ in 0..lines.len() {
        let resp = c.recv().unwrap();
        match resp.status {
            Status::Ok => {
                if !bounced.is_empty() {
                    ok_after_bounce = true;
                }
                rows.insert(by_id[&resp.id].clone(), rows_of(&resp.body));
            }
            Status::Overloaded => bounced.push(by_id[&resp.id].clone()),
            other => panic!("unexpected status {other} ({})", resp.body),
        }
    }
    assert!(
        !bounced.is_empty(),
        "a 10-deep burst against a queue of 3 must bounce"
    );
    // (a) Promptness: bounces were answered while accepted queries were
    // still executing — i.e. some Ok arrived *after* an OVERLOADED,
    // which is impossible if rejections waited for the queue to drain.
    assert!(
        ok_after_bounce,
        "OVERLOADED must be answered immediately at admission time"
    );

    // (b) Bounced work retried until admitted: everything completes.
    for line in bounced {
        loop {
            let resp = c.call(&line).unwrap();
            match resp.status {
                Status::Ok => {
                    rows.insert(line.clone(), rows_of(&resp.body));
                    break;
                }
                Status::Overloaded => std::thread::sleep(Duration::from_millis(20)),
                other => panic!("unexpected status {other} ({})", resp.body),
            }
        }
    }

    // Correctness: every accepted answer matches a serial replay.
    let serial = Service::with_default_registry();
    command::run_line(&serial, GEN).unwrap();
    for line in &lines {
        let body = command::run_line(&serial, line).unwrap();
        assert_eq!(
            rows[line],
            rows_of(&body),
            "{line} diverged from serial replay"
        );
    }

    // Bounded memory: the queue's high-water mark respects its bound.
    let m = server.metrics();
    assert!(
        m.max_queue_depth <= 3,
        "queue depth {} exceeded bound 3",
        m.max_queue_depth
    );
    assert!(m.rejected_overloaded >= 1);
    server.shutdown();
    server.wait();
}

#[test]
fn chatty_client_cannot_starve_a_modest_one() {
    const CHATTY_TOTAL: u64 = 30;
    const MODEST_TOTAL: u64 = 6;

    let service = Arc::new(Service::with_default_registry());
    // Quota 4 < capacity 8: the chatty client can never fill admission,
    // so the modest client is never bounced — fairness at admission.
    let server = serve(
        service,
        NetConfig {
            queue_capacity: 8,
            per_client_quota: 4,
            dispatchers: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let mut setup = Client::connect(addr).unwrap();
    assert_eq!(setup.call(GEN).unwrap().status, Status::Ok);

    let chatty_done = AtomicU64::new(0);
    let chatty_done_when_modest_finished = AtomicU64::new(u64::MAX);

    std::thread::scope(|scope| {
        let chatty_done = &chatty_done;
        let observed = &chatty_done_when_modest_finished;

        // Chatty: keeps a 4-deep pipeline full for 30 cold queries,
        // immediately retrying anything the quota bounces.
        scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut next: u32 = 0;
            let mut in_flight: HashMap<u64, String> = HashMap::new();
            let mut completed = 0u64;
            while completed < CHATTY_TOTAL {
                while in_flight.len() < 4 && next < CHATTY_TOTAL as u32 {
                    let line = cold_query(next + 1);
                    next += 1;
                    in_flight.insert(c.send(&line).unwrap(), line);
                }
                let resp = c.recv().unwrap();
                let line = in_flight.remove(&resp.id).expect("unknown id");
                match resp.status {
                    Status::Ok => {
                        completed += 1;
                        chatty_done.fetch_add(1, Ordering::SeqCst);
                    }
                    // Quota bounce: retry the same line.
                    Status::Overloaded => {
                        in_flight.insert(c.send(&line).unwrap(), line);
                    }
                    other => panic!("chatty: unexpected status {other} ({})", resp.body),
                }
            }
        });

        // Modest: 6 sequential cold queries; records how far the
        // chatty client had gotten when it finished.
        scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..MODEST_TOTAL as u32 {
                let resp = c.call(&cold_query(1000 + i)).unwrap();
                assert_eq!(
                    resp.status,
                    Status::Ok,
                    "modest client must never be bounced (quota shields it): {}",
                    resp.body
                );
            }
            observed.store(chatty_done.load(Ordering::SeqCst), Ordering::SeqCst);
        });
    });

    assert_eq!(chatty_done.load(Ordering::SeqCst), CHATTY_TOTAL);
    let observed = chatty_done_when_modest_finished.load(Ordering::SeqCst);
    // Fairness floor: round-robin alternates the two clients, so the
    // modest client's 6 queries finish after ~12 dispatch slots. If the
    // chatty backlog were drained FIFO instead, the modest client would
    // sit behind ~4 chatty jobs per query (~24+ completions). The bound
    // splits those regimes with slack for scheduling noise.
    assert!(
        observed <= 20,
        "modest client starved: chatty completed {observed}/{CHATTY_TOTAL} \
         before the modest client's {MODEST_TOTAL} queries finished"
    );

    let m = server.metrics();
    assert!(m.max_queue_depth <= 8);
    // Per-client counters saw all three connections (setup + 2).
    assert!(m.per_client_served.len() >= 3);
    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_drains_admitted_work_then_refuses_new_work() {
    let service = Arc::new(Service::with_default_registry());
    let server = serve(
        service,
        NetConfig {
            queue_capacity: 8,
            per_client_quota: 8,
            dispatchers: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let mut a = Client::connect(addr).unwrap();
    assert_eq!(a.call(GEN).unwrap().status, Status::Ok);

    // A pipelines slow work; B asks for shutdown while it is queued.
    let ids: Vec<u64> = (1..=3).map(|i| a.send(&cold_query(i)).unwrap()).collect();
    // Wait until the reader has decoded A's whole burst (GEN + 3 = 4
    // requests; nothing is shutting down yet and the queue has room, so
    // decoded means admitted). A fixed sleep here raced the reader
    // thread on contended single-core hosts.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().requests < 4 {
        assert!(
            std::time::Instant::now() < deadline,
            "A's burst was never decoded: {:?}",
            server.metrics()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut b = Client::connect(addr).unwrap();
    let bye = b.call("shutdown").unwrap();
    assert_eq!(bye.status, Status::Ok);
    assert_eq!(bye.body, "ok shutting down");

    // Round-robin interleaves B's shutdown with A's backlog, so at
    // least A's last query is drained *after* the server has already
    // begun shutting down — and is still answered.
    for id in ids {
        let resp = a.recv().unwrap();
        assert_eq!(resp.id, id);
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        assert!(resp.body.starts_with("ok rows "), "{}", resp.body);
    }

    // New work on the still-open connection is refused, not queued — and
    // so is a request whose answer is cached by now: past the latch the
    // reader answers nothing, hit or not.
    for line in ["stats", &cold_query(1)] {
        let refused = a.call(line).unwrap();
        assert_eq!(refused.status, Status::ShuttingDown, "{}", refused.body);
    }

    let m = server.metrics();
    assert!(m.rejected_shutting_down >= 1);
    server.wait();
}

/// What the probe engine saw of how it was run.
#[derive(Default)]
struct ProbeLog {
    /// The thread of each execution, in order.
    threads: Mutex<Vec<ThreadId>>,
    in_flight: AtomicUsize,
    /// Most executions ever running at the same time.
    high_water: AtomicUsize,
}

/// A two-path engine that emits nothing, holds its thread for `hold`
/// and logs how it was run; `min 99` makes it panic instead.
struct Probe {
    log: Arc<ProbeLog>,
    hold: Duration,
}

const PROBE: &str = "query twopath R R engine Probe";
const PROBE_PANIC: &str = "query twopath R R min 99 engine Probe";

impl Engine for Probe {
    fn name(&self) -> &str {
        "Probe"
    }
    fn supports(&self, query: &Query<'_>) -> bool {
        query.family() == QueryFamily::TwoPath
    }
    fn execute(&self, query: &Query<'_>, _sink: &mut dyn Sink) -> Result<ExecStats, EngineError> {
        if matches!(query, Query::TwoPath { min_count: 99, .. }) {
            panic!("probe told to panic");
        }
        self.log
            .threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        let running = self.log.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.log.high_water.fetch_max(running, Ordering::Relaxed);
        std::thread::sleep(self.hold);
        self.log.in_flight.fetch_sub(1, Ordering::Relaxed);
        Ok(ExecStats::new("Probe", 0))
    }
}

/// A service whose only engine is the probe, uncached so that every
/// request executes, behind a server with `dispatchers` dispatchers.
fn probe_server(dispatchers: usize, hold: Duration) -> (Arc<Service>, Server, Arc<ProbeLog>) {
    let net = NetConfig {
        dispatchers,
        ..NetConfig::default()
    };
    probe_server_with(0, net, hold)
}

/// The same with a result cache of `cache_capacity` entries and every
/// front-end knob given.
fn probe_server_with(
    cache_capacity: usize,
    net: NetConfig,
    hold: Duration,
) -> (Arc<Service>, Server, Arc<ProbeLog>) {
    let log = Arc::new(ProbeLog::default());
    let mut registry = EngineRegistry::new();
    registry.register(Box::new(Probe {
        log: Arc::clone(&log),
        hold,
    }));
    let service = Arc::new(Service::new(
        registry,
        ServiceConfig {
            cache_capacity,
            ..ServiceConfig::default()
        },
    ));
    service.register("R", Relation::from_edges([(0, 0), (1, 0)]));
    let server = serve(Arc::clone(&service), net).unwrap();
    (service, server, log)
}

/// A probe request no other shares a fingerprint with: a miss, every time.
fn cold_probe(i: u32) -> String {
    format!("query twopath R R limit {i} engine Probe")
}

#[test]
fn a_hit_is_answered_by_its_reader_and_a_miss_by_the_dispatcher() {
    const HOLD: Duration = Duration::from_millis(300);
    let net = NetConfig {
        dispatchers: 1,
        ..NetConfig::default()
    };
    let (_service, server, log) = probe_server_with(16, net, HOLD);
    let mut c = Client::connect(server.addr()).unwrap();

    // The miss executes, on the dispatcher; the repeat executes nothing.
    let cold = c.call(PROBE).unwrap();
    assert!(cold.body.contains("cached false"), "{}", cold.body);
    let dispatcher = log.threads.lock().unwrap()[0];
    assert_ne!(dispatcher, std::thread::current().id());
    let warm = c.call(PROBE).unwrap();
    assert!(warm.body.contains("cached true"), "{}", warm.body);
    assert_eq!(*log.threads.lock().unwrap(), [dispatcher]);

    // Who wrote that answer: hold the only dispatcher inside the engine
    // with another connection's miss, and ask again. The hit comes back
    // while the engine is still running, so the dispatcher did not write
    // it — which leaves the connection's own reader.
    let mut other = Client::connect(server.addr()).unwrap();
    let slow = other.send(&cold_probe(1)).unwrap();
    while log.in_flight.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    let warm = c.call(PROBE).unwrap();
    assert!(warm.body.contains("cached true"), "{}", warm.body);
    assert_eq!(
        log.in_flight.load(Ordering::Relaxed),
        1,
        "answered while the only dispatcher was busy"
    );
    assert_eq!(other.recv().unwrap().id, slow);
    assert_eq!(*log.threads.lock().unwrap(), [dispatcher, dispatcher]);

    let m = server.metrics();
    assert_eq!((m.served, m.served_inline), (4, 2), "{m:?}");
    server.shutdown();
    server.wait();
}

#[test]
fn hits_take_no_slot_and_do_not_delay_a_cold_query() {
    const HOLD: Duration = Duration::from_millis(20);
    const COLD: u32 = 9;
    // One dispatcher and a queue of one: if a hit took a slot, the client
    // pipelining them would be bounced at once — and so would the other.
    let net = NetConfig {
        queue_capacity: 1,
        dispatchers: 1,
        ..NetConfig::default()
    };
    let (_service, server, _log) = probe_server_with(64, net, HOLD);
    let addr = server.addr();
    let mut quiet = Client::connect(addr).unwrap();
    assert_eq!(quiet.call(PROBE).unwrap().status, Status::Ok);

    // The quiet client's cold queries, one at a time: median latency.
    let mut next_cold = 0;
    let mut cold_median = |client: &mut Client| {
        let mut took: Vec<Duration> = (0..COLD)
            .map(|_| {
                next_cold += 1;
                let asked = Instant::now();
                let resp = client.call(&cold_probe(next_cold)).unwrap();
                assert_eq!(resp.status, Status::Ok, "{}", resp.body);
                assert!(resp.body.contains("cached false"), "{}", resp.body);
                asked.elapsed()
            })
            .collect();
        took.sort();
        took[took.len() / 2]
    };
    let solo = cold_median(&mut quiet);

    let stop = AtomicU64::new(0);
    let (loaded, hits) = std::thread::scope(|scope| {
        // Hits as fast as one connection takes them, 32 in flight.
        let hammer = scope.spawn(|| {
            let mut c = Client::connect(addr).unwrap();
            let mut hits = 0u64;
            while stop.load(Ordering::Relaxed) == 0 {
                for _ in 0..32 {
                    c.send(PROBE).unwrap();
                }
                for _ in 0..32 {
                    let resp = c.recv().unwrap();
                    assert_eq!(resp.status, Status::Ok, "{}", resp.body);
                    assert!(resp.body.contains("cached true"), "{}", resp.body);
                    hits += 1;
                }
            }
            hits
        });
        let loaded = cold_median(&mut quiet);
        stop.store(1, Ordering::Relaxed);
        (loaded, hammer.join().unwrap())
    });
    assert!(
        loaded < 2 * solo,
        "a cold query took {loaded:?} beside {hits} hits, {solo:?} alone"
    );
    let m = server.metrics();
    assert_eq!(m.rejected_overloaded, 0, "{m:?}");
    assert_eq!(m.served_inline, hits, "{m:?}");
    assert!(
        hits > 10 * COLD as u64,
        "{hits} hits beside {COLD} cold queries"
    );
    server.shutdown();
    server.wait();
}

#[test]
fn a_panic_behind_a_reader_side_miss_costs_one_request() {
    let net = NetConfig {
        dispatchers: 1,
        ..NetConfig::default()
    };
    let (service, server, _log) = probe_server_with(16, net, Duration::ZERO);
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.call(PROBE).unwrap().status, Status::Ok);

    // The reader finds no cached answer and queues the request; the engine
    // panics on the dispatcher; the answer says so…
    let boom = c.call(PROBE_PANIC).unwrap();
    assert_eq!(boom.status, Status::Err, "{}", boom.body);
    assert!(boom.body.starts_with("internal error: "), "{}", boom.body);
    assert_eq!(service.metrics().errors, 1);
    // …and both threads of this connection's path go on: a hit from the
    // reader, a miss from the dispatcher.
    let warm = c.call(PROBE).unwrap();
    assert!(warm.body.contains("cached true"), "{}", warm.body);
    let cold = c.call(&cold_probe(1)).unwrap();
    assert!(cold.body.contains("cached false"), "{}", cold.body);
    server.shutdown();
    server.wait();
}

#[test]
fn a_query_runs_on_the_thread_that_admitted_it() {
    let (service, server, log) = probe_server(1, Duration::ZERO);

    // In process the admitting thread is the caller's.
    service
        .query(Request::two_path("R", "R").on_engine("Probe"))
        .unwrap();
    let here = std::thread::current().id();
    assert_eq!(*log.threads.lock().unwrap(), [here]);

    // Over the wire it is the dispatcher: with one dispatcher, requests of
    // two connections run on one and the same thread — so that thread is
    // neither connection's reader — and it is not this one. (That the
    // service spawned no thread of its own is mmjoin-lint's to check: the
    // `thread-spawn` rule has no allowance left under `crates/service`.)
    for _ in 0..2 {
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(c.call(PROBE).unwrap().status, Status::Ok);
    }
    let threads = log.threads.lock().unwrap().clone();
    assert_eq!(threads.len(), 3);
    assert_eq!(threads[1], threads[2], "one dispatcher, one thread");
    assert_ne!(threads[1], here);
    server.shutdown();
    server.wait();
}

/// Pipelines `each` probe requests on each of `clients` connections and
/// waits for every answer.
fn flood(server: &Server, clients: usize, each: usize) {
    let addr = server.addr();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..each {
                    c.send(PROBE).unwrap();
                }
                for _ in 0..each {
                    let resp = c.recv().unwrap();
                    assert_eq!(resp.status, Status::Ok, "{}", resp.body);
                }
            });
        }
    });
}

#[test]
fn dispatchers_is_the_number_of_requests_in_flight() {
    let (_service, server, log) = probe_server(2, Duration::from_millis(10));
    // 32 requests are waiting or running at once; two run.
    flood(&server, 8, 4);
    assert_eq!(log.threads.lock().unwrap().len(), 32);
    assert_eq!(log.high_water.load(Ordering::Relaxed), 2);
    assert_eq!(server.metrics().rejected_overloaded, 0);
    server.shutdown();
    server.wait();
}

#[test]
fn an_engine_panic_over_the_wire_costs_one_request() {
    let (service, server, log) = probe_server(2, Duration::from_millis(10));
    let mut c = Client::connect(server.addr()).unwrap();

    let boom = c.call(PROBE_PANIC).unwrap();
    assert_eq!(boom.status, Status::Err, "{}", boom.body);
    assert!(
        boom.body.starts_with("internal error: ") && boom.body.contains("probe told to panic"),
        "{}",
        boom.body
    );
    assert_eq!(service.metrics().errors, 1);

    // The connection is still served…
    assert_eq!(c.call(PROBE).unwrap().status, Status::Ok);
    assert_eq!(log.high_water.load(Ordering::Relaxed), 1);
    // …and no dispatcher died: two requests still run at once.
    flood(&server, 4, 4);
    assert_eq!(log.high_water.load(Ordering::Relaxed), 2);
    server.shutdown();
    server.wait();
}

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn an_ended_connection_leaves_no_descriptor_behind() {
    // The other tests of this file run in this process at the same time:
    // at their busiest they hold some 200 descriptors between them. The
    // leak this guards against is one per connection, 2000 by the end.
    const SLACK: usize = 400;

    let service = Arc::new(Service::with_default_registry());
    let server = serve(service, NetConfig::default()).unwrap();
    let before = open_descriptors();
    for cycle in 0..2000 {
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(c.call("help").unwrap().status, Status::Ok);
        drop(c);
        // Checked every cycle, so that a leak fails here and not at the
        // process's descriptor limit, where `accept` stops answering. An
        // entry in the server's registry of live connections owns a
        // descriptor: none left behind means the registry is empty too.
        let now = open_descriptors();
        assert!(
            now <= before + SLACK,
            "{now} descriptors open after {cycle} connections, {before} before the first"
        );
    }
    server.shutdown();
    server.wait();
}

/// The threads this test's thread started, directly or through one it
/// started. On Linux a thread is born with its creator's name and the
/// harness names a test's thread after the test, which keeps the threads
/// of the tests running beside this one out of the count; the executor
/// names its own.
fn threads_started_here() -> usize {
    let name = std::fs::read_to_string("/proc/thread-self/comm").unwrap();
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter(|task| {
            let comm = task.as_ref().unwrap().path().join("comm");
            // A thread may end between the listing and the read.
            std::fs::read_to_string(comm).is_ok_and(|c| c == name)
        })
        .count()
}

#[test]
fn a_connection_costs_one_thread() {
    const DISPATCHERS: usize = 3;
    const CONNECTIONS: usize = 24;

    let service = Arc::new(Service::with_default_registry());
    let before = threads_started_here();
    let server = serve(
        service,
        NetConfig {
            dispatchers: DISPATCHERS,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(server.addr()).unwrap())
        .collect();
    // One answer each: every connection is accepted and fully set up.
    for c in &mut clients {
        assert_eq!(c.call("help").unwrap().status, Status::Ok);
    }
    // The accept loop, the dispatchers, and a reader per connection.
    assert_eq!(
        threads_started_here() - before,
        1 + DISPATCHERS + CONNECTIONS
    );
    drop(clients);
    server.shutdown();
    server.wait();
    // All gone again (a joined thread stays listed for a moment).
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads_started_here() != before {
        assert!(Instant::now() < deadline, "threads outlive the server");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The rows a `show` answer prints, without its timing line.
fn shown(body: &str) -> Option<&str> {
    body.split_once('\n').map(|(_, rows)| rows)
}

/// The first `n` of the rows a `show` answer prints.
fn first_rows(body: &str, n: usize) -> Vec<&str> {
    let rows = shown(body).expect("rows shown");
    rows.lines().take(n).collect()
}

#[test]
fn replies_and_bounces_on_one_connection_never_interleave() {
    const CLIENTS: usize = 8;
    const PIPELINED: usize = 40;
    const SHOWN: usize = 4000;
    // ~40 KiB a reply: far more than one segment, so two writers on one
    // socket without the lock would cut into each other's frames.
    const HIT: &str = "query twopath R R show 4000";

    let service = Arc::new(Service::with_default_registry());
    let server = serve(
        service,
        NetConfig {
            queue_capacity: 8,
            per_client_quota: 2,
            dispatchers: 2,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let mut setup = Client::connect(addr).unwrap();
    assert_eq!(setup.call(GEN).unwrap().status, Status::Ok);
    let first = setup.call(HIT).unwrap().body;
    assert!(first.len() >= 40 << 10, "{} bytes", first.len());
    let expected = first_rows(&first, SHOWN);
    assert_eq!(expected.len(), SHOWN);
    let expected = &expected;

    // Three kinds of frame on every connection: the cached line, answered
    // by the connection's reader; lines nobody asked before (a `limit` of
    // their own each, past the rows shown, so the same 4000 rows lead the
    // answer), computed and answered by a dispatcher; and, with more of
    // those pipelined than the quota admits, the reader's bounces.
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut waiting: Vec<u64> = (0..PIPELINED)
                    .map(|i| {
                        let limit = SHOWN + 1 + client * PIPELINED + i;
                        let cold = format!("query twopath R R limit {limit} show {SHOWN}");
                        c.send(if i % 2 == 0 { &cold } else { HIT }).unwrap()
                    })
                    .collect();
                while !waiting.is_empty() {
                    // A frame cut into by another would fail to decode, or
                    // decode into an id never sent or rows never computed.
                    let resp = c.recv().expect("every frame decodes");
                    let at = waiting.iter().position(|&id| id == resp.id);
                    waiting.swap_remove(at.expect("an id sent and not yet answered"));
                    match resp.status {
                        Status::Ok => assert!(first_rows(&resp.body, SHOWN) == *expected),
                        Status::Overloaded => {}
                        other => panic!("unexpected status {other} ({})", resp.body),
                    }
                }
            });
        }
    });
    // All three kinds of writer were at work on the same connections: the
    // set-up connection accounts for two dispatcher-written replies.
    let m = server.metrics();
    let hits = (CLIENTS * PIPELINED / 2) as u64;
    assert_eq!(m.served_inline, hits, "{m:?}");
    assert!(m.rejected_overloaded > 0 && m.served > hits + 2, "{m:?}");
    server.shutdown();
    server.wait();
}
