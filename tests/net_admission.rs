//! Admission control for the TCP front end. A connection's reader runs
//! each of its requests to the answer after taking one of `dispatchers`
//! compute slots, granted in ticket order to at most `queue_capacity`
//! waiting readers. So: more waiting work than that bound must bounce with
//! OVERLOADED *promptly*, every accepted query must complete with rows
//! identical to a serial replay, a modest client must keep completing
//! while a chatty one floods, and `shutdown` must drain every request that
//! holds or waits for a slot before the server stops.
//!
//! The second half pins the threads down with a probe engine: a query runs
//! on the reader of the connection that sent it, `dispatchers` is exactly
//! the number in flight, and a panic — in an engine or anywhere else a
//! command runs — costs one request, not a thread or a slot. A cache hit
//! computes nothing and takes no slot: it is answered while another
//! connection holds the only one.
//!
//! The last three tests are the census of what a connection costs the
//! server — one thread while it lives, no thread and no descriptor after it
//! ends — and the order its answers come back in: the order sent.

use mmjoin::{Engine, EngineError, EngineRegistry, ExecStats, Query, QueryFamily, Sink};
use mmjoin_net::{serve, Client, NetConfig, Server, Status};
use mmjoin_service::{command, Request, Service, ServiceConfig};
use mmjoin_storage::Relation;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
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
/// fingerprints), so each one costs real execution time and readers
/// genuinely wait behind a single slot.
fn cold_query(i: u32) -> String {
    format!("query twopath R R min {i}")
}

const GEN: &str = "gen R Jokes 0.15";

/// Until `done` holds, or panics with `what` after ten seconds.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

// Keeps the old claims: bounces are prompt, admitted work completes
// correctly, and the waiting work is bounded. What is bounded is now the
// readers waiting for a slot, each holding one request, not a queue of
// jobs, so the burst comes from many connections, not from one that
// pipelines.
#[test]
fn overloaded_is_prompt_and_accepted_queries_complete_correctly() {
    const CONNECTIONS: u32 = 10;
    let service = Arc::new(Service::with_default_registry());
    let server = serve(
        service,
        NetConfig {
            queue_capacity: 3,
            dispatchers: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    assert_eq!(
        Client::connect(addr).unwrap().call(GEN).unwrap().status,
        Status::Ok
    );

    // Burst: ten connections send one cold query each, all at once.
    let start = Barrier::new(CONNECTIONS as usize);
    let answers: Vec<(String, Status, u64, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=CONNECTIONS)
            .map(|i| {
                let start = &start;
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let line = cold_query(i);
                    start.wait();
                    let resp = c.call(&line).unwrap();
                    let rows = match resp.status {
                        Status::Ok => rows_of(&resp.body),
                        Status::Overloaded => 0,
                        other => panic!("unexpected status {other} ({})", resp.body),
                    };
                    (line, resp.status, rows, Instant::now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let bounced: Vec<&String> = answers
        .iter()
        .filter(|a| a.1 == Status::Overloaded)
        .map(|a| &a.0)
        .collect();
    assert!(
        !bounced.is_empty(),
        "ten cold queries at once against one slot and three waiters must bounce"
    );
    // (a) Promptness: the first bounce was answered while accepted queries
    // were still executing — some Ok arrived *after* it, which is
    // impossible if a rejection waited for the readers ahead of it.
    let first_bounce = answers
        .iter()
        .filter(|a| a.1 == Status::Overloaded)
        .map(|a| a.3)
        .min()
        .unwrap();
    assert!(
        answers
            .iter()
            .any(|a| a.1 == Status::Ok && a.3 > first_bounce),
        "OVERLOADED must be answered immediately at admission time"
    );

    // (b) Bounced work retried until admitted: everything completes.
    let mut rows: HashMap<String, u64> = answers
        .iter()
        .filter(|a| a.1 == Status::Ok)
        .map(|a| (a.0.clone(), a.2))
        .collect();
    let mut c = Client::connect(addr).unwrap();
    for line in bounced {
        let resp = c.call(line).unwrap();
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        rows.insert(line.clone(), rows_of(&resp.body));
    }

    // Correctness: every accepted answer matches a serial replay.
    let serial = Service::with_default_registry();
    command::run_line(&serial, GEN).unwrap();
    for i in 1..=CONNECTIONS {
        let line = cold_query(i);
        let body = command::run_line(&serial, &line).unwrap();
        assert_eq!(
            rows[&line],
            rows_of(&body),
            "{line} diverged from serial replay"
        );
    }

    // Bounded waiting: the high-water mark of waiting readers respects its
    // bound.
    let m = server.metrics();
    assert!(
        m.max_queue_depth <= 3,
        "{} readers waited, bound 3",
        m.max_queue_depth
    );
    assert!(m.rejected_overloaded >= 1);
    server.shutdown();
    server.wait();
}

// Keeps the old claim: a chatty client cannot starve a modest one. The
// per-client quota and per-client FIFOs that made it so are gone; a
// connection's reader holds at most one ticket, so the FIFO tickets
// alternate the two clients, and the chatty client's pipeline waits in
// its socket instead of being bounced.
#[test]
fn chatty_client_cannot_starve_a_modest_one() {
    const CHATTY_TOTAL: u64 = 30;
    const MODEST_TOTAL: u64 = 6;

    let service = Arc::new(Service::with_default_registry());
    let server = serve(
        service,
        NetConfig {
            queue_capacity: 8,
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

        // Chatty: keeps a 4-deep pipeline full for 30 cold queries.
        scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut next: u32 = 0;
            let mut in_flight = 0;
            let mut completed = 0u64;
            while completed < CHATTY_TOTAL {
                while in_flight < 4 && next < CHATTY_TOTAL as u32 {
                    next += 1;
                    c.send(&cold_query(next)).unwrap();
                    in_flight += 1;
                }
                let resp = c.recv().unwrap();
                assert_eq!(resp.status, Status::Ok, "chatty: {}", resp.body);
                in_flight -= 1;
                completed += 1;
                chatty_done.fetch_add(1, Ordering::SeqCst);
            }
        });

        // Modest: 6 sequential cold queries; records how far the
        // chatty client had gotten when it finished.
        scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..MODEST_TOTAL as u32 {
                let resp = c.call(&cold_query(1000 + i)).unwrap();
                assert_eq!(resp.status, Status::Ok, "modest: {}", resp.body);
            }
            observed.store(chatty_done.load(Ordering::SeqCst), Ordering::SeqCst);
        });
    });

    assert_eq!(chatty_done.load(Ordering::SeqCst), CHATTY_TOTAL);
    let observed = chatty_done_when_modest_finished.load(Ordering::SeqCst);
    // Fairness floor: the tickets alternate the two clients, so the
    // modest client's 6 queries finish after ~12 slots. If the chatty
    // backlog were served first instead, the modest client would sit
    // behind ~4 chatty queries per query (~24+ completions). The bound
    // splits those regimes with slack for scheduling noise.
    assert!(
        observed <= 20,
        "modest client starved: chatty completed {observed}/{CHATTY_TOTAL} \
         before the modest client's {MODEST_TOTAL} queries finished"
    );

    let m = server.metrics();
    // A connection waits for one slot at most, so two clients are two
    // waiters at most (both, when one gives the slot back and asks again
    // before the other has taken it).
    assert!(m.max_queue_depth <= 2, "{m:?}");
    assert_eq!(m.rejected_overloaded, 0, "{m:?}");
    // Per-client counters saw all three connections (setup + 2).
    assert!(m.per_client_served.len() >= 3);
    server.shutdown();
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
/// request executes, behind a server with `dispatchers` compute slots.
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

// Keeps the old claim: shutdown drains admitted work, then refuses new
// work. Admitted now means holding or waiting for a slot; a request still
// in its socket when the latch flips is new work.
#[test]
fn shutdown_drains_admitted_work_then_refuses_new_work() {
    const HOLD: Duration = Duration::from_millis(200);
    let net = NetConfig {
        dispatchers: 1,
        ..NetConfig::default()
    };
    let (_service, server, log) = probe_server_with(16, net, HOLD);
    let addr = server.addr();

    // A holds the only slot and pipelines two more behind it; C waits for
    // the slot; B asks for shutdown, and waits behind C.
    let mut a = Client::connect(addr).unwrap();
    let a_ids: Vec<u64> = [1, 2, 3].map(|i| a.send(&cold_probe(i)).unwrap()).to_vec();
    wait_until("A's first request to run", || {
        log.in_flight.load(Ordering::Relaxed) == 1
    });
    let mut c = Client::connect(addr).unwrap();
    let c_id = c.send(&cold_probe(10)).unwrap();
    wait_until("C to wait", || server.metrics().max_queue_depth == 1);
    let mut b = Client::connect(addr).unwrap();
    let b_id = b.send("shutdown").unwrap();
    wait_until("B to wait", || server.metrics().max_queue_depth == 2);

    // A's first answer frees the slot; A's reader reads its second request
    // and takes a ticket behind B's while C runs. Then B shuts the server
    // down, and the ticket A holds is still honoured: drained.
    for (id, want) in a_ids
        .iter()
        .zip([Status::Ok, Status::Ok, Status::ShuttingDown])
    {
        let resp = a.recv().unwrap();
        assert_eq!((resp.id, resp.status), (*id, want), "{}", resp.body);
    }
    let resp = c.recv().unwrap();
    assert_eq!((resp.id, resp.status), (c_id, Status::Ok), "{}", resp.body);
    let bye = b.recv().unwrap();
    assert_eq!((bye.id, bye.status), (b_id, Status::Ok));
    assert_eq!(bye.body, "ok shutting down");

    // A's third request was read after the latch: refused, not run. So is
    // new work on the still-open connection, including a request whose
    // answer is cached by now: past the latch the reader answers nothing.
    assert_eq!(log.threads.lock().unwrap().len(), 3);
    for line in ["stats", &cold_probe(1)] {
        let refused = a.call(line).unwrap();
        assert_eq!(refused.status, Status::ShuttingDown, "{}", refused.body);
    }

    let m = server.metrics();
    assert_eq!(m.rejected_shutting_down, 3, "{m:?}");
    server.wait();
}

// Keeps the old claim, a hit takes no slot, from the other side: the miss
// is now computed by the reader of its own connection, not a dispatcher,
// and the hit is answered while that reader holds the only slot.
#[test]
fn a_hit_is_answered_while_another_connection_holds_the_only_slot() {
    const HOLD: Duration = Duration::from_millis(300);
    let net = NetConfig {
        dispatchers: 1,
        ..NetConfig::default()
    };
    let (_service, server, log) = probe_server_with(16, net, HOLD);
    let mut c = Client::connect(server.addr()).unwrap();

    // The miss executes, on the connection's reader; the repeat executes
    // nothing.
    let cold = c.call(PROBE).unwrap();
    assert!(cold.body.contains("cached false"), "{}", cold.body);
    let reader = log.threads.lock().unwrap()[0];
    assert_ne!(reader, std::thread::current().id());
    let warm = c.call(PROBE).unwrap();
    assert!(warm.body.contains("cached true"), "{}", warm.body);
    assert_eq!(*log.threads.lock().unwrap(), [reader]);

    // Hold the only slot inside the engine with another connection's miss,
    // and ask again: the hit comes back while the engine is still running.
    let mut other = Client::connect(server.addr()).unwrap();
    let slow = other.send(&cold_probe(1)).unwrap();
    wait_until("the other miss to run", || {
        log.in_flight.load(Ordering::Relaxed) == 1
    });
    let warm = c.call(PROBE).unwrap();
    assert!(warm.body.contains("cached true"), "{}", warm.body);
    assert_eq!(
        log.in_flight.load(Ordering::Relaxed),
        1,
        "answered while the only slot was held"
    );
    assert_eq!(other.recv().unwrap().id, slow);
    let threads = log.threads.lock().unwrap().clone();
    assert_eq!(threads.len(), 2);
    assert_ne!(
        threads[1], reader,
        "each connection computes on its own reader"
    );

    let m = server.metrics();
    assert_eq!((m.served, m.max_queue_depth), (4, 0), "{m:?}");
    server.shutdown();
    server.wait();
}

#[test]
fn hits_take_no_slot_and_do_not_delay_a_cold_query() {
    const HOLD: Duration = Duration::from_millis(20);
    const COLD: u32 = 9;
    // One slot and one waiter at most: if a hit took the slot, the cold
    // queries beside them would wait for it, or be bounced.
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
    // Nobody ever waited for the slot: the cold queries were its only users.
    let m = server.metrics();
    assert_eq!((m.rejected_overloaded, m.max_queue_depth), (0, 0), "{m:?}");
    assert_eq!(m.served, 1 + 2 * COLD as u64 + hits, "{m:?}");
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

    // The reader finds no cached answer, takes the slot and runs the
    // engine, which panics; the answer says so…
    let boom = c.call(PROBE_PANIC).unwrap();
    assert_eq!(boom.status, Status::Err, "{}", boom.body);
    assert!(boom.body.starts_with("internal error: "), "{}", boom.body);
    assert_eq!(service.metrics().errors, 1);
    // …and the reader goes on, with the slot given back: a hit, then a
    // miss.
    let warm = c.call(PROBE).unwrap();
    assert!(warm.body.contains("cached true"), "{}", warm.body);
    let cold = c.call(&cold_probe(1)).unwrap();
    assert!(cold.body.contains("cached false"), "{}", cold.body);
    server.shutdown();
    server.wait();
}

#[test]
fn a_panicking_command_costs_one_request_not_a_thread() {
    let service = Arc::new(Service::with_default_registry());
    service.register("R", Relation::from_edges([(0, 1), (1, 1), (2, 0)]));
    let server = serve(
        service,
        NetConfig {
            dispatchers: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // A relation too large to allocate panics outside any engine, while
    // its command holds the only slot. A thread that died with it would
    // never answer, so the answers are awaited with a deadline.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        for line in ["gen X DBLP 1e300", "help", "query twopath R R"] {
            let resp = c.call(line).unwrap();
            tx.send((line, resp.status, resp.body)).unwrap();
        }
    });
    let next = || {
        rx.recv_timeout(Duration::from_secs(30))
            .expect("an answer within 30 s")
    };
    let (_, status, body) = next();
    assert_eq!(status, Status::Err, "{body}");
    assert!(body.starts_with("internal error: "), "{body}");
    // The same connection is still served, and the slot was given back.
    for _ in 0..2 {
        let (line, status, body) = next();
        assert_eq!(status, Status::Ok, "{line}: {body}");
    }
    server.shutdown();
    server.wait();
}

// Keeps the old claim that a query runs on the thread that admitted it —
// now the reader of its connection, so two connections compute on two
// threads.
#[test]
fn a_query_runs_on_the_thread_that_admitted_it() {
    let (service, server, log) = probe_server(1, Duration::ZERO);

    // In process the admitting thread is the caller's.
    service
        .query(Request::two_path("R", "R").on_engine("Probe"))
        .unwrap();
    let here = std::thread::current().id();
    assert_eq!(*log.threads.lock().unwrap(), [here]);

    // Over the wire it is the connection's reader: requests of two open
    // connections run on two threads, neither of them this one. (That the
    // service spawned no thread of its own is mmjoin-lint's to check: the
    // `thread-spawn` rule has no allowance left under `crates/service`.)
    let mut clients = [0; 2].map(|_| Client::connect(server.addr()).unwrap());
    for c in &mut clients {
        assert_eq!(c.call(PROBE).unwrap().status, Status::Ok);
    }
    let threads = log.threads.lock().unwrap().clone();
    assert_eq!(threads.len(), 3);
    assert_ne!(threads[1], threads[2], "one reader per connection");
    assert!(!threads[1..].contains(&here));
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

// Keeps the old claim: `dispatchers` is the number of requests computed
// at once — now slots held by readers, not threads popping a queue.
#[test]
fn dispatchers_is_the_number_of_requests_in_flight() {
    let (_service, server, log) = probe_server(2, Duration::from_millis(10));
    // 32 requests are pipelined at once; two run.
    flood(&server, 8, 4);
    assert_eq!(log.threads.lock().unwrap().len(), 32);
    assert_eq!(log.high_water.load(Ordering::Relaxed), 2);
    let m = server.metrics();
    assert_eq!(m.rejected_overloaded, 0);
    // A connection waits for one slot at most: 32 requests, eight waiters
    // at most.
    assert!(m.max_queue_depth <= 8, "{m:?}");
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
    // …and the slot came back: two requests still run at once.
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

// Keeps the old claim, one thread per connection while it lives, with
// the dispatcher threads gone from the count; what an ended connection
// leaves is at most `dispatchers` idle readers, reused by the next ones.
#[test]
fn a_connection_costs_one_thread() {
    const CONNECTIONS: usize = 24;
    const DISPATCHERS: usize = 3;

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
    // The accept loop, and a reader per connection: compute slots are not
    // threads.
    assert_eq!(threads_started_here() - before, 1 + CONNECTIONS);
    drop(clients);
    // Once the connections are gone, `dispatchers` readers stay, idle, for
    // the next ones; the others end.
    wait_until("the idle readers to settle", || {
        threads_started_here() - before == 1 + DISPATCHERS
    });
    // A new connection is served by one of them: no thread is added.
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.call("help").unwrap().status, Status::Ok);
    assert_eq!(threads_started_here() - before, 1 + DISPATCHERS);
    drop(c);
    server.shutdown();
    server.wait();
    // All gone again (a joined thread stays listed for a moment).
    wait_until("the server's threads to end", || {
        threads_started_here() == before
    });
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

// Replaces the claim that replies and bounces written by two threads on
// one connection never interleave: there is one writer per connection
// now, so what is left to pin is the order — a hit sent behind a miss
// comes back after it — and that every large frame still decodes.
#[test]
fn pipelined_requests_are_answered_in_send_order() {
    const CLIENTS: usize = 8;
    const PIPELINED: usize = 40;
    const SHOWN: usize = 4000;
    // ~40 KiB a reply: far more than one segment.
    const HIT: &str = "query twopath R R show 4000";

    let service = Arc::new(Service::with_default_registry());
    let server = serve(
        service,
        NetConfig {
            queue_capacity: 8,
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

    // On every connection, misses — lines nobody asked before (a `limit`
    // of their own each, past the rows shown, so the same 4000 rows lead
    // the answer) — alternate with the cached line, which needs no slot
    // and would be answered first if anything let it overtake.
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let sent: Vec<(u64, bool)> = (0..PIPELINED)
                    .map(|i| {
                        let limit = SHOWN + 1 + client * PIPELINED + i;
                        let cold = format!("query twopath R R limit {limit} show {SHOWN}");
                        let hit = i % 2 == 1;
                        (c.send(if hit { HIT } else { &cold }).unwrap(), hit)
                    })
                    .collect();
                for (id, hit) in sent {
                    let resp = c.recv().expect("every frame decodes");
                    assert_eq!(resp.id, id, "answered out of send order");
                    assert_eq!(resp.status, Status::Ok, "{}", resp.body);
                    assert!(first_rows(&resp.body, SHOWN) == *expected);
                    assert_eq!(resp.body.contains("cached true"), hit, "{id}");
                }
            });
        }
    });
    let m = server.metrics();
    assert_eq!(m.served, 2 + (CLIENTS * PIPELINED) as u64, "{m:?}");
    assert_eq!(m.rejected_overloaded, 0, "{m:?}");
    server.shutdown();
    server.wait();
}
