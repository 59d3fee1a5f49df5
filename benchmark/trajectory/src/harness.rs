//! Brings the real serving stack up on loopback, replays a workload's
//! scripts through closed-loop clients, and checks every answer.

use crate::reference::Reference;
use crate::rng::{fnv1a, FNV_OFFSET};
use crate::span::Recorder;
use crate::sys;
use crate::workload::{Action, Op, Workload};
use mmjoin_core::JoinConfig;
use mmjoin_net::{serve, Client, NetConfig, Server, Status, WireResponse};
use mmjoin_service::{Request, Service, ServiceConfig};
use mmjoin_storage::Value;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Service worker threads, `mmjoin-netd --workers 2`.
pub const WORKERS: usize = 2;
/// Intra-query thread budget, `mmjoin-netd --threads 2`.
pub const THREAD_BUDGET: usize = 2;
/// Net dispatcher threads, `mmjoin-netd --dispatchers 2`.
pub const DISPATCHERS: usize = 2;

/// The configuration `mmjoin-netd --workers 2 --dispatchers 2 --threads 2`
/// builds: engines request the whole budget per query.
pub fn service_config(thread_budget: usize) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        thread_budget,
        join_config: JoinConfig {
            threads: 0,
            ..JoinConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// Registers (or registers again) every relation of `w`. Registering again
/// moves each relation's epoch, which makes every cached result over it
/// unreachable: whatever is asked next misses.
pub fn register_all(service: &Service, w: &Workload) {
    for (name, relation) in &w.relations {
        service.register(name.clone(), relation.clone());
    }
}

/// A running server with its service, in this process.
pub struct Stack {
    pub service: Arc<Service>,
    server: Server,
}

impl Stack {
    /// Starts the service and the TCP front end, registers every relation
    /// and sends the warm-up lines over the wire.
    pub fn start(w: &Workload) -> Result<Stack, String> {
        let service = Arc::new(Service::with_config(service_config(THREAD_BUDGET)));
        register_all(&service, w);
        let server = serve(
            Arc::clone(&service),
            NetConfig {
                dispatchers: DISPATCHERS,
                ..NetConfig::default()
            },
        )
        .map_err(|e| format!("bind loopback: {e}"))?;
        let stack = Stack { service, server };
        let mut client = stack.connect()?;
        for line in &w.warmup {
            let resp = client.call(line).map_err(|e| format!("warm-up: {e}"))?;
            if resp.status != Status::Ok {
                return Err(format!("warm-up `{line}`: {} {}", resp.status, resp.body));
            }
        }
        Ok(stack)
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr()).map_err(|e| format!("connect {}: {e}", self.addr()))
    }

    /// `stats reset` over the wire: zeroes the service, cache, executor and
    /// net counters, keeping registrations and cached entries.
    pub fn reset_stats(&self) -> Result<(), String> {
        let resp = self
            .connect()?
            .call("stats reset")
            .map_err(|e| format!("stats reset: {e}"))?;
        if resp.status == Status::Ok {
            Ok(())
        } else {
            Err(format!("stats reset: {} {}", resp.status, resp.body))
        }
    }

    pub fn net_metrics(&self) -> mmjoin_net::NetMetricsSnapshot {
        self.server.metrics()
    }

    /// Drains and joins every server thread.
    pub fn stop(self) {
        self.server.shutdown();
        self.server.wait();
    }
}

/// `rows N` and `cached b` of a query answer's first line.
fn parse_query_head(body: &str) -> Option<(u64, bool)> {
    let mut tokens = body.lines().next()?.split_whitespace();
    if tokens.next()? != "ok" || tokens.next()? != "rows" {
        return None;
    }
    let rows = tokens.next()?.parse().ok()?;
    let cached = tokens.skip_while(|&t| t != "cached").nth(1)? == "true";
    Some((rows, cached))
}

/// Verdicts of one client (or of all, once merged).
#[derive(Debug, Default)]
pub struct Log {
    pub attempted: u64,
    pub failed: u64,
    /// Answers served from the result cache, among query answers.
    pub cached_answers: u64,
    pub first_failure: Option<String>,
    /// The printed rows of each `show` query as first seen: later answers are
    /// compared by hash, and these are checked row by row after the run.
    shown: HashMap<usize, (u64, String)>,
}

impl Log {
    fn fail(&mut self, op: &Op, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(format!("`{}`: {why}", truncate(&op.line, 80)));
        }
    }

    pub fn merge(&mut self, other: Log) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.cached_answers += other.cached_answers;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        for (q, seen) in other.shown {
            self.shown.entry(q).or_insert(seen);
        }
    }

    /// Checks one answer. Cheap on purpose: the client shares two cores with
    /// the server, so row-by-row work is deferred to [`verify_shown`].
    fn check(&mut self, op: &Op, resp: &WireResponse) {
        self.attempted += 1;
        if resp.status != Status::Ok {
            return self.fail(op, format!("{} {}", resp.status, truncate(&resp.body, 120)));
        }
        match &op.action {
            Action::Query { query, show } => {
                let Some((rows, cached)) = parse_query_head(&resp.body) else {
                    return self.fail(op, format!("unreadable: {}", truncate(&resp.body, 120)));
                };
                self.cached_answers += cached as u64;
                if Some(rows) != op.expect_rows {
                    return self.fail(op, format!("rows {rows}, expected {:?}", op.expect_rows));
                }
                if show.is_some() {
                    let tail = resp.body.split_once('\n').map_or("", |(_, t)| t);
                    let hash = fnv1a(FNV_OFFSET, tail.as_bytes());
                    let first = self
                        .shown
                        .entry(*query)
                        .or_insert_with(|| (hash, tail.to_string()));
                    if first.0 != hash {
                        self.fail(op, "printed rows changed between answers".into());
                    }
                }
            }
            Action::Explain { .. } => {
                if !resp.body.starts_with("ok engine ") {
                    self.fail(op, format!("unexpected: {}", truncate(&resp.body, 120)));
                }
            }
            Action::Update { insert, edges, .. } => {
                let applied = format!("{}{} ", if *insert { '+' } else { '-' }, edges.len());
                if !resp.body.contains(&applied) {
                    self.fail(
                        op,
                        format!("expected {applied}: {}", truncate(&resp.body, 120)),
                    );
                }
            }
        }
    }
}

fn truncate(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// Checks the rows each `show` query printed: as many as asked for (or all),
/// every one a member of the reference answer, and the `… K more` remainder.
pub fn verify_shown(log: &mut Log, w: &Workload, reference: &Reference, show: usize) {
    for (q, (_, tail)) in std::mem::take(&mut log.shown) {
        log.attempted += 1;
        let total = reference.rows[q] as usize;
        let pairs = reference.pairs[q].as_deref().unwrap_or(&[]);
        let mut printed = 0usize;
        let mut more = 0usize;
        let mut ok = true;
        for line in tail.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("… ") {
                more = rest
                    .split_whitespace()
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(usize::MAX);
                continue;
            }
            let row: Option<(Value, Value)> = line
                .strip_prefix('(')
                .and_then(|l| l.split_once(')'))
                .and_then(|(cells, _)| cells.split_once(", "))
                .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
            match row {
                Some(pair) if pairs.binary_search(&pair).is_ok() => printed += 1,
                _ => ok = false,
            }
        }
        if !ok || printed != show.min(total) || more != total - printed {
            log.failed += 1;
            log.first_failure.get_or_insert_with(|| {
                format!(
                    "`{}` show: {printed} valid rows + {more} more of {total}",
                    w.queries[q].text(&w.relations)
                )
            });
        }
    }
}

/// After an update workload: every relation must hold exactly the edges it
/// was registered with (each round reverts itself), and every two-path must
/// answer, row for row, what the serial baseline computed on that state.
pub fn verify_final_state(log: &mut Log, w: &Workload, reference: &Reference, stack: &Stack) {
    for (name, relation) in &w.relations {
        log.attempted += 1;
        let mut edges = stack.service.relation_edges(name).unwrap_or_default();
        edges.sort_unstable();
        if edges != relation.edges() {
            log.failed += 1;
            log.first_failure
                .get_or_insert_with(|| format!("relation {name} drifted from the model"));
        }
    }
    for (q, def) in w.queries.iter().enumerate() {
        let (Some(pairs), None) = (&reference.pairs[q], def.limit) else {
            continue;
        };
        log.attempted += 1;
        let request = Request::two_path(&w.relations[def.rels[0]].0, &w.relations[def.rels[1]].0);
        let mut rows: Vec<(Value, Value)> = match stack.service.query(request) {
            Ok(resp) => resp.rows.iter().map(|r| (r[0], r[1])).collect(),
            Err(_) => Vec::new(),
        };
        rows.sort_unstable();
        if &rows != pairs {
            log.failed += 1;
            log.first_failure.get_or_insert_with(|| {
                format!("`{}` differs from the model", def.text(&w.relations))
            });
        }
    }
}

/// What one measured (or traced) replay produced.
#[derive(Debug)]
pub struct Replay {
    pub log: Log,
    /// Client-observed nanoseconds per request: `[client][round][position in
    /// the client's script]`.
    pub latency_ns: Vec<Vec<Vec<u64>>>,
    /// Longest client's time inside rounds, in seconds.
    pub wall_s: f64,
    /// Process CPU seconds over the replay, re-registration excluded.
    pub cpu_s: f64,
}

impl Replay {
    /// Complete rounds, summed over clients.
    pub fn rounds(&self) -> usize {
        self.latency_ns.iter().map(Vec::len).sum()
    }

    /// Appends a later replay of the same scripts: its rounds follow this
    /// one's, and its wall and CPU time add up.
    pub fn absorb(&mut self, later: Replay) {
        self.log.merge(later.log);
        for (rounds, more) in self.latency_ns.iter_mut().zip(later.latency_ns) {
            rounds.extend(more);
        }
        self.wall_s += later.wall_s;
        self.cpu_s += later.cpu_s;
    }
}

/// Replays the scripts: one thread and one connection per script, each a
/// closed loop that sends its next request when the previous answer arrived.
/// Every client finishes the round in which `budget` runs out, so all rounds
/// are complete and the request mix is exactly the script's. With
/// `budget == None` each client plays exactly one round.
///
/// With a recorder, every request is wrapped in a `client.request` span
/// whose request id counts requests from 1 across clients.
pub fn replay(
    stack: &Stack,
    w: &Workload,
    budget: Option<Duration>,
    recorder: Option<&Recorder>,
) -> Result<Replay, String> {
    let clients = w.scripts.len();
    // Met three times by every client and this thread: at the start, when
    // the last client is done, and once the CPU time has been read.
    let gate = Barrier::new(clients + 1);
    let request_ids = AtomicU64::new(1);
    let mut connections = Vec::new();
    for _ in 0..clients {
        connections.push(stack.connect()?);
    }

    // lint:allow(thread-spawn): the client threads are the external load
    // generator, one per closed-loop connection; they are not workspace
    // compute and must not consume executor tokens.
    std::thread::scope(|scope| {
        let handles: Vec<_> = w
            .scripts
            .iter()
            .zip(connections)
            .map(|(script, mut client)| {
                let (gate, request_ids) = (&gate, &request_ids);
                scope.spawn(move || {
                    let mut log = Log::default();
                    let mut latencies: Vec<Vec<u64>> = Vec::new();
                    let mut inside = Duration::ZERO;
                    let mut excluded_cpu = 0.0;
                    let mut error = None;
                    gate.wait();
                    'rounds: loop {
                        if w.cold {
                            let before = sys::cpu_seconds();
                            register_all(&stack.service, w);
                            excluded_cpu += sys::cpu_seconds() - before;
                        }
                        let mut round = Vec::with_capacity(script.len());
                        let round_start = Instant::now();
                        for op in script {
                            let sent = Instant::now();
                            let resp = match client.call(&op.line) {
                                Ok(resp) => resp,
                                Err(e) => {
                                    error = Some(format!("`{}`: {e}", truncate(&op.line, 80)));
                                    break 'rounds;
                                }
                            };
                            let answered = Instant::now();
                            if let Some(rec) = recorder {
                                let id = request_ids.fetch_add(1, Ordering::Relaxed);
                                rec.record("client.request", id, sent, answered);
                            }
                            round.push((answered - sent).as_nanos() as u64);
                            log.check(op, &resp);
                        }
                        inside += round_start.elapsed();
                        latencies.push(round);
                        if budget.is_none_or(|b| inside >= b) {
                            break;
                        }
                    }
                    // Hold the thread alive until the main thread has read
                    // the process CPU time: exited threads drop out of it.
                    gate.wait();
                    gate.wait();
                    (log, latencies, inside, excluded_cpu, error)
                })
            })
            .collect();

        let cpu_before = sys::cpu_seconds();
        gate.wait();
        gate.wait();
        let cpu_after = sys::cpu_seconds();
        gate.wait();

        let mut out = Replay {
            log: Log::default(),
            latency_ns: Vec::new(),
            wall_s: 0.0,
            cpu_s: cpu_after - cpu_before,
        };
        for handle in handles {
            let (log, latencies, inside, excluded_cpu, error) = handle
                .join()
                .map_err(|_| "client thread panicked".to_string())?;
            if let Some(e) = error {
                return Err(format!("connection lost at {e}"));
            }
            out.log.merge(log);
            out.wall_s = out.wall_s.max(inside.as_secs_f64());
            out.cpu_s -= excluded_cpu;
            out.latency_ns.push(latencies);
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::annotate;
    use crate::workload::{build, Sizes, SHOW_ROWS, WORKLOADS};

    #[test]
    fn query_heads_parse() {
        assert_eq!(
            parse_query_head("ok rows 12 engine MMJoin cached false 0.001s\n  (1, 2)"),
            Some((12, false))
        );
        assert_eq!(
            parse_query_head("ok rows 0 engine delta-maintain cached true (maintained) 0.000s"),
            Some((0, true))
        );
        assert_eq!(parse_query_head("ok relation R: 3 tuples"), None);
        assert_eq!(parse_query_head(""), None);
    }

    /// Each workload generator, tiny, against the real server in this
    /// process, with every check on.
    #[test]
    fn tiny_workloads_replay_without_a_wrong_answer() {
        for name in WORKLOADS {
            let mut w = build(name, 2020, &Sizes::tiny()).unwrap();
            let reference = annotate(&mut w);
            let stack = Stack::start(&w).unwrap();
            let mut out = replay(&stack, &w, Some(Duration::from_millis(50)), None).unwrap();
            // A second segment, the way the measured phase is played.
            let (rounds, attempted, wall_s) = (out.rounds(), out.log.attempted, out.wall_s);
            out.absorb(replay(&stack, &w, None, None).unwrap());
            assert_eq!(out.rounds(), rounds + w.scripts.len(), "{name}");
            assert_eq!(out.log.attempted, attempted + w.ops_per_round() as u64);
            assert!(out.wall_s > wall_s);
            verify_shown(&mut out.log, &w, &reference, SHOW_ROWS);
            if name == "update_churn" {
                verify_final_state(&mut out.log, &w, &reference, &stack);
            }
            let hits = out.log.cached_answers;
            stack.stop();
            assert_eq!(out.log.failed, 0, "{name}: {:?}", out.log.first_failure);
            assert!(out.rounds() >= 1 && out.log.attempted >= w.ops_per_round() as u64);
            // Not `cpu_s > 0`: it is a difference of sums over live threads,
            // and other tests' threads exit while this one runs.
            assert!(out.wall_s > 0.0 && out.cpu_s.is_finite(), "{name}");
            if w.cold {
                assert_eq!(hits, 0, "{name}: a cold round hit the cache");
            }
        }
    }

    #[test]
    fn wrong_answers_are_counted() {
        let mut w = build("warm_mix", 2020, &Sizes::tiny()).unwrap();
        let mut reference = annotate(&mut w);
        // Corrupt one expectation and one reference row set.
        let victim = w.scripts[0]
            .iter_mut()
            .find(|op| matches!(op.action, Action::Query { show: None, .. }))
            .unwrap();
        victim.expect_rows = victim.expect_rows.map(|n| n + 1);
        let shown = w
            .scripts
            .iter()
            .flatten()
            .find_map(|op| match op.action {
                Action::Query {
                    query,
                    show: Some(_),
                } if reference.rows[query] > 0 => Some(query),
                _ => None,
            })
            .unwrap();
        reference.pairs[shown] = Some(Vec::new());
        let stack = Stack::start(&w).unwrap();
        let mut out = replay(&stack, &w, None, None).unwrap();
        let wrong_rows = out.log.failed;
        verify_shown(&mut out.log, &w, &reference, SHOW_ROWS);
        stack.stop();
        assert!(wrong_rows >= 1);
        assert!(out.log.failed > wrong_rows);
        assert!(out.log.first_failure.is_some());
    }
}
