//! The serving layers: `net` (wire codec, round trips, admission counters),
//! `service` (parse, fingerprint, cache, planner, materialisation,
//! maintenance) and `obs` (per-stage self time of the traced round).

use super::{fastest, Ctx};
use crate::harness::{register_all, service_config, Replay, THREAD_BUDGET};
use crate::metrics::Sheet;
use crate::span::{self, Span};
use crate::stats::{mean, median};
use crate::workload::{Action, Kind, BATCH_CLASSES, SHOW_ROWS};
use mmjoin_api::ExecStats;
use mmjoin_net::{frame, WireRequest, WireResponse};
use mmjoin_obs::trace::Stage;
use mmjoin_service::command::{self, Command};
use mmjoin_service::{CachedResult, Planner, Request, ResultCache, Service};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Calls behind each round-trip median.
const ROUND_TRIPS: usize = 2000;

/// Counters of the traced round, read where the program keeps them.
pub fn counters(ctx: &Ctx<'_>, sheet: &mut Sheet) {
    let net = ctx.stack.net_metrics();
    sheet.put("net.max_queue_depth", net.max_queue_depth as f64);
    sheet.put("net.rejected_overloaded", net.rejected_overloaded as f64);

    let (hits, misses, evictions, invalidations) = ctx.stack.service.cache_counters();
    sheet.put(
        "service.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    sheet.put("service.cache_evictions", evictions as f64);
    sheet.put("service.cache_invalidations", invalidations as f64);
    let m = ctx.stack.service.metrics();
    sheet.put("service.maintained", m.maintained as f64);
    sheet.put("service.recomputed", m.recomputed as f64);
    sheet.put("service.invalidated", m.invalidated as f64);

    let e = ctx.stack.service.executor_stats();
    sheet.put("executor.batches", e.batches as f64);
    sheet.put("executor.stolen_tasks", e.stolen_tasks as f64);
    sheet.put("executor.granted_tokens", e.granted_tokens as f64);
    sheet.put("executor.inline_serial", e.inline_serial as f64);
}

/// Per-stage self time of the traced round, per request, from the spans the
/// program records itself; and the share of the client's wait they cover.
pub fn stages(program: &[Span], plain: &Replay, traced: &Replay, sheet: &mut Sheet) {
    let requests: Vec<u64> = traced
        .latency_ns
        .iter()
        .flatten()
        .flatten()
        .copied()
        .collect();
    let n = requests.len().max(1) as f64;
    let client_ns: u64 = requests.iter().sum();
    let by_stage = span::self_time_by_name(program);
    // `request` is the root: its self time is what no stage claimed. With it
    // the sum is everything the server saw of the request; what is missing
    // from the client's wait is the wire and the client itself.
    let mut covered = 0u64;
    for stage in [
        Stage::Parse,
        Stage::QueueWait,
        Stage::CacheProbe,
        Stage::Plan,
        Stage::Exec,
        Stage::Step,
        Stage::Maintain,
        Stage::Serialize,
        Stage::Request,
    ] {
        let ns = by_stage.get(stage.name()).copied().unwrap_or(0);
        sheet.put(
            &format!("obs.stage.{}_us", stage.name()),
            ns as f64 / n / 1e3,
        );
        covered += ns;
    }
    sheet.put("obs.traced_request_us", client_ns as f64 / n / 1e3);
    sheet.put(
        "obs.attributed_pct",
        100.0 * covered as f64 / client_ns.max(1) as f64,
    );
    sheet.put(
        "obs.trace_overhead_pct",
        100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s,
    );
    sheet.put("bench.traced_requests", requests.len() as f64);
}

/// The query lines of one round, in script order, without repeats.
fn query_lines<'a>(ctx: &'a Ctx<'_>) -> Vec<&'a str> {
    let mut seen = std::collections::HashSet::new();
    ctx.w
        .scripts
        .iter()
        .flatten()
        .filter(|op| matches!(op.action, Action::Query { show: None, .. }))
        .map(|op| op.line.as_str())
        .filter(|l| seen.insert(*l))
        .collect()
}

/// Median microseconds of `calls` calls; the first error ends it.
fn median_call_us(
    calls: usize,
    mut call: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t0 = Instant::now();
        call()?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&samples))
}

pub fn net(ctx: &Ctx<'_>, sheet: &mut Sheet) -> Result<(), String> {
    let lines = query_lines(ctx);
    let warm = *lines.first().ok_or("workload without a query")?;
    let service: &Service = &ctx.stack.service;

    // Codec: every request line of a round and a real answer to it, through
    // encode → frame → unframe → decode, in memory.
    let pairs: Vec<(WireRequest, WireResponse)> = lines
        .iter()
        .take(256)
        .enumerate()
        .map(|(i, line)| {
            let body = command::run_line(service, line).unwrap_or_else(|e| e);
            (
                WireRequest {
                    id: i as u64,
                    line: line.to_string(),
                },
                WireResponse {
                    id: i as u64,
                    status: mmjoin_net::Status::Ok,
                    body,
                },
            )
        })
        .collect();
    let mut buf = Vec::new();
    let (_, secs) = ctx.rec.time("net.wire_codec", || {
        for _ in 0..20 {
            for (req, resp) in &pairs {
                for payload in [req.encode(), resp.encode()] {
                    buf.clear();
                    frame::write_frame(&mut buf, &payload).expect("write to memory");
                    let back = frame::read_frame(&mut buf.as_slice())
                        .expect("read from memory")
                        .expect("one frame");
                    black_box(&back);
                }
                black_box(WireRequest::decode(&req.encode()).expect("own encoding"));
                black_box(WireResponse::decode(&resp.encode()).expect("own encoding"));
            }
        }
    });
    sheet.put("net.wire_codec_ns", secs * 1e9 / (20 * pairs.len()) as f64);

    // Round trips: a command that does no work, then a cached query over the
    // wire against the same line run in process.
    let mut client = ctx.stack.connect()?;
    let mut over_tcp = |line: &str| {
        client
            .call(line)
            .map(|resp| {
                black_box(resp.body.len());
            })
            .map_err(|e| format!("`{line}`: {e}"))
    };
    let in_process = |line: &str| {
        black_box(command::run_line(service, line).map(|b| b.len()).ok());
        Ok(())
    };
    over_tcp(warm)?;
    let (noop_us, _) = ctx.rec.time("net.noop_roundtrip", || {
        median_call_us(ROUND_TRIPS, || over_tcp("engines"))
    });
    let (tcp_us, _) = ctx.rec.time("net.warm_roundtrip", || {
        median_call_us(ROUND_TRIPS, || over_tcp(warm))
    });
    let (inproc_us, _) = ctx.rec.time("service.run_line_warm", || {
        median_call_us(ROUND_TRIPS, || in_process(warm))
    });
    let inproc_us = inproc_us?;
    sheet.put("net.noop_roundtrip_us", noop_us?);
    sheet.put("net.overhead_us", tcp_us? - inproc_us);

    // What printing rows costs: the same cached answer with and without them.
    let shown = format!("{warm} show {SHOW_ROWS}");
    let (shown_us, _) = ctx.rec.time("service.run_line_show", || {
        median_call_us(ROUND_TRIPS / 4, || in_process(&shown))
    });
    sheet.put("service.format_us", shown_us? - inproc_us);
    Ok(())
}

/// Parses `line` into the request it queries, if it is a query.
fn request_of(line: &str) -> Option<Request> {
    match Command::parse(line) {
        Ok(Command::Query { request, .. }) => Some(request),
        _ => None,
    }
}

/// `Service::query` on a fresh in-process service, every query cold: the
/// relations are registered again before each repeat. Returns the fastest
/// time per request, in seconds.
fn cold_times(ctx: &Ctx<'_>, budget: usize, requests: &[Request], label: &str) -> Vec<f64> {
    let service = Service::with_config(service_config(budget));
    let mut best = vec![f64::INFINITY; requests.len()];
    for _ in 0..3 {
        register_all(&service, ctx.w);
        for (slot, request) in best.iter_mut().zip(requests) {
            let (_, secs) = ctx.rec.time(label, || {
                black_box(service.query(request.clone()).map(|r| r.rows.len()).ok())
            });
            *slot = slot.min(secs);
        }
    }
    best
}

pub fn service(ctx: &Ctx<'_>, sheet: &mut Sheet) {
    front_door(ctx, sheet);
    cold_path(ctx, sheet);
    maintenance(ctx, sheet);
}

/// What every request pays before any engine runs: parse, fingerprint, cache
/// probe.
fn front_door(ctx: &Ctx<'_>, sheet: &mut Sheet) {
    // Parse: every line of a round, updates with their edge lists included.
    let lines: Vec<&str> = ctx
        .w
        .scripts
        .iter()
        .flatten()
        .map(|op| op.line.as_str())
        .collect();
    let (_, secs) = ctx.rec.time("service.parse", || {
        for line in &lines {
            black_box(Command::parse(line).is_ok());
        }
    });
    sheet.put("service.parse_ns", secs * 1e9 / lines.len() as f64);

    // Fingerprint: canonicalise and hash each distinct request.
    let requests: Vec<Request> = query_lines(ctx)
        .into_iter()
        .filter_map(request_of)
        .collect();
    let reps = (20_000 / requests.len().max(1)).max(1);
    let mut copies: Vec<Request> = (0..reps).flat_map(|_| requests.iter().cloned()).collect();
    let total = copies.len();
    let (_, secs) = ctx.rec.time("service.fingerprint", || {
        for request in copies.drain(..) {
            black_box(request.canonical().fingerprint());
        }
    });
    sheet.put("service.fingerprint_ns", secs * 1e9 / total as f64);

    // Cache probe: a stand-alone cache of the default capacity holding one
    // small entry per distinct request; hits probe present keys, misses
    // probe absent ones.
    let canonical: Vec<Request> = requests.iter().cloned().map(Request::canonical).collect();
    let mut cache = ResultCache::new(256);
    let epochs = vec![1u64, 1];
    let entries: Vec<(u64, &Request)> = canonical
        .iter()
        .take(256)
        .map(|r| (r.fingerprint(), r))
        .collect();
    for &(key, request) in &entries {
        cache.insert(
            key,
            request.clone(),
            epochs.clone(),
            CachedResult {
                arity: 2,
                rows: Arc::new(vec![vec![1, 2]]),
                counts: Arc::new(vec![0]),
                stats: ExecStats::new("MMJoin", 1),
                truncated: false,
                support: None,
                maintained: false,
            },
        );
    }
    let probes = 200;
    for (name, offset) in [("service.cache_hit_ns", 0u64), ("service.cache_miss_ns", 1)] {
        let (found, secs) = ctx.rec.time(name, || {
            let mut found = 0usize;
            for _ in 0..probes {
                for &(key, request) in &entries {
                    found += cache
                        .get(key.wrapping_add(offset), request, &epochs)
                        .is_some() as usize;
                }
            }
            found
        });
        assert_eq!(
            found,
            if offset == 0 {
                probes * entries.len()
            } else {
                0
            }
        );
        sheet.put(name, secs * 1e9 / (probes * entries.len()) as f64);
    }
}

/// Engine selection, then the whole in-process cold path, on the sampled
/// queries. What the engine itself takes is measured in `engines::core`,
/// which also derives `service.materialize_us` from the two.
fn cold_path(ctx: &Ctx<'_>, sheet: &mut Sheet) {
    let planner = Planner::new(ctx.config.clone());
    let registry = ctx.stack.service.registry();
    let mut select = Vec::new();
    for &q in &ctx.sampled {
        let def = &ctx.w.queries[q];
        let secs = ctx.with_query(def, |query| {
            fastest(3, || {
                black_box(planner.select(registry, query, None).is_ok());
            })
        });
        select.push(secs * 1e6);
    }
    sheet.put("service.select_us", mean(&select));

    let sampled: Vec<(Kind, Request)> = ctx
        .sampled
        .iter()
        .filter_map(|&q| {
            let def = &ctx.w.queries[q];
            let request = request_of(&format!("query {}", def.text(&ctx.w.relations)))?;
            Some((def.kind, request))
        })
        .collect();
    let requests: Vec<Request> = sampled.iter().map(|(_, r)| r.clone()).collect();
    let cold = cold_times(ctx, THREAD_BUDGET, &requests, "service.query_cold");
    sheet.put("service.inproc_cold_us", mean(&cold) * 1e6);

    // The thread-budget question ROADMAP left open: the same cold two-paths
    // under a budget of 1, over their time under the served budget of 2.
    let (two_paths, budget2): (Vec<Request>, Vec<f64>) = sampled
        .iter()
        .zip(&cold)
        .filter(|((kind, _), _)| *kind == Kind::TwoPath)
        .map(|((_, request), &secs)| (request.clone(), secs))
        .unzip();
    let budget1 = cold_times(ctx, 1, &two_paths, "service.query_cold_budget1");
    if !budget2.is_empty() {
        sheet.put(
            "service.budget2_speedup",
            budget1.iter().sum::<f64>() / budget2.iter().sum::<f64>(),
        );
    }
}

/// Replays an update workload's round in process, with the cache primed the
/// way set-up primes it, timing each `insert`/`delete` by batch class.
fn maintenance(ctx: &Ctx<'_>, sheet: &mut Sheet) {
    let script = &ctx.w.scripts[0];
    if !script.iter().any(|op| op.kind == Kind::Update) {
        return;
    }
    let service = Service::with_config(service_config(THREAD_BUDGET));
    register_all(&service, ctx.w);
    for line in &ctx.w.warmup {
        let _ = command::run_line(&service, line);
    }
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); BATCH_CLASSES.len()];
    for op in script {
        match &op.action {
            Action::Update { rel, insert, edges } => {
                let name = &ctx.w.relations[*rel].0;
                let class = BATCH_CLASSES
                    .iter()
                    .position(|&c| edges.len() <= c)
                    .unwrap_or(BATCH_CLASSES.len() - 1);
                let (_, secs) = ctx.rec.time("service.maintain", || {
                    let edges = edges.iter().copied();
                    if *insert {
                        black_box(service.insert(name, edges).is_ok())
                    } else {
                        black_box(service.delete(name, edges).is_ok())
                    }
                });
                by_class[class].push(secs * 1e6);
            }
            _ => {
                let _ = command::run_line(&service, &op.line);
            }
        }
    }
    for (class, samples) in BATCH_CLASSES.iter().zip(&by_class) {
        sheet.put(&format!("service.maintain_b{class}_us"), mean(samples));
    }
}
