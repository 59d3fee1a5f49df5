//! `mmjoin-netd` — the join service behind a concurrent TCP front end.
//!
//! ```text
//! $ mmjoin-netd --addr 127.0.0.1:7878 --dispatchers 4 --queue 64
//! mmjoin-netd listening on 127.0.0.1:7878 (4 dispatchers, queue 64, quota 16)
//! ```
//!
//! `--dispatchers <n>` is how many requests run at once (each runs on
//! the dispatcher thread that took it off the admission queue),
//! `--queue <n>` how many may wait, `--quota <n>` how many of those one
//! connection may hold. An unknown flag or a value that does not parse
//! prints the usage line and exits with status 2.
//!
//! Drive it with `mmjoin-cli` (same command grammar as `mmjoin-serve`).
//! Send the `shutdown` command to stop it gracefully: admitted queries
//! finish and are answered, new ones get a SHUTTING-DOWN status.
//!
//! Observability flags:
//! - `--trace-out <path>` — enable tracing and, after shutdown, write
//!   every retained trace as Chrome trace-event JSON to `path`.
//! - `--trace-sample <n>` — enable tracing, tracing every n-th request.
//! - `--slow-query <us>` — enable tracing and log the span tree of any
//!   query slower than `us` microseconds to stderr.
//!
//! Cost-model flags:
//! - `--threads <n>` — intra-query thread budget; engines request the
//!   whole budget per query (`0` = machine parallelism; absent keeps
//!   engines serial).
//! - `--calibrate` — measure the dispatched GEMM kernel at startup,
//!   sweeping the cores axis up to the thread budget, and re-derive the
//!   planner's combinatorial/matrix crossover from it.
//! - `--calibration <path>` — cache the measurement across restarts
//!   (implies `--calibrate`; a stale kernel tag, or a cores axis short
//!   of the configured budget, forces a re-measure).

use mmjoin_net::{serve, NetConfig};
use mmjoin_obs::trace::{chrome_json, Tracer};
use mmjoin_service::{flags, Service};
use std::sync::Arc;

fn main() {
    let flags = flags::NETD.parse_env();
    let defaults = NetConfig::default();
    let queue = flags.count("--queue").unwrap_or(defaults.queue_capacity);
    let quota = flags.count("--quota").unwrap_or(defaults.per_client_quota);
    let dispatchers = flags.count("--dispatchers").unwrap_or(defaults.dispatchers);
    let trace_out = flags.text("--trace-out");
    let trace_sample = flags.count("--trace-sample");

    let config = flags.service_config();

    let tracer = Tracer::global();
    if trace_out.is_some() || trace_sample.is_some() || config.slow_query_us > 0 {
        tracer.set_sample_every(trace_sample.unwrap_or(1) as u64);
        tracer.set_enabled(true);
    }
    let service = Arc::new(Service::with_config(config));

    let server = match serve(
        service,
        NetConfig {
            addr: flags.text("--addr").unwrap_or("127.0.0.1:7878").into(),
            queue_capacity: queue,
            per_client_quota: quota,
            dispatchers,
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mmjoin-netd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    // The "listening" line is the readiness signal scripts wait for.
    println!(
        "mmjoin-netd listening on {} ({dispatchers} dispatchers, queue {queue}, quota {})",
        server.addr(),
        if quota == 0 {
            (queue / 4).max(1)
        } else {
            quota
        },
    );
    server.wait();
    if let Some(path) = trace_out {
        let traces = tracer.last(usize::MAX);
        match std::fs::write(path, chrome_json(&traces)) {
            Ok(()) => println!("mmjoin-netd: wrote {} trace(s) to {path}", traces.len()),
            Err(e) => eprintln!("mmjoin-netd: write {path}: {e}"),
        }
    }
    println!("mmjoin-netd: drained and stopped");
}
