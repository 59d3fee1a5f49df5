//! `mmjoin-serve` — the join service behind a line-oriented protocol.
//!
//! Reads commands from stdin, one per line, and answers on stdout; every
//! answer starts with a single `ok …` / `err …` line (followed by
//! indented row lines for `query … show`). Pipe a script in, or drive it
//! interactively:
//!
//! ```text
//! $ cargo run --release -p mmjoin-service --bin mmjoin-serve
//! gen R Jokes 0.05
//! ok relation R: 24734 tuples, 805 sets, 143 elements (epoch 1)
//! query twopath R R
//! ok rows 648025 engine MMJoin cached false 0.312s
//! query twopath R R
//! ok rows 648025 engine MMJoin cached true 0.000s
//! stats
//! ok served 2 (cache hits 1, 50.0%), …
//! ```
//!
//! Commands run one at a time on the main thread. Run with
//! `--threads <n>` to grant an intra-query thread budget (engines then
//! request the whole budget per query; default keeps engines serial),
//! `--calibrate` to measure the dispatched GEMM kernel at startup —
//! sweeping the cores axis up to the thread budget — and re-derive the
//! planner's strategy crossover from it, and `--calibration <path>` to
//! cache that measurement across restarts (stale kernel tags, or a
//! cores axis short of the configured budget, force a re-measure). An
//! unknown flag or a value that does not parse prints the usage line and
//! exits with status 2. Type `help` for the full command list.
//!
//! The grammar and the interpreter live in
//! [`mmjoin_service::command`] — the exact same layer `mmjoin-netd`
//! dispatches over TCP, so the two transports can never drift. This
//! binary is only the stdin/stdout plumbing. Bad lines are answered
//! with `err … (offending token: …)`, never silently skipped.

use mmjoin_obs::trace::{chrome_json, span, Stage, Tracer};
use mmjoin_service::command::{self, Command};
use mmjoin_service::{flags, Service};
use std::io::BufRead;

fn main() {
    let flags = flags::SERVE.parse_env();
    let trace_out = flags.text("--trace-out");
    let config = flags.service_config();
    let calibrate_cost = config.calibrate_cost;

    let tracer = Tracer::global();
    if trace_out.is_some() || config.slow_query_us > 0 {
        tracer.set_enabled(true);
    }
    let service = Service::with_config(config);

    println!(
        "mmjoin-serve ready: {} engines, {} kernel{} (type `help`)",
        service.registry().len(),
        mmjoin_matrix::active_kernel(),
        if calibrate_cost { ", calibrated" } else { "" }
    );
    for line in std::io::stdin().lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // Each line is one request: mint its root span here, at the
        // REPL boundary (the stdin analogue of the wire boundary).
        let root = tracer.begin(trimmed);
        let parse_span = span(Stage::Parse, "command-parse");
        let parsed = Command::parse(trimmed);
        drop(parse_span);
        match parsed {
            Ok(cmd) => {
                // On stdin, `shutdown` and `quit` both just end the
                // session — queries already ran to completion, so the
                // drain is trivially done.
                let terminal = cmd.is_terminal();
                match command::execute(&service, cmd) {
                    Ok(answer) => println!("{answer}"),
                    Err(msg) => println!("err {msg}"),
                }
                if terminal {
                    drop(root);
                    break;
                }
            }
            Err(err) => println!("err {err}"),
        }
        drop(root);
    }
    if let Some(path) = trace_out {
        let traces = tracer.last(usize::MAX);
        match std::fs::write(path, chrome_json(&traces)) {
            Ok(()) => println!("wrote {} trace(s) to {path}", traces.len()),
            Err(e) => eprintln!("mmjoin-serve: write {path}: {e}"),
        }
    }
}
