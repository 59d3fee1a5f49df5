//! `trajectory` — the fixed benchmark every later performance claim is
//! measured with. One invocation runs one workload once:
//!
//! ```text
//! trajectory --workload heavy_cold --seed 2020 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` serves the workload with tracing off and reports the
//! end-to-end metrics, the timed ones divided by the host's slowdown measured
//! beside them (see `host`); `--trace 1` serves one traced round and replays the
//! workload's inputs through each crate's public functions for the per-layer
//! metrics. Every answer is checked against an independent reference; a wrong
//! or refused answer is a failed operation and a non-zero exit. The last
//! line of standard output is the result as one JSON object. See
//! `benchmark/README.md`.

mod harness;
mod host;
mod layers;
mod metrics;
mod reference;
mod rng;
mod span;
mod stats;
mod sys;
mod workload;

use harness::{replay, verify_final_state, verify_shown, Stack};
use host::Yardstick;
use stats::{json_number, json_string, metrics_json, Metric};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Kind, Sizes, Workload, SHOW_ROWS, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The measured phase is replayed in segments of at least this long (each
/// ends with the round in which it runs out), and the host's speed is sampled
/// between them, while the server is idle.
const SEGMENT: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2020,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(args)
}

/// One set-up: generation, server start, registration, warm-up. Its seconds
/// are divided by the host's slowdown sampled just before and just after.
fn set_up(
    args: &Args,
    sizes: &Sizes,
    yard: &mut Yardstick,
) -> Result<(Workload, Stack, f64), String> {
    let before = yard.sample();
    let t0 = Instant::now();
    let w = workload::build(&args.workload, args.seed, sizes).expect("name was validated");
    let stack = Stack::start(&w)?;
    let secs = t0.elapsed().as_secs_f64();
    let slowdown = host::slowdown(&[before, yard.sample()]);
    Ok((w, stack, secs / slowdown))
}

/// Everything about the run that is not a measurement.
fn header_json(args: &Args, w: &Workload, stack: &Stack, rounds: usize, attempted: u64) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let granted = stack.service.executor_stats().granted_tokens;
    format!(
        "{{\"header\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": {}, \"rustc\": {}, \"features\": \"simd\", \"gemm_kernel\": {}, \
         \"host_cores\": {}, \"workers\": {}, \"dispatchers\": {}, \
         \"thread_budget_configured\": {}, \"thread_budget_granted\": {}, \
         \"executor_tokens_granted\": {}, \"clients\": {}, \"relations\": {}, \
         \"distinct_queries\": {}, \"ops_per_round\": {}, \"rounds\": {}, \"attempted\": {}, \
         \"script_hash\": \"{:016x}\"}}}}",
        json_string(w.name),
        args.seed,
        args.seconds,
        args.trace as u8,
        json_string(&env("TRAJECTORY_COMMIT")),
        json_string(&env("TRAJECTORY_RUSTC")),
        json_string(mmjoin_matrix::active_kernel().name()),
        sys::host_cores(),
        harness::WORKERS,
        harness::DISPATCHERS,
        harness::THREAD_BUDGET,
        stack.service.thread_budget(),
        granted,
        w.scripts.len(),
        w.relations.len(),
        w.queries.len(),
        w.ops_per_round(),
        rounds,
        attempted,
        w.script_hash(),
    )
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<34} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let sizes = Sizes::full();
    let mut yard = Yardstick::start()?;
    let (mut w, stack, first_setup) = set_up(args, &sizes, &mut yard)?;
    let t0 = Instant::now();
    let reference = reference::annotate(&mut w);
    let reference_s = t0.elapsed().as_secs_f64();

    // A cold workload's first round runs while the result cache is still
    // filling; every later round inserts into a full cache and pays for an
    // eviction. Users of a long-lived server see the latter, so one round is
    // played and thrown away before anything is timed.
    let fill = if w.cold {
        Some(replay(&stack, &w, None, None)?)
    } else {
        None
    };
    let (mut out, per_layer, peak_rss_mb, slowdown) = if args.trace {
        let (out, metrics) = layers::traced_pass(&w, &stack, &reference, args.seed, reference_s)?;
        (out, Some(metrics), 0.0, 1.0)
    } else {
        // Peak memory from here on: the reference answers are the
        // benchmark's, not the server's.
        sys::reset_peak_rss();
        let mut samples = vec![yard.sample()];
        let mut out = replay(&stack, &w, Some(SEGMENT), None)?;
        samples.push(yard.sample());
        while out.wall_s < args.seconds as f64 {
            out.absorb(replay(&stack, &w, Some(SEGMENT), None)?);
            samples.push(yard.sample());
        }
        let slowdown = host::slowdown(&samples);
        eprintln!(
            "trajectory: host slowdown {slowdown:.3} over {} samples (spin, lanes, stream, \
             chase, alloc, hand-off: {:.2?})",
            samples.len(),
            host::ratios(&samples)
        );
        (out, None, sys::peak_rss_mb(), slowdown)
    };
    // Answers of the discarded round are checked like any other.
    if let Some(fill) = fill {
        out.log.merge(fill.log);
    }
    verify_shown(&mut out.log, &w, &reference, SHOW_ROWS);
    if w.scripts.iter().flatten().any(|op| op.kind == Kind::Update) {
        verify_final_state(&mut out.log, &w, &reference, &stack);
    }
    println!(
        "{}",
        header_json(args, &w, &stack, out.rounds(), out.log.attempted)
    );
    stack.stop();

    let metrics = match per_layer {
        Some(metrics) => metrics,
        None => {
            // The other set-ups come last, so that the memory they churn
            // through is not in the measured server's peak.
            let mut setups = vec![first_setup];
            for _ in 1..SETUP_REPEATS {
                let (_, stack, secs) = set_up(args, &sizes, &mut yard)?;
                stack.stop();
                setups.push(secs);
            }
            eprintln!(
                "trajectory: set-ups {setups:.4?} s normalised, reference answers \
                 {reference_s:.2} s"
            );
            let metrics =
                metrics::end_to_end(&w, &out, stats::median(&setups), peak_rss_mb, slowdown);
            // `compare.py` and the driver divide by these: a zero or a NaN
            // is a broken measurement, not a result.
            if let Some(m) = metrics
                .iter()
                .find(|m| !(m.value.is_finite() && m.value > 0.0))
            {
                return Err(format!("{} measured as {}", m.name, m.value));
            }
            metrics
        }
    };
    yard.stop();
    print_table(&metrics);
    if !args.trace {
        // The end-to-end metrics the contract line does not carry (see
        // `metrics::SUITE`).
        let suite = metrics::suite(&w, &out, slowdown);
        print_table(&suite);
        println!("{{\"suite\": {}}}", metrics_json(&suite));
    }
    let correct = out.log.failed == 0;
    if let Some(why) = &out.log.first_failure {
        eprintln!(
            "trajectory: {} of {} operations failed; first: {why}",
            out.log.failed, out.log.attempted
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.log.attempted,
        out.log.failed,
        metrics_json(&metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("trajectory: {e}");
            eprintln!(
                "usage: trajectory --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("trajectory: {e}");
            ExitCode::FAILURE
        }
    }
}
