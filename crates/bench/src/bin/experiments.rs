//! Experiment driver: regenerates every table and figure of §7, plus the
//! service-layer workload replay.
//!
//! ```text
//! experiments <target> [<target> …] [--scale <f64>] [--json <path>]
//!             [--gate] [--threads <n>]
//!
//! targets: engines table2 plan fig3a fig3b fig4a fig4b fig4c fig4d fig4f
//!          fig5a fig5b fig5c fig5d fig5g fig5h fig5e fig5f fig6a
//!          fig6b fig6c fig6d fig7 fig8 ablation service chains
//!          saturation crossover all
//! ```
//!
//! Several targets may be given at once; with `--json` their tables land
//! in one file — `experiments service saturation --gate --json
//! BENCH_6.json` is how the committed perf-trajectory snapshot is made.
//!
//! Engines come from the [`mmjoin::EngineRegistry`]; `experiments engines`
//! prints the roster the other targets enumerate. With `--json <path>`,
//! every produced table is also written to `path` as a JSON array of
//! `{"target", "scale", "title", "headers", "rows"}` objects (text-only
//! targets contribute `{"target", "scale", "text"}`) — the start of the
//! `BENCH_*.json` machine-readable perf trajectory. With `--gate`, the
//! perf-regression thresholds in [`mmjoin_bench::gate`] are checked after
//! each table and any violation fails the process — the CI smoke gate.

use mmjoin::default_registry;
use mmjoin_bench::report::{json_string, Table};
use mmjoin_bench::{
    chains_bench, crossover_bench, figures, gate, saturation_bench, service_bench, DEFAULT_SCALE,
};
use mmjoin_datagen::DatasetKind;

/// The registry roster as text: every engine name and the query families
/// it supports (probed with tiny representative queries).
fn engines_report() -> String {
    use mmjoin::{Query, QueryGraph, Relation};
    let registry = default_registry(1);
    let r = Relation::from_edges([(0, 0), (1, 0)]);
    let rels = vec![r.clone(), r.clone()];
    let chain = vec![r.clone(), r.clone(), r.clone()];
    let probes = [
        ("two-path", Query::two_path(&r, &r).build().unwrap()),
        ("star", Query::star(&rels).build().unwrap()),
        ("similarity", Query::similarity(&r, 1).build().unwrap()),
        ("containment", Query::containment(&r).build().unwrap()),
        (
            "general",
            Query::general(QueryGraph::chain(&chain).unwrap()).unwrap(),
        ),
    ];
    let mut out = format!("{} registered engines:\n", registry.len());
    for engine in registry.iter() {
        let families: Vec<&str> = probes
            .iter()
            .filter(|(_, q)| engine.supports(q))
            .map(|&(name, _)| name)
            .collect();
        out.push_str(&format!(
            "  {:<26} {}\n",
            engine.name(),
            families.join(", ")
        ));
    }
    out
}

/// One target's produce: a structured table or plain text.
enum Output {
    Table(Table),
    Text(String),
}

/// Runs one target. Under `--gate`, `chains` and `crossover` — the
/// targets whose gate thresholds read *timings* (baseline speedup,
/// thread-scaling smoke; the service gate thresholds hit rates,
/// which are deterministic) — switch to one-warmup median-of-3
/// measurements so a single scheduler hiccup cannot fake a perf
/// regression. `threads` (`--threads`, default 8) is the intra-query
/// budget the crossover target calibrates and scales against.
fn run(name: &str, scale: f64, gated: bool, threads: usize) -> Output {
    let trials = if gated { 3 } else { 1 };
    match name {
        "engines" => Output::Text(engines_report()),
        "plan" => Output::Table(figures::plan_report(scale)),
        "table2" => Output::Text(figures::table2(scale)),
        "fig3a" => Output::Table(figures::fig3a()),
        "fig3b" => Output::Table(figures::fig3b()),
        "fig4a" => Output::Table(figures::fig4a(scale)),
        "fig4b" => Output::Table(figures::fig4b(scale)),
        "fig4c" => Output::Table(figures::fig4c(scale)),
        "fig4d" | "fig4e" => Output::Table(figures::fig4de(scale)),
        "fig4f" | "fig4g" => Output::Table(figures::fig4fg(scale)),
        "fig5a" => Output::Table(figures::fig5_unordered(DatasetKind::Dblp, scale)),
        "fig5b" => Output::Table(figures::fig5_unordered(DatasetKind::Jokes, scale)),
        "fig5c" => Output::Table(figures::fig5_unordered(DatasetKind::Image, scale)),
        "fig5d" => Output::Table(figures::fig5_parallel(DatasetKind::Dblp, scale)),
        "fig5g" => Output::Table(figures::fig5_parallel(DatasetKind::Jokes, scale)),
        "fig5h" => Output::Table(figures::fig5_parallel(DatasetKind::Image, scale)),
        "fig5e" => Output::Table(figures::fig_ordered_ssj(DatasetKind::Dblp, scale)),
        "fig5f" => Output::Table(figures::fig_ordered_ssj(DatasetKind::Jokes, scale)),
        "fig6a" => Output::Table(figures::fig_ordered_ssj(DatasetKind::Image, scale)),
        "fig6b" => Output::Table(figures::fig6_bsi(DatasetKind::Jokes, scale)),
        "fig6c" => Output::Table(figures::fig6_bsi(DatasetKind::Words, scale)),
        "fig6d" => Output::Table(figures::fig6_bsi(DatasetKind::Image, scale)),
        "fig7" => Output::Table(figures::fig7(scale)),
        "fig8" => Output::Table(figures::fig8(scale)),
        "ablation" => Output::Table(figures::ablation_matrix_backends(scale)),
        "service" => Output::Table(service_bench::service_experiment(scale)),
        "saturation" => Output::Table(saturation_bench::saturation_experiment(scale)),
        "chains" => Output::Table(chains_bench::chains_experiment_trials(scale, trials)),
        "crossover" => Output::Table(crossover_bench::crossover_experiment(
            scale, trials, threads,
        )),
        other => {
            eprintln!("unknown target `{other}`");
            std::process::exit(2);
        }
    }
}

const ALL_TARGETS: [&str; 29] = [
    "engines",
    "table2",
    "plan",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig4c",
    "fig4d",
    "fig4f",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig5d",
    "fig5g",
    "fig5h",
    "fig5e",
    "fig5f",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig6d",
    "fig7",
    "fig8",
    "ablation",
    "service",
    "chains",
    "saturation",
    "crossover",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Leading non-flag arguments are targets; flags follow.
    let named: Vec<&str> = args
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let scale = flag_value("--scale")
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(DEFAULT_SCALE);
    let json_path = flag_value("--json").cloned();
    let gate_enabled = args.iter().any(|a| a == "--gate");
    let threads = flag_value("--threads")
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(8);

    let targets: Vec<&str> = if named.is_empty() || named.contains(&"all") {
        ALL_TARGETS.to_vec()
    } else {
        named
    };

    let mut json_entries: Vec<String> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for name in &targets {
        if targets.len() > 1 {
            eprintln!(">>> running {name} (scale {scale})");
        }
        let output = run(name, scale, gate_enabled, threads);
        match &output {
            Output::Table(table) => println!("{}", table.render()),
            Output::Text(text) => println!("{text}"),
        }
        if gate_enabled {
            if let Output::Table(table) = &output {
                if let Err(violation) = gate::check(name, table) {
                    eprintln!("GATE FAIL [{name}]: {violation}");
                    gate_failures.push(format!("{name}: {violation}"));
                } else {
                    eprintln!("gate ok [{name}]");
                }
            }
        }
        if json_path.is_some() {
            let body = match &output {
                Output::Table(table) => {
                    // Splice the target/scale fields into the table object.
                    let table_json = table.to_json();
                    format!(
                        "{{\"target\": {}, \"scale\": {scale}, {}",
                        json_string(name),
                        &table_json[1..]
                    )
                }
                Output::Text(text) => format!(
                    "{{\"target\": {}, \"scale\": {scale}, \"text\": {}}}",
                    json_string(name),
                    json_string(text)
                ),
            };
            json_entries.push(body);
        }
    }

    if let Some(path) = json_path {
        let payload = format!("[\n  {}\n]\n", json_entries.join(",\n  "));
        if let Err(e) = std::fs::write(&path, payload) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} JSON entries to {path}", json_entries.len());
    }

    if !gate_failures.is_empty() {
        eprintln!("{} perf gate(s) failed:", gate_failures.len());
        for failure in &gate_failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
}
