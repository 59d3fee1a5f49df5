//! End-to-end observability: per-request traces spanning the command
//! layer → planner → executor (and, over the wire, the one admission
//! queue in front of them), and the `stats` / `trace` command surface
//! both transports share.
//!
//! The tracer is process-global, so every test serializes on one lock
//! and leaves the tracer disabled and empty behind itself.

use mmjoin::{MaintenancePolicy, Relation, Service, ServiceConfig};
use mmjoin_obs::trace::{Stage, Tracer};
use mmjoin_service::command;
use std::sync::{Mutex, MutexGuard, PoisonError};

static GLOBAL: Mutex<()> = Mutex::new(());

/// Serializes the test on the global tracer, starting from a clean,
/// enabled, sample-everything state.
fn with_tracer() -> MutexGuard<'static, ()> {
    let guard = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    let tracer = Tracer::global();
    tracer.clear();
    tracer.set_sample_every(1);
    tracer.set_enabled(true);
    guard
}

fn teardown() {
    let tracer = Tracer::global();
    tracer.set_enabled(false);
    tracer.clear();
}

fn chain_service() -> Service {
    chain_relations(Service::with_default_registry())
}

fn chain_relations(service: Service) -> Service {
    service.register(
        "R",
        Relation::from_edges((0..40u32).map(|i| (i % 8, i % 5))),
    );
    service.register(
        "S",
        Relation::from_edges((0..40u32).map(|i| (i % 5, i % 7))),
    );
    service.register(
        "T",
        Relation::from_edges((0..40u32).map(|i| (i % 7, i % 4))),
    );
    service
}

#[test]
fn composed_chain_query_trace_covers_every_stage() {
    let _guard = with_tracer();
    let tracer = Tracer::global();
    let service = chain_service();

    // The REPL/reader pattern: root at the boundary, then the shared
    // command layer does the rest.
    let line = "query chain R S T";
    let root = tracer.begin(line).expect("tracing is on");
    let answer = command::run_line(&service, line).expect("chain query runs");
    assert!(answer.starts_with("ok rows "), "{answer}");
    drop(root);

    let trace = tracer.last(1).pop().expect("one finished trace");
    assert_eq!(trace.label, line);
    let total = trace.total_ns();
    assert!(total > 0, "root span has a duration");

    let stages: Vec<Stage> = trace.spans.iter().map(|s| s.stage).collect();
    for want in [
        Stage::CacheProbe,
        Stage::Plan,
        Stage::Exec,
        Stage::Step,
        Stage::Serialize,
    ] {
        assert!(stages.contains(&want), "missing {want:?} in {stages:?}");
    }
    // In process nothing queues: the query ran on this thread.
    assert!(!stages.contains(&Stage::QueueWait), "{stages:?}");
    // A 3-relation chain decomposes into two joins: both plan steps (and
    // the final stage) must appear as Step spans.
    let steps = trace
        .spans
        .iter()
        .filter(|s| s.stage == Stage::Step)
        .count();
    assert!(steps >= 2, "expected every plan step traced, got {steps}");

    // Spans nest under the root, and the root's direct children are
    // sequential phases — their durations must sum to at most the total
    // request latency.
    let root_span = trace.root().expect("root span");
    let child_sum: u64 = trace
        .spans
        .iter()
        .filter(|s| s.parent == root_span.id)
        .map(|s| s.dur_ns)
        .sum();
    assert!(
        child_sum <= total,
        "direct children sum {child_sum}ns exceeds total {total}ns"
    );
    for s in &trace.spans {
        assert!(
            s.dur_ns <= total,
            "span {:?} ({}ns) outlives the request ({total}ns)",
            s.stage,
            s.dur_ns
        );
        assert!(
            s.parent == 0 || trace.spans.iter().any(|p| p.id == s.parent),
            "span {:?} has a dangling parent link",
            s.stage
        );
    }

    // The rendered tree carries every stage name with durations.
    let rendered = trace.render();
    for name in ["cache-probe", "plan", "step", "serialize"] {
        assert!(
            rendered.contains(name),
            "render missing {name}:\n{rendered}"
        );
    }
    teardown();
}

/// The `exec` box is open: a matrix-plan two-path or star records its five
/// engine phases — the terms of the paper's cost formula — as labelled
/// `step` spans under `exec`, once each and in order; an expansion plan
/// records none of them. The same run's `PlanStats` carry the phases as
/// seconds beside the optimizer's predictions, and `explain` names the
/// kernel (and, for a star, the grouped-variable shape it multiplies).
#[test]
fn matrix_plans_open_exec_into_their_five_phases() {
    const PHASES: [&str; 5] = ["partition", "light", "build", "product", "extract"];
    let _guard = with_tracer();
    let tracer = Tracer::global();
    let service = Service::with_default_registry();
    // 60 sets sharing 8 elements: full join 8·60² ≫ 20·N, a matrix plan.
    service.register(
        "Dense",
        Relation::from_edges((0..60u32).flat_map(|x| (0..8u32).map(move |y| (x, y)))),
    );
    // A perfect matching: output-like, the expansion plan.
    service.register("Sparse", Relation::from_edges((0..200u32).map(|i| (i, i))));
    // 30 sets sharing 8 elements: a star of three has 30³ answers.
    service.register(
        "Leg",
        Relation::from_edges((0..30u32).flat_map(|x| (0..8u32).map(move |y| (x, y)))),
    );

    let phases_of = |line: &str, engine: &str| -> Vec<String> {
        let root = tracer.begin(line).expect("tracing is on");
        let answer = command::run_line(&service, line).expect("query runs");
        assert!(answer.contains(&format!("engine {engine} ")), "{answer}");
        drop(root);
        let trace = tracer.last(1).pop().expect("one finished trace");
        let exec = trace
            .spans
            .iter()
            .find(|s| s.stage == Stage::Exec)
            .expect("an exec span");
        let under_exec: Vec<String> = trace
            .spans
            .iter()
            .filter(|s| s.stage == Stage::Step && s.parent == exec.id)
            .map(|s| s.label.to_string())
            .collect();
        // `trace tree` renders them with their measured durations.
        let rendered = trace.render();
        for label in &under_exec {
            assert!(rendered.contains(&format!("step {label}")), "{rendered}");
        }
        under_exec
    };
    // Every `y` is in every set, so the universal mask fills every row of
    // the product, and the product's label says so. The answer is that
    // product: the extract label counts its rows and the bytes of its words
    // and row lists — 60 rows of one word and 60 + 60 ids; 900 rows of one
    // word, 900 pairs and 30 ids.
    let mut phases = PHASES.map(String::from);
    phases[3] = "product rows_filled=60/60".into();
    phases[4] = format!("extract cells rows=3600 bytes={}", 8 * 60 + 4 * 120);
    assert_eq!(phases_of("query twopath Dense Dense", "MMJoin"), phases);
    phases[3] = "product rows_filled=900/900".into();
    phases[4] = format!("extract cells rows=27000 bytes={}", 8 * 900 + 4 * 1830);
    assert_eq!(phases_of("query star Leg Leg Leg", "MMJoin"), phases);
    // Pinned onto MMJoin, so that the engine's own optimizer — not the
    // service's engine choice — is what declines to partition.
    assert_eq!(
        phases_of("query twopath Sparse Sparse engine MMJoin", "MMJoin"),
        [""; 0]
    );

    let response = service
        .query(mmjoin::Request::two_path("Dense", "Dense"))
        .expect("query runs");
    let plan = response
        .stats
        .plan
        .as_ref()
        .expect("MMJoin reports its plan");
    assert_eq!(plan.heavy_backend, Some("bit row-or"));
    let measured = plan.measured_phase_secs.expect("phases measured");
    assert!(measured.build > 0.0 && measured.product > 0.0 && measured.extract > 0.0);
    assert!(plan.predicted_heavy_secs.is_some());
    assert_eq!(plan.rows_filled, Some(60));

    let explained = command::run_line(&service, "explain twopath Dense Dense").unwrap();
    assert!(explained.contains("heavy core bit"), "{explained}");
    assert!(explained.contains("predicted light"), "{explained}");

    // The star reports the same record, and `explain` the star's own plan.
    let response = service
        .query(mmjoin::Request::star(["Leg", "Leg", "Leg"]))
        .expect("query runs");
    let plan = response.stats.plan.as_ref().expect("a star plan");
    assert_eq!((plan.delta1, plan.delta2), (Some(0), Some(0)));
    assert_eq!(plan.heavy_dims, Some((900, 8, 30)));
    assert_eq!(plan.rows_filled, Some(900));
    assert_eq!(plan.heavy_core_matrix, Some(true));
    assert!(plan.heavy_backend.unwrap().starts_with("bit "));
    assert_eq!(plan.estimated_out, Some(27_000));
    assert!(plan.predicted_heavy_secs.unwrap() > 0.0);
    let measured = plan.measured_phase_secs.expect("phases measured");
    assert!(measured.build > 0.0 && measured.product > 0.0 && measured.extract > 0.0);
    let explained = command::run_line(&service, "explain star Leg Leg Leg").unwrap();
    assert!(
        explained.contains("Δ1=0 Δ2=0, heavy core bit"),
        "{explained}"
    );
    assert!(explained.contains("900 × 8 × 30"), "{explained}");
    teardown();
}

/// An update's trace says, per refreshed cache entry, what the maintenance
/// rule predicted and what the refresh then did.
#[test]
fn maintain_spans_name_predicted_and_actual_work() {
    let _guard = with_tracer();
    let tracer = Tracer::global();
    let service = chain_relations(Service::with_config(ServiceConfig {
        maintenance: MaintenancePolicy::enabled(),
        ..ServiceConfig::default()
    }));
    command::run_line(&service, "query twopath R R").unwrap();

    // First touch recomputes (no supports yet), the second update patches.
    let mut labels = Vec::new();
    for line in ["insert R 9,0", "insert R 10,1"] {
        let root = tracer.begin(line).expect("tracing is on");
        let answer = command::run_line(&service, line).expect("update applies");
        assert!(answer.contains("invalidated 0"), "{answer}");
        drop(root);
        let trace = tracer.last(1).pop().expect("one finished trace");
        let update = trace
            .spans
            .iter()
            .find(|s| s.stage == Stage::Maintain && s.label == "update R")
            .expect("the update's own span");
        let entry = trace
            .spans
            .iter()
            .find(|s| s.stage == Stage::Maintain && s.parent == update.id)
            .expect("one span per refreshed entry");
        assert!(entry.dur_ns <= update.dur_ns);
        labels.push(entry.label.to_string());
    }
    let [recompute, maintain] = &labels[..] else {
        panic!("two updates, two labels: {labels:?}");
    };
    for label in [recompute, maintain] {
        for field in [
            "R⋈R",
            "delta_cost=",
            "recompute_cost=",
            "maintain_pred_us=",
            "recompute_pred_us=",
            "measured_us=",
            "out=",
        ] {
            assert!(label.contains(field), "missing {field}: {label}");
        }
    }
    // No supports, no prices: the first touch had no choice to make. The
    // second compared two predictions in microseconds — a timing-dependent
    // choice, asserted only because the margin is two orders of magnitude:
    // 17 witnesses are ~0.1 µs at the model's prices, and the recompute side
    // is the ≥ 10 µs a whole service execution was just measured to take.
    assert!(recompute.starts_with("Recompute "), "{recompute}");
    assert!(
        recompute.contains("maintain_pred_us=- recompute_pred_us=- measured_us="),
        "{recompute}"
    );
    let predicted = |field: &str| -> f64 {
        let rest = &maintain[maintain.find(field).expect(field) + field.len()..];
        rest.split(' ').next().unwrap().parse().expect(field)
    };
    assert!(predicted("maintain_pred_us=") <= predicted("recompute_pred_us="));
    assert!(!recompute.contains("delta_rows="), "{recompute}");
    assert!(maintain.starts_with("Maintain "), "{maintain}");
    // The new set 10 pairs with the eight sets that hold element 1, both
    // ways round, and with itself: seventeen delta rows, all entering.
    assert!(
        maintain.ends_with("delta_rows=17 entered=17 left=0"),
        "{maintain}"
    );
    assert!(command::run_line(&service, "trace tree")
        .unwrap()
        .contains("entered=17"));
    teardown();
}

#[test]
fn trace_commands_export_chrome_json() {
    let _guard = with_tracer();
    let tracer = Tracer::global();
    let service = chain_service();

    let root = tracer.begin("query chain R S T").unwrap();
    command::run_line(&service, "query chain R S T").unwrap();
    drop(root);

    let out = command::run_line(&service, "trace last").unwrap();
    let json = out.strip_prefix("ok ").expect("ok-prefixed");
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"traceEvents\""), "{json}");
    for name in ["cache-probe", "plan", "serialize"] {
        assert!(json.contains(name), "chrome export missing {name}");
    }
    // Chrome trace events are complete (X-phase) with µs timestamps.
    assert!(json.contains("\"ph\":\"X\""), "{json}");

    let tree = command::run_line(&service, "trace tree").unwrap();
    assert!(tree.contains("cache-probe"), "{tree}");

    // `trace off` flips the gate; a new request mints no trace.
    assert_eq!(
        command::run_line(&service, "trace off").unwrap(),
        "ok tracing off"
    );
    assert!(tracer.begin("untraced").is_none());
    assert_eq!(
        command::run_line(&service, "trace sample 4").unwrap(),
        "ok tracing on, sampling every 4"
    );
    assert!(Tracer::global().enabled());
    teardown();
}

#[test]
fn stats_scopes_and_reset_over_the_grammar() {
    let _guard = with_tracer();
    // Tracing is irrelevant here; keep it off to exercise that path too.
    Tracer::global().set_enabled(false);
    let service = chain_service();
    command::run_line(&service, "query chain R S T").unwrap();
    command::run_line(&service, "query chain R S T").unwrap();

    let stats = command::run_line(&service, "stats").unwrap();
    assert!(stats.contains("served 2 (cache hits 1"), "{stats}");
    assert!(stats.contains("max"), "{stats}");

    let exec = command::run_line(&service, "stats executor").unwrap();
    assert!(exec.contains("budget"), "{exec}");

    let cache = command::run_line(&service, "stats cache").unwrap();
    assert!(cache.contains("hits 1, misses 1"), "{cache}");

    // No net front end on the direct path: `stats net` is an error.
    let err = command::run_line(&service, "stats net").unwrap_err();
    assert!(err.contains("no network front end"), "{err}");

    let json = command::run_line(&service, "stats --json").unwrap();
    let json = json.strip_prefix("ok ").unwrap();
    for key in [
        "\"service\"",
        "\"executor\"",
        "\"cache\"",
        "\"queries_served\":2",
        "\"p99_latency_us\"",
        "\"slow_queries\"",
    ] {
        assert!(json.contains(key), "stats --json missing {key}: {json}");
    }
    // Queue depth and rejections are the net front end's to report.
    for key in ["rejected", "queue_depth"] {
        assert!(!json.contains(key), "service scope reports {key}: {json}");
    }
    assert!(
        !json.contains("\"net\""),
        "no net scope without a front end"
    );

    // Reset zeroes counters but keeps the cache's entries and the
    // instruments registered.
    command::run_line(&service, "stats reset").unwrap();
    let m = service.metrics();
    assert_eq!(m.queries_served, 0);
    assert_eq!(m.max_latency_us, 0, "the all-time max resets");
    let warm = service
        .query(mmjoin::Request::chain(["R", "S", "T"]))
        .unwrap();
    assert!(warm.cached, "reset must not drop cached results");
    assert_eq!(service.metrics().queries_served, 1);
    teardown();
}

#[test]
fn net_transport_traces_and_answers_stats_net() {
    let _guard = with_tracer();
    let tracer = Tracer::global();
    let service = std::sync::Arc::new(chain_service());
    let server = mmjoin_net::serve(service, mmjoin_net::NetConfig::default()).unwrap();
    let addr = server.addr();

    let mut client = mmjoin_net::Client::connect(addr).unwrap();
    let resp = client.call("query chain R S T").unwrap();
    assert!(resp.body.starts_with("ok rows "), "{}", resp.body);

    let net = client.call("stats net").unwrap();
    assert!(net.body.starts_with("ok connections 1"), "{}", net.body);
    assert!(net.body.contains("served 1"), "{}", net.body);

    let json = client.call("stats --json").unwrap();
    assert!(json.body.contains("\"net\""), "{}", json.body);
    assert!(json.body.contains("\"per_client_served\""), "{}", json.body);

    // `trace last <n>` over the wire exports every retained trace —
    // including the chain query's, which waited for a compute slot.
    // (`trace last` alone would return only the most recent finished
    // trace: the `stats` command right before it.)
    let last = client.call("trace last 10").unwrap();
    assert!(last.body.contains("compute-token"), "{}", last.body);
    assert!(last.body.contains("\"traceEvents\""), "{}", last.body);
    // One place to wait, so exactly one queue-wait span per request that
    // took a slot — every one so far: a miss and three other commands.
    for trace in tracer.last(usize::MAX) {
        let waits: Vec<&str> = trace
            .spans
            .iter()
            .filter(|s| s.stage == Stage::QueueWait)
            .map(|s| s.label.as_ref())
            .collect();
        assert_eq!(waits, ["compute-token"], "{}", trace.render());
    }

    // The same query again is a hit: it takes no slot, so its trace has no
    // queue-wait at all — parse, probe, render, and the frame write, which
    // is inside the trace. The trace is closed after the reply is on the
    // wire, so the client may be here first.
    let warm = client.call("query chain R S T").unwrap();
    assert!(warm.body.contains("cached true"), "{}", warm.body);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let hit = loop {
        let mut asked: Vec<_> = tracer.last(usize::MAX);
        asked.retain(|t| t.label == "query chain R S T");
        if asked.len() == 2 {
            break asked.pop().unwrap();
        }
        assert!(std::time::Instant::now() < deadline, "the hit's trace");
        std::thread::yield_now();
    };
    let root = hit.root().expect("root span").id;
    let mut under_root: Vec<(Stage, &str)> = hit
        .spans
        .iter()
        .filter(|s| s.parent == root)
        .map(|s| (s.stage, s.label.as_ref()))
        .collect();
    under_root.sort_by_key(|&(_, label)| label);
    assert_eq!(
        under_root,
        [
            (Stage::Parse, "command-parse"),
            (Stage::Serialize, "render-response"),
            (Stage::CacheProbe, "result-cache"),
            (Stage::Serialize, "write-frame"),
        ],
        "{}",
        hit.render()
    );
    assert_eq!(hit.spans.len(), 5, "{}", hit.render());
    let net = client.call("stats net").unwrap();
    assert!(net.body.contains("served 5,"), "{}", net.body);
    let json = client.call("stats net --json").unwrap();
    assert!(json.body.contains("\"served\":6"), "{}", json.body);

    let reset = client.call("stats reset").unwrap();
    assert!(reset.body.starts_with("ok stats reset"), "{}", reset.body);
    let net = client.call("stats net").unwrap();
    assert!(
        net.body.contains("requests 1"),
        "net counters reset over the wire: {}",
        net.body
    );

    client.call("shutdown").unwrap();
    server.wait();
    assert!(!tracer.last(usize::MAX).is_empty());
    teardown();
}
