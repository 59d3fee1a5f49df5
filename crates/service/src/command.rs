//! Shared command layer: one grammar, two transports.
//!
//! Both the stdin REPL (`mmjoin-serve`) and the TCP server
//! (`mmjoin-netd`) speak the same line-oriented command language. This
//! module owns the grammar — [`Command::parse`] turns a line into a
//! typed [`Command`], reporting parse failures with the offending token
//! — and the interpreter — [`execute`] runs a command against a
//! [`Service`] and renders the single `ok …` / `err …` answer both
//! transports print verbatim. Transports only differ in how lines
//! arrive and where answers go.

use crate::metrics::MetricsSnapshot;
use crate::service::panic_message;
use crate::{AtomSpec, Request, Response, Service, ServiceError, UpdateReport};
use mmjoin_executor::ExecutorStats;
use mmjoin_obs::trace::{self, chrome_json, Stage, Tracer};
use mmjoin_storage::io::read_edge_list;
use mmjoin_storage::{CsrIndex, Edge, Relation, RelationBuilder};
use std::fmt::Write as _;
use std::iter;
use std::time::Instant;

/// A parse failure carrying the token that caused it, so transports can
/// point at the exact offender instead of swallowing bad lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The token (or fragment) that made the parse fail, when one is
    /// identifiable; `None` for structural errors like a missing
    /// argument.
    pub token: Option<String>,
    /// Human-readable description (usage string or reason).
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            token: None,
            message: message.into(),
        }
    }

    fn at(token: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            token: Some(token.into()),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.token {
            Some(token) => write!(f, "{} (offending token: `{token}`)", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// One parsed command. Parsing is pure (no catalog lookups, no I/O —
/// `load` keeps its path and opens it at execute time), so a `Command`
/// can be validated on one thread and executed on another.
#[derive(Debug)]
pub enum Command {
    /// `help`
    Help,
    /// `register <name> <x,y> …`
    Register { name: String, relation: Relation },
    /// `load <name> <path>`
    Load { name: String, path: String },
    /// `gen <name> <dataset> <scale>`
    Gen {
        name: String,
        dataset: mmjoin_datagen::DatasetKind,
        scale: f64,
    },
    /// `insert <name> <x,y> …` (staged delta)
    Insert { name: String, edges: Vec<Edge> },
    /// `delete <name> <x,y> …` (staged delta)
    Delete { name: String, edges: Vec<Edge> },
    /// `catalog`
    Catalog,
    /// `engines`
    Engines,
    /// `stats [service|net|executor|cache] [--json]`
    Stats { scope: StatsScope, json: bool },
    /// `stats reset` — zero every counter, keep registrations.
    StatsReset,
    /// `trace on|off` / `trace sample <n>` / `trace last [n]` /
    /// `trace tree [n]`
    Trace(TraceCmd),
    /// `query …`; `show` carries the max rows to print (None = don't).
    Query {
        request: Request,
        show: Option<usize>,
    },
    /// `explain <query …>`
    Explain { request: Request },
    /// `quit` / `exit` — close this client's session.
    Quit,
    /// `shutdown` — stop the whole server, draining in-flight work.
    Shutdown,
}

/// Which subsystem `stats` reports on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsScope {
    /// Bare `stats` / `stats --json`: the service snapshot (plus the
    /// executor, cache and front end under `--json`).
    All,
    /// `stats service`
    Service,
    /// `stats net` — the transport front end, when one is attached.
    Net,
    /// `stats executor` — the shared intra-query pool.
    Executor,
    /// `stats cache` — the result cache's own counters and what it holds,
    /// beside the bytes of the registered relations.
    Cache,
}

/// A `trace …` subcommand against the process-global [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCmd {
    /// `trace on` — start tracing requests.
    On,
    /// `trace off` — back to the single-atomic-load fast path.
    Off,
    /// `trace sample <n>` — trace every n-th request.
    Sample(u64),
    /// `trace last [n]` — export the last n finished traces as Chrome
    /// trace-event JSON (load in `chrome://tracing` / Perfetto).
    Last(usize),
    /// `trace tree [n]` — render the last n finished traces as
    /// indented span trees with per-stage durations.
    Tree(usize),
}

impl Command {
    /// Parses one non-empty, non-comment line. The caller is expected
    /// to skip blank lines and `#` comments (transport concerns).
    pub fn parse(line: &str) -> Result<Command, ParseError> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some(&head) = tokens.first() else {
            return Err(ParseError::new("empty command"));
        };
        match head {
            "help" => Ok(Command::Help),
            "quit" | "exit" => Ok(Command::Quit),
            "shutdown" => Ok(Command::Shutdown),
            "catalog" => Ok(Command::Catalog),
            "engines" => Ok(Command::Engines),
            "stats" => parse_stats(&tokens[1..]),
            "trace" => parse_trace(&tokens[1..]),
            "register" => {
                let name = *tokens
                    .get(1)
                    .ok_or(ParseError::new("usage: register <name> <x,y> …"))?;
                let relation = parse_edges(&tokens[2..])?;
                Ok(Command::Register {
                    name: name.to_string(),
                    relation,
                })
            }
            "load" => {
                let name = *tokens
                    .get(1)
                    .ok_or(ParseError::new("usage: load <name> <path>"))?;
                let path = *tokens
                    .get(2)
                    .ok_or(ParseError::new("usage: load <name> <path>"))?;
                Ok(Command::Load {
                    name: name.to_string(),
                    path: path.to_string(),
                })
            }
            "gen" => {
                let name = *tokens
                    .get(1)
                    .ok_or(ParseError::new("usage: gen <name> <dataset> <scale>"))?;
                let dataset = parse_dataset(
                    tokens
                        .get(2)
                        .copied()
                        .ok_or(ParseError::new("missing dataset"))?,
                )?;
                let scale_token = tokens
                    .get(3)
                    .copied()
                    .ok_or(ParseError::new("missing scale"))?;
                let scale: f64 = scale_token
                    .parse()
                    .map_err(|_| ParseError::at(scale_token, "bad scale"))?;
                Ok(Command::Gen {
                    name: name.to_string(),
                    dataset,
                    scale,
                })
            }
            "insert" => {
                let name = *tokens
                    .get(1)
                    .ok_or(ParseError::new("usage: insert <name> <x,y> …"))?;
                Ok(Command::Insert {
                    name: name.to_string(),
                    edges: parse_edge_pairs(&tokens[2..])?,
                })
            }
            "delete" => {
                let name = *tokens
                    .get(1)
                    .ok_or(ParseError::new("usage: delete <name> <x,y> …"))?;
                Ok(Command::Delete {
                    name: name.to_string(),
                    edges: parse_edge_pairs(&tokens[2..])?,
                })
            }
            "query" => {
                let (request, show) = parse_request(&tokens[1..])?;
                Ok(Command::Query { request, show })
            }
            "explain" => {
                let (request, _) = parse_request(&tokens[1..])?;
                Ok(Command::Explain { request })
            }
            other => Err(ParseError::at(other, "unknown command (type `help`)")),
        }
    }

    /// Commands that end the session (`quit`) or the server (`shutdown`).
    pub fn is_terminal(&self) -> bool {
        matches!(self, Command::Quit | Command::Shutdown)
    }
}

/// The transport hosting this command session, as far as `stats` is
/// concerned. The REPL has no network front end ([`NoFrontend`]); the
/// TCP server implements this over its `NetMetrics` so `stats net` and
/// `stats reset` reach the transport counters without the service crate
/// depending on the net crate.
pub trait Frontend {
    /// One-line human-readable transport stats, `None` when the
    /// transport has none (then `stats net` is an error).
    fn net_stats(&self) -> Option<String> {
        None
    }
    /// The same counters as a JSON object, `None` when absent.
    fn net_stats_json(&self) -> Option<String> {
        None
    }
    /// Zeroes the transport counters as part of `stats reset`.
    fn reset_stats(&self) {}
    /// Stops the transport once work in flight is drained (`shutdown`).
    /// The REPL has nothing to stop: it ends its loop on the command.
    fn shutdown(&self) {}
}

/// The frontend of transports without one (REPL, tests, direct calls).
pub struct NoFrontend;

impl Frontend for NoFrontend {}

/// Runs one command against the service. `Ok` answers already carry
/// their leading `ok`; transports wrap `Err` in a leading `err `.
/// Equivalent to [`execute_with`] over [`NoFrontend`].
pub fn execute(service: &Service, cmd: Command) -> Result<String, String> {
    execute_with(service, cmd, &NoFrontend)
}

/// Runs one command against the service, with `frontend` answering for
/// the transport in `stats net` / `stats reset` and stopping it on
/// `shutdown`.
pub fn execute_with(
    service: &Service,
    cmd: Command,
    frontend: &dyn Frontend,
) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(HELP.trim_end().to_string()),
        Command::Register { name, relation } => register_report(service, &name, relation),
        Command::Load { name, path } => {
            let file = std::fs::File::open(&path).map_err(|e| format!("open {path}: {e}"))?;
            let rel = read_edge_list(file).map_err(|e| format!("parse {path}: {e}"))?;
            register_report(service, &name, rel)
        }
        Command::Gen {
            name,
            dataset,
            scale,
        } => {
            let rel = mmjoin_datagen::generate(dataset, scale, 2020);
            register_report(service, &name, rel)
        }
        Command::Insert { name, edges } => {
            let report = service.insert(&name, edges).map_err(|e| e.to_string())?;
            Ok(delta_report(service, &name, &report))
        }
        Command::Delete { name, edges } => {
            let report = service.delete(&name, edges).map_err(|e| e.to_string())?;
            Ok(delta_report(service, &name, &report))
        }
        Command::Catalog => {
            let names = service.relation_names();
            if names.is_empty() {
                return Ok("ok catalog empty".into());
            }
            let mut out = format!(
                "ok {} relations (epoch {})",
                names.len(),
                service.catalog_epoch()
            );
            for name in names {
                // Unregistered since the listing: nothing to report.
                let Some(rel) = service.relation(&name) else {
                    continue;
                };
                let _ = write!(
                    out,
                    "\n  {name}: {}, max set {} / max element degree {}, packed {} bytes",
                    sizes(&rel),
                    max_degree(rel.by_x()),
                    max_degree(rel.by_y()),
                    rel.packed_bytes()
                );
            }
            Ok(out)
        }
        Command::Engines => {
            let names = service.registry().names();
            Ok(format!("ok {} engines: {}", names.len(), names.join(", ")))
        }
        Command::Stats { scope, json } => run_stats(service, scope, json, frontend),
        Command::StatsReset => {
            service.reset_metrics();
            frontend.reset_stats();
            Ok("ok stats reset (registrations kept)".into())
        }
        Command::Trace(tc) => run_trace(tc),
        Command::Query { request, show } => run_query(service, request, show),
        Command::Explain { request } => {
            let lines = service.explain(request).map_err(|e| e.to_string())?;
            Ok(format!("ok {}", lines.join("\n  ")))
        }
        Command::Quit => Ok("ok bye".into()),
        Command::Shutdown => {
            frontend.shutdown();
            Ok("ok shutting down".into())
        }
    }
}

/// Parses one line end to end and executes it — the convenience of the
/// REPL and of in-process callers. Parse errors come back as the same
/// `Err(String)` shape as execution errors (with the offending token).
pub fn run_line(service: &Service, line: &str) -> Result<String, String> {
    let cmd = Command::parse(line).map_err(|e| e.to_string())?;
    execute(service, cmd)
}

/// Parses everything after `stats`.
fn parse_stats(tokens: &[&str]) -> Result<Command, ParseError> {
    const USAGE: &str = "usage: stats [service|net|executor|cache] [--json] | stats reset";
    let mut scope = StatsScope::All;
    let mut json = false;
    for &t in tokens {
        match t {
            "reset" if tokens.len() == 1 => return Ok(Command::StatsReset),
            "service" => scope = StatsScope::Service,
            "net" => scope = StatsScope::Net,
            "executor" => scope = StatsScope::Executor,
            "cache" => scope = StatsScope::Cache,
            "--json" | "json" => json = true,
            other => return Err(ParseError::at(other, USAGE)),
        }
    }
    Ok(Command::Stats { scope, json })
}

/// Parses everything after `trace`.
fn parse_trace(tokens: &[&str]) -> Result<Command, ParseError> {
    const USAGE: &str = "usage: trace on|off | trace sample <n> | trace last [n] | trace tree [n]";
    let count = |tokens: &[&str], default: usize| -> Result<usize, ParseError> {
        match tokens.first() {
            None => Ok(default),
            Some(&t) => t.parse().map_err(|_| ParseError::at(t, USAGE)),
        }
    };
    match tokens.first() {
        Some(&"on") => Ok(Command::Trace(TraceCmd::On)),
        Some(&"off") => Ok(Command::Trace(TraceCmd::Off)),
        Some(&"sample") => {
            let t = *tokens.get(1).ok_or(ParseError::new(USAGE))?;
            let n: u64 = t.parse().map_err(|_| ParseError::at(t, USAGE))?;
            Ok(Command::Trace(TraceCmd::Sample(n)))
        }
        Some(&"last") => Ok(Command::Trace(TraceCmd::Last(count(&tokens[1..], 1)?))),
        Some(&"tree") => Ok(Command::Trace(TraceCmd::Tree(count(&tokens[1..], 1)?))),
        Some(other) => Err(ParseError::at(*other, USAGE)),
        None => Err(ParseError::new(USAGE)),
    }
}

/// Parses everything after `query` / `explain` into a request plus the
/// `show [n]` row budget. Accepts the per-family keyword forms *and* a
/// datalog-ish general form `Q(x,w) :- R(x,y), S(y,z), T(z,w)`.
fn parse_request(tokens: &[&str]) -> Result<(Request, Option<usize>), ParseError> {
    let family = *tokens
        .first()
        .ok_or(ParseError::new("usage: query <family|datalog> …"))?;
    let mut rest: Vec<&str> = tokens[1..].to_vec();

    if family.contains('(') {
        // Datalog form: strip trailing flags, re-join, parse the rule.
        let mut rest: Vec<&str> = tokens.to_vec();
        let show = take_show(&mut rest);
        let limit = take_value(&mut rest, "limit")?;
        let engine = take_str_value(&mut rest, "engine")?;
        let mut request = parse_datalog(&rest.join(" "))?;
        if let Some(limit) = limit {
            request = request.limit(limit as u64);
        }
        if let Some(engine) = engine {
            request = request.on_engine(engine);
        }
        return Ok((request, show));
    }

    let show = take_show(&mut rest);
    let mut request = match family {
        "twopath" => {
            if rest.len() < 2 {
                return Err(ParseError::new("usage: query twopath <R> <S> …"));
            }
            let (r, s) = (rest.remove(0), rest.remove(0));
            let counts = take_flag(&mut rest, "counts");
            let min = take_value(&mut rest, "min")?;
            match (counts, min) {
                (_, Some(c)) => Request::two_path_counts(r, s, c),
                (true, None) => Request::two_path_counts(r, s, 1),
                (false, None) => Request::two_path(r, s),
            }
        }
        "star" => {
            let mut names = Vec::new();
            while !rest.is_empty() && !matches!(rest[0], "limit" | "engine") {
                names.push(rest.remove(0));
            }
            if names.is_empty() {
                return Err(ParseError::new("usage: query star <R1> [… Rk] …"));
            }
            Request::star(names)
        }
        "chain" => {
            let mut names = Vec::new();
            while !rest.is_empty() && !matches!(rest[0], "limit" | "engine") {
                names.push(rest.remove(0));
            }
            if names.is_empty() {
                return Err(ParseError::new("usage: query chain <R1> [… Rk] …"));
            }
            Request::chain(names)
        }
        "sim" => {
            if rest.len() < 2 {
                return Err(ParseError::new("usage: query sim <R> <c> …"));
            }
            let r = rest.remove(0);
            let c_token = rest.remove(0);
            let c: u32 = c_token
                .parse()
                .map_err(|_| ParseError::at(c_token, "bad threshold c"))?;
            let req = Request::similarity(r, c);
            if take_flag(&mut rest, "ordered") {
                req.ordered()
            } else {
                req
            }
        }
        "contain" => {
            if rest.is_empty() {
                return Err(ParseError::new("usage: query contain <R> …"));
            }
            Request::containment(rest.remove(0))
        }
        other => return Err(ParseError::at(other, "unknown query family")),
    };
    if let Some(limit) = take_value(&mut rest, "limit")? {
        request = request.limit(limit as u64);
    }
    if let Some(pos) = rest.iter().position(|&t| t == "engine") {
        let name = *rest.get(pos + 1).ok_or(ParseError::at(
            "engine",
            "engine flag needs a registry name",
        ))?;
        request = request.on_engine(name);
        rest.drain(pos..=pos + 1);
    }
    if !rest.is_empty() {
        return Err(ParseError::at(
            rest.join(" "),
            "unrecognised trailing tokens",
        ));
    }
    Ok((request, show))
}

/// Executes `stats [scope] [--json]`.
fn run_stats(
    service: &Service,
    scope: StatsScope,
    json: bool,
    frontend: &dyn Frontend,
) -> Result<String, String> {
    if json {
        let body = match scope {
            StatsScope::Service => service_json(&service.metrics()),
            StatsScope::Net => frontend
                .net_stats_json()
                .ok_or("no network front end attached (stats net needs mmjoin-netd)")?,
            StatsScope::Executor => executor_json(&service.executor_stats()),
            StatsScope::Cache => cache_json(service),
            StatsScope::All => {
                let mut body = format!(
                    "{{\"service\":{},\"executor\":{},\"cache\":{}",
                    service_json(&service.metrics()),
                    executor_json(&service.executor_stats()),
                    cache_json(service),
                );
                if let Some(net) = frontend.net_stats_json() {
                    body.push_str(&format!(",\"net\":{net}"));
                }
                body.push('}');
                body
            }
        };
        return Ok(format!("ok {body}"));
    }
    match scope {
        StatsScope::All | StatsScope::Service => Ok(format!("ok {}", service.metrics())),
        StatsScope::Net => frontend
            .net_stats()
            .map(|s| format!("ok {s}"))
            .ok_or_else(|| "no network front end attached (stats net needs mmjoin-netd)".into()),
        StatsScope::Executor => Ok(format!("ok {}", service.executor_stats())),
        StatsScope::Cache => {
            let fields = cache_fields(service).map(|(name, value)| format!("{name} {value}"));
            Ok(format!("ok cache {}", fields.join(", ")))
        }
    }
}

/// The service snapshot as a JSON object (field names match the struct).
fn service_json(m: &MetricsSnapshot) -> String {
    format!(
        "{{\"queries_served\":{},\"cache_hits\":{},\"cache_hit_rate\":{:.4},\"errors\":{},\
         \"slow_queries\":{},\"updates\":{},\"invalidated\":{},\"operand_packs\":{},\"operand_reuses\":{},\
         \"cache_invalidations\":{},\"mean_latency_us\":{},\"p50_latency_us\":{},\
         \"p99_latency_us\":{},\"max_latency_us\":{}}}",
        m.queries_served,
        m.cache_hits,
        m.cache_hit_rate,
        m.errors,
        m.slow_queries,
        m.updates,
        m.invalidated,
        m.operand_packs,
        m.operand_reuses,
        m.cache_invalidations,
        m.mean_latency_us,
        m.p50_latency_us,
        m.p99_latency_us,
        m.max_latency_us,
    )
}

/// The executor snapshot as a JSON object.
fn executor_json(e: &ExecutorStats) -> String {
    format!(
        "{{\"budget\":{},\"tokens_free\":{},\"batches\":{},\"tasks\":{},\"stolen_tasks\":{},\
         \"granted_tokens\":{},\"inline_serial\":{}}}",
        e.budget,
        e.tokens_free,
        e.batches,
        e.tasks,
        e.stolen_tasks,
        e.granted_tokens,
        e.inline_serial,
    )
}

/// The result cache's counters and what it holds — entries, and the bytes
/// of their result arrays — then the bytes the catalog's relations hold,
/// named as `stats cache` prints them.
fn cache_fields(service: &Service) -> [(&'static str, u64); 7] {
    let (hits, misses, evictions, invalidations) = service.cache_counters();
    let (entries, bytes) = service.cache_size();
    [
        ("hits", hits),
        ("misses", misses),
        ("evictions", evictions),
        ("invalidations", invalidations),
        ("entries", entries as u64),
        ("bytes", bytes as u64),
        ("catalog_bytes", service.catalog_bytes() as u64),
    ]
}

/// [`cache_fields`] as a JSON object.
fn cache_json(service: &Service) -> String {
    let fields = cache_fields(service).map(|(name, value)| format!("\"{name}\":{value}"));
    format!("{{{}}}", fields.join(","))
}

/// Executes a `trace …` subcommand against the global tracer.
fn run_trace(cmd: TraceCmd) -> Result<String, String> {
    let tracer = Tracer::global();
    match cmd {
        TraceCmd::On => {
            tracer.set_enabled(true);
            Ok("ok tracing on".into())
        }
        TraceCmd::Off => {
            tracer.set_enabled(false);
            Ok("ok tracing off".into())
        }
        TraceCmd::Sample(n) => {
            tracer.set_sample_every(n);
            tracer.set_enabled(true);
            Ok(format!("ok tracing on, sampling every {}", n.max(1)))
        }
        TraceCmd::Last(n) => {
            let traces = tracer.last(n.max(1));
            if traces.is_empty() {
                return Err("no finished traces (is tracing on? try `trace on`)".into());
            }
            Ok(format!("ok {}", chrome_json(&traces)))
        }
        TraceCmd::Tree(n) => {
            let traces = tracer.last(n.max(1));
            if traces.is_empty() {
                return Err("no finished traces (is tracing on? try `trace on`)".into());
            }
            let trees: Vec<String> = traces.iter().map(|t| t.render()).collect();
            Ok(format!("ok {}", trees.join("\n").trim_end()))
        }
    }
}

fn run_query(service: &Service, request: Request, show: Option<usize>) -> Result<String, String> {
    let t0 = Instant::now();
    let response = service.query(request).map_err(|e| e.to_string())?;
    Ok(render_query(&response, t0.elapsed().as_secs_f64(), show))
}

/// Runs one line for a front end that rations computation: what
/// [`run_line`] does, with `admit` asked for a compute slot before anything
/// is computed, and the slot held until the answer is computed. A `query`
/// line is parsed and probed first and asks only if it misses
/// ([`Service::query_with`]): a hit is answered without a slot. Any other
/// line asks before it is parsed, because `register` and `insert` build
/// relations while parsing. `None`: `admit` refused, and nothing ran.
///
/// A panic anywhere in it — parse, execution, rendering — costs this line,
/// not the caller's thread: it is answered `internal error: …`, and the
/// slot is given back on the way out.
pub fn run_line_with<T>(
    service: &Service,
    line: &str,
    frontend: &dyn Frontend,
    admit: impl FnOnce() -> Option<T>,
) -> Option<Result<String, String>> {
    let run = || {
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("query") {
            let _slot = admit()?;
            let parse_span = trace::span(Stage::Parse, "command-parse");
            let parsed = Command::parse(line);
            drop(parse_span);
            return Some(
                parsed
                    .map_err(|e| e.to_string())
                    .and_then(|cmd| execute_with(service, cmd, frontend)),
            );
        }
        let parse_span = trace::span(Stage::Parse, "command-parse");
        let parsed = parse_request(&tokens.collect::<Vec<_>>());
        drop(parse_span);
        let (request, show) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => return Some(Err(e.to_string())),
        };
        let t0 = Instant::now();
        let response = service.query_with(request, admit)?;
        Some(
            response
                .map(|r| render_query(&r, t0.elapsed().as_secs_f64(), show))
                .map_err(|e| e.to_string()),
        )
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        Some(Err(
            ServiceError::Internal(panic_message(payload)).to_string()
        ))
    })
}

/// The text of a query answer: the summary line, then up to `show` rows.
fn render_query(response: &Response, secs: f64, show: Option<usize>) -> String {
    let _ser_span = trace::span(Stage::Serialize, "render-response");
    let out = format!(
        "ok rows {} engine {} cached {} {:.3}s{}",
        response.rows.len(),
        response.stats.engine,
        response.cached,
        secs,
        if response.truncated {
            " (limit reached)"
        } else {
            ""
        }
    );
    let Some(max_rows) = show else {
        return out;
    };
    // Rows are appended as bytes — digits and ASCII punctuation — and the
    // whole is checked as UTF-8 once, not cell by cell.
    let mut out = out.into_bytes();
    let shown = max_rows.min(response.rows.len());
    let arity = response.rows.arity();
    // A cell is at most ten digits and its separator; `\n  (` and `)` frame
    // the row. Most cells are shorter: this reserves once, high.
    out.reserve(shown * (arity * 12 + 5));
    // A family that emits no counts stores none, which reads as 0 for
    // every row. Only the shown rows are read: a product answer writes
    // those alone.
    let counts = response.counts.iter().copied().chain(iter::repeat(0));
    let values = response.rows.first(shown);
    for (row, count) in values.chunks_exact(arity.max(1)).zip(counts) {
        out.extend_from_slice(b"\n  (");
        for (i, &cell) in row.iter().enumerate() {
            if i > 0 {
                out.extend_from_slice(b", ");
            }
            push_decimal(&mut out, cell);
        }
        out.push(b')');
        if count > 0 {
            out.extend_from_slice(b" x");
            push_decimal(&mut out, count);
        }
    }
    let mut out = String::from_utf8(out).expect("ASCII appended to a string");
    if response.rows.len() > shown {
        let _ = write!(out, "\n  … {} more", response.rows.len() - shown);
    }
    out
}

/// Appends `n` in decimal: the digits go into a stack buffer from the
/// right, without the `fmt` machinery a `write!` per cell goes through.
fn push_decimal(out: &mut Vec<u8>, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn register_report(service: &Service, name: &str, rel: Relation) -> Result<String, String> {
    let sizes = sizes(&rel);
    let epoch = service.register(name, rel);
    Ok(format!("ok relation {name}: {sizes} (epoch {epoch})"))
}

/// `N tuples, X sets, Y elements`, counted off the relation's indexes.
fn sizes(rel: &Relation) -> String {
    format!(
        "{} tuples, {} sets, {} elements",
        rel.len(),
        rel.active_x_count(),
        rel.active_y_count()
    )
}

fn max_degree(index: &CsrIndex) -> usize {
    index
        .iter_nonempty()
        .map(|(_, n)| n.len())
        .max()
        .unwrap_or(0)
}

/// Parses `Q(x, w) :- R(x, y), S(y, z)` into a general request. The head
/// name is cosmetic; variables are arbitrary identifiers interned to ids
/// (canonicalization relabels them anyway).
fn parse_datalog(text: &str) -> Result<Request, ParseError> {
    let (head, body) = text.split_once(":-").ok_or(ParseError::new(
        "datalog query needs `Head(..) :- Body(..)`",
    ))?;
    let mut vars: Vec<String> = Vec::new();
    fn intern(vars: &mut Vec<String>, name: &str) -> u32 {
        match vars.iter().position(|v| v == name) {
            Some(i) => i as u32,
            None => {
                vars.push(name.to_string());
                vars.len() as u32 - 1
            }
        }
    }
    let mut atoms = Vec::new();
    for frag in body.split(')') {
        let frag = frag.trim().trim_start_matches(',').trim();
        if frag.is_empty() {
            continue;
        }
        let (name, vs) = parse_rule_atom(&format!("{frag})"))?;
        if vs.len() != 2 {
            return Err(ParseError::at(
                frag,
                format!(
                    "atom `{name}` must have exactly 2 variables, got {}",
                    vs.len()
                ),
            ));
        }
        let (x, y) = (intern(&mut vars, &vs[0]), intern(&mut vars, &vs[1]));
        atoms.push(AtomSpec {
            relation: name,
            x,
            y,
        });
    }
    if atoms.is_empty() {
        return Err(ParseError::new("rule body has no atoms"));
    }
    let (_, head_vars) = parse_rule_atom(head)?;
    let mut projection = Vec::with_capacity(head_vars.len());
    for v in &head_vars {
        if !vars.contains(v) {
            return Err(ParseError::at(
                v,
                "head variable does not occur in the body",
            ));
        }
        projection.push(intern(&mut vars, v));
    }
    Ok(Request::general(atoms, projection))
}

/// `Name(v1, v2, …)` → `(name, vars)`.
fn parse_rule_atom(text: &str) -> Result<(String, Vec<String>), ParseError> {
    let text = text.trim();
    let (name, rest) = text
        .split_once('(')
        .ok_or_else(|| ParseError::at(text, "bad atom (expected `Name(v, …)`)"))?;
    let inner = rest
        .trim()
        .strip_suffix(')')
        .ok_or_else(|| ParseError::at(text, "bad atom (missing `)`)"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(ParseError::at(text, "bad atom (missing relation name)"));
    }
    let vars: Vec<String> = inner.split(',').map(|v| v.trim().to_string()).collect();
    if vars.iter().any(String::is_empty) {
        return Err(ParseError::at(text, "bad atom (empty variable name)"));
    }
    Ok((name.to_string(), vars))
}

fn parse_edges(tokens: &[&str]) -> Result<Relation, ParseError> {
    let mut b = RelationBuilder::new();
    for (x, y) in parse_edge_pairs(tokens)? {
        b.push(x, y);
    }
    Ok(b.build())
}

fn parse_edge_pairs(tokens: &[&str]) -> Result<Vec<Edge>, ParseError> {
    if tokens.is_empty() {
        return Err(ParseError::new("no edges given (format: x,y)"));
    }
    tokens
        .iter()
        .map(|t| {
            let bad = || ParseError::at(*t, "bad edge (format: x,y)");
            let (x, y) = t.split_once(',').ok_or_else(bad)?;
            let x: u32 = x.trim().parse().map_err(|_| bad())?;
            let y: u32 = y.trim().parse().map_err(|_| bad())?;
            Ok((x, y))
        })
        .collect()
}

/// Renders the outcome of an insert/delete batch: what changed and how
/// many cached results over the relation it dropped.
fn delta_report(service: &Service, name: &str, report: &UpdateReport) -> String {
    let tuples = service.relation(name).expect("relation exists").len();
    if report.is_noop() {
        return format!(
            "ok relation {name}: unchanged ({tuples} tuples, epoch {}), cache untouched",
            report.epoch
        );
    }
    format!(
        "ok relation {name}: +{} -{} tuples (now {}), epoch {}, cache invalidated {}",
        report.inserted, report.deleted, tuples, report.epoch, report.invalidated
    )
}

fn parse_dataset(name: &str) -> Result<mmjoin_datagen::DatasetKind, ParseError> {
    use mmjoin_datagen::DatasetKind;
    DatasetKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            ParseError::at(
                name,
                format!(
                    "unknown dataset (one of: {})",
                    DatasetKind::ALL.map(|k| k.name()).join(", ")
                ),
            )
        })
}

/// Removes `flag` from `rest` if present, reporting whether it was.
fn take_flag(rest: &mut Vec<&str>, flag: &str) -> bool {
    match rest.iter().position(|&t| t == flag) {
        Some(pos) => {
            rest.remove(pos);
            true
        }
        None => false,
    }
}

/// Removes `show [n]` from `rest`: `Some(n)` if the flag was present
/// (default 20 rows when no count follows), `None` otherwise.
fn take_show(rest: &mut Vec<&str>) -> Option<usize> {
    let pos = rest.iter().position(|&t| t == "show")?;
    rest.remove(pos);
    match rest.get(pos).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) => {
            rest.remove(pos);
            Some(n)
        }
        None => Some(20),
    }
}

/// Removes `key <value>` from `rest` if present, returning the value.
fn take_str_value(rest: &mut Vec<&str>, key: &str) -> Result<Option<String>, ParseError> {
    let Some(pos) = rest.iter().position(|&t| t == key) else {
        return Ok(None);
    };
    let value = rest
        .get(pos + 1)
        .map(|v| v.to_string())
        .ok_or_else(|| ParseError::at(key, "flag needs a value"))?;
    rest.drain(pos..=pos + 1);
    Ok(Some(value))
}

/// Removes `key <u32>` from `rest` if present.
fn take_value(rest: &mut Vec<&str>, key: &str) -> Result<Option<u32>, ParseError> {
    let Some(pos) = rest.iter().position(|&t| t == key) else {
        return Ok(None);
    };
    let value = rest
        .get(pos + 1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseError::at(key, "flag needs a number"))?;
    rest.drain(pos..=pos + 1);
    Ok(Some(value))
}

/// The `help` text shared by both transports.
pub const HELP: &str = "ok commands:
  register <name> <x,y> [<x,y> …]     inline edge list
  load <name> <path>                  whitespace edge-list file
  gen <name> <dataset> <scale>        synthetic Table-2 dataset (DBLP, RoadNet, Jokes, Words, Protein, Image)
  insert <name> <x,y> [<x,y> …]       staged delta: cached results over <name> are dropped
  delete <name> <x,y> [<x,y> …]       staged delta: as insert
  query twopath <R> <S> [counts] [min <c>] [limit <n>] [engine <E>] [show [n]]
  query star <R1> <R2> [… Rk] [limit <n>] [show [n]]
  query chain <R1> <R2> [… Rk] [limit <n>] [engine <E>] [show [n]]
  query sim <R> <c> [ordered] [limit <n>] [show [n]]
  query contain <R> [limit <n>] [show [n]]
  query Q(x,w) :- R(x,y), S(y,z), T(z,w)   general acyclic query, datalog style
                                           ([limit <n>] [engine <E>] [show [n]] after the rule)
  explain <query …>                        chosen engine + decomposition, without executing
  stats [service|net|executor|cache] [--json]   subsystem counters (bare stats = service)
  stats reset                              zero every counter, keep registrations
  trace on | off | sample <n>              per-request span tracing (n = every n-th request)
  trace last [n]                           last n finished traces as Chrome trace-event JSON
  trace tree [n]                           last n finished traces as indented span trees
  catalog | engines | help | quit | shutdown
";

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_api::{ExecStats, FlatRows};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn service() -> Service {
        let s = Service::with_default_registry();
        s.register(
            "R",
            Relation::from_edges((0..30u32).map(|i| (i % 6, i % 5))),
        );
        s.register(
            "S",
            Relation::from_edges((0..30u32).map(|i| (i % 5, i % 7))),
        );
        s
    }

    #[test]
    fn parse_errors_carry_offending_token() {
        let err = Command::parse("frobnicate R S").unwrap_err();
        assert_eq!(err.token.as_deref(), Some("frobnicate"));
        assert!(err.to_string().contains("`frobnicate`"));

        let err = Command::parse("insert R 1,2 nope 3,4").unwrap_err();
        assert_eq!(err.token.as_deref(), Some("nope"));

        let err = Command::parse("query twopath R S bogus").unwrap_err();
        assert_eq!(err.token.as_deref(), Some("bogus"));

        let err = Command::parse("query warp R S").unwrap_err();
        assert_eq!(err.token.as_deref(), Some("warp"));

        let err = Command::parse("gen G Jokes huge").unwrap_err();
        assert_eq!(err.token.as_deref(), Some("huge"));
    }

    #[test]
    fn show_takes_an_optional_row_budget() {
        let (_, show) = parse_request(&["twopath", "R", "S", "show"]).unwrap();
        assert_eq!(show, Some(20));
        let (_, show) = parse_request(&["twopath", "R", "S", "show", "3"]).unwrap();
        assert_eq!(show, Some(3));
        let (_, show) = parse_request(&["twopath", "R", "S"]).unwrap();
        assert_eq!(show, None);
        // `show` followed by a non-number leaves that token for its
        // own flag (here: counts).
        let (req, show) = parse_request(&["twopath", "R", "S", "show", "counts"]).unwrap();
        assert_eq!(show, Some(20));
        drop(req);
    }

    #[test]
    fn run_line_round_trips_through_the_service() {
        let s = service();
        let ans = run_line(&s, "query twopath R S").unwrap();
        assert!(ans.starts_with("ok rows "), "{ans}");
        let ans = run_line(&s, "query twopath R S show 2").unwrap();
        assert!(ans.lines().count() >= 2, "{ans}");
        let err = run_line(&s, "query twopath R missing").unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let err = run_line(&s, "nonsense").unwrap_err();
        assert!(err.contains("`nonsense`"), "{err}");
    }

    #[test]
    fn stats_cache_reports_the_catalogs_bytes_beside_the_caches() {
        let s = service();
        let held = |s: &Service| {
            let names = s.relation_names();
            let sum = names.iter().map(|n| s.relation(n).unwrap().heap_bytes());
            sum.sum::<usize>()
        };
        let before = held(&s);
        assert!(before > 0);
        assert_eq!(s.catalog_bytes(), before);
        let text = run_line(&s, "stats cache").unwrap();
        assert!(
            text.ends_with(&format!("entries 0, bytes 0, catalog_bytes {before}")),
            "{text}"
        );

        run_line(&s, "query twopath R S").unwrap();
        let (entries, bytes) = s.cache_size();
        assert_eq!(entries, 1);
        let after = held(&s);
        let json = run_line(&s, "stats cache --json").unwrap();
        assert!(
            json.ends_with(&format!(
                "\"entries\":1,\"bytes\":{bytes},\"catalog_bytes\":{after}}}"
            )),
            "{json}"
        );

        // Replacing `R` frees its entry and counts it as an invalidation.
        run_line(&s, "register R 0,0 1,0").unwrap();
        let text = run_line(&s, "stats cache").unwrap();
        assert!(
            text.contains("invalidations 1, entries 0, bytes 0"),
            "{text}"
        );
        assert!(
            text.ends_with(&format!("catalog_bytes {}", held(&s))),
            "{text}"
        );
    }

    /// The service REPL's update script, the one CI pipes into
    /// `mmjoin-serve`: each effective update drops the one cached result
    /// over `R`, its span says so and has no child, and the next query
    /// recomputes over the updated relation.
    ///
    /// The tracer is process-global; no other test of this crate traces.
    #[test]
    fn the_repl_scripts_updates_drop_what_they_touch() {
        let s = Service::with_default_registry();
        let tracer = Tracer::global();
        let mut out = Vec::new();
        for line in [
            "register R 0,0 1,0 2,1",
            "explain twopath R R",
            "query twopath R R",
            "query twopath R R",
            "trace on",
            "insert R 3,1",
            "query twopath R R",
            "insert R 4,0",
            "trace tree",
            "query twopath R R",
            "delete R 4,0",
            "query twopath R R",
            "stats",
        ] {
            // The REPL's pattern: one root per line, minted at the boundary.
            let root = tracer.begin(line);
            out.push(run_line(&s, line).unwrap_or_else(|e| format!("err {e}")));
            drop(root);
        }
        run_line(&s, "trace off").unwrap();

        let updates: Vec<&String> = out.iter().filter(|l| l.contains("tuples (now")).collect();
        assert_eq!(updates.len(), 3, "{out:?}");
        for line in updates {
            assert!(line.ends_with(", cache invalidated 1"), "{line}");
        }
        let out = out.join("\n");
        assert!(
            out.contains("ok relation R: +1 -0 tuples (now 4), epoch 2,"),
            "{out}"
        );
        assert!(
            out.contains("ok rows 8 engine MMJoin cached false"),
            "{out}"
        );
        assert!(
            out.contains("ok rows 13 engine MMJoin cached false"),
            "{out}"
        );
        assert!(!out.contains("rows 8 engine MMJoin cached true"), "{out}");
        assert!(out.contains("maintain update R: dropped 1 "), "{out}");
        assert!(
            out.contains("updates 3 (invalidated 3), cache churn 3,"),
            "{out}"
        );
    }

    #[test]
    fn terminal_commands() {
        assert!(Command::parse("quit").unwrap().is_terminal());
        assert!(Command::parse("exit").unwrap().is_terminal());
        assert!(Command::parse("shutdown").unwrap().is_terminal());
        assert!(!Command::parse("stats").unwrap().is_terminal());
        assert_eq!(
            execute(&service(), Command::Shutdown).unwrap(),
            "ok shutting down"
        );
    }

    #[test]
    fn datalog_form_still_parses() {
        let s = service();
        let ans = run_line(&s, "query Q(x,z) :- R(x,y), S(y,z)").unwrap();
        assert!(ans.starts_with("ok rows "), "{ans}");
        let err = run_line(&s, "query Q(x,z) :- R(x,y,w)").unwrap_err();
        assert!(err.contains("exactly 2 variables"), "{err}");
    }

    /// `run_line_with` over `s`, counting how often it asks for a slot and
    /// granting one when `grant` says so.
    fn asking(
        s: &Service,
        line: &str,
        grant: bool,
        asked: &mut u32,
    ) -> Option<Result<String, String>> {
        run_line_with(s, line, &NoFrontend, || {
            *asked += 1;
            grant.then_some(())
        })
    }

    #[test]
    fn a_slot_is_asked_for_by_what_computes_and_only_by_that() {
        let s = service();
        let mut asked = 0;
        // A miss asks; refused, it runs nothing and counts nothing, and
        // admitted, it is `run_line`'s answer.
        assert_eq!(
            asking(&s, "query twopath R S show 3", false, &mut asked),
            None
        );
        assert_eq!(asked, 1);
        assert_eq!((s.metrics().queries_served, s.cache_counters().1), (0, 0));
        let cold = asking(&s, "query twopath R S", true, &mut asked)
            .unwrap()
            .unwrap();
        assert!(cold.contains("cached false"), "{cold}");
        assert_eq!(asked, 2);
        // A hit asks for nothing: exactly what `run_line` answers, up to the
        // time it prints.
        let untimed = |answer: &str| {
            let (head, rows) = answer.split_once('\n').unwrap();
            let timing = |t: &&str| t.starts_with(|c: char| c.is_ascii_digit()) && t.ends_with('s');
            let head: Vec<&str> = head.split(' ').filter(|t| !timing(t)).collect();
            format!("{}\n{rows}", head.join(" "))
        };
        let hit = asking(&s, "  query  twopath R S show 3", false, &mut asked)
            .unwrap()
            .unwrap();
        assert!(hit.contains("cached true"), "{hit}");
        assert_eq!(
            untimed(&hit),
            untimed(&run_line(&s, "query twopath R S show 3").unwrap())
        );
        assert_eq!(asked, 2);
        let m = s.metrics();
        assert_eq!((m.queries_served, m.cache_hits, m.errors), (3, 2, 0));
        assert_eq!(s.cache_counters().1, 1, "misses");

        // A query that does not parse or names no relation is answered
        // without a slot; every other command asks before it is parsed.
        for line in ["query", "query warp R S"] {
            let err = asking(&s, line, false, &mut asked).unwrap().unwrap_err();
            assert_eq!(err, run_line(&s, line).unwrap_err());
        }
        assert_eq!(asked, 2);
        let err = asking(&s, "query twopath R missing", false, &mut asked).unwrap();
        assert!(err.unwrap_err().contains("missing"));
        for line in [
            "explain twopath R S",
            "stats",
            "insert R 1,2",
            "register T 1,2 nope",
        ] {
            assert_eq!(asking(&s, line, false, &mut asked), None, "{line}");
        }
        assert_eq!(asked, 6);
        let err = asking(&s, "register T 1,2 nope", true, &mut asked).unwrap();
        assert!(err.unwrap_err().contains("`nope`"));
    }

    #[test]
    fn a_panicking_probe_costs_the_request_not_the_thread() {
        /// A slot whose release is counted.
        struct Slot<'a>(&'a std::cell::Cell<u32>);
        impl Drop for Slot<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let released = std::cell::Cell::new(0);
        let slot = || Some(Slot(&released));

        let s = service();
        run_line(&s, "query twopath R S").unwrap();
        crate::service::tests::PROBE_PANICS.with(|armed| armed.set(true));
        // Inside the service the panic is the query's error…
        let err = run_line_with(&s, "query twopath R S", &NoFrontend, slot).unwrap();
        assert_eq!(err.unwrap_err(), "internal error: probe told to panic");
        crate::service::tests::PROBE_PANICS.with(|armed| armed.set(false));
        assert_eq!(s.metrics().errors, 1);
        // …and outside it, the line's: a relation too large to allocate
        // panics while the command holds its slot, which is given back.
        let err = run_line_with(&s, "gen X DBLP 1e300", &NoFrontend, slot).unwrap();
        assert!(err.unwrap_err().starts_with("internal error: "));
        assert_eq!(released.get(), 1);
        // This thread serves the next request.
        let hit = run_line_with(&s, "query twopath R S", &NoFrontend, slot).unwrap();
        assert!(hit.unwrap().contains("cached true"));
        assert_eq!(released.get(), 1, "a hit takes no slot");
    }

    /// The rows of `render_query` as they were written first: every cell
    /// through `write!`.
    fn render_with_fmt(response: &Response, secs: f64, show: Option<usize>) -> String {
        let mut out = render_query(response, secs, None);
        if let Some(max_rows) = show {
            let counts = response.counts.iter().copied().chain(iter::repeat(0));
            for (row, count) in response.rows.iter().zip(counts).take(max_rows) {
                out.push_str("\n  (");
                for (i, cell) in row.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    let _ = write!(out, "{sep}{cell}");
                }
                out.push(')');
                if count > 0 {
                    let _ = write!(out, " x{count}");
                }
            }
            if response.rows.len() > max_rows {
                let _ = write!(out, "\n  … {} more", response.rows.len() - max_rows);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hand-rolled row rendering prints what `format!` prints, over
        /// random cells (every digit count), counts, arities and budgets.
        #[test]
        fn rows_render_as_fmt_renders_them(
            arity in 1usize..5,
            cells in proptest::collection::vec((0u32..11, 0u32..u32::MAX), 0..40),
            counts in proptest::collection::vec(0u32..u32::MAX, 0..12),
            show in 0usize..16,
            flags in 0u8..4,
        ) {
            // A value of every magnitude: up to `digits` decimal digits.
            let mut values: Vec<u32> = cells
                .iter()
                .map(|&(digits, v)| if digits == 10 { v } else { v % 10u32.pow(digits) })
                .collect();
            values.extend([0, u32::MAX]);
            values.truncate(values.len() / arity * arity);
            let response = Response {
                rows: Arc::new(FlatRows::new(arity, values)),
                counts: Arc::new(counts),
                stats: Arc::new(ExecStats::new("MMJoin", 0)),
                cached: flags & 1 != 0,
                truncated: flags & 2 != 0,
                cache_key: 0,
            };
            for show in [None, Some(show), Some(usize::MAX)] {
                prop_assert_eq!(
                    render_query(&response, 0.0125, show),
                    render_with_fmt(&response, 0.0125, show)
                );
            }
        }
    }
}
