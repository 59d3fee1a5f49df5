//! The concurrent TCP server: thread-per-connection readers feeding a
//! bounded, per-client fair admission queue, drained by a dispatcher
//! pool that executes commands through the shared grammar
//! ([`mmjoin_service::command`]). This is the process's only admission
//! queue and the dispatchers are its only computing threads: the service
//! runs a query on the dispatcher that popped it.
//!
//! # The warm path
//!
//! A `query` whose answer the result cache holds never reaches the queue:
//! the reader that decoded it asks [`command::cached_answer`], and on a hit
//! writes the reply there and then — no queue slot, no dispatcher wake, no
//! compute token. Everything else (a miss, `explain`, `stats`, updates,
//! lines that do not parse) is admitted or bounced as below. The queue,
//! the quota and `dispatchers` ration *compute*, and a hit uses none: what
//! a connection can spend without a slot is its own reader thread
//! rendering a cached answer, bounded by `MAX_FRAME` and the write
//! deadline. Answers are matched by `id`; requests pipelined on one
//! connection are not ordered against each other (two dispatchers already
//! meant that), and a hit may overtake an earlier miss.
//!
//! # Admission control
//!
//! The queue has a hard global capacity (bounded memory) *and* a
//! per-client quota. A request that would exceed either bound is
//! answered [`Status::Overloaded`] immediately from the reader thread —
//! it never waits in line — so backpressure reaches the client at
//! network latency, not at queue-drain latency.
//!
//! # Fairness
//!
//! Admitted jobs are kept in per-client FIFOs and dispatched
//! round-robin across clients: a client with 50 queued commands and a
//! client with 1 alternate, so the chatty client cannot starve the
//! quiet one at dispatch; the quota stops it from starving them at
//! admission.
//!
//! # Shutdown
//!
//! `shutdown` (the command, or [`Server::shutdown`]) flips a flag,
//! closes the queue in *drain* mode — every already-admitted job still
//! executes and its answer is delivered — and unblocks the accept loop.
//! New requests are answered [`Status::ShuttingDown`].

use crate::frame;
use crate::wire::{Status, WireRequest, WireResponse};
use mmjoin_obs::trace::{self, Stage, Tracer};
use mmjoin_service::command::{self, Command, Frontend};
use mmjoin_service::Service;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long writing one reply frame may take before the connection is
/// given up: what a client that stops reading can cost the thread writing
/// to it.
const REPLY_WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Pause before retrying a failed `accept`: a persistent error (`EMFILE`
/// under many live connections) must not spin the accept thread.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Global admission-queue capacity — the bound on queued work.
    pub queue_capacity: usize,
    /// Per-client cap on queued jobs; `0` defaults to a quarter of the
    /// global capacity (min 1). This is what keeps one chatty client
    /// from monopolising admission.
    pub per_client_quota: usize,
    /// Dispatcher threads. Each pops one request and runs it to its
    /// answer, so this is the number of requests in flight.
    pub dispatchers: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 64,
            per_client_quota: 0,
            dispatchers: 4,
        }
    }
}

/// Why the queue refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Global capacity or the client's quota is exhausted.
    Overloaded,
    /// The queue is closed (server draining for shutdown).
    ShuttingDown,
}

struct FairState<T> {
    queues: HashMap<u64, VecDeque<T>>,
    /// Clients with at least one queued item, in dispatch rotation.
    order: VecDeque<u64>,
    len: usize,
    closed: bool,
}

/// Bounded multi-producer queue with per-client FIFOs and round-robin
/// dispatch. `close()` switches it to drain mode: pushes fail with
/// [`Admission::ShuttingDown`], pops keep succeeding until empty, then
/// return `None` (which is the dispatcher-pool exit signal).
pub struct FairQueue<T> {
    state: Mutex<FairState<T>>,
    available: Condvar,
    capacity: usize,
    quota: usize,
}

impl<T> FairQueue<T> {
    /// `quota == 0` defaults to `capacity / 4` (min 1).
    pub fn new(capacity: usize, quota: usize) -> Self {
        let capacity = capacity.max(1);
        let quota = if quota == 0 {
            (capacity / 4).max(1)
        } else {
            quota.min(capacity)
        };
        Self {
            state: Mutex::new(FairState {
                queues: HashMap::new(),
                order: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
            quota,
        }
    }

    /// Global capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-client admission quota.
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// Admits one item for `client`, returning the queue depth after
    /// the push (for high-water-mark metrics).
    pub fn push(&self, client: u64, item: T) -> Result<usize, Admission> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.closed {
            return Err(Admission::ShuttingDown);
        }
        if st.len >= self.capacity {
            return Err(Admission::Overloaded);
        }
        let q = st.queues.entry(client).or_default();
        if q.len() >= self.quota {
            return Err(Admission::Overloaded);
        }
        let newly_active = q.is_empty();
        q.push_back(item);
        if newly_active {
            st.order.push_back(client);
        }
        st.len += 1;
        let depth = st.len;
        drop(st);
        self.available.notify_one();
        Ok(depth)
    }

    /// Takes the next item round-robin across clients, blocking while
    /// the queue is open but empty. `None` means closed *and* drained.
    pub fn pop(&self) -> Option<(u64, T)> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(client) = st.order.pop_front() {
                let q = st.queues.get_mut(&client).expect("client in rotation");
                let item = q.pop_front().expect("rotation implies non-empty");
                if q.is_empty() {
                    st.queues.remove(&client);
                } else {
                    st.order.push_back(client);
                }
                st.len -= 1;
                return Some((client, item));
            }
            if st.closed {
                return None;
            }
            st = self
                .available
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Switches to drain mode and wakes every blocked `pop`.
    pub fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.available.notify_all();
    }

    /// Items currently queued (all clients).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Front-end counters, all updated lock-free: a reply takes no lock
/// shared between connections. The per-client map is locked once per
/// connection, to register its cell.
#[derive(Default)]
pub struct NetMetrics {
    connections: AtomicU64,
    requests: AtomicU64,
    served: AtomicU64,
    served_inline: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_shutting_down: AtomicU64,
    max_queue_depth: AtomicU64,
    /// One cell per connection, shared with its [`Conn`]: whoever answers
    /// counts there, and a snapshot reads every cell — exact at any
    /// moment, also for jobs that outlive their connection's reader.
    per_client_served: Mutex<BTreeMap<u64, Arc<AtomicU64>>>,
}

impl NetMetrics {
    fn record_depth(&self, depth: usize) {
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// The cell a new connection counts its responses in.
    fn register_client(&self, client: u64) -> Arc<AtomicU64> {
        let cell = Arc::new(AtomicU64::new(0));
        self.per_client_served
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(client, Arc::clone(&cell));
        cell
    }

    fn record_served(&self, conn: &Conn) {
        self.served.fetch_add(1, Ordering::Relaxed);
        conn.served.fetch_add(1, Ordering::Relaxed);
    }

    /// Zeroes every counter, including the per-client tallies and the
    /// queue-depth high-water mark (`stats reset`).
    pub fn reset(&self) {
        self.connections.store(0, Ordering::Relaxed);
        self.requests.store(0, Ordering::Relaxed);
        self.served.store(0, Ordering::Relaxed);
        self.served_inline.store(0, Ordering::Relaxed);
        self.rejected_overloaded.store(0, Ordering::Relaxed);
        self.rejected_shutting_down.store(0, Ordering::Relaxed);
        self.max_queue_depth.store(0, Ordering::Relaxed);
        // A cell only the map still holds belongs to a connection that is
        // gone; the others go on counting from zero.
        self.per_client_served
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|_, cell| {
                cell.store(0, Ordering::Relaxed);
                Arc::strong_count(cell) > 1
            });
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> NetMetricsSnapshot {
        NetMetricsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            served_inline: self.served_inline.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            rejected_shutting_down: self.rejected_shutting_down.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            per_client_served: self
                .per_client_served
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(&client, cell)| (client, cell.load(Ordering::Relaxed)))
                .filter(|&(_, served)| served > 0)
                .collect(),
        }
    }
}

/// Point-in-time front-end statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetMetricsSnapshot {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Frames decoded into requests (admitted or not).
    pub requests: u64,
    /// Responses to requests that were not bounced (Ok or Err), whoever
    /// wrote them: a dispatcher, or the connection's reader for a cache hit.
    pub served: u64,
    /// Of those, the cache hits written by the reader that decoded the
    /// request: replies that never queued.
    pub served_inline: u64,
    /// Requests bounced with [`Status::Overloaded`].
    pub rejected_overloaded: u64,
    /// Requests bounced with [`Status::ShuttingDown`].
    pub rejected_shutting_down: u64,
    /// High-water mark of the admission queue — must never exceed the
    /// configured capacity.
    pub max_queue_depth: u64,
    /// `(client id, responses served)` per connection that was served at
    /// least one, ascending id.
    pub per_client_served: Vec<(u64, u64)>,
}

impl NetMetricsSnapshot {
    /// The counters as a JSON object (field names match the struct;
    /// `per_client_served` becomes an array of `[id, served]` pairs).
    pub fn to_json(&self) -> String {
        let clients: Vec<String> = self
            .per_client_served
            .iter()
            .map(|(id, n)| format!("[{id},{n}]"))
            .collect();
        format!(
            "{{\"connections\":{},\"requests\":{},\"served\":{},\"served_inline\":{},\
             \"rejected_overloaded\":{},\"rejected_shutting_down\":{},\
             \"max_queue_depth\":{},\"per_client_served\":[{}]}}",
            self.connections,
            self.requests,
            self.served,
            self.served_inline,
            self.rejected_overloaded,
            self.rejected_shutting_down,
            self.max_queue_depth,
            clients.join(","),
        )
    }
}

impl std::fmt::Display for NetMetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "connections {}, requests {}, served {} (inline {}), \
             rejected {} (overloaded {}, shutting-down {}), \
             max queue depth {}, clients {}",
            self.connections,
            self.requests,
            self.served,
            self.served_inline,
            self.rejected_overloaded + self.rejected_shutting_down,
            self.rejected_overloaded,
            self.rejected_shutting_down,
            self.max_queue_depth,
            self.per_client_served.len(),
        )
    }
}

/// One connection, shared by its reader thread and by every queued
/// [`Job`] it admitted: whoever produced a response writes it.
struct Conn {
    client: u64,
    write_deadline: Duration,
    /// The write half, `None` once a write has failed or timed out.
    writer: Mutex<Option<TcpStream>>,
    /// Responses served to this client: its cell of
    /// [`NetMetrics::per_client_served`].
    served: Arc<AtomicU64>,
}

/// A socket under one deadline for a whole frame: `write_all` would
/// restart a standing socket timeout at every partial write.
struct Until<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Write for Until<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_write_timeout(Some(left))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Conn {
    /// Whether replies can still be written: false once a write failed or
    /// outlasted the deadline and the socket was shut down.
    fn is_open(&self) -> bool {
        self.writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// Writes `resp` as one whole frame under the lock, so a dispatcher's
    /// reply and the reader's own never interleave mid-frame. A write
    /// that fails or outlasts the deadline kills the connection — both
    /// directions, which ends the reader — and every later reply for it is
    /// dropped: a client that pipelines and never reads holds no reply
    /// backlog and blocks a writer at most once.
    fn reply(&self, resp: &WireResponse) {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(stream) = writer.as_ref() else {
            return;
        };
        let mut until = Until {
            stream,
            deadline: Instant::now() + self.write_deadline,
        };
        if frame::write_frame(&mut until, &resp.encode()).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            *writer = None;
        }
    }
}

struct Job {
    id: u64,
    line: String,
    /// Root trace minted at the wire boundary (reader thread), if the
    /// global tracer is on and sampling picked this request. The
    /// dispatcher re-joins it across the queue hop and finishes it once
    /// the response is written.
    ctx: Option<trace::Ctx>,
    /// When the reader admitted the request (start of the net queue
    /// wait).
    enqueued: Instant,
    conn: Arc<Conn>,
}

struct Shared {
    service: Arc<Service>,
    queue: FairQueue<Job>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    metrics: NetMetrics,
    /// The live connections by client id, each with its reader thread. A
    /// reader that ends removes its own entry; [`Server::wait`] unblocks
    /// and joins the ones still parked on an idle socket.
    conns: Mutex<HashMap<u64, Live>>,
}

/// A registry entry: a live connection and the thread reading it.
struct Live {
    conn: Arc<Conn>,
    reader: JoinHandle<()>,
}

impl Shared {
    /// Idempotent: first caller closes the queue (drain mode) and pokes
    /// the accept loop awake with a throwaway connection.
    fn begin_shutdown(&self) {
        // lint:allow(seqcst): the shutdown latch orders the queue close
        // and the wake-up poke against every accept/conn-loop load; a
        // weaker swap could let a racing accept miss drain mode.
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server: the accept loop plus dispatcher pool. Dropping the
/// handle does NOT stop the server — call [`Server::shutdown`] (or send
/// the `shutdown` command) and then [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Front-end metrics snapshot.
    pub fn metrics(&self) -> NetMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        // lint:allow(seqcst): pairs with the SeqCst swap in
        // `begin_shutdown`; callers gate on a globally ordered latch.
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Programmatic equivalent of the `shutdown` command.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Joins the accept loop and dispatcher pool, then the connection
    /// threads. Returns only after every admitted job has been executed
    /// and its answer *written to the socket* — the dispatchers joined
    /// first did the writing — so a caller may exit the process
    /// immediately afterwards without cutting off replies.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
        // Unblock the readers still parked on idle connections. The map is
        // taken out first: an ending reader locks it to remove itself.
        let conns = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for Live { conn, reader } in conns.into_values() {
            if let Some(stream) = &*conn.writer.lock().unwrap_or_else(PoisonError::into_inner) {
                let _ = stream.shutdown(Shutdown::Read);
            }
            let _ = reader.join();
        }
    }
}

/// Binds, spawns the accept loop and `config.dispatchers` dispatcher
/// threads, and returns immediately.
pub fn serve(service: Arc<Service>, config: NetConfig) -> io::Result<Server> {
    serve_with_deadline(service, config, REPLY_WRITE_DEADLINE)
}

fn serve_with_deadline(
    service: Arc<Service>,
    config: NetConfig,
    write_deadline: Duration,
) -> io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        service,
        queue: FairQueue::new(config.queue_capacity, config.per_client_quota),
        shutdown: AtomicBool::new(false),
        addr,
        metrics: NetMetrics::default(),
        conns: Mutex::new(HashMap::new()),
    });

    let mut threads = Vec::new();
    for _ in 0..config.dispatchers.max(1) {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || dispatch_loop(&shared)));
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &shared, write_deadline)
        }));
    }
    Ok(Server { shared, threads })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, write_deadline: Duration) {
    let mut next_client: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // lint:allow(seqcst): pairs with the SeqCst swap in
                // `begin_shutdown` so a failed accept after the latch
                // flips always terminates the loop.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(ACCEPT_RETRY_PAUSE);
                continue;
            }
        };
        // lint:allow(seqcst): same latch; the wake-up poke connection
        // must observe drain mode and be refused, not served.
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up poke, or a late client: refuse politely.
            let _ = frame::write_frame(
                &mut &stream,
                &WireResponse {
                    id: 0,
                    status: Status::ShuttingDown,
                    body: "server is shutting down".into(),
                }
                .encode(),
            );
            return;
        }
        // Replies are whole frames in one write each; sending them at once
        // is all there is to gain. A socket that refuses the option still
        // works, only slower.
        let _ = stream.set_nodelay(true);
        // Without a write half there is nobody to answer: hang up.
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        let conn = Arc::new(Conn {
            client: next_client,
            write_deadline,
            writer: Mutex::new(Some(write_half)),
            served: shared.metrics.register_client(next_client),
        });
        next_client += 1;
        shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
        // Registered under the lock the reader takes to remove itself, so
        // even a connection that ends at once is removed after it is added.
        let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
        let reader = {
            let (shared, conn) = (Arc::clone(shared), Arc::clone(&conn));
            std::thread::spawn(move || connection_loop(&shared, stream, &conn))
        };
        conns.insert(conn.client, Live { conn, reader });
    }
}

/// Counts a response to a request that was not bounced, writes it and
/// closes the request's trace — after the write, which is a `serialize`
/// span of its own: what the socket costs is inside the trace. The caller
/// still has `ctx` installed on this thread.
fn deliver(shared: &Shared, conn: &Conn, ctx: Option<trace::Ctx>, resp: &WireResponse) {
    shared.metrics.record_served(conn);
    let write_span = trace::span(Stage::Serialize, "write-frame");
    conn.reply(resp);
    drop(write_span);
    if let Some(ctx) = ctx {
        Tracer::global().finish(ctx);
    }
}

/// The one thread of a connection: decode frames; answer a cache hit,
/// admit or bounce the rest. A hit and a bounce are written here, an
/// admitted job's reply by its dispatcher, all through [`Conn::reply`].
fn connection_loop(shared: &Shared, stream: TcpStream, conn: &Arc<Conn>) {
    let mut r = BufReader::new(stream);
    // A connection cut off for not reading its replies is not read either:
    // the socket is shut down, but requests it pipelined may still sit in
    // the buffer, and nobody is there for their answers. Clean EOF,
    // mid-frame EOF and I/O errors all end the connection too.
    while conn.is_open() {
        let Ok(Some(payload)) = frame::read_frame(&mut r) else {
            break;
        };
        let req = match WireRequest::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                // Framing is broken; answer once and hang up.
                conn.reply(&WireResponse {
                    id: 0,
                    status: Status::Err,
                    body: format!("protocol error: {e}"),
                });
                break;
            }
        };
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        // lint:allow(seqcst): same latch as `begin_shutdown`; requests
        // that raced past accept are rejected, never half-served.
        if shared.shutdown.load(Ordering::SeqCst) {
            shared
                .metrics
                .rejected_shutting_down
                .fetch_add(1, Ordering::Relaxed);
            conn.reply(&WireResponse {
                id: req.id,
                status: Status::ShuttingDown,
                body: "server is draining; no new work accepted".into(),
            });
            continue;
        }
        // Mint the request's trace here, at the wire boundary: the queue
        // wait and every downstream stage hang off this root.
        let ctx = Tracer::global().start(&req.line);
        // A hit needs no admission: fairness and quotas ration compute,
        // and it uses none.
        let installed = trace::install(ctx);
        if let Some(body) = command::cached_answer(&shared.service, &req.line) {
            shared.metrics.served_inline.fetch_add(1, Ordering::Relaxed);
            let resp = WireResponse {
                id: req.id,
                status: Status::Ok,
                body,
            };
            deliver(shared, conn, ctx, &resp);
            continue;
        }
        drop(installed);
        let job = Job {
            id: req.id,
            line: req.line,
            ctx,
            enqueued: Instant::now(),
            conn: Arc::clone(conn),
        };
        match shared.queue.push(conn.client, job) {
            Ok(depth) => shared.metrics.record_depth(depth),
            Err(Admission::Overloaded) => {
                if let Some(ctx) = ctx {
                    Tracer::global().discard(ctx);
                }
                shared
                    .metrics
                    .rejected_overloaded
                    .fetch_add(1, Ordering::Relaxed);
                conn.reply(&WireResponse {
                    id: req.id,
                    status: Status::Overloaded,
                    body: format!(
                        "admission queue full (capacity {}, per-client quota {}); retry",
                        shared.queue.capacity(),
                        shared.queue.quota()
                    ),
                });
            }
            Err(Admission::ShuttingDown) => {
                if let Some(ctx) = ctx {
                    Tracer::global().discard(ctx);
                }
                shared
                    .metrics
                    .rejected_shutting_down
                    .fetch_add(1, Ordering::Relaxed);
                conn.reply(&WireResponse {
                    id: req.id,
                    status: Status::ShuttingDown,
                    body: "server is draining; no new work accepted".into(),
                });
            }
        }
    }
    // Dropping the entry drops this thread's own handle; jobs still queued
    // keep the `Conn`, and with it the socket, until they are answered.
    shared
        .conns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&conn.client);
}

/// The TCP server's transport counters, surfaced to the shared command
/// grammar: `stats net` and `stats reset` work over the wire without
/// the service crate depending on this one.
struct NetFrontend<'a>(&'a Shared);

impl Frontend for NetFrontend<'_> {
    fn net_stats(&self) -> Option<String> {
        Some(self.0.metrics.snapshot().to_string())
    }

    fn net_stats_json(&self) -> Option<String> {
        Some(self.0.metrics.snapshot().to_json())
    }

    fn reset_stats(&self) {
        self.0.metrics.reset();
    }
}

/// Dispatcher: pop a request, run it on this thread, reply; until the
/// queue is closed *and* empty (the graceful-shutdown drain).
fn dispatch_loop(shared: &Arc<Shared>) {
    while let Some((_, job)) = shared.queue.pop() {
        // Rejoin the trace minted at the wire: the time since admission
        // is the net queue wait, recorded retroactively.
        trace::span_at(job.ctx, Stage::QueueWait, "net-queue", job.enqueued);
        let installed = trace::install(job.ctx);
        let parse_span = trace::span(Stage::Parse, "command-parse");
        let parsed = Command::parse(&job.line);
        drop(parse_span);
        let resp = match parsed {
            Err(e) => WireResponse {
                id: job.id,
                status: Status::Err,
                body: e.to_string(),
            },
            Ok(cmd) => {
                let is_shutdown = matches!(cmd, Command::Shutdown);
                let result = command::execute_with(&shared.service, cmd, &NetFrontend(shared));
                if is_shutdown {
                    shared.begin_shutdown();
                }
                match result {
                    Ok(body) => WireResponse {
                        id: job.id,
                        status: Status::Ok,
                        body,
                    },
                    Err(body) => WireResponse {
                        id: job.id,
                        status: Status::Err,
                        body,
                    },
                }
            }
        };
        deliver(shared, &job.conn, job.ctx, &resp);
        drop(installed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_queue_round_robins_across_clients() {
        let q: FairQueue<u32> = FairQueue::new(16, 8);
        for item in [10, 11, 12] {
            q.push(1, item).unwrap();
        }
        q.push(2, 20).unwrap();
        for item in [30, 31] {
            q.push(3, item).unwrap();
        }
        let order: Vec<(u64, u32)> = (0..6).map(|_| q.pop().unwrap()).collect();
        assert_eq!(
            order,
            vec![(1, 10), (2, 20), (3, 30), (1, 11), (3, 31), (1, 12)],
            "dispatch must alternate clients, not drain client 1 first"
        );
    }

    #[test]
    fn fair_queue_enforces_capacity_and_quota() {
        let q: FairQueue<u32> = FairQueue::new(8, 2);
        // Per-client quota trips first.
        q.push(1, 0).unwrap();
        q.push(1, 1).unwrap();
        assert_eq!(q.push(1, 2), Err(Admission::Overloaded));
        // Other clients still have room…
        for c in 2..=4u64 {
            q.push(c, 0).unwrap();
            q.push(c, 1).unwrap();
        }
        // …until the global bound trips for everyone.
        assert_eq!(q.len(), 8);
        assert_eq!(q.push(9, 0), Err(Admission::Overloaded));
        // Draining one slot reopens admission for an under-quota client.
        q.pop().unwrap();
        q.push(9, 0).unwrap();
    }

    #[test]
    fn fair_queue_close_drains_then_ends() {
        let q: FairQueue<u32> = FairQueue::new(4, 4);
        q.push(1, 1).unwrap();
        q.push(1, 2).unwrap();
        q.close();
        assert_eq!(q.push(1, 3), Err(Admission::ShuttingDown));
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.pop(), Some((1, 2)));
        assert_eq!(q.pop(), None, "closed + empty ends the pop loop");
    }

    #[test]
    fn fair_queue_pop_blocks_until_push() {
        let q: Arc<FairQueue<u32>> = Arc::new(FairQueue::new(4, 4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(7, 42).unwrap();
        assert_eq!(popper.join().unwrap(), Some((7, 42)));
    }

    #[test]
    fn server_smoke_register_query_shutdown() {
        use crate::client::Client;
        use mmjoin_storage::Relation;

        let service = Arc::new(Service::with_default_registry());
        service.register("R", Relation::from_edges([(0, 1), (1, 1), (2, 0)]));
        let server = serve(
            service,
            NetConfig {
                dispatchers: 2,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();

        let mut c = Client::connect(addr).unwrap();
        let resp = c.call("query twopath R R").unwrap();
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        assert!(resp.body.starts_with("ok rows "), "{}", resp.body);
        let warm = c.call("query twopath R R").unwrap();
        assert!(warm.body.contains("cached true"), "{}", warm.body);

        let bad = c.call("query warp R R").unwrap();
        assert_eq!(bad.status, Status::Err);
        assert!(bad.body.contains("`warp`"), "{}", bad.body);

        let bye = c.call("shutdown").unwrap();
        assert_eq!(bye.status, Status::Ok);
        assert_eq!(bye.body, "ok shutting down");
        server.wait();

        let m = 0; // server consumed; metrics checked in integration tests
        let _ = m;
    }

    #[test]
    fn both_ends_of_a_connection_run_without_nagle() {
        use crate::client::Client;

        let service = Arc::new(Service::with_default_registry());
        let server = serve(service, NetConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.socket().nodelay().unwrap(), "connecting socket");
        assert_eq!(c.call("stats").unwrap().status, Status::Ok);
        let conns = server
            .shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let live = conns.values().next().expect("the live connection");
        let writer = live.conn.writer.lock().unwrap();
        assert!(
            writer.as_ref().unwrap().nodelay().unwrap(),
            "accepted socket"
        );
        drop(writer);
        drop(conns);
        server.shutdown();
        server.wait();
    }

    /// Resident set size of this process in KiB.
    fn rss_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    #[test]
    fn a_client_that_never_reads_is_cut_off_and_costs_no_reply_backlog() {
        use crate::client::Client;

        const DEADLINE: Duration = Duration::from_millis(500);
        const UNREAD: usize = 48;
        const BIG: &str = "query twopath R R show 300000";

        let service = Arc::new(Service::with_default_registry());
        let server = serve_with_deadline(
            service,
            NetConfig {
                queue_capacity: 2 * UNREAD,
                per_client_quota: UNREAD,
                dispatchers: 2,
                ..NetConfig::default()
            },
            DEADLINE,
        )
        .unwrap();
        let live = || {
            let conns = server.shared.conns.lock().unwrap();
            conns.len()
        };

        let mut reads = Client::connect(server.addr()).unwrap();
        assert_eq!(reads.call("gen R Jokes 0.3").unwrap().status, Status::Ok);
        // Cached from here on: every later answer is a hit, rendered and
        // written by the reader of the connection that asked.
        let big = reads.call(BIG).unwrap();
        assert!(big.body.len() > 2 << 20, "{} bytes", big.body.len());
        drop(big);
        let before = rss_kib();

        let mut never_reads = Client::connect(server.addr()).unwrap();
        for _ in 0..UNREAD {
            never_reads.send(BIG).unwrap();
        }
        let sent = Instant::now();

        // Meanwhile the other client is answered, every time. The reader
        // stuck in the write that nobody reads gives up at the deadline, and
        // must then stop: the requests still in its buffer are 3 MiB of
        // rendering each, for a socket that is shut.
        let mut latencies = Vec::new();
        while live() == 2 || latencies.len() < 200 {
            assert!(
                live() == 1 || sent.elapsed() < 2 * DEADLINE,
                "the client that never reads is still connected"
            );
            let asked = Instant::now();
            let resp = reads.call("query twopath R R").unwrap();
            assert_eq!(resp.status, Status::Ok, "{}", resp.body);
            latencies.push(asked.elapsed());
        }
        latencies.sort();
        let p99 = latencies[latencies.len() * 99 / 100];
        assert!(p99 < DEADLINE, "{} calls, p99 {p99:?}", latencies.len());

        // Its connection is gone, and nothing of its replies is kept: the
        // few that fitted the socket buffers were written, the one cut off
        // was dropped, the rest were never rendered. At 3 MiB a reply, a
        // backlog would be 144 MiB.
        let m = server.metrics();
        assert!(
            m.served < 2 + UNREAD as u64 + latencies.len() as u64,
            "unread requests were answered after the cut-off: {m:?}"
        );
        let grown = rss_kib().saturating_sub(before);
        assert!(grown < 32 << 10, "resident memory grew by {grown} KiB");

        // A reader that ends takes its connection out of the registry.
        drop(reads);
        while live() != 0 {
            std::thread::yield_now();
        }

        server.shutdown();
        server.wait();
    }
}
