//! The concurrent TCP server: one thread per connection, which reads a
//! request, runs it to its answer through the shared grammar
//! ([`mmjoin_service::command`]) and writes the reply. There is no other
//! thread that computes and no queue between threads; what bounds the work
//! in flight is a set of compute slots. A thread whose connection ends
//! waits for the next one, up to `dispatchers` of them.
//!
//! # Admission
//!
//! A `query` whose answer the result cache holds is answered with no slot:
//! a hit computes nothing. A miss, and every other command, first takes one
//! of [`NetConfig::dispatchers`] slots, granted in ticket order — a command
//! other than `query` before it is even parsed, because `register` and
//! `insert` build relations while parsing. A reader that finds no slot free
//! waits its turn, unless [`NetConfig::queue_capacity`] readers are waiting
//! already: then the request is answered [`Status::Overloaded`] at once, so
//! backpressure reaches the client at network latency. A bounced request
//! never ran; the client resends it.
//!
//! # Order and fairness
//!
//! A connection has one reader, so it runs one request at a time, in the
//! order they were sent; requests it pipelines wait in its socket. It holds
//! at most one ticket, so the tickets take the waiting clients in turn.
//!
//! # Shutdown
//!
//! `shutdown` (the command, or [`Server::shutdown`]) flips a flag and
//! unblocks the accept loop. Every reader that holds or waits for a slot
//! finishes its request and delivers the answer; requests read after the
//! flag are answered [`Status::ShuttingDown`].

use crate::frame;
use crate::wire::{Status, WireRequest, WireResponse};
use mmjoin_obs::trace::{self, Stage, Tracer};
use mmjoin_service::command::{self, Frontend};
use mmjoin_service::Service;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long writing one reply frame may take before the connection is
/// given up: what a client that stops reading can cost its reader.
const REPLY_WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Pause before retrying a failed `accept`: a persistent error (`EMFILE`
/// under many live connections) must not spin the accept thread.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// How many readers may wait for a compute slot; a request that would
    /// be one more is answered [`Status::Overloaded`].
    pub queue_capacity: usize,
    /// Compute slots: the number of requests computed at once. A cache hit
    /// takes none.
    pub dispatchers: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 64,
            dispatchers: 4,
        }
    }
}

/// The compute slots, granted in ticket order: a reader that finds none
/// free takes the next ticket and waits for its turn.
struct Slots {
    tickets: Mutex<Tickets>,
    turn: Condvar,
    slots: usize,
    /// Most readers that may wait at once.
    capacity: usize,
}

struct Tickets {
    /// The next ticket to hand out.
    next: u64,
    /// Every ticket below this one has been granted its slot.
    granted: u64,
    /// Slots held.
    held: usize,
}

/// A held slot, given back when dropped — on unwind too.
struct Slot<'a>(&'a Slots);

impl Slots {
    fn new(slots: usize, capacity: usize) -> Self {
        Self {
            tickets: Mutex::new(Tickets {
                next: 0,
                granted: 0,
                held: 0,
            }),
            turn: Condvar::new(),
            slots: slots.max(1),
            capacity,
        }
    }

    /// Takes a slot, waiting in ticket order; `None` when `capacity`
    /// readers are waiting already. The wait is the request's `queue-wait`
    /// span; its depth, this reader included, goes to `metrics`.
    fn acquire(&self, metrics: &NetMetrics) -> Option<Slot<'_>> {
        let _wait = trace::span(Stage::QueueWait, "compute-token");
        let mut t = self.tickets.lock().unwrap_or_else(PoisonError::into_inner);
        let ticket = t.next;
        let waiting = ticket - t.granted;
        if waiting > 0 || t.held == self.slots {
            if waiting >= self.capacity as u64 {
                return None;
            }
            metrics
                .max_queue_depth
                .fetch_max(waiting + 1, Ordering::Relaxed);
        }
        t.next += 1;
        while t.granted != ticket || t.held == self.slots {
            t = self.turn.wait(t).unwrap_or_else(PoisonError::into_inner);
        }
        t.granted += 1;
        t.held += 1;
        // Two slots given back before the first waiter woke: the next one
        // may have checked too early, and must look again.
        if t.granted < t.next && t.held < self.slots {
            self.turn.notify_all();
        }
        Some(Slot(self))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0
            .tickets
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .held -= 1;
        self.0.turn.notify_all();
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
    rejected_overloaded: AtomicU64,
    rejected_shutting_down: AtomicU64,
    max_queue_depth: AtomicU64,
    /// One cell per connection, shared with its reader, which counts its
    /// answers there; a snapshot reads every cell, exact at any moment.
    per_client_served: Mutex<BTreeMap<u64, Arc<AtomicU64>>>,
}

impl NetMetrics {
    /// The cell a new connection counts its responses in.
    fn register_client(&self, client: u64) -> Arc<AtomicU64> {
        let cell = Arc::new(AtomicU64::new(0));
        self.per_client_served
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(client, Arc::clone(&cell));
        cell
    }

    /// Zeroes every counter, including the per-client tallies and the
    /// waiting-readers high-water mark (`stats reset`).
    pub fn reset(&self) {
        self.connections.store(0, Ordering::Relaxed);
        self.requests.store(0, Ordering::Relaxed);
        self.served.store(0, Ordering::Relaxed);
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
    /// Responses to requests that were not bounced (Ok or Err).
    pub served: u64,
    /// Requests bounced with [`Status::Overloaded`].
    pub rejected_overloaded: u64,
    /// Requests bounced with [`Status::ShuttingDown`].
    pub rejected_shutting_down: u64,
    /// High-water mark of readers waiting for a compute slot — must never
    /// exceed the configured `queue_capacity`.
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
            "{{\"connections\":{},\"requests\":{},\"served\":{},\
             \"rejected_overloaded\":{},\"rejected_shutting_down\":{},\
             \"max_queue_depth\":{},\"per_client_served\":[{}]}}",
            self.connections,
            self.requests,
            self.served,
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
            "connections {}, requests {}, served {}, \
             rejected {} (overloaded {}, shutting-down {}), \
             max queue depth {}, clients {}",
            self.connections,
            self.requests,
            self.served,
            self.rejected_overloaded + self.rejected_shutting_down,
            self.rejected_overloaded,
            self.rejected_shutting_down,
            self.max_queue_depth,
            self.per_client_served.len(),
        )
    }
}

/// One connection, owned by its reader: the only thread that reads or
/// writes the socket.
struct Conn {
    client: u64,
    stream: TcpStream,
    write_deadline: Duration,
    /// Whether the socket's write timeout is not `write_deadline`, which
    /// accept sets: a frame that took more than one write left it at what
    /// remained of its deadline (or setting it failed).
    shortened: Cell<bool>,
    /// Responses served to this client: its cell of
    /// [`NetMetrics::per_client_served`].
    served: Arc<AtomicU64>,
}

/// A socket under one deadline for a whole frame: `write_all` would
/// restart a standing socket timeout at every partial write. The frame's
/// first write runs under the socket's standing timeout, the whole
/// deadline, with no system call to set it; only a write after a partial
/// one sets what is left, and the next frame's first write sets the whole
/// deadline back.
struct Until<'a> {
    conn: &'a Conn,
    /// Set by the frame's first write.
    deadline: Option<Instant>,
}

impl Write for Until<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (conn, now) = (self.conn, Instant::now());
        match self.deadline {
            None => {
                self.deadline = Some(now + conn.write_deadline);
                if conn.shortened.get() {
                    conn.stream.set_write_timeout(Some(conn.write_deadline))?;
                    conn.shortened.set(false);
                }
            }
            Some(deadline) => {
                let left = deadline.saturating_duration_since(now);
                if left.is_zero() {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                conn.shortened.set(true);
                conn.stream.set_write_timeout(Some(left))?;
            }
        }
        (&conn.stream).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Conn {
    /// Writes `resp` as one frame; false if the connection is dead. A
    /// write that fails or outlasts the deadline kills it — both
    /// directions — and the reader stops, so a client that pipelines and
    /// never reads holds no reply backlog and blocks its reader at most
    /// once.
    fn reply(&self, resp: &WireResponse) -> bool {
        let mut until = Until {
            conn: self,
            deadline: None,
        };
        let sent = frame::write_frame(&mut until, &resp.encode()).is_ok();
        if !sent {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        sent
    }
}

struct Shared {
    service: Arc<Service>,
    slots: Slots,
    shutdown: AtomicBool,
    addr: SocketAddr,
    metrics: NetMetrics,
    /// The live connections by client id, each a clone of its socket: a
    /// reader removes its connection's entry when done with it, and
    /// [`Server::wait`] shuts down the read half of the ones left.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Readers without a connection, and the connections handed to them.
    idle: Mutex<Idle>,
    handed: Condvar,
}

struct Idle {
    readers: usize,
    conns: Vec<Conn>,
}

impl Shared {
    /// Idempotent: the first caller flips the latch and pokes the accept
    /// loop awake with a throwaway connection.
    fn begin_shutdown(&self) {
        // lint:allow(seqcst): the shutdown latch orders the wake-up poke
        // against every accept/conn-loop load; a weaker swap could let a
        // racing accept miss drain mode.
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server: the accept loop and a reader per connection.
/// Dropping the handle does NOT stop the server — call
/// [`Server::shutdown`] (or send the `shutdown` command) and then
/// [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    /// The accept loop, which returns the reader threads it started.
    accept: JoinHandle<Vec<JoinHandle<()>>>,
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

    /// Joins the accept loop, then every reader: each is unblocked if it
    /// is parked on an idle socket or waits for a connection, and one that
    /// holds or waits for a slot first runs its request and writes the
    /// answer. So this returns only after every admitted request's answer
    /// is *on the socket*, and a caller may exit the process immediately
    /// afterwards.
    pub fn wait(self) {
        let readers = self.accept.join().unwrap_or_default();
        for stream in self
            .shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // Taken so that no idle reader is between its latch check and its
        // wait: each either sees the latch or is woken here.
        drop(
            self.shared
                .idle
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        self.shared.handed.notify_all();
        for reader in readers {
            let _ = reader.join();
        }
    }
}

/// Binds, spawns the accept loop and returns immediately.
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
        slots: Slots::new(config.dispatchers, config.queue_capacity),
        shutdown: AtomicBool::new(false),
        addr,
        metrics: NetMetrics::default(),
        conns: Mutex::new(HashMap::new()),
        idle: Mutex::new(Idle {
            readers: 0,
            conns: Vec::new(),
        }),
        handed: Condvar::new(),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared, write_deadline))
    };
    Ok(Server { shared, accept })
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    write_deadline: Duration,
) -> Vec<JoinHandle<()>> {
    let mut next_client: u64 = 0;
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // lint:allow(seqcst): pairs with the SeqCst swap in
                // `begin_shutdown` so a failed accept after the latch
                // flips always terminates the loop.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return readers;
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
            return readers;
        }
        // Replies are whole frames in one write each; sending them at once
        // is all there is to gain. A socket that refuses the option still
        // works, only slower.
        let _ = stream.set_nodelay(true);
        // Without a handle for `Server::wait` to unblock it, a reader could
        // outlive the server: hang up.
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        let client = next_client;
        next_client += 1;
        // The standing timeout every reply's first write runs under.
        let shortened = stream.set_write_timeout(Some(write_deadline)).is_err();
        let conn = Conn {
            client,
            stream,
            write_deadline,
            shortened: Cell::new(shortened),
            served: shared.metrics.register_client(client),
        };
        shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
        // Registered before any reader has it, so even a connection that
        // ends at once is removed after it is added.
        shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(client, registered);
        let mut idle = shared.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.readers > idle.conns.len() {
            idle.conns.push(conn);
            drop(idle);
            shared.handed.notify_one();
        } else {
            drop(idle);
            // A finished reader's handle is dropped, which lets its thread go.
            readers.retain(|reader| !reader.is_finished());
            let shared = Arc::clone(shared);
            readers.push(std::thread::spawn(move || reader_loop(&shared, conn)));
        }
    }
}

/// A reader thread: serves a connection, then waits for the next one the
/// accept loop hands it. At most `dispatchers` readers wait, and a reader
/// that would be one more ends instead. They are kept because computation
/// runs on them: a thread that lives on keeps its allocator arena and its
/// matrix scratch warm, where a thread per connection grew peak memory
/// for clients that reconnect often (DESIGN, "Admission control").
fn reader_loop(shared: &Shared, mut conn: Conn) {
    loop {
        connection_loop(shared, &conn);
        drop(conn);
        let mut idle = shared.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.readers >= shared.slots.slots {
            return;
        }
        idle.readers += 1;
        conn = loop {
            if let Some(conn) = idle.conns.pop() {
                idle.readers -= 1;
                break conn;
            }
            // Read under the lock `Server::wait` takes, after the latch is
            // set, before it wakes idle readers: the lock orders the two.
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            idle = shared
                .handed
                .wait(idle)
                .unwrap_or_else(PoisonError::into_inner);
        };
    }
}

/// Takes a connection out of the registry when its reader is done with
/// it, however that ends.
struct Registered<'a> {
    shared: &'a Shared,
    client: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.client);
    }
}

/// One connection's requests: decode a frame, run it to its answer, write
/// the reply; until EOF, an I/O error, or a reply that could not be
/// written — then requests the client pipelined may still sit in the
/// buffer, and nobody is there for their answers.
fn connection_loop(shared: &Shared, conn: &Conn) {
    let _registered = Registered {
        shared,
        client: conn.client,
    };
    let mut r = BufReader::new(&conn.stream);
    while let Ok(Some(payload)) = frame::read_frame(&mut r) {
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
        if !answer(shared, conn, req) {
            break;
        }
    }
}

/// Runs one request and writes its reply; false once the connection is
/// dead.
fn answer(shared: &Shared, conn: &Conn, req: WireRequest) -> bool {
    // lint:allow(seqcst): same latch as `begin_shutdown`; requests read
    // after it are rejected, never half-served.
    if shared.shutdown.load(Ordering::SeqCst) {
        shared
            .metrics
            .rejected_shutting_down
            .fetch_add(1, Ordering::Relaxed);
        return conn.reply(&WireResponse {
            id: req.id,
            status: Status::ShuttingDown,
            body: "server is draining; no new work accepted".into(),
        });
    }
    // The request's trace starts here, at the wire boundary, and is closed
    // once its reply is on the socket: the write is inside it.
    let ctx = Tracer::global().start(&req.line);
    let installed = trace::install(ctx);
    let admit = || shared.slots.acquire(&shared.metrics);
    let Some(answer) =
        command::run_line_with(&shared.service, &req.line, &NetFrontend(shared), admit)
    else {
        drop(installed);
        if let Some(ctx) = ctx {
            Tracer::global().discard(ctx);
        }
        shared
            .metrics
            .rejected_overloaded
            .fetch_add(1, Ordering::Relaxed);
        return conn.reply(&WireResponse {
            id: req.id,
            status: Status::Overloaded,
            body: format!(
                "{} requests already wait for a compute slot; retry",
                shared.slots.capacity
            ),
        });
    };
    let (status, body) = match answer {
        Ok(body) => (Status::Ok, body),
        Err(body) => (Status::Err, body),
    };
    shared.metrics.served.fetch_add(1, Ordering::Relaxed);
    conn.served.fetch_add(1, Ordering::Relaxed);
    let write_span = trace::span(Stage::Serialize, "write-frame");
    let sent = conn.reply(&WireResponse {
        id: req.id,
        status,
        body,
    });
    drop(write_span);
    drop(installed);
    if let Some(ctx) = ctx {
        Tracer::global().finish(ctx);
    }
    sent
}

/// The TCP server's side of the shared command grammar: `stats net` and
/// `stats reset` reach its counters, and `shutdown` stops it, without the
/// service crate depending on this one.
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

    fn shutdown(&self) {
        self.0.begin_shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_granted_in_ticket_order_to_a_bounded_line() {
        const WAITERS: usize = 3;
        let slots = Slots::new(1, WAITERS);
        let metrics = NetMetrics::default();
        let depth = || metrics.max_queue_depth.load(Ordering::Relaxed) as usize;
        let order = Mutex::new(Vec::new());
        let held = slots.acquire(&metrics).expect("a free slot");
        assert_eq!(depth(), 0, "a free slot is taken without waiting");
        std::thread::scope(|scope| {
            for waiter in 0..WAITERS {
                let (slots, metrics, order) = (&slots, &metrics, &order);
                scope.spawn(move || {
                    let _slot = slots.acquire(metrics).expect("room to wait");
                    order.lock().unwrap().push(waiter);
                });
                // The next waiter takes its ticket only once this one holds
                // its own.
                while depth() <= waiter {
                    std::thread::yield_now();
                }
            }
            // The line is full: one more is refused at once.
            assert!(slots.acquire(&metrics).is_none());
            drop(held);
        });
        assert_eq!(*order.lock().unwrap(), [0, 1, 2]);
        assert_eq!(depth(), WAITERS);
        // Every slot came back.
        assert!(slots.acquire(&metrics).is_some());
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
        assert!(live.nodelay().unwrap(), "accepted socket");
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
