//! The event-driven TCP server over a shared [`Engine`].
//!
//! # Architecture
//!
//! One **readiness loop** (`hrdm-loop`) owns every socket in
//! non-blocking mode — the listener, a self-wake pipe, and all client
//! connections — and multiplexes them through `poll(2)` (via the thin
//! [`crate::sys`] libc shim). Connections are state machines: bytes
//! arrive in arbitrary fragments, a [`FrameReader`] reassembles frames,
//! parsed requests queue per connection, and replies flush through a
//! per-connection write buffer when the socket is writable.
//!
//! What runs where is decided per request, from the kinds of the
//! statements in it and nothing else:
//!
//! * A `QUERY` whose script is a few **point reads** (`HOLDS`, `HOLDS3`,
//!   `WHY` — [`StatementKind::is_point_read`]) runs to completion **on
//!   the loop thread** against the tick's snapshot. Binding one item
//!   costs a few microseconds whatever the relation's size; handing it
//!   to another thread and waiting to be woken for the answer cost
//!   twenty times that. So does a small script that fails to parse —
//!   there is nothing to run.
//! * Everything else — `COUNT`, `SHOW`, `CHECK`, `DUMP`, every write,
//!   every `TRACE`, any script too long to be one of the above — goes
//!   to a small **worker pool** (`hrdm-worker-N`) over a channel, with
//!   the statements the loop already parsed; workers post completed
//!   reply frames back through a completion queue + wake pipe.
//!
//! Both sides build the reply with the same function (`answer`): same
//! counters, same slow-log capture, same bytes.
//!
//! [`StatementKind::is_point_read`]: hrdm::hql::StatementKind::is_point_read
//!
//! # Pipelining
//!
//! A connection may have many requests in flight (up to
//! [`ServerConfig::max_pipeline`]): requests execute **in order** and
//! replies return **in order**, so the k-th reply answers the k-th
//! request. A connection's queue is consumed from its head only, by the
//! loop, and only while none of its requests is with a worker — so a
//! point read behind a write waits for that write, and a pipelined
//! burst answers byte-identically to the same requests issued
//! sequentially. Past the pipeline cap the loop simply stops reading
//! from that connection, letting TCP flow control push back on the
//! client.
//!
//! The loop answers at most `LOOP_REQUESTS_PER_TICK` requests per
//! connection per tick; what is left runs next tick (which does not
//! sleep in `poll`), after every other connection's turn. What the
//! loop answered for a connection in a tick is flushed once, so a burst
//! of k point reads is one `read` and one `write`.
//!
//! # Snapshot batching
//!
//! Read-only scripts handled within one loop tick share a **single**
//! snapshot acquisition ([`Engine::read_view`]): the loop pins one
//! `ReadView` per tick, reads through it itself and attaches it to
//! every job. A connection that committed a write since the view was
//! pinned (the read-your-writes floor, the engine epoch after its last
//! worker-run request) makes the loop pin a fresh one first. Scripts
//! containing mutations go statement by statement through
//! [`Engine::execute_statement`] and serialize through the single
//! writer as always.
//!
//! # Admission control and backpressure
//!
//! Connections past [`ServerConfig::max_connections`] get a `BUSY`
//! reply at the handshake, exactly as before. Additionally, when the
//! engine's writer queue is at least [`ServerConfig::backpressure_depth`]
//! deep (the `engine.write_queue_depth` signal), **mutating** scripts
//! are shed with `BUSY` before touching the writer — reads are never
//! shed; they cost no writer capacity.
//!
//! # Telemetry
//!
//! Everything PR 8 instrumented is preserved (per-verb latency
//! histograms, bytes in/out, admission/timeout/protocol counters, the
//! `METRICS`/`SLOWLOG` verbs and the slow-query log), plus the loop's
//! own series: `server.loop.tick` / `server.loop.ready` (events per
//! tick), `server.pipeline.depth` (queued requests at dispatch),
//! `server.snapshot.batch` / `server.snapshot.shared_read` (tick views
//! pinned / reads served from one), `server.read.inline` /
//! `server.read.dispatched` (requests answered on the loop / handed to
//! a worker; [`ServerStats`] carries the same pair per server),
//! `server.stage.queue_wait` (dispatch to worker start, for the
//! requests that still cross threads), and `server.backpressure.shed`.
//!
//! Shutdown is graceful: the flag flips, the wake pipe nudges the
//! loop, in-flight requests complete and flush, every connection
//! closes, the job channel drops, and the loop joins every worker
//! before [`ServerHandle::wait`]/[`ServerHandle::shutdown`] return.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hrdm::hql::{self, parser, Response, Statement};
use hrdm::prelude::{Engine, ReadView};
use hrdm_obs::metrics::{self, Counter, Gauge, Histogram};
use hrdm_obs::slowlog::SlowLog;
use hrdm_obs::trace::fmt_ns;

use crate::proto::{encode_frame, FrameReader, MetricsFormat, Reply, Request, PROTOCOL_VERSION};
use crate::sys::{self, PollFd, WakePipe, POLLIN, POLLOUT};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Admission cap: connections past this count receive `BUSY`.
    pub max_connections: usize,
    /// Per-connection idle deadline, measured from the last *completed*
    /// request activity (admission, a fully-received frame, a reply).
    /// An idle — or slow-loris — connection is sent `ERR timeout` and
    /// closed; trickling bytes without ever completing a frame does
    /// not reset the clock.
    pub read_timeout: Duration,
    /// `QUERY`/`TRACE` requests at least this slow are captured into
    /// this server's slow-query log with their rendered trace
    /// trees (`Duration::ZERO` captures every request).
    pub slowlog_threshold: Duration,
    /// Bound on resident slow-log entries; the log keeps the N
    /// *slowest* requests, not the N most recent.
    pub slowlog_capacity: usize,
    /// Worker threads executing the `QUERY`/`TRACE` requests the loop
    /// does not answer itself. `0` sizes the pool from the machine
    /// (available parallelism, clamped to [2, 8]).
    pub workers: usize,
    /// Write backpressure: when the engine's writer queue is at least
    /// this deep, mutating scripts are shed with `BUSY` instead of
    /// queueing on the writer lock. Reads are never shed. `0` disables
    /// shedding.
    pub backpressure_depth: u64,
    /// Per-connection pipelining cap: requests parsed but not yet
    /// answered. Past it the loop stops reading from the connection
    /// (TCP flow control backpressures the client).
    pub max_pipeline: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            slowlog_threshold: Duration::from_millis(100),
            slowlog_capacity: hrdm_obs::slowlog::DEFAULT_CAPACITY,
            workers: 0,
            backpressure_depth: 0,
            max_pipeline: 128,
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8)
    }
}

/// Per-server counters, readable at any time and rendered by `STATS`.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (admitted or not).
    pub accepted: AtomicU64,
    /// Connections turned away with `BUSY`.
    pub busy_rejected: AtomicU64,
    /// `QUERY`/`TRACE` requests executed successfully.
    pub queries: AtomicU64,
    /// Requests answered with an `ERR` reply.
    pub errors: AtomicU64,
    /// Connections closed by the read timeout.
    pub timeouts: AtomicU64,
    /// Malformed frames / unknown verbs / handshake violations.
    pub protocol_errors: AtomicU64,
    /// Request bytes read off the wire (frame headers included).
    pub bytes_in: AtomicU64,
    /// Reply bytes written to the wire (frame headers included).
    pub bytes_out: AtomicU64,
    /// Mutating scripts shed with `BUSY` under write backpressure.
    pub shed_writes: AtomicU64,
    /// `QUERY` requests answered on the loop thread, never crossing to
    /// a worker: point-read scripts, and small frames that fail to
    /// parse.
    pub inline_reads: AtomicU64,
    /// `QUERY`/`TRACE` requests handed to the worker pool.
    pub dispatched: AtomicU64,
}

/// Registry-backed server metrics, resolved once per process. The same
/// series back every server instance (like the engine's own metrics),
/// so `metrics::reset_all` / the bench fixtures reset them all at once.
struct ServerObs {
    accept: Counter,
    busy: Counter,
    requests: Counter,
    query: Counter,
    query_error: Counter,
    timeout: Counter,
    protocol_error: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    frame_bytes: Histogram,
    slow_recorded: Counter,
    active: Gauge,
    epoch: Gauge,
    loop_tick: Counter,
    loop_ready: Histogram,
    pipeline_depth: Histogram,
    snapshot_batch: Counter,
    snapshot_shared_read: Counter,
    shed: Counter,
    read_inline: Counter,
    read_dispatched: Counter,
    queue_wait: Histogram,
    write_queue_depth: Gauge,
    lat_hello: Histogram,
    lat_query: Histogram,
    lat_trace: Histogram,
    lat_stats: Histogram,
    lat_metrics: Histogram,
    lat_slowlog: Histogram,
    lat_quit: Histogram,
    lat_shutdown: Histogram,
}

fn server_obs() -> &'static ServerObs {
    static OBS: OnceLock<ServerObs> = OnceLock::new();
    OBS.get_or_init(|| ServerObs {
        accept: metrics::counter("server.accept"),
        busy: metrics::counter("server.busy"),
        requests: metrics::counter("server.requests"),
        query: metrics::counter("server.query"),
        query_error: metrics::counter("server.query_error"),
        timeout: metrics::counter("server.timeout"),
        protocol_error: metrics::counter("server.protocol_error"),
        bytes_in: metrics::counter("server.bytes_in"),
        bytes_out: metrics::counter("server.bytes_out"),
        frame_bytes: metrics::histogram("server.frame_bytes"),
        slow_recorded: metrics::counter("server.slowlog.recorded"),
        active: metrics::gauge("server.active_connections"),
        epoch: metrics::gauge("server.epoch"),
        loop_tick: metrics::counter("server.loop.tick"),
        loop_ready: metrics::histogram("server.loop.ready"),
        pipeline_depth: metrics::histogram("server.pipeline.depth"),
        snapshot_batch: metrics::counter("server.snapshot.batch"),
        snapshot_shared_read: metrics::counter("server.snapshot.shared_read"),
        shed: metrics::counter("server.backpressure.shed"),
        read_inline: metrics::counter("server.read.inline"),
        read_dispatched: metrics::counter("server.read.dispatched"),
        queue_wait: metrics::histogram("server.stage.queue_wait"),
        write_queue_depth: metrics::gauge("server.write_queue_depth"),
        lat_hello: metrics::histogram("server.latency.hello"),
        lat_query: metrics::histogram("server.latency.query"),
        lat_trace: metrics::histogram("server.latency.trace"),
        lat_stats: metrics::histogram("server.latency.stats"),
        lat_metrics: metrics::histogram("server.latency.metrics"),
        lat_slowlog: metrics::histogram("server.latency.slowlog"),
        lat_quit: metrics::histogram("server.latency.quit"),
        lat_shutdown: metrics::histogram("server.latency.shutdown"),
    })
}

/// Scripts of at most this many bytes are parsed on the loop thread,
/// which needs the statement kinds to choose where they run; a longer
/// one goes to a worker as text, so the loop never parses more than
/// this per request.
const LOOP_PARSE_BYTES: usize = 1024;

/// The most statements a point-read script may have and still run on
/// the loop thread.
const INLINE_STATEMENTS: usize = 4;

/// The most requests the loop answers for one connection in one tick;
/// what is left in its queue runs next tick, after every other
/// connection has had its turn.
const LOOP_REQUESTS_PER_TICK: usize = 32;

/// A `QUERY`/`TRACE` script on its way to an answer.
struct Script {
    /// The text as received; the slow log quotes it.
    text: String,
    traced: bool,
    /// The parse of `text` when the loop already made it; whoever
    /// answers parses only if this is `None`, so no script is parsed
    /// twice.
    parsed: Option<hql::Result<Vec<Statement>>>,
}

impl Script {
    /// Does this script run to completion on the loop thread? Only if
    /// every statement is a point read (and there are few of them), or
    /// if it failed to parse and there is nothing to run at all. The
    /// kinds of the parsed statements are the whole decision.
    fn runs_on_loop(&self) -> bool {
        match &self.parsed {
            Some(Ok(statements)) => {
                statements.len() <= INLINE_STATEMENTS
                    && statements.iter().all(|s| s.kind().is_point_read())
            }
            Some(Err(_)) => true,
            None => false,
        }
    }
}

/// One `QUERY`/`TRACE` request handed to the worker pool.
struct Job {
    conn: usize,
    generation: u64,
    seq: u64,
    script: Script,
    /// The loop-tick snapshot a read-only script executes on; the loop
    /// only attaches one at least as fresh as the connection's
    /// read-your-writes floor.
    view: ReadView,
    /// When the loop sent the job, for `server.stage.queue_wait`.
    dispatched: Instant,
}

/// A finished request: the fully-encoded reply frame plus routing.
struct Completion {
    conn: usize,
    generation: u64,
    seq: u64,
    frame: Vec<u8>,
    /// Engine epoch after execution — advances the connection's
    /// read-your-writes floor.
    epoch: u64,
}

struct Shared {
    engine: Engine,
    config: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    active: AtomicUsize,
    stats: ServerStats,
    wake: WakePipe,
    completions: Mutex<Vec<Completion>>,
    slowlog: Mutex<SlowLog>,
}

impl Shared {
    fn slowlog(&self) -> MutexGuard<'_, SlowLog> {
        self.slowlog.lock().expect("slowlog lock poisoned")
    }
}

/// The server factory; see [`Server::start`].
pub struct Server;

/// A running server: its bound address, counters, and shutdown control.
pub struct ServerHandle {
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, start the readiness loop and worker pool, and return
    /// immediately.
    pub fn start(engine: Engine, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let slowlog = Mutex::new(SlowLog::new(config.slowlog_capacity));
        let shared = Arc::new(Shared {
            engine,
            config,
            addr,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            stats: ServerStats::default(),
            wake: WakePipe::new()?,
            completions: Mutex::new(Vec::new()),
            slowlog,
        });
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut workers = Vec::new();
        for k in 0..shared.config.effective_workers() {
            let shared = shared.clone();
            let rx = job_rx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("hrdm-worker-{k}"))
                    .spawn(move || worker_loop(shared, rx))?,
            );
        }
        let event_loop = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("hrdm-loop".into())
                .spawn(move || {
                    EventLoop::new(listener, shared, job_tx, workers).run();
                })?
        };
        Ok(ServerHandle {
            shared,
            event_loop: Some(event_loop),
        })
    }
}

impl ServerHandle {
    /// The address the server actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Admitted connections currently open (excludes connections being
    /// turned away with `BUSY`). The chaos suite asserts this returns
    /// to zero after hostile clients disconnect.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Request a graceful shutdown and wait for the loop and every
    /// worker to finish.
    pub fn shutdown(mut self) {
        trigger_shutdown(&self.shared);
        self.join();
    }

    /// Block until the server shuts down (e.g. a client sends
    /// `SHUTDOWN`), then join the loop and every worker.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            trigger_shutdown(&self.shared);
        }
        self.join();
    }
}

fn trigger_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.wake.wake();
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

fn worker_loop(shared: Arc<Shared>, rx: Arc<Mutex<mpsc::Receiver<Job>>>) {
    loop {
        // std mpsc receivers are single-consumer; the pool shares one
        // behind a mutex held only for the blocking recv.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else {
            return; // channel closed: the loop is shutting down
        };
        server_obs()
            .queue_wait
            .observe_ns(job.dispatched.elapsed().as_nanos() as u64);
        let mut frame = Vec::new();
        encode_reply(&shared, &answer(&shared, job.script, &job.view), &mut frame);
        let completion = Completion {
            conn: job.conn,
            generation: job.generation,
            seq: job.seq,
            frame,
            epoch: shared.engine.epoch(),
        };
        match shared.completions.lock() {
            Ok(mut q) => q.push(completion),
            Err(_) => return,
        }
        shared.wake.wake();
    }
}

/// Render `reply` as one frame appended to `out`, counting its bytes.
fn encode_reply(shared: &Shared, reply: &Reply, out: &mut Vec<u8>) {
    let before = out.len();
    encode_frame(&reply.render(), out);
    let wire_len = (out.len() - before) as u64;
    shared
        .stats
        .bytes_out
        .fetch_add(wire_len, Ordering::Relaxed);
    server_obs().bytes_out.add(wire_len);
}

/// Answer one `QUERY`/`TRACE` script — on a worker, or on the loop
/// thread for a script that [`Script::runs_on_loop`]; the reply, the
/// counters and the slow-log capture are the same either way. A
/// read-only script executes on `view`; one that mutates is shed under
/// write backpressure or else takes the engine's serialized writer,
/// statement by statement. The wall time recorded starts here, so it
/// leaves out the loop's parse of a small script.
fn answer(shared: &Shared, script: Script, view: &ReadView) -> Reply {
    let obs = server_obs();
    let started = Instant::now();
    let Script {
        text,
        traced,
        parsed,
    } = script;
    // Spans are captured for every script: TRACE replies with the tree,
    // and a slow QUERY hands it to the slow log.
    let run = || {
        let statements = match parsed.unwrap_or_else(|| parser::parse(&text)) {
            Ok(statements) => statements,
            Err(e) => return (Err(e), false, false),
        };
        if statements.iter().all(Statement::is_read_only) {
            return (view.execute(statements), true, false);
        }
        let limit = shared.config.backpressure_depth;
        if limit > 0 && shared.engine.write_queue_depth() >= limit {
            return (Ok(Vec::new()), false, true);
        }
        let responses = statements
            .into_iter()
            .map(|stmt| shared.engine.execute_statement(stmt))
            .collect();
        (responses, false, false)
    };
    let ((result, shared_view, shed), trace) = hrdm_obs::trace::capture("server.query", run);
    obs.requests.incr();
    obs.write_queue_depth.set(shared.engine.write_queue_depth());
    let wall = started.elapsed();
    if traced {
        obs.lat_trace.observe_ns(wall.as_nanos() as u64);
    } else {
        obs.lat_query.observe_ns(wall.as_nanos() as u64);
    }
    obs.epoch.set(shared.engine.epoch());
    if shed {
        shared.stats.shed_writes.fetch_add(1, Ordering::Relaxed);
        obs.shed.incr();
        return Reply::Busy(format!(
            "write backpressure: writer queue depth >= {}; retry later",
            shared.config.backpressure_depth
        ));
    }
    if shared_view {
        obs.snapshot_shared_read.incr();
    }
    if wall >= shared.config.slowlog_threshold {
        let verb = if traced { "TRACE" } else { "QUERY" };
        // Render before taking the log's lock, not under it.
        let (epoch, rendered) = (shared.engine.epoch(), trace.render());
        let wall_ns = wall.as_nanos() as u64;
        if shared
            .slowlog()
            .record(verb, &text, wall_ns, epoch, rendered)
        {
            obs.slow_recorded.incr();
        }
    }
    match result {
        Ok(responses) => {
            shared.stats.queries.fetch_add(1, Ordering::Relaxed);
            obs.query.incr();
            let mut parts: Vec<String> = responses.into_iter().map(Response::into_text).collect();
            if traced {
                parts.push(trace.render());
            }
            Reply::Ok(parts)
        }
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            obs.query_error.incr();
            Reply::Err {
                kind: e.kind().to_string(),
                message: e.to_string(),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------

/// Why a connection stops accepting input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    /// Serving normally.
    Open,
    /// No more input; close once every queued/in-flight reply flushes.
    Draining,
}

struct Conn {
    stream: TcpStream,
    generation: u64,
    reader: FrameReader,
    greeted: bool,
    /// Turned away with `BUSY` at admission: waits for the client's
    /// opening frame (so closing doesn't RST the reply away), answers
    /// `BUSY`, drains, closes. Not counted as active.
    rejecting: bool,
    /// Last *completed* activity: admission, a full frame, a reply.
    last_activity: Instant,
    /// Idle deadline for this connection (the server read timeout, or
    /// the short busy-drain window for rejected connections).
    deadline: Duration,
    /// Next sequence number a parsed request will get.
    next_seq: u64,
    /// Next sequence number the write path may flush.
    next_write_seq: u64,
    /// Completed reply frames waiting on in-order flush.
    ready: BTreeMap<u64, Vec<u8>>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// A worker job is outstanding for this connection.
    inflight: bool,
    /// Parsed requests not yet executed (pipelining backlog).
    queue: VecDeque<(u64, Request)>,
    /// Requests the loop has answered for this connection in the
    /// current tick, against [`LOOP_REQUESTS_PER_TICK`].
    loop_used: usize,
    /// Read-your-writes floor (engine epoch after this connection's
    /// last completed request).
    min_epoch: u64,
    lifecycle: Lifecycle,
    /// Trigger a server shutdown once this connection's replies flush
    /// (the `SHUTDOWN` verb).
    shutdown_after: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64, rejecting: bool, deadline: Duration) -> Conn {
        Conn {
            stream,
            generation,
            reader: FrameReader::new(),
            greeted: false,
            rejecting,
            last_activity: Instant::now(),
            deadline,
            next_seq: 0,
            next_write_seq: 0,
            ready: BTreeMap::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            inflight: false,
            queue: VecDeque::new(),
            loop_used: 0,
            min_epoch: 0,
            lifecycle: Lifecycle::Open,
            shutdown_after: false,
        }
    }

    fn accepts_input(&self) -> bool {
        self.lifecycle == Lifecycle::Open
    }

    /// Parsed-but-unanswered requests (the pipeline depth).
    fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.inflight)
    }

    fn wants_read(&self, max_pipeline: usize) -> bool {
        self.accepts_input() && self.backlog() < max_pipeline
    }

    fn has_pending_writes(&self) -> bool {
        self.write_pos < self.write_buf.len() || self.ready.contains_key(&self.next_write_seq)
    }

    /// Fully quiesced: nothing queued, nothing in flight, nothing to
    /// write.
    fn drained(&self) -> bool {
        !self.inflight && self.queue.is_empty() && !self.has_pending_writes()
    }

    /// Has work the loop can do without any new readiness event: a
    /// queued request with no job in flight (the tick's budget ran
    /// out), or a whole frame still in the read buffer. The loop must
    /// not sleep in `poll` while this holds.
    fn runnable(&self, max_pipeline: usize) -> bool {
        !self.inflight
            && (!self.queue.is_empty()
                || (self.wants_read(max_pipeline) && self.reader.frame_ready()))
    }

    /// The idle clock runs only when the connection is waiting on the
    /// *client* — a request in flight or a reply mid-write is server
    /// work, not idleness.
    fn timeout_applies(&self) -> bool {
        !self.inflight && self.queue.is_empty()
    }
}

// ---------------------------------------------------------------------
// The readiness loop
// ---------------------------------------------------------------------

/// What a pollfd entry refers to.
#[derive(Clone, Copy)]
enum Target {
    Wake,
    Listener,
    Conn(usize),
}

struct EventLoop {
    listener: TcpListener,
    shared: Arc<Shared>,
    jobs: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    generation: u64,
    /// The tick-shared read snapshot (pinned lazily at first dispatch,
    /// cleared every tick).
    tick_view: Option<ReadView>,
    /// Connections whose slot must be closed at the end of the tick.
    doomed: Vec<usize>,
    shutdown_started: Option<Instant>,
}

/// Hard cap on how long a graceful shutdown waits for in-flight
/// requests and reply flushes before force-closing.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// How long a `BUSY`-rejected connection is given to present its
/// opening frame before the reply is sent regardless.
const BUSY_DRAIN: Duration = Duration::from_secs(1);

impl EventLoop {
    fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        jobs: mpsc::Sender<Job>,
        workers: Vec<JoinHandle<()>>,
    ) -> EventLoop {
        EventLoop {
            listener,
            shared,
            jobs: Some(jobs),
            workers,
            conns: Vec::new(),
            free: Vec::new(),
            generation: 0,
            tick_view: None,
            doomed: Vec::new(),
            shutdown_started: None,
        }
    }

    fn run(mut self) {
        let obs = server_obs();
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut targets: Vec<Target> = Vec::new();
        let mut read_chunk = vec![0u8; 64 * 1024];
        loop {
            pollfds.clear();
            targets.clear();
            // Some connection has work left over from the last tick.
            let mut runnable = false;
            {
                use std::os::unix::io::AsRawFd;
                pollfds.push(PollFd::new(self.shared.wake.poll_fd(), POLLIN));
                targets.push(Target::Wake);
                if self.shutdown_started.is_none() {
                    pollfds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
                    targets.push(Target::Listener);
                }
                for (token, slot) in self.conns.iter_mut().enumerate() {
                    let Some(conn) = slot else { continue };
                    conn.loop_used = 0;
                    runnable |= conn.runnable(self.shared.config.max_pipeline);
                    let mut events = 0;
                    if conn.wants_read(self.shared.config.max_pipeline) {
                        events |= POLLIN;
                    }
                    if conn.has_pending_writes() {
                        events |= POLLOUT;
                    }
                    // Registered even with an empty interest set:
                    // poll(2) always reports errors and hangups.
                    pollfds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                    targets.push(Target::Conn(token));
                }
            }
            let timeout_ms = if runnable { 0 } else { self.poll_timeout_ms() };
            let ready = sys::poll_fds(&mut pollfds, timeout_ms).unwrap_or_default();
            obs.loop_tick.incr();
            obs.loop_ready.observe(ready as u64);
            self.tick_view = None;

            // Readiness events first (their indexes match `targets`).
            for k in 0..pollfds.len() {
                if pollfds[k].revents == 0 {
                    continue;
                }
                match targets[k] {
                    Target::Wake => self.shared.wake.drain(),
                    Target::Listener => self.accept_ready(),
                    Target::Conn(token) => {
                        if pollfds[k].readable() {
                            self.conn_readable(token, &mut read_chunk);
                        }
                        if pollfds[k].writable() {
                            self.conn_writable(token);
                        }
                    }
                }
            }

            // Worker completions (wake-pipe driven, but drained every
            // tick regardless so a missed wake can't strand a reply).
            self.drain_completions();

            // Leftovers: connections the tick's budget cut short get
            // their next turn now, whether or not their socket had
            // anything new to say.
            if runnable {
                let max_pipeline = self.shared.config.max_pipeline;
                for token in 0..self.conns.len() {
                    if matches!(&self.conns[token], Some(c) if c.runnable(max_pipeline)) {
                        self.process_input(token);
                        self.pump(token);
                    }
                }
            }

            // Shutdown entry: stop accepting, stop reading, let
            // in-flight work and queued replies drain.
            if self.shared.shutdown.load(Ordering::SeqCst) && self.shutdown_started.is_none() {
                self.shutdown_started = Some(Instant::now());
                for token in 0..self.conns.len() {
                    if let Some(conn) = self.conns[token].as_mut() {
                        conn.lifecycle = Lifecycle::Draining;
                        conn.queue.clear();
                    }
                    self.try_finish_drain(token);
                }
            }

            self.expire_idle();
            self.reap_doomed();

            if let Some(started) = self.shutdown_started {
                let all_closed = self.conns.iter().all(Option::is_none);
                if all_closed || started.elapsed() >= SHUTDOWN_DRAIN {
                    break;
                }
            }
        }
        // Tear down: close every socket, stop the pool, join it.
        for slot in &mut self.conns {
            *slot = None;
        }
        self.shared.active.store(0, Ordering::SeqCst);
        server_obs().active.set(0);
        drop(self.jobs.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Poll timeout: the nearest idle deadline across connections
    /// (clamped to [1ms, 1s]), a short tick while draining for
    /// shutdown, or a 1s housekeeping tick when fully idle.
    fn poll_timeout_ms(&self) -> i32 {
        if self.shutdown_started.is_some() {
            return 10;
        }
        let now = Instant::now();
        let mut next: Option<Duration> = None;
        for conn in self.conns.iter().flatten() {
            if !conn.timeout_applies() {
                continue;
            }
            let deadline = conn.last_activity + conn.deadline;
            let left = deadline.saturating_duration_since(now);
            next = Some(match next {
                Some(cur) => cur.min(left),
                None => left,
            });
        }
        match next {
            Some(d) => (d.as_millis() as i64).clamp(1, 1000) as i32,
            None => 1000,
        }
    }

    // -- admission ----------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
            server_obs().accept.incr();
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Replies can be several frames batched into one buffer;
            // without TCP_NODELAY, Nagle holds small tails until the
            // client ACKs — tens of milliseconds per request.
            let _ = stream.set_nodelay(true);
            let rejecting =
                self.shared.active.load(Ordering::SeqCst) >= self.shared.config.max_connections;
            if rejecting {
                self.shared
                    .stats
                    .busy_rejected
                    .fetch_add(1, Ordering::Relaxed);
                server_obs().busy.incr();
            } else {
                let now_active = self.shared.active.fetch_add(1, Ordering::SeqCst) + 1;
                server_obs().active.set(now_active as u64);
            }
            self.generation += 1;
            let deadline = if rejecting {
                BUSY_DRAIN
            } else {
                self.shared.config.read_timeout
            };
            let conn = Conn::new(stream, self.generation, rejecting, deadline);
            match self.free.pop() {
                Some(token) => self.conns[token] = Some(conn),
                None => self.conns.push(Some(conn)),
            }
        }
    }

    // -- reads --------------------------------------------------------

    fn conn_readable(&mut self, token: usize, chunk: &mut [u8]) {
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        let mut eof = false;
        // Bounded per tick so one firehose connection cannot starve
        // the rest of the loop.
        for _ in 0..4 {
            match conn.stream.read(chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.reader.push(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // RST or similar: the peer is gone, take the slot
                    // down without ceremony.
                    self.doom(token);
                    return;
                }
            }
        }
        self.process_input(token);
        // The one flush of this tick for whatever the loop just
        // answered.
        self.pump(token);
        if eof {
            if let Some(conn) = self.conns[token].as_mut() {
                if conn.drained() {
                    self.doom(token);
                } else {
                    // Half-close: finish in-flight work, flush, then
                    // close from the write path.
                    conn.lifecycle = Lifecycle::Draining;
                }
            }
        }
    }

    /// Parse buffered bytes into requests (respecting the pipeline
    /// cap), start execution, and enqueue any immediate replies.
    fn process_input(&mut self, token: usize) {
        let obs = server_obs();
        loop {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            if !conn.accepts_input() || conn.backlog() >= self.shared.config.max_pipeline {
                break;
            }
            let frame = match conn.reader.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    // Framing violation (oversized / non-UTF-8): tell
                    // the client why, then close. Queued-but-undispatched
                    // requests are discarded, so the reply takes over
                    // the first abandoned sequence slot — the write
                    // path flushes strictly in sequence order.
                    self.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .stats
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    obs.protocol_error.incr();
                    let seq = conn.queue.front().map_or(conn.next_seq, |(s, _)| *s);
                    conn.next_seq = seq + 1;
                    conn.lifecycle = Lifecycle::Draining;
                    conn.queue.clear();
                    self.complete_inline(
                        token,
                        seq,
                        &Reply::Err {
                            kind: "protocol".into(),
                            message: e.to_string(),
                        },
                    );
                    break;
                }
            };
            let wire_len = 4 + frame.len() as u64;
            self.shared
                .stats
                .bytes_in
                .fetch_add(wire_len, Ordering::Relaxed);
            obs.bytes_in.add(wire_len);
            obs.frame_bytes.observe(frame.len() as u64);
            let conn = self.conns[token].as_mut().expect("checked above");
            conn.last_activity = Instant::now();
            if conn.rejecting {
                // The client's opening frame has arrived; now a BUSY
                // reply cannot be lost to a racing RST.
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.lifecycle = Lifecycle::Draining;
                self.complete_inline(
                    token,
                    seq,
                    &Reply::Busy("server at connection capacity; retry later".into()),
                );
                break;
            }
            let seq = conn.next_seq;
            conn.next_seq += 1;
            match Request::parse(&frame) {
                Ok(request) => {
                    // The handshake check runs at parse time so a
                    // pipelined burst beginning with HELLO is valid
                    // even before the HELLO executes.
                    if matches!(request, Request::Hello) {
                        conn.greeted = true;
                    } else if !conn.greeted {
                        // HELLO must come first; anything else is a
                        // protocol error that closes the connection.
                        self.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                        self.shared
                            .stats
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        obs.protocol_error.incr();
                        conn.lifecycle = Lifecycle::Draining;
                        conn.queue.clear();
                        self.complete_inline(
                            token,
                            seq,
                            &Reply::Err {
                                kind: "protocol".into(),
                                message: "expected HELLO as the first request".into(),
                            },
                        );
                        break;
                    }
                    conn.queue.push_back((seq, request));
                }
                Err(msg) => {
                    // Unknown verb / malformed payload: answer in
                    // sequence and keep serving the connection.
                    self.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .stats
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    obs.protocol_error.incr();
                    self.complete_inline(
                        token,
                        seq,
                        &Reply::Err {
                            kind: "protocol".into(),
                            message: msg,
                        },
                    );
                }
            }
        }
        self.advance(token);
    }

    /// Execute from the head of the connection's request queue, in
    /// order: lightweight verbs and point-read `QUERY` scripts run to
    /// completion here on the loop thread, every other `QUERY`/`TRACE`
    /// goes to the worker pool (one in flight per connection, so
    /// pipelined requests execute — and answer — in order whichever
    /// side runs them). Stops at a dispatch, at an empty queue, or
    /// after [`LOOP_REQUESTS_PER_TICK`] requests. Point-read replies
    /// are queued, not flushed: every caller pumps once afterwards.
    fn advance(&mut self, token: usize) {
        let obs = server_obs();
        loop {
            let (seq, request) = {
                let Some(conn) = self.conns[token].as_mut() else {
                    return;
                };
                if conn.inflight || conn.loop_used >= LOOP_REQUESTS_PER_TICK {
                    return;
                }
                let Some(head) = conn.queue.pop_front() else {
                    return;
                };
                conn.loop_used += 1;
                head
            };
            let started = Instant::now();
            match request {
                Request::Query(text) => {
                    let parsed = (text.len() <= LOOP_PARSE_BYTES).then(|| parser::parse(&text));
                    let script = Script {
                        text,
                        traced: false,
                        parsed,
                    };
                    if !script.runs_on_loop() {
                        self.dispatch(token, seq, script);
                        return;
                    }
                    let view = self.view_for(token);
                    let reply = answer(&self.shared, script, &view);
                    self.shared
                        .stats
                        .inline_reads
                        .fetch_add(1, Ordering::Relaxed);
                    obs.read_inline.incr();
                    self.queue_reply(token, seq, &reply);
                }
                Request::Trace(text) => {
                    // Parsed on the worker, inside the trace capture.
                    let script = Script {
                        text,
                        traced: true,
                        parsed: None,
                    };
                    self.dispatch(token, seq, script);
                    return;
                }
                Request::Hello => {
                    obs.requests.incr();
                    obs.lat_hello
                        .observe_ns(started.elapsed().as_nanos() as u64);
                    self.complete_inline(token, seq, &Reply::Ok(vec![PROTOCOL_VERSION.into()]));
                }
                Request::Stats => {
                    let reply = Reply::Ok(vec![render_stats(&self.shared)]);
                    obs.requests.incr();
                    obs.lat_stats
                        .observe_ns(started.elapsed().as_nanos() as u64);
                    self.complete_inline(token, seq, &reply);
                }
                Request::Metrics(format) => {
                    let reply = run_metrics(format);
                    obs.requests.incr();
                    obs.lat_metrics
                        .observe_ns(started.elapsed().as_nanos() as u64);
                    self.complete_inline(token, seq, &reply);
                }
                Request::Slowlog(limit) => {
                    let reply = run_slowlog(&self.shared, limit);
                    obs.requests.incr();
                    obs.lat_slowlog
                        .observe_ns(started.elapsed().as_nanos() as u64);
                    self.complete_inline(token, seq, &reply);
                }
                Request::Quit => {
                    obs.requests.incr();
                    obs.lat_quit.observe_ns(started.elapsed().as_nanos() as u64);
                    if let Some(conn) = self.conns[token].as_mut() {
                        conn.lifecycle = Lifecycle::Draining;
                        conn.queue.clear();
                    }
                    self.complete_inline(token, seq, &Reply::Ok(vec!["bye".into()]));
                }
                Request::Shutdown => {
                    obs.requests.incr();
                    obs.lat_shutdown
                        .observe_ns(started.elapsed().as_nanos() as u64);
                    if let Some(conn) = self.conns[token].as_mut() {
                        conn.lifecycle = Lifecycle::Draining;
                        conn.queue.clear();
                        conn.shutdown_after = true;
                    }
                    self.complete_inline(token, seq, &Reply::Ok(vec!["shutting down".into()]));
                    trigger_shutdown(&self.shared);
                }
            }
        }
    }

    /// The tick's shared snapshot, as connection `token` may read it:
    /// pinned at the first use in a tick, and pinned afresh when it is
    /// older than the connection's read-your-writes floor (later users
    /// in the tick get the fresher one too).
    fn view_for(&mut self, token: usize) -> ReadView {
        let floor = self.conns[token].as_ref().map_or(0, |c| c.min_epoch);
        match &self.tick_view {
            Some(view) if view.epoch() >= floor => view.clone(),
            _ => {
                let view = self.shared.engine.read_view();
                server_obs().snapshot_batch.incr();
                self.tick_view = Some(view.clone());
                view
            }
        }
    }

    /// Hand one script to the worker pool with the tick's snapshot.
    fn dispatch(&mut self, token: usize, seq: u64, script: Script) {
        let obs = server_obs();
        let view = self.view_for(token);
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        conn.inflight = true;
        obs.pipeline_depth.observe(conn.backlog() as u64);
        self.shared.stats.dispatched.fetch_add(1, Ordering::Relaxed);
        obs.read_dispatched.incr();
        let job = Job {
            conn: token,
            generation: conn.generation,
            seq,
            script,
            view,
            dispatched: Instant::now(),
        };
        if let Some(jobs) = &self.jobs {
            if jobs.send(job).is_err() {
                // Worker pool gone (shutdown race): the connection can
                // only drain now.
                if let Some(conn) = self.conns[token].as_mut() {
                    conn.inflight = false;
                    conn.lifecycle = Lifecycle::Draining;
                    conn.queue.clear();
                }
            }
        }
    }

    // -- completions and writes ---------------------------------------

    fn drain_completions(&mut self) {
        let completions: Vec<Completion> = match self.shared.completions.lock() {
            Ok(mut q) => std::mem::take(&mut *q),
            Err(_) => return,
        };
        for c in completions {
            let Some(conn) = self.conns.get_mut(c.conn).and_then(Option::as_mut) else {
                continue; // connection died while the job ran
            };
            if conn.generation != c.generation {
                continue; // slot was reused
            }
            conn.inflight = false;
            conn.last_activity = Instant::now();
            conn.min_epoch = conn.min_epoch.max(c.epoch);
            conn.ready.insert(c.seq, c.frame);
            // The pipeline may have buffered frames beyond the cap;
            // with a slot free, parse further and start the next
            // request before flushing.
            self.process_input(c.conn);
            self.pump(c.conn);
        }
    }

    /// Render, encode, and enqueue a loop-thread reply in its sequence
    /// slot, without touching the socket.
    fn queue_reply(&mut self, token: usize, seq: u64, reply: &Reply) {
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        let mut frame = Vec::new();
        encode_reply(&self.shared, reply, &mut frame);
        conn.ready.insert(seq, frame);
        conn.last_activity = Instant::now();
    }

    /// [`queue_reply`](Self::queue_reply), then flush opportunistically.
    fn complete_inline(&mut self, token: usize, seq: u64, reply: &Reply) {
        self.queue_reply(token, seq, reply);
        self.pump(token);
    }

    fn conn_writable(&mut self, token: usize) {
        self.pump(token);
    }

    /// Move in-order completed replies into the write buffer and push
    /// bytes to the socket until it would block (or everything sent).
    fn pump(&mut self, token: usize) {
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        loop {
            while let Some(frame) = conn.ready.remove(&conn.next_write_seq) {
                conn.write_buf.extend_from_slice(&frame);
                conn.next_write_seq += 1;
            }
            if conn.write_pos == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                break;
            }
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    self.doom(token);
                    return;
                }
                Ok(n) => {
                    conn.write_pos += n;
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.doom(token);
                    return;
                }
            }
        }
        self.try_finish_drain(token);
    }

    /// Close a draining connection whose work has fully flushed; kick
    /// the server shutdown if its `SHUTDOWN` reply just went out.
    fn try_finish_drain(&mut self, token: usize) {
        let Some(conn) = self.conns[token].as_ref() else {
            return;
        };
        if conn.lifecycle == Lifecycle::Draining && conn.drained() {
            if conn.shutdown_after {
                trigger_shutdown(&self.shared);
            }
            self.doom(token);
        }
    }

    // -- timeouts and teardown ----------------------------------------

    fn expire_idle(&mut self) {
        let obs = server_obs();
        let now = Instant::now();
        for token in 0..self.conns.len() {
            let Some(conn) = self.conns[token].as_mut() else {
                continue;
            };
            if !conn.timeout_applies() {
                continue;
            }
            if now.saturating_duration_since(conn.last_activity) < conn.deadline {
                continue;
            }
            if conn.rejecting {
                // The opening frame never (fully) arrived; send BUSY
                // anyway — matching the blocking server's behavior —
                // and close.
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.lifecycle = Lifecycle::Draining;
                self.complete_inline(
                    token,
                    seq,
                    &Reply::Busy("server at connection capacity; retry later".into()),
                );
                // Best-effort: if the socket still isn't writable the
                // reply is lost, exactly like the old fire-and-forget.
                self.doom(token);
                continue;
            }
            if conn.lifecycle == Lifecycle::Draining {
                // A drain that cannot make progress (peer stopped
                // reading): give up.
                self.doom(token);
                continue;
            }
            self.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            self.shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            obs.timeout.incr();
            let timeout = conn.deadline;
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.lifecycle = Lifecycle::Draining;
            conn.queue.clear();
            self.complete_inline(
                token,
                seq,
                &Reply::Err {
                    kind: "timeout".into(),
                    message: format!("no request within {timeout:?}; closing"),
                },
            );
            // If the reply flushed, the pump already closed the slot;
            // otherwise the drain deadline will reap it.
        }
    }

    fn doom(&mut self, token: usize) {
        if !self.doomed.contains(&token) {
            self.doomed.push(token);
        }
    }

    fn reap_doomed(&mut self) {
        while let Some(token) = self.doomed.pop() {
            let Some(conn) = self.conns[token].take() else {
                continue;
            };
            if !conn.rejecting {
                let left = self.shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
                server_obs().active.set(left as u64);
            }
            self.free.push(token);
            // `conn.stream` drops here, closing the socket.
        }
    }
}

// ---------------------------------------------------------------------
// Inline verbs
// ---------------------------------------------------------------------

fn run_metrics(format: MetricsFormat) -> Reply {
    let body = match format {
        MetricsFormat::Prometheus => metrics::render_prometheus(),
        MetricsFormat::Json => metrics::export_json("server"),
    };
    Reply::Ok(vec![body])
}

fn run_slowlog(shared: &Shared, limit: Option<u32>) -> Reply {
    let mut entries = shared.slowlog().entries();
    if let Some(n) = limit {
        entries.truncate(n as usize);
    }
    let parts = entries
        .iter()
        .enumerate()
        .map(|(rank, e)| {
            format!(
                "#{} {} {} epoch={} seq={}\n{}\n{}",
                rank + 1,
                e.verb,
                fmt_ns(e.wall_ns),
                e.epoch,
                e.seq,
                e.preview,
                e.trace
            )
        })
        .collect();
    Reply::Ok(parts)
}

fn render_stats(shared: &Shared) -> String {
    // The open store's LSNs sit under the epoch (read off atomics: the
    // loop never waits on the writer lock).
    let lsns = shared
        .engine
        .lsn_probe()
        .map(|lines| format!("\n{lines}"))
        .unwrap_or_default();
    format!(
        "epoch: {}{lsns}\naccepted: {}\nactive: {}\nbusy-rejected: {}\nqueries: {}\nerrors: {}\n\
         timeouts: {}\nprotocol-errors: {}\nbytes-in: {}\nbytes-out: {}\n\
         slowlog-entries: {}\nslowlog-threshold-ms: {}\nworkers: {}\n\
         backpressure-depth: {}\nshed-writes: {}\ninline-reads: {}\ndispatched: {}",
        shared.engine.epoch(),
        shared.stats.accepted.load(Ordering::Relaxed),
        shared.active.load(Ordering::SeqCst),
        shared.stats.busy_rejected.load(Ordering::Relaxed),
        shared.stats.queries.load(Ordering::Relaxed),
        shared.stats.errors.load(Ordering::Relaxed),
        shared.stats.timeouts.load(Ordering::Relaxed),
        shared.stats.protocol_errors.load(Ordering::Relaxed),
        shared.stats.bytes_in.load(Ordering::Relaxed),
        shared.stats.bytes_out.load(Ordering::Relaxed),
        shared.slowlog().len(),
        shared.config.slowlog_threshold.as_millis(),
        shared.config.effective_workers(),
        shared.config.backpressure_depth,
        shared.stats.shed_writes.load(Ordering::Relaxed),
        shared.stats.inline_reads.load(Ordering::Relaxed),
        shared.stats.dispatched.load(Ordering::Relaxed),
    )
}
