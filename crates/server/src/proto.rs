//! The `HRDM/1` wire protocol: framing, requests, replies, and a
//! blocking client.
//!
//! # Framing
//!
//! Every message — request or reply — is one **frame**: a big-endian
//! `u32` byte length followed by that many bytes of UTF-8 text. Frames
//! are capped at [`MAX_FRAME`] bytes; an oversized or non-UTF-8 frame
//! is a protocol error and closes the connection.
//!
//! # Requests
//!
//! The first line of a request frame is the verb; everything after the
//! first newline is the payload:
//!
//! | verb       | payload      | effect                                 |
//! |------------|--------------|----------------------------------------|
//! | `HELLO`    | —            | handshake; must be the first request   |
//! | `QUERY`    | HQL script   | execute; one response per statement    |
//! | `TRACE`    | HQL script   | execute under a trace; returns the span tree |
//! | `STATS`    | —            | server + engine counters               |
//! | `METRICS`  | `PROM`/`JSON` | the whole metrics registry (Prometheus text or JSON) |
//! | `SLOWLOG`  | optional `N` | the N slowest requests with their trace trees |
//! | `QUIT`     | —            | close this connection                  |
//! | `SHUTDOWN` | —            | stop the whole server gracefully       |
//!
//! # Replies
//!
//! * `OK\n<body>` — success. For `QUERY`, the body is the rendered
//!   responses joined by [`RESPONSE_SEP`] (ASCII record separator), so
//!   multi-statement scripts round-trip losslessly.
//! * `ERR <kind>\n<message>` — failure; `<kind>` is the stable error
//!   code from [`hrdm::Error::kind`] (plus the transport-level codes
//!   `protocol` and `timeout`).
//! * `BUSY\n<message>` — the server is at its connection cap (sent
//!   instead of the `HELLO` greeting) **or** sheds a mutating script
//!   under write backpressure; retry later.
//!
//! # Pipelining
//!
//! `HRDM/1` is pipelined: a client may send any number of request
//! frames without waiting for replies. The server executes one
//! connection's requests **in order** and replies **in order**, so the
//! k-th reply always answers the k-th request. [`Client::pipeline`]
//! sends a burst of requests as one contiguous write and collects the
//! replies; [`Client::send`]/[`Client::recv`] expose the two halves for
//! arbitrary interleavings. [`FrameReader`] is the incremental decoder
//! both ends use to reassemble frames from arbitrarily-fragmented
//! reads.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;

use hrdm::hql::{ExecError, ExecResult, ExecutorHandle};

/// Protocol name + revision, echoed in the `HELLO` reply.
pub const PROTOCOL_VERSION: &str = "HRDM/1";

/// Maximum frame payload size (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Separator between per-statement responses in a `QUERY` reply body
/// (ASCII record separator — cannot appear in rendered responses).
pub const RESPONSE_SEP: &str = "\u{1e}";

/// Write one length-prefixed frame: header and payload leave in a
/// single `write`, so a frame is one syscall (and, on a socket, one
/// segment) rather than two.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    encode_frame(payload, &mut frame);
    w.write_all(&frame)?;
    w.flush()
}

/// Append one length-prefixed frame to a byte buffer (the non-blocking
/// write path: the event loop and the pipelined client both build a
/// contiguous buffer of frames and hand it to the socket in one write).
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME`] — buffer-building call
/// sites render their own payloads, so an oversized frame is a logic
/// error, not an I/O condition.
pub fn encode_frame(payload: &str, out: &mut Vec<u8>) {
    let bytes = payload.as_bytes();
    assert!(bytes.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// The least a [`FrameReader::read_from`] call asks the stream for.
const READ_CHUNK: usize = 4096;

/// An incremental frame decoder over an arbitrarily-chunked byte
/// stream.
///
/// Bytes arrive from a non-blocking socket in whatever fragments the
/// kernel delivers — a frame may span many reads, and one read may
/// carry many frames. `FrameReader` buffers pushed bytes and yields
/// complete frames as they materialize; the pipelining property suite
/// proves that any split of any frame sequence reassembles
/// byte-identically.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by yielded frames (compacted
    /// lazily so a burst of small frames doesn't memmove per frame).
    consumed: usize,
}

impl FrameReader {
    /// A fresh decoder with no buffered bytes.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Drop the bytes of frames already yielded; runs before the
    /// buffer grows.
    fn compact(&mut self) {
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        } else if self.consumed >= 4096 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }

    /// Feed bytes read off the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Issue one `read` on `r` straight into the buffer and return its
    /// byte count (`0` is end of stream). The read asks for the rest of
    /// the frame being assembled when its header is already buffered,
    /// and for at least 4 KiB, so whatever the peer has sent — one
    /// reply or a pipelined run of them — arrives in one call.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.compact();
        let missing = self.announced().map_or(0, |payload| {
            (4 + payload.min(MAX_FRAME)).saturating_sub(self.buffered())
        });
        let len = self.buf.len();
        self.buf.resize(len + missing.max(READ_CHUNK), 0);
        let read = r.read(&mut self.buf[len..]);
        self.buf.truncate(len + read.as_ref().map_or(0, |n| *n));
        read
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// The payload length the next frame's header announces, once the
    /// whole header is buffered.
    fn announced(&self) -> Option<usize> {
        match self.buf[self.consumed..] {
            [a, b, c, d, ..] => Some(u32::from_be_bytes([a, b, c, d]) as usize),
            _ => None,
        }
    }

    /// Is a whole frame (or a header announcing an oversized one, which
    /// [`next_frame`](Self::next_frame) reports as an error) buffered,
    /// so that `next_frame` would not answer `Ok(None)`?
    pub fn frame_ready(&self) -> bool {
        self.announced()
            .is_some_and(|payload| payload > MAX_FRAME || self.buffered() >= 4 + payload)
    }

    /// Pop the next complete frame, if one is buffered.
    ///
    /// `Ok(None)` means more bytes are needed. Errors are protocol
    /// violations (oversized frame, non-UTF-8 payload) and poison the
    /// stream — the caller must close the connection.
    pub fn next_frame(&mut self) -> io::Result<Option<String>> {
        let Some(len) = self.announced() else {
            return Ok(None);
        };
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
            ));
        }
        let pending = &self.buf[self.consumed..];
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let payload = std::str::from_utf8(&pending[4..4 + len])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?
            .to_string();
        self.consumed += 4 + len;
        Ok(Some(payload))
    }
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Payload variant of the `METRICS` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition (`# HELP`/`# TYPE` + samples).
    Prometheus,
    /// The `BENCH_obs.json` machine-readable registry dump.
    Json,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake; must be the connection's first request.
    Hello,
    /// Execute an HQL script.
    Query(String),
    /// Execute an HQL script under a query trace.
    Trace(String),
    /// Server and engine counters.
    Stats,
    /// The whole metrics registry in the requested export format.
    Metrics(MetricsFormat),
    /// The slowest requests seen so far (at most `N` when given), each
    /// with its rendered trace tree.
    Slowlog(Option<u32>),
    /// Close this connection.
    Quit,
    /// Stop the whole server gracefully.
    Shutdown,
}

impl Request {
    /// Parse a request frame (verb on the first line, payload after).
    pub fn parse(frame: &str) -> Result<Request, String> {
        let (verb, rest) = match frame.split_once('\n') {
            Some((v, r)) => (v, r),
            None => (frame, ""),
        };
        match verb.trim() {
            "HELLO" => Ok(Request::Hello),
            "QUERY" => Ok(Request::Query(rest.to_string())),
            "TRACE" => Ok(Request::Trace(rest.to_string())),
            "STATS" => Ok(Request::Stats),
            "METRICS" => match rest.trim() {
                "" | "PROM" => Ok(Request::Metrics(MetricsFormat::Prometheus)),
                "JSON" => Ok(Request::Metrics(MetricsFormat::Json)),
                other => Err(format!(
                    "unknown METRICS format {other:?} (expected PROM or JSON)"
                )),
            },
            "SLOWLOG" => match rest.trim() {
                "" => Ok(Request::Slowlog(None)),
                n => n
                    .parse::<u32>()
                    .map(|n| Request::Slowlog(Some(n)))
                    .map_err(|_| format!("SLOWLOG limit {n:?} is not an integer")),
            },
            "QUIT" => Ok(Request::Quit),
            "SHUTDOWN" => Ok(Request::Shutdown),
            other => Err(format!("unknown verb {other:?}")),
        }
    }

    /// Render the request as a frame payload.
    pub fn render(&self) -> String {
        match self {
            Request::Hello => "HELLO".into(),
            Request::Query(script) => format!("QUERY\n{script}"),
            Request::Trace(script) => format!("TRACE\n{script}"),
            Request::Stats => "STATS".into(),
            Request::Metrics(MetricsFormat::Prometheus) => "METRICS\nPROM".into(),
            Request::Metrics(MetricsFormat::Json) => "METRICS\nJSON".into(),
            Request::Slowlog(None) => "SLOWLOG".into(),
            Request::Slowlog(Some(n)) => format!("SLOWLOG\n{n}"),
            Request::Quit => "QUIT".into(),
            Request::Shutdown => "SHUTDOWN".into(),
        }
    }

    /// The wire verb, as a stable label (per-verb latency histograms
    /// and the slow-query log key on it).
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Hello => "HELLO",
            Request::Query(_) => "QUERY",
            Request::Trace(_) => "TRACE",
            Request::Stats => "STATS",
            Request::Metrics(_) => "METRICS",
            Request::Slowlog(_) => "SLOWLOG",
            Request::Quit => "QUIT",
            Request::Shutdown => "SHUTDOWN",
        }
    }
}

/// A parsed reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Success; for `QUERY`, one entry per executed statement.
    Ok(Vec<String>),
    /// Failure with a stable kind code and a rendered message.
    Err {
        /// Stable error-kind code ([`hrdm::Error::kind`] vocabulary,
        /// plus `protocol` and `timeout`).
        kind: String,
        /// Human-readable message.
        message: String,
    },
    /// The server is at its connection cap.
    Busy(String),
}

impl Reply {
    /// Parse a reply frame.
    pub fn parse(frame: &str) -> Result<Reply, String> {
        if let Some(body) = frame.strip_prefix("OK\n") {
            return Ok(Reply::Ok(
                body.split(RESPONSE_SEP).map(String::from).collect(),
            ));
        }
        if frame == "OK" {
            return Ok(Reply::Ok(vec![]));
        }
        if let Some(rest) = frame.strip_prefix("ERR ") {
            let (kind, message) = rest.split_once('\n').unwrap_or((rest, ""));
            return Ok(Reply::Err {
                kind: kind.to_string(),
                message: message.to_string(),
            });
        }
        if let Some(msg) = frame.strip_prefix("BUSY\n") {
            return Ok(Reply::Busy(msg.to_string()));
        }
        Err(format!("unparseable reply {frame:?}"))
    }

    /// Render the reply as a frame payload.
    pub fn render(&self) -> String {
        match self {
            Reply::Ok(parts) if parts.is_empty() => "OK".into(),
            Reply::Ok(parts) => format!("OK\n{}", parts.join(RESPONSE_SEP)),
            Reply::Err { kind, message } => format!("ERR {kind}\n{message}"),
            Reply::Busy(msg) => format!("BUSY\n{msg}"),
        }
    }

    /// Did the request succeed?
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok(_))
    }
}

/// A blocking client over one TCP connection.
///
/// The connection sits behind a mutex so a `Client` is also a
/// [`ExecutorHandle`]: the trait's `&self` methods serialize whole
/// round trips per lock hold (requests from different threads
/// interleave at reply boundaries, never mid-frame). The inherent
/// `&mut self` methods take the uncontended fast path through
/// [`Mutex::get_mut`].
///
/// ```no_run
/// use hrdm_server::proto::Client;
/// let mut client = Client::connect("127.0.0.1:7878").unwrap();
/// let reply = client.query("HOLDS Flies (Tweety);").unwrap();
/// assert!(reply.is_ok());
/// ```
#[derive(Debug)]
pub struct Client {
    wire: Mutex<Wire>,
}

/// One connection's two directions: frames go out through
/// [`write_frame`] (one `write` each) and come back through a
/// [`FrameReader`] that outlives the call, so a reply costs one `read`
/// and the replies of a pipelined burst that arrive together cost one
/// between them.
#[derive(Debug)]
struct Wire {
    stream: TcpStream,
    reader: FrameReader,
}

impl Wire {
    /// The next reply frame's payload, reading only when none is
    /// already buffered.
    fn recv_frame(&mut self) -> io::Result<String> {
        loop {
            if let Some(frame) = self.reader.next_frame()? {
                return Ok(frame);
            }
            match self.reader.read_from(&mut self.stream) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(_) => {}
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn recv(&mut self) -> io::Result<Reply> {
        Reply::parse(&self.recv_frame()?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl Client {
    /// Connect and perform the `HELLO` handshake. Returns an error if
    /// the server replies `BUSY` or with an unexpected greeting.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        let mut client = Client::connect_raw(addr)?;
        match client.request(&Request::Hello)? {
            Reply::Ok(parts) if parts.first().map(String::as_str) == Some(PROTOCOL_VERSION) => {
                Ok(client)
            }
            Reply::Busy(msg) => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("server busy: {msg}"),
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected greeting: {other:?}"),
            )),
        }
    }

    /// Connect without the handshake (for protocol-level tests).
    pub fn connect_raw(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests are small and each waits for its reply: without
        // TCP_NODELAY, Nagle holds a frame written while an earlier
        // one is still unacknowledged (the second `send` of a pipelined
        // exchange), costing tens of milliseconds.
        stream.set_nodelay(true)?;
        Ok(Client {
            wire: Mutex::new(Wire {
                stream,
                reader: FrameReader::new(),
            }),
        })
    }

    /// Exclusive access to the connection without locking (the
    /// `&mut self` fast path).
    fn wire(&mut self) -> &mut Wire {
        self.wire.get_mut().expect("client connection poisoned")
    }

    /// Send one request frame and read one reply frame.
    pub fn request(&mut self, request: &Request) -> io::Result<Reply> {
        self.send_raw(&request.render())
    }

    /// Send one request frame **without** waiting for the reply — the
    /// pipelined half of the protocol. Pair with [`Client::recv`]; the
    /// server executes a connection's requests in order and replies in
    /// order, so the k-th `recv` answers the k-th `send`.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.wire().stream, &request.render())
    }

    /// Read the next reply frame (the receive half of a pipelined
    /// exchange).
    pub fn recv(&mut self) -> io::Result<Reply> {
        self.wire().recv()
    }

    /// Issue `requests` pipelined: every frame is encoded into one
    /// contiguous buffer and written in a single call (one wire burst,
    /// no per-request round trip), then the replies are read back in
    /// request order. The reply at index `k` answers `requests[k]`.
    pub fn pipeline(&mut self, requests: &[Request]) -> io::Result<Vec<Reply>> {
        let mut burst = Vec::new();
        for request in requests {
            encode_frame(&request.render(), &mut burst);
        }
        let wire = self.wire();
        wire.stream.write_all(&burst)?;
        wire.stream.flush()?;
        requests.iter().map(|_| wire.recv()).collect()
    }

    /// Send an arbitrary frame payload and parse the reply (for
    /// protocol-error tests).
    pub fn send_raw(&mut self, payload: &str) -> io::Result<Reply> {
        let wire = self.wire();
        write_frame(&mut wire.stream, payload)?;
        wire.recv()
    }

    /// One whole round trip under the connection lock (the `&self` path
    /// the [`ExecutorHandle`] impl uses).
    fn roundtrip(&self, request: &Request) -> ExecResult<Reply> {
        let io_err = |e: io::Error| ExecError::new("io", e.to_string());
        let mut wire = self.wire.lock().expect("client connection poisoned");
        write_frame(&mut wire.stream, &request.render()).map_err(io_err)?;
        let frame = wire.recv_frame().map_err(io_err)?;
        Reply::parse(&frame).map_err(|e| ExecError::new("protocol", e))
    }

    /// Map a reply to the handle-level result: `OK` bodies pass
    /// through, `ERR` keeps its stable kind, `BUSY` becomes kind
    /// `"busy"`.
    fn unwrap_reply(reply: Reply) -> ExecResult<Vec<String>> {
        match reply {
            Reply::Ok(parts) => Ok(parts),
            Reply::Err { kind, message } => Err(ExecError::new(kind, message)),
            Reply::Busy(message) => Err(ExecError::new("busy", message)),
        }
    }

    /// The server's current epoch, off the first `epoch: <n>` line of
    /// `STATS`.
    fn stats_epoch(&self) -> ExecResult<u64> {
        let stats = Client::unwrap_reply(self.roundtrip(&Request::Stats)?)?;
        stats
            .first()
            .and_then(|body| body.lines().next())
            .and_then(|line| line.strip_prefix("epoch: "))
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| ExecError::new("protocol", "STATS reply lacks an epoch line"))
    }

    /// Execute an HQL script; returns the reply.
    pub fn query(&mut self, script: &str) -> io::Result<Reply> {
        self.request(&Request::Query(script.to_string()))
    }

    /// Execute an HQL script under a query trace.
    pub fn trace(&mut self, script: &str) -> io::Result<Reply> {
        self.request(&Request::Trace(script.to_string()))
    }

    /// Fetch server and engine counters.
    pub fn stats(&mut self) -> io::Result<Reply> {
        self.request(&Request::Stats)
    }

    /// Fetch the whole metrics registry.
    pub fn metrics(&mut self, format: MetricsFormat) -> io::Result<Reply> {
        self.request(&Request::Metrics(format))
    }

    /// Fetch the slow-query log, optionally limited to the `limit`
    /// slowest entries.
    pub fn slowlog(&mut self, limit: Option<u32>) -> io::Result<Reply> {
        self.request(&Request::Slowlog(limit))
    }

    /// Close the connection politely.
    pub fn quit(mut self) -> io::Result<()> {
        let _ = self.request(&Request::Quit)?;
        Ok(())
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> io::Result<Reply> {
        self.request(&Request::Shutdown)
    }
}

/// The remote end of the location-transparent surface: the same trait
/// the embedded engine implements, over one `HRDM/1` connection. The
/// server renders responses with the identical `Display` impls the
/// embedded path uses, so `execute` here is byte-equal to
/// `Engine::execute` against the same state — the parity run in the
/// server integration suite pins this.
impl ExecutorHandle for Client {
    fn execute(&self, script: &str) -> ExecResult<Vec<String>> {
        Client::unwrap_reply(self.roundtrip(&Request::Query(script.to_string()))?)
    }

    fn execute_read(&self, script: &str, min_epoch: u64) -> ExecResult<Vec<String>> {
        // The wire has no read-at-epoch verb; enforce the contract
        // client-side. Mutating scripts are refused before any bytes
        // move, and the epoch floor is awaited via STATS (the server
        // publishes each write's epoch before its reply is sent, so a
        // bounded wait only expires if the floor genuinely isn't
        // reachable yet).
        let statements = hrdm::hql::parser::parse(script)
            .map_err(|e| ExecError::new(e.kind(), e.to_string()))?;
        if !statements.iter().all(hrdm::hql::Statement::is_read_only) {
            return Err(ExecError::new(
                "unsupported",
                "script contains a mutating statement; route it through execute",
            ));
        }
        if min_epoch > 0 {
            let mut tries = 0u32;
            while self.stats_epoch()? < min_epoch {
                tries += 1;
                if tries >= 50 {
                    return Err(ExecError::new(
                        "stale",
                        format!("server has not reached the requested epoch floor {min_epoch}"),
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        Client::unwrap_reply(self.roundtrip(&Request::Query(script.to_string()))?)
    }

    fn last_epoch(&self) -> ExecResult<u64> {
        self.stats_epoch()
    }

    fn probe(&self) -> ExecResult<String> {
        let parts = Client::unwrap_reply(self.roundtrip(&Request::Stats)?)?;
        Ok(parts.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "HELLO").unwrap();
        write_frame(&mut buf, "QUERY\nSHOW Flies;").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("HELLO"));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("QUERY\nSHOW Flies;")
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    /// A frame is one `write`: a socket sees header and payload
    /// together, never a 4-byte segment followed by the rest.
    #[test]
    fn a_frame_is_one_write() {
        struct Calls(Vec<usize>);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut calls = Calls(Vec::new());
        write_frame(&mut calls, "QUERY\nHOLDS Flies (Tweety);").unwrap();
        assert_eq!(calls.0, [4 + 27]);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let big = "x".repeat(MAX_FRAME + 1);
        assert!(write_frame(&mut Vec::new(), &big).is_err());
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Hello,
            Request::Query("SHOW R;\nCHECK R;".into()),
            Request::Trace("TRACE UNION A B;".into()),
            Request::Stats,
            Request::Metrics(MetricsFormat::Prometheus),
            Request::Metrics(MetricsFormat::Json),
            Request::Slowlog(None),
            Request::Slowlog(Some(12)),
            Request::Quit,
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&req.render()).unwrap(), req);
        }
        assert!(Request::parse("EXPLODE").is_err());
        // Bare METRICS defaults to the Prometheus exposition.
        assert_eq!(
            Request::parse("METRICS").unwrap(),
            Request::Metrics(MetricsFormat::Prometheus)
        );
        assert!(Request::parse("METRICS\nXML").is_err());
        assert!(Request::parse("SLOWLOG\nfast").is_err());
    }

    #[test]
    fn replies_round_trip() {
        for reply in [
            Reply::Ok(vec![]),
            Reply::Ok(vec!["domain D created".into(), "t | x".into()]),
            Reply::Err {
                kind: "parse".into(),
                message: "expected a verb".into(),
            },
            Reply::Busy("at capacity".into()),
        ] {
            assert_eq!(Reply::parse(&reply.render()).unwrap(), reply);
        }
        assert!(Reply::parse("???").is_err());
    }

    #[test]
    fn frame_reader_reassembles_byte_at_a_time() {
        let mut encoded = Vec::new();
        let payloads = ["HELLO", "QUERY\nSHOW Flies;", "", "über ☃"];
        for p in &payloads {
            encode_frame(p, &mut encoded);
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for byte in &encoded {
            reader.push(std::slice::from_ref(byte));
            while let Some(frame) = reader.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn frame_reader_rejects_oversized_and_non_utf8_frames() {
        let mut reader = FrameReader::new();
        reader.push(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert_eq!(
            reader.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut reader = FrameReader::new();
        reader.push(&2u32.to_be_bytes());
        reader.push(&[0xff, 0xfe]);
        assert_eq!(
            reader.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn multi_statement_bodies_split_on_the_separator() {
        let reply = Reply::Ok(vec!["a\nmultiline\nresponse".into(), "second".into()]);
        let parsed = Reply::parse(&reply.render()).unwrap();
        assert_eq!(parsed, reply, "newlines inside responses survive");
    }
}
