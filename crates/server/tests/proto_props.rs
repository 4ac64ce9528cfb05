//! Property tests for the `HRDM/1` wire protocol: every renderable
//! request and reply — including the `METRICS`/`SLOWLOG` telemetry
//! verbs — must survive render → parse unchanged, frames must survive
//! write → read byte-for-byte, and *pipelined* frame sequences must
//! reassemble through the incremental [`FrameReader`] no matter how
//! the byte stream is split (partial headers, partial payloads, many
//! frames in one chunk) — whether the bytes are pushed in (the server's
//! loop) or pulled with one `read` per call (the client's `recv`).

use std::io::{self, Read, Write};
use std::net::TcpListener;

use proptest::prelude::*;

use hrdm_server::proto::{encode_frame, read_frame, write_frame};
use hrdm_server::{Client, FrameReader, MetricsFormat, Reply, Request};

/// A stream that hands out its bytes in the given pieces: each `read`
/// returns at most the rest of the current piece, however much room
/// the caller offers — what a socket does when segments arrive apart.
struct Pieces<'a> {
    wire: &'a [u8],
    sizes: &'a [usize],
    next: usize,
    reads: usize,
}

impl Read for Pieces<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let piece = match self.sizes {
            [] => self.wire.len(),
            sizes => sizes[self.next % sizes.len()],
        };
        self.next += 1;
        let n = piece.min(self.wire.len()).min(out.len());
        out[..n].copy_from_slice(&self.wire[..n]);
        self.wire = &self.wire[n..];
        self.reads += 1;
        Ok(n)
    }
}

/// HQL-ish script bodies, plus hostile shapes: empty, blank lines,
/// embedded newlines, leading whitespace, unicode.
fn arb_script() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9_ ;(),:.]{0,60}",
        "[a-zA-Z ;]{0,20}\n[a-zA-Z ;]{0,20}\n\n[a-zA-Z ;]{0,20}",
        Just(String::new()),
        Just("\n".to_string()),
        Just("  SHOW Flies;  ".to_string()),
        Just("ASSERT Vole (\"Amazing Flying Penguin\");".to_string()),
        Just("über — ünïcode ☃".to_string()),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Hello),
        arb_script().prop_map(Request::Query),
        arb_script().prop_map(Request::Trace),
        Just(Request::Stats),
        Just(Request::Metrics(MetricsFormat::Prometheus)),
        Just(Request::Metrics(MetricsFormat::Json)),
        Just(Request::Slowlog(None)),
        any::<u32>().prop_map(|n| Request::Slowlog(Some(n))),
        Just(Request::Quit),
        Just(Request::Shutdown),
    ]
}

/// Reply body parts: anything printable except the record separator
/// (`RESPONSE_SEP` is reserved by the protocol and cannot appear in
/// rendered responses). Newlines inside parts are legal and must
/// survive.
fn arb_part() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9_ |:=.,-]{0,40}",
        "[a-zA-Z ]{0,12}\n[a-zA-Z ]{0,12}",
        Just("(empty trace)".to_string()),
        Just(String::new()),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        // NB: `Reply::Ok(vec![])` and `Reply::Ok(vec![""])` render
        // distinctly ("OK" vs "OK\n") — both shapes are generated.
        prop::collection::vec(arb_part(), 0..4).prop_map(Reply::Ok),
        ("[a-z-]{1,12}", arb_part()).prop_map(|(kind, message)| Reply::Err { kind, message }),
        arb_part().prop_map(Reply::Busy),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_render_then_parse_unchanged(req in arb_request()) {
        let rendered = req.render();
        let parsed = Request::parse(&rendered)
            .unwrap_or_else(|e| panic!("rendered {rendered:?} failed to parse: {e}"));
        prop_assert_eq!(parsed, req, "rendered {}", rendered);
    }

    #[test]
    fn replies_render_then_parse_unchanged(reply in arb_reply()) {
        let rendered = reply.render();
        let parsed = Reply::parse(&rendered)
            .unwrap_or_else(|e| panic!("rendered {rendered:?} failed to parse: {e}"));
        prop_assert_eq!(parsed, reply, "rendered {}", rendered);
    }

    #[test]
    fn frames_write_then_read_byte_identical(payloads in prop::collection::vec(arb_script(), 1..5)) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).expect("within MAX_FRAME");
        }
        let mut r = buf.as_slice();
        for p in &payloads {
            let got = read_frame(&mut r).expect("readable");
            prop_assert_eq!(got.as_deref(), Some(p.as_str()));
        }
        prop_assert_eq!(read_frame(&mut r).expect("clean EOF"), None);
    }

    #[test]
    fn request_verbs_are_stable_across_a_round_trip(req in arb_request()) {
        let parsed = Request::parse(&req.render()).expect("round-trips");
        prop_assert_eq!(parsed.verb(), req.verb());
    }

    /// The partial-write side of pipelining: a client may flush a burst
    /// of request frames in one write, the kernel may deliver it in any
    /// fragmentation. Whatever the split points — mid-header,
    /// mid-payload, several frames per chunk — the incremental reader
    /// must recover exactly the original request sequence, in order,
    /// with nothing left buffered.
    #[test]
    fn pipelined_request_bursts_survive_arbitrary_stream_splits(
        requests in prop::collection::vec(arb_request(), 1..8),
        splits in prop::collection::vec(1usize..64, 0..32),
    ) {
        let payloads: Vec<String> = requests.iter().map(Request::render).collect();
        let mut wire = Vec::new();
        for p in &payloads {
            encode_frame(p, &mut wire);
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let mut split = 0;
        while pos < wire.len() {
            let n = if splits.is_empty() {
                wire.len() - pos
            } else {
                splits[split % splits.len()].min(wire.len() - pos)
            };
            split += 1;
            reader.push(&wire[pos..pos + n]);
            pos += n;
            while let Some(frame) = reader.next_frame().expect("well-formed frames") {
                got.push(frame);
            }
        }
        prop_assert_eq!(&got, &payloads, "reassembled payload sequence diverged");
        prop_assert_eq!(reader.buffered(), 0, "bytes left behind after the last frame");
        for (frame, original) in got.iter().zip(&requests) {
            prop_assert_eq!(&Request::parse(frame).expect("parses"), original);
        }
    }

    /// The partial-read side: a server flushes a batch of in-order
    /// reply frames; however the client's reads fragment the stream,
    /// the k-th reassembled reply must parse back to the k-th reply
    /// sent.
    #[test]
    fn pipelined_reply_bursts_survive_arbitrary_stream_splits(
        replies in prop::collection::vec(arb_reply(), 1..8),
        splits in prop::collection::vec(1usize..48, 1..24),
    ) {
        let mut wire = Vec::new();
        for r in &replies {
            encode_frame(&r.render(), &mut wire);
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let mut split = 0;
        while pos < wire.len() {
            let n = splits[split % splits.len()].min(wire.len() - pos);
            split += 1;
            reader.push(&wire[pos..pos + n]);
            pos += n;
            while let Some(frame) = reader.next_frame().expect("well-formed frames") {
                got.push(Reply::parse(&frame).expect("replies parse"));
            }
        }
        prop_assert_eq!(&got, &replies);
        prop_assert_eq!(reader.buffered(), 0);
    }

    /// The client's receive path is this loop: yield a buffered frame,
    /// else issue one `read` into the reader's own buffer. However the
    /// stream fragments — and when it does not, so that every reply of
    /// the burst arrives in a single read — the k-th frame out is the
    /// k-th reply, and no read is issued while a whole frame is still
    /// buffered.
    #[test]
    fn buffered_reads_reassemble_reply_bursts_under_any_split(
        replies in prop::collection::vec(arb_reply(), 1..8),
        splits in prop::collection::vec(1usize..48, 0..24),
    ) {
        let mut wire = Vec::new();
        for r in &replies {
            encode_frame(&r.render(), &mut wire);
        }
        let mut stream = Pieces { wire: &wire, sizes: &splits, next: 0, reads: 0 };
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        while got.len() < replies.len() {
            prop_assert_eq!(reader.frame_ready(), false);
            let n = reader.read_from(&mut stream).expect("the stream never fails");
            prop_assert!(n > 0, "the stream ended {} replies short", replies.len() - got.len());
            let ready = reader.frame_ready();
            let before = got.len();
            while let Some(frame) = reader.next_frame().expect("well-formed frames") {
                got.push(Reply::parse(&frame).expect("replies parse"));
            }
            prop_assert_eq!(ready, got.len() > before);
        }
        prop_assert_eq!(&got, &replies);
        prop_assert_eq!(reader.buffered(), 0);
        if splits.is_empty() {
            prop_assert_eq!(stream.reads, 1, "an unsplit burst is one read");
        }
    }
}

/// `Client::recv` over a real socket whose peer writes a burst of
/// replies first whole (they arrive in one read) and then a few bytes
/// at a time: every `recv` returns the next reply either way.
#[test]
fn client_recv_reassembles_what_the_socket_delivers() {
    let replies = [
        Reply::Ok(vec!["first".into(), "with\nnewline".into()]),
        Reply::Err {
            kind: "unknown".into(),
            message: "no such creature".into(),
        },
        Reply::Ok(vec![]),
        Reply::Busy("later".into()),
        Reply::Ok(vec!["x".repeat(10_000)]),
    ];
    let mut wire = Vec::new();
    for r in &replies {
        encode_frame(&r.render(), &mut wire);
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = Client::connect_raw(listener.local_addr().unwrap()).unwrap();
    let (mut peer, _) = listener.accept().unwrap();
    peer.set_nodelay(true).unwrap();

    peer.write_all(&wire).unwrap();
    for want in &replies {
        assert_eq!(&client.recv().unwrap(), want);
    }
    std::thread::scope(|s| {
        s.spawn(|| {
            for piece in wire.chunks(7).take(40) {
                peer.write_all(piece).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peer.write_all(&wire[wire.len().min(7 * 40)..]).unwrap();
        });
        for want in &replies {
            assert_eq!(&client.recv().unwrap(), want);
        }
    });
    drop(peer);
    let eof = client.recv().unwrap_err();
    assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
}
