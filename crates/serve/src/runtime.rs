//! The event-driven connection runtime: one thread, every socket.
//!
//! A single event-loop thread owns the listener, a [`crate::poller`]
//! instance, and every connection's buffers and state machine. Sockets are
//! non-blocking; the loop parks in `Poller::wait` and touches only the
//! connections the kernel reports ready — so 10k idle connections cost
//! their buffers, not 10k parked threads. Query execution still happens in
//! the batcher's flush worker (submitted asynchronously, completed
//! through a queue + [`crate::poller::Waker`]); slow admin ops (reload,
//! edge-delta) run on one dedicated executor thread, so a multi-second
//! graph rebuild never stalls query traffic. The loop itself only parses,
//! consults the cache, and shuffles bytes.
//!
//! ## Per-connection pipeline
//!
//! Each connection sniffs its wire format from the first bytes (the
//! `ssb/1` magic, else JSON), then decodes frames into a FIFO `pending`
//! queue. Entries complete out of order (a cache hit is ready instantly,
//! a batched query arrives later) but responses are written strictly in
//! request order — which is what keeps per-connection epoch monotonicity
//! and makes JSON (positional ids) and `ssb/1` (explicit ids) observably
//! identical. Pipelining depth is capped ([`MAX_PIPELINE`]), writes are
//! bounded ([`WBUF_SOFT_CAP`]), and request buffering is bounded
//! ([`RBUF_CAP`]): a connection at either of the first two limits simply
//! stops being read until it drains — backpressure, not memory growth —
//! while a single request frame too large for the read cap is answered
//! with a typed error and the connection closed.
//!
//! ## Per-request record
//!
//! Each pending entry carries one [`RequestRecord`]: the accept instant
//! (when the frame's decode began), the decode time and the trace id; a
//! query's answer joins the batcher's [`crate::metrics::QueryTrace`] to
//! it. When the reply is encoded, the loop adds the encode time and the
//! end-to-end total and derives the stage histograms, the slow-query
//! line and a sampled query's span tree from that record, in one place
//! (`encode_ready`).

use crate::batcher::{QueryAnswer, SubmitError};
use crate::codec::{jsonl, Decoded, WireFormat, SSB_MAGIC};
use crate::metrics::{codec_label, RequestRecord};
use crate::poller::{self, Event, Interest, Poller, RawId, WakeRx};
use crate::protocol::{CacheDirective, QueryReply, Request, Response, StatsReply, TraceReply};
use crate::server::{AdminJob, AdminOp, CompletionPayload, Inner, WORKER_THREADS};
use crate::tracing::assemble_trace;
use ssr_graph::NodeId;
use ssr_obs::TRACE_SCHEMA_VERSION;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the waker's receive end.
const TOKEN_WAKER: u64 = 1;
/// First connection token; the counter is monotonic, so tokens are never
/// reused and a stale event cannot address a new connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Maximum decoded-but-unanswered requests per connection. A client
/// pipelining deeper stops being read until responses drain.
const MAX_PIPELINE: usize = 256;
/// Stop reading a connection whose un-flushed response bytes exceed this.
const WBUF_SOFT_CAP: usize = 1 << 20;
/// Read-syscall chunk size.
const READ_CHUNK: usize = 64 * 1024;
/// Per-connection request-buffer cap. The codec's 64 MiB frame limit is
/// sized for responses (large result sets); letting every connection
/// buffer a 64 MiB *request* would cost ~16 GiB across the default
/// connection cap. Requests are small: the largest, `edge-delta`, travels
/// as its JSON document on both codecs, 14 bytes per edge (`[12345,16400],`)
/// at five-digit ids, so about 300k edges fit in 4 MiB. A single frame
/// still incomplete past this many buffered bytes is rejected with a typed
/// error and the connection closed.
const RBUF_CAP: usize = 4 << 20;

/// What a connection has negotiated so far.
enum Format {
    /// Waiting for enough bytes to tell `ssb/1` magic from a JSON line.
    Sniffing,
    /// Negotiated.
    Wire(WireFormat),
}

/// One decoded request awaiting its response slot in the FIFO.
struct Pending {
    /// Response id: the wire id for `ssb/1`, an arrival counter for JSON
    /// (where the codec ignores it — pairing is positional).
    id: u64,
    state: PendingState,
    /// What the server measured of this request so far.
    record: RequestRecord,
}

enum PendingState {
    /// Submitted to the batcher; completion will arrive tagged `tag`.
    WaitingQuery { tag: u64, node: NodeId, k: usize },
    /// Sent to the admin executor; completion will arrive tagged `tag`.
    WaitingAdmin { tag: u64 },
    /// Response ready to encode once it reaches the queue front.
    Ready(Response),
}

/// Per-connection state: socket, buffers, negotiated format, FIFO of
/// in-flight requests.
struct Conn {
    stream: TcpStream,
    raw: RawId,
    format: Format,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: VecDeque<Pending>,
    /// Arrival counter assigning positional ids to JSON requests.
    next_seq: u64,
    interest: Interest,
    read_closed: bool,
    close_after_flush: bool,
    shutdown_after_flush: bool,
}

impl Conn {
    fn unsent_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether the loop should keep reading this connection (pipeline and
    /// write-buffer backpressure).
    fn wants_read(&self) -> bool {
        !self.read_closed
            && self.pending.len() < MAX_PIPELINE
            && self.unsent_bytes() < WBUF_SOFT_CAP
            && self.rbuf.len() < RBUF_CAP
    }

    /// Everything decoded has been answered and flushed.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.unsent_bytes() == 0
    }
}

/// Verdict of one pump pass over a connection.
enum Keep {
    Yes,
    Close,
}

/// The event loop. Constructed on the server thread, consumed by
/// [`EventLoop::run`] on the loop thread.
pub(crate) struct EventLoop {
    inner: Arc<Inner>,
    poller: Poller,
    wake_rx: WakeRx,
    listener: TcpListener,
    admin_tx: mpsc::Sender<AdminJob>,
    conns: HashMap<u64, Conn>,
    /// In-flight completion tags → connection token.
    tags: HashMap<u64, u64>,
    next_token: u64,
    next_tag: u64,
    requests: u64,
    shed_connections: u64,
}

impl EventLoop {
    /// Registers the listener and waker and builds the loop.
    pub(crate) fn new(
        inner: Arc<Inner>,
        listener: TcpListener,
        wake_rx: WakeRx,
        admin_tx: mpsc::Sender<AdminJob>,
    ) -> std::io::Result<EventLoop> {
        let mut poller = Poller::new()?;
        listener.set_nonblocking(true)?;
        poller.register(poller::raw_id(&listener), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.raw(), TOKEN_WAKER, Interest::READ)?;
        Ok(EventLoop {
            inner,
            poller,
            wake_rx,
            listener,
            admin_tx,
            conns: HashMap::new(),
            tags: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            next_tag: 0,
            requests: 0,
            shed_connections: 0,
        })
    }

    /// Runs until the server's running flag drops. Every socket the loop
    /// owns closes when this returns.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        'event_loop: while self.inner.running.load(Ordering::SeqCst) {
            if self.poller.wait(&mut events, None).is_err() {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.wake_rx.drain();
                        self.handle_completions();
                    }
                    token => self.pump_token(token),
                }
                if !self.inner.running.load(Ordering::SeqCst) {
                    break 'event_loop;
                }
            }
        }
        // However the loop ended — stop flag, in-band shutdown, or a
        // poller failure — release anyone parked in Server::wait().
        // Idempotent, so paths that already signalled are unaffected;
        // without it a poller error leaves the process serving nothing
        // while wait() blocks forever.
        self.inner.signal_stop();
    }

    /// Accepts every queued connection; sheds over the cap.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            // One-frame responses must leave immediately: without this,
            // Nagle vs delayed-ACK adds ~40ms per request on loopback.
            stream.set_nodelay(true).ok();
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if self.conns.len() >= self.inner.max_connections {
                self.shed_connections += 1;
                self.inner.metrics.connections_shed.inc();
                // The peer has not negotiated a format yet, so the shed
                // notice is JSON — the compatibility codec — best-effort.
                let mut s = stream;
                let line = jsonl::render_response(&Response::Shed {
                    reason: "connection limit reached".into(),
                });
                let _ = writeln!(s, "{line}");
                continue; // dropped ⇒ closed
            }
            let token = self.next_token;
            self.next_token += 1;
            let raw = poller::raw_id(&stream);
            if self.poller.register(raw, token, Interest::READ).is_err() {
                continue;
            }
            self.conns.insert(
                token,
                Conn {
                    stream,
                    raw,
                    format: Format::Sniffing,
                    rbuf: Vec::new(),
                    wbuf: Vec::new(),
                    wpos: 0,
                    pending: VecDeque::new(),
                    next_seq: 0,
                    interest: Interest::READ,
                    read_closed: false,
                    close_after_flush: false,
                    shutdown_after_flush: false,
                },
            );
            self.inner.metrics.connections_opened.inc();
            self.inner.metrics.connections.set(self.conns.len() as u64);
        }
    }

    /// Moves queued batcher/admin completions into their connections'
    /// pending slots, then pumps each touched connection.
    fn handle_completions(&mut self) {
        let batch = self.inner.completions.take();
        let mut touched: Vec<u64> = Vec::with_capacity(batch.len());
        for done in batch {
            let Some(token) = self.tags.remove(&done.tag) else { continue };
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            for p in conn.pending.iter_mut() {
                let response = match p.state {
                    PendingState::WaitingQuery { tag, node, k } if tag == done.tag => {
                        match done.payload {
                            CompletionPayload::Query(Ok(answer)) => {
                                query_reply(node, k, &mut p.record, answer)
                            }
                            CompletionPayload::Query(Err(err)) => {
                                query_error(node, &err, &mut conn.close_after_flush)
                            }
                            CompletionPayload::Admin(resp) => resp,
                        }
                    }
                    PendingState::WaitingAdmin { tag } if tag == done.tag => match done.payload {
                        CompletionPayload::Admin(resp) => resp,
                        CompletionPayload::Query(_) => continue,
                    },
                    _ => continue,
                };
                p.state = PendingState::Ready(response);
                break;
            }
            touched.push(token);
        }
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            self.pump_token(token);
        }
    }

    /// Runs one full pump cycle (read → parse → encode → write) on a
    /// connection, closing it if the cycle says so. The connection is
    /// removed from the map for the duration so `&mut self` dispatch
    /// methods can run against it.
    fn pump_token(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        match self.pump(token, &mut conn) {
            Keep::Yes => {
                self.conns.insert(token, conn);
            }
            Keep::Close => self.close(conn),
        }
    }

    fn close(&mut self, conn: Conn) {
        let _ = self.poller.deregister(conn.raw);
        self.inner.metrics.connections.set(self.conns.len() as u64);
        // `conn.stream` drops here, closing the socket. In-flight batcher
        // tags pointing at this connection die at completion time: the
        // token lookup fails and the result is discarded.
    }

    fn pump(&mut self, token: u64, conn: &mut Conn) -> Keep {
        if !self.read_some(conn) {
            return Keep::Close;
        }
        if !self.parse_and_dispatch(token, conn) {
            // Unrecoverable framing loss: anything already decoded still
            // gets its response; close once flushed.
            conn.close_after_flush = true;
        }
        self.encode_ready(conn);
        if !Self::write_some(conn) {
            return Keep::Close;
        }
        if conn.shutdown_after_flush && conn.drained() {
            // The acknowledgement is on the wire; only now stop the world.
            self.inner.signal_stop();
            return Keep::Close;
        }
        if conn.drained() && (conn.close_after_flush || conn.read_closed) {
            return Keep::Close;
        }
        let want = Interest { read: conn.wants_read(), write: conn.unsent_bytes() > 0 };
        if want != conn.interest {
            if self.poller.modify(conn.raw, token, want).is_err() {
                return Keep::Close;
            }
            conn.interest = want;
        }
        Keep::Yes
    }

    /// Drains the socket into `rbuf` until `WouldBlock`, EOF, or
    /// backpressure. Returns `false` on a dead socket.
    fn read_some(&mut self, conn: &mut Conn) -> bool {
        if conn.read_closed {
            return true;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if conn.pending.len() >= MAX_PIPELINE
                || conn.unsent_bytes() >= WBUF_SOFT_CAP
                || conn.rbuf.len() >= RBUF_CAP
            {
                return true;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    return true;
                }
                Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Decodes and dispatches every complete frame in `rbuf`. Returns
    /// `false` when the stream has lost framing (unrecoverable decode).
    fn parse_and_dispatch(&mut self, token: u64, conn: &mut Conn) -> bool {
        let mut consumed = 0usize;
        let mut framed = true;
        // Whether decoding stopped on a partial frame (as opposed to
        // pipeline/write backpressure, where undecoded bytes are complete
        // frames waiting their turn and must not trip the buffer cap).
        let mut incomplete = false;
        loop {
            if conn.pending.len() >= MAX_PIPELINE || conn.unsent_bytes() >= WBUF_SOFT_CAP {
                break;
            }
            let buf = &conn.rbuf[consumed..];
            let fmt = match conn.format {
                Format::Wire(fmt) => fmt,
                Format::Sniffing => {
                    if buf.is_empty() {
                        break;
                    }
                    if buf[0] == SSB_MAGIC[0] {
                        if buf.len() < SSB_MAGIC.len() {
                            break; // partial magic: wait for more bytes
                        }
                        if &buf[..SSB_MAGIC.len()] == SSB_MAGIC {
                            consumed += SSB_MAGIC.len();
                            conn.format = Format::Wire(WireFormat::Ssb);
                            continue;
                        }
                    }
                    conn.format = Format::Wire(WireFormat::Jsonl);
                    continue;
                }
            };
            let decode_started = Instant::now();
            let decoded = fmt.codec().decode_request(buf);
            let decode_ns = decode_started.elapsed().as_nanos() as u64;
            match decoded {
                Decoded::Incomplete => {
                    incomplete = true;
                    break;
                }
                Decoded::Skip { consumed: n } => consumed += n,
                Decoded::Frame { consumed: n, id, value } => {
                    consumed += n;
                    self.requests += 1;
                    self.inner.metrics.requests(fmt).inc();
                    self.inner.metrics.decode_hist(fmt).record(decode_ns / 1_000);
                    let id = id.unwrap_or_else(|| {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        seq
                    });
                    self.dispatch(token, conn, id, value, decode_started, decode_ns);
                }
                Decoded::Malformed(m) => {
                    consumed += m.consumed;
                    self.requests += 1;
                    self.inner.metrics.requests(fmt).inc();
                    self.inner.metrics.malformed.inc();
                    let id = m.id.unwrap_or_else(|| {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        seq
                    });
                    conn.pending.push_back(Pending {
                        id,
                        state: PendingState::Ready(Response::Error { message: m.error }),
                        record: RequestRecord::new(decode_started, decode_ns, None),
                    });
                    if !m.recoverable {
                        framed = false;
                        break;
                    }
                }
            }
        }
        // `>=`, not `>`: reads stop at the cap, so a partial frame holding
        // exactly RBUF_CAP bytes can never grow — and being incomplete at
        // that size proves the full frame is larger than the cap.
        if framed && incomplete && conn.rbuf.len() - consumed >= RBUF_CAP {
            // A single frame exceeds the request-buffer cap: reads have
            // stopped, so it can never complete. Answer with a typed
            // error and give up on the stream (the frame's own id, if
            // any, is inside the unparsed body).
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.pending.push_back(Pending {
                id: seq,
                state: PendingState::Ready(Response::Error {
                    message: format!(
                        "request frame exceeds per-connection buffer cap ({RBUF_CAP} bytes)"
                    ),
                }),
                record: RequestRecord::new(Instant::now(), 0, None),
            });
            framed = false;
        }
        if !framed {
            // Framing is lost: nothing further in the buffer is parseable.
            conn.rbuf.clear();
        } else if consumed > 0 {
            conn.rbuf.drain(..consumed);
        }
        framed
    }

    /// Handles one decoded request, pushing its pending entry.
    fn dispatch(
        &mut self,
        token: u64,
        conn: &mut Conn,
        id: u64,
        request: Request,
        accepted: Instant,
        decode_ns: u64,
    ) {
        // Every decoded request draws a trace id; only sampled queries
        // grow a span tree.
        let (trace_seq, sampled) = self.inner.tracer.issue();
        let mut record = RequestRecord::new(accepted, decode_ns, sampled.then_some(trace_seq));
        let state = match request {
            Request::Query { node, k } => {
                let tag = self.next_tag;
                self.next_tag += 1;
                match self.inner.batcher.submit(node, k, sampled, &self.inner.completion_sink, tag)
                {
                    Ok(Some(answer)) => {
                        PendingState::Ready(query_reply(node, k, &mut record, answer))
                    }
                    Ok(None) => {
                        self.tags.insert(tag, token);
                        PendingState::WaitingQuery { tag, node, k }
                    }
                    Err(err) => {
                        PendingState::Ready(query_error(node, &err, &mut conn.close_after_flush))
                    }
                }
            }
            Request::Ping => {
                PendingState::Ready(Response::Pong { epoch: self.inner.store.current().epoch })
            }
            Request::Stats => PendingState::Ready(Response::Stats(Box::new(self.stats_reply()))),
            Request::Metrics => {
                PendingState::Ready(Response::Metrics(Box::new(self.inner.metrics_reply())))
            }
            Request::Trace => PendingState::Ready(Response::Trace(Box::new(TraceReply {
                version: TRACE_SCHEMA_VERSION,
                sample_every: self.inner.tracer.every(),
                traces: self.inner.tracer.snapshot(),
            }))),
            Request::Reload { path } => self.send_admin(token, AdminOp::Reload { path }),
            Request::EdgeDelta { add, remove } => {
                self.send_admin(token, AdminOp::EdgeDelta { add, remove })
            }
            Request::Config { window_us, max_batch, cache, slow_query_us, trace_sample } => {
                if let Some(w) = window_us {
                    self.inner.batcher.set_window_us(w);
                }
                if let Some(m) = max_batch {
                    self.inner.batcher.set_max_batch(m);
                }
                if let Some(t) = slow_query_us {
                    self.inner.metrics.set_slow_query_us(t);
                }
                if let Some(t) = trace_sample {
                    self.inner.tracer.set_every(t);
                }
                match cache {
                    Some(CacheDirective::On) => self.inner.cache.set_enabled(true),
                    Some(CacheDirective::Off) => self.inner.cache.set_enabled(false),
                    Some(CacheDirective::Clear) => self.inner.cache.clear(),
                    None => {}
                }
                let (window_us, max_batch) = self.inner.batcher.config();
                PendingState::Ready(Response::Config {
                    window_us,
                    max_batch: max_batch as u64,
                    cache_enabled: self.inner.cache.is_enabled(),
                    slow_query_us: self.inner.metrics.slow_query_us(),
                    trace_sample: self.inner.tracer.every(),
                })
            }
            Request::Shutdown => {
                conn.shutdown_after_flush = true;
                PendingState::Ready(Response::ShuttingDown)
            }
        };
        conn.pending.push_back(Pending { id, state, record });
    }

    /// Queues a slow admin op on the executor thread.
    fn send_admin(&mut self, token: u64, op: AdminOp) -> PendingState {
        let tag = self.next_tag;
        self.next_tag += 1;
        if self.admin_tx.send(AdminJob { tag, op }).is_err() {
            return PendingState::Ready(Response::Error { message: "server shutting down".into() });
        }
        self.tags.insert(tag, token);
        PendingState::WaitingAdmin { tag }
    }

    /// Encodes every `Ready` entry at the *front* of the FIFO — responses
    /// never overtake an earlier request still in flight. A query's record
    /// is complete once its reply is encoded; it then feeds the stage
    /// histograms, the slow-query log and, when sampled, the trace ring.
    fn encode_ready(&self, conn: &mut Conn) {
        let Format::Wire(fmt) = conn.format else { return };
        let codec = fmt.codec();
        let m = &self.inner.metrics;
        while matches!(conn.pending.front(), Some(p) if matches!(p.state, PendingState::Ready(_))) {
            let Pending { id, state, mut record } =
                conn.pending.pop_front().expect("front checked");
            let PendingState::Ready(resp) = state else { unreachable!("front checked") };
            let encode_started = Instant::now();
            codec.encode_response(id, &resp, &mut conn.wbuf);
            let encoded = Instant::now();
            let encode_ns = encoded.duration_since(encode_started).as_nanos() as u64;
            m.encode_hist(fmt).record(encode_ns / 1_000);
            m.count_response(&resp);
            if let Response::Query(reply) = &resp {
                record.encode_ns = encode_ns;
                record.total_ns = encoded.duration_since(record.accepted).as_nanos() as u64;
                m.observe_query(fmt, reply, &record);
                if let Some(trace) = assemble_trace(codec_label(fmt), reply, &record) {
                    self.inner.tracer.record(trace);
                }
            }
        }
    }

    /// Pushes `wbuf` to the socket until `WouldBlock` or empty. Returns
    /// `false` on a dead socket.
    fn write_some(conn: &mut Conn) -> bool {
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return false,
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        true
    }

    fn stats_reply(&self) -> StatsReply {
        let snapshot = self.inner.store.current();
        let params = self.inner.store.params();
        let (window_us, max_batch) = self.inner.batcher.config();
        StatsReply {
            epoch: snapshot.epoch,
            epoch_swaps: self.inner.store.swap_count(),
            nodes: snapshot.nodes as u64,
            edges: snapshot.graph().edge_count() as u64,
            c: params.c,
            iterations: params.iterations as u64,
            uptime_ms: self.inner.started.elapsed().as_secs_f64() * 1e3,
            requests: self.requests,
            // The connection asking is out of the map while being pumped.
            connections: self.conns.len() as u64 + 1,
            shed_connections: self.shed_connections,
            worker_threads: WORKER_THREADS,
            cache_enabled: self.inner.cache.is_enabled(),
            cache: self.inner.cache.stats(),
            window_us,
            max_batch: max_batch as u64,
            batcher: self.inner.batcher.stats(),
        }
    }
}

/// The reply to a query the batcher answered (inline or through a
/// completion); the answer's record joins the request's.
fn query_reply(
    node: NodeId,
    k: usize,
    record: &mut RequestRecord,
    answer: QueryAnswer,
) -> Response {
    record.query = answer.trace;
    Response::Query(QueryReply {
        epoch: answer.epoch,
        node,
        k: k as u64,
        cached: answer.cached,
        matches: answer.matches,
        trace_id: record.trace_id,
    })
}

/// Maps a failed submission to its wire response, preserving the
/// thread-per-connection server's exact messages.
fn query_error(node: NodeId, err: &SubmitError, close_after_flush: &mut bool) -> Response {
    match err {
        SubmitError::Shed => Response::Shed { reason: "queue full".into() },
        SubmitError::Closed => {
            *close_after_flush = true;
            Response::Error { message: "server shutting down".into() }
        }
        SubmitError::BadNode { nodes } => Response::Error {
            message: format!("node {node} out of range (current graph has {nodes} nodes)"),
        },
    }
}
