//! Blocking client for the serve protocol, speaking either codec.
//!
//! [`Client`] is built through [`ClientBuilder`]: pick the wire format
//! (newline JSON or binary `ssb/1`), a socket timeout, and a pipelining
//! depth, then connect. One shared implementation serves the e2e tests,
//! the `simstar bench-serve` load generator, and
//! `examples/serve_roundtrip`.
//!
//! Socket timeouts are on by default (30s): a server that dies mid-run
//! surfaces as [`ClientError::TimedOut`] or [`ClientError::Closed`]
//! instead of a read that blocks forever — the failure mode that used to
//! hang `bench-serve` until killed.

use crate::codec::{Decoded, WireFormat, SSB_MAGIC};
use crate::protocol::{
    CacheDirective, MetricsReply, QueryReply, Request, Response, StatsReply, TraceReply,
};
use ssr_graph::NodeId;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure other than timeout/close.
    Io(std::io::Error),
    /// The socket timeout elapsed without a response — the server is
    /// stuck, overloaded past the timeout, or gone without closing.
    TimedOut,
    /// The server closed the connection.
    Closed,
    /// The peer sent bytes that do not decode, or a response that does
    /// not answer the request.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::TimedOut => write!(f, "timed out waiting for the server"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        match e.kind() {
            // Unix reports an elapsed socket timeout as WouldBlock,
            // Windows as TimedOut.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ClientError::TimedOut,
            std::io::ErrorKind::UnexpectedEof => ClientError::Closed,
            _ => ClientError::Io(e),
        }
    }
}

/// What one query produced, protocol-wise.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Successful query response.
    Ok(QueryReply),
    /// Admission control turned the request away; back off and retry.
    Shed,
    /// The server answered with an error message.
    Error(String),
}

/// Configures and connects a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    protocol: WireFormat,
    timeout: Option<Duration>,
    pipeline: usize,
}

impl Default for ClientBuilder {
    fn default() -> Self {
        ClientBuilder {
            protocol: WireFormat::Jsonl,
            timeout: Some(Duration::from_secs(30)),
            pipeline: 1,
        }
    }
}

impl ClientBuilder {
    /// Wire format to speak (default: newline JSON).
    pub fn protocol(mut self, protocol: WireFormat) -> Self {
        self.protocol = protocol;
        self
    }

    /// Socket read/write timeout (default 30s; `None` blocks forever).
    pub fn timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Pipelining depth used by [`Client::query_pipelined`] (default 1 =
    /// serial). Clamped to ≥ 1.
    pub fn pipeline(mut self, depth: usize) -> Self {
        self.pipeline = depth.max(1);
        self
    }

    /// Connects, sets timeouts, and (for `ssb/1`) sends the magic.
    pub fn connect(self, addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok(); // small frames: don't batch in the kernel
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        if self.protocol == WireFormat::Ssb {
            stream.write_all(SSB_MAGIC)?;
        }
        Ok(Client {
            stream,
            format: self.protocol,
            rbuf: Vec::new(),
            next_id: 0,
            pipeline: self.pipeline,
        })
    }
}

/// A connected protocol client. See the module docs.
pub struct Client {
    stream: TcpStream,
    format: WireFormat,
    rbuf: Vec<u8>,
    next_id: u64,
    pipeline: usize,
}

impl Client {
    /// Starts a builder with defaults (JSON, 30s timeout, no pipelining).
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Connects with builder defaults.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::builder().connect(addr)
    }

    /// The negotiated wire format.
    pub fn protocol(&self) -> WireFormat {
        self.format
    }

    /// The configured pipelining depth.
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.send(req)?;
        let (got, resp) = self.recv()?;
        if let (WireFormat::Ssb, Some(got)) = (self.format, got) {
            if got != id {
                return Err(ClientError::Protocol(format!(
                    "response id {got} does not answer request {id}"
                )));
            }
        }
        Ok(resp)
    }

    /// Top-`k` query for `node`.
    pub fn query(&mut self, node: NodeId, k: usize) -> Result<Reply, ClientError> {
        match self.call(&Request::Query { node, k })? {
            Response::Query(r) => Ok(Reply::Ok(r)),
            Response::Shed { .. } => Ok(Reply::Shed),
            Response::Error { message } => Ok(Reply::Error(message)),
            other => Err(unexpected("query", &other)),
        }
    }

    /// Runs many queries, keeping up to the configured pipelining depth
    /// in flight: each window of requests is encoded and written as one
    /// burst, then its responses are collected in order. Replies come
    /// back in request order (the protocol is FIFO per connection; for
    /// `ssb/1` the echoed ids are verified too).
    pub fn query_pipelined(
        &mut self,
        queries: &[(NodeId, usize)],
    ) -> Result<Vec<Reply>, ClientError> {
        let mut replies = Vec::with_capacity(queries.len());
        let mut out = Vec::new();
        for window in queries.chunks(self.pipeline.max(1)) {
            out.clear();
            let mut ids = Vec::with_capacity(window.len());
            for &(node, k) in window {
                let id = self.next_id;
                self.next_id += 1;
                self.format.codec().encode_request(id, &Request::Query { node, k }, &mut out);
                ids.push(id);
            }
            self.stream.write_all(&out)?;
            for id in ids {
                let (got, resp) = self.recv()?;
                if let (WireFormat::Ssb, Some(got)) = (self.format, got) {
                    if got != id {
                        return Err(ClientError::Protocol(format!(
                            "pipelined response id {got} does not answer request {id}"
                        )));
                    }
                }
                replies.push(match resp {
                    Response::Query(r) => Reply::Ok(r),
                    Response::Shed { .. } => Reply::Shed,
                    Response::Error { message } => Reply::Error(message),
                    other => return Err(unexpected("query", &other)),
                });
            }
        }
        Ok(replies)
    }

    /// Pipelining primitive: sends a query without waiting for the
    /// response. Pair with [`Client::recv_reply`]; responses arrive in
    /// send order.
    pub fn send_query(&mut self, node: NodeId, k: usize) -> Result<u64, ClientError> {
        self.send(&Request::Query { node, k })
    }

    /// Pipelining primitive: receives the next in-order query reply.
    pub fn recv_reply(&mut self) -> Result<Reply, ClientError> {
        match self.recv()?.1 {
            Response::Query(r) => Ok(Reply::Ok(r)),
            Response::Shed { .. } => Ok(Reply::Shed),
            Response::Error { message } => Ok(Reply::Error(message)),
            other => Err(unexpected("query", &other)),
        }
    }

    /// Liveness probe; returns the current epoch.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong { epoch } => Ok(epoch),
            other => Err(unexpected("ping", &other)),
        }
    }

    /// Typed `stats` snapshot.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(*s),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Admin: publish a new epoch from a graph file on the server's
    /// filesystem. Returns the new epoch.
    pub fn reload(&mut self, path: &str) -> Result<u64, ClientError> {
        match self.call(&Request::Reload { path: path.to_string() })? {
            Response::Reloaded { epoch, .. } => Ok(epoch),
            other => Err(unexpected("reload", &other)),
        }
    }

    /// Admin: apply an edge delta; returns the new epoch.
    pub fn edge_delta(
        &mut self,
        add: &[(NodeId, NodeId)],
        remove: &[(NodeId, NodeId)],
    ) -> Result<u64, ClientError> {
        let req = Request::EdgeDelta { add: add.to_vec(), remove: remove.to_vec() };
        match self.call(&req)? {
            Response::DeltaApplied { epoch, .. } => Ok(epoch),
            other => Err(unexpected("edge-delta", &other)),
        }
    }

    /// Admin: reconfigure batch window / flush cap / cache /
    /// slow-query-log threshold / trace sampling at runtime.
    /// `slow_query_us: Some(0)` disables the slow-query log;
    /// `trace_sample: Some(0)` turns trace sampling off.
    pub fn config(
        &mut self,
        window_us: Option<u64>,
        max_batch: Option<usize>,
        cache: Option<CacheDirective>,
        slow_query_us: Option<u64>,
        trace_sample: Option<u64>,
    ) -> Result<(), ClientError> {
        let req = Request::Config { window_us, max_batch, cache, slow_query_us, trace_sample };
        match self.call(&req)? {
            Response::Config { .. } => Ok(()),
            other => Err(unexpected("config", &other)),
        }
    }

    /// Admin: dump the server's in-memory ring of sampled traces.
    pub fn trace_dump(&mut self) -> Result<TraceReply, ClientError> {
        match self.call(&Request::Trace)? {
            Response::Trace(t) => Ok(*t),
            other => Err(unexpected("trace", &other)),
        }
    }

    /// Typed `metrics` snapshot: the full observability registry
    /// (counters, gauges, histogram quantiles) as of this call.
    pub fn metrics(&mut self) -> Result<MetricsReply, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(m) => Ok(*m),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Admin: ask the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }

    /// Sends raw bytes followed by a newline and reads one response —
    /// the JSON-mode escape hatch the malformed-input tests use.
    pub fn request_line(&mut self, line: &str) -> Result<Response, ClientError> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.recv().map(|(_, resp)| resp)
    }

    fn send(&mut self, req: &Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut out = Vec::new();
        self.format.codec().encode_request(id, req, &mut out);
        self.stream.write_all(&out)?;
        Ok(id)
    }

    /// Reads until one whole response frame decodes.
    fn recv(&mut self) -> Result<(Option<u64>, Response), ClientError> {
        let codec = self.format.codec();
        loop {
            match codec.decode_response(&self.rbuf) {
                Decoded::Frame { consumed, id, value } => {
                    self.rbuf.drain(..consumed);
                    return Ok((id, value));
                }
                Decoded::Skip { consumed } => {
                    self.rbuf.drain(..consumed);
                }
                Decoded::Incomplete => {
                    let mut chunk = [0u8; 64 * 1024];
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(ClientError::Closed);
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
                Decoded::Malformed(m) => return Err(ClientError::Protocol(m.error)),
            }
        }
    }
}

fn unexpected(what: &str, got: &Response) -> ClientError {
    let detail = match got {
        Response::Error { message } => format!("server error: {message}"),
        Response::Shed { reason } => format!("shed: {reason}"),
        other => format!("unexpected response {other:?}"),
    };
    ClientError::Protocol(format!("{what}: {detail}"))
}
