//! The program under test as users run it: a `simstar serve` child
//! process with default flags, and framed protocol connections to it.
//!
//! The connections use the library's codecs but not its blocking
//! `Client`: the open loop sends on one thread and receives on another,
//! and the admin connection is polled without blocking between sends.
//! The announce file is polled every 0.5 ms (not `wait_for_announce`'s
//! 25 ms) because `setup_s` is timed through it.

use crate::util::{cpu_seconds, peak_rss_mib, user_system_seconds};
use ssr_serve::codec::SSB_MAGIC;
use ssr_serve::{Codec, Decoded, Request, Response, StatsReply, WireFormat};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a blocking read waits before the request counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Sending half of a connection: encodes requests with the connection's
/// codec and writes them.
pub struct Writer {
    stream: TcpStream,
    codec: &'static dyn Codec,
    buf: Vec<u8>,
    next_id: u64,
}

impl Writer {
    /// Appends one request to the pending buffer (sent by [`Writer::flush`]).
    pub fn push(&mut self, req: &Request) {
        self.codec.encode_request(self.next_id, req, &mut self.buf);
        self.next_id += 1;
    }

    pub fn flush(&mut self) -> Result<(), String> {
        let mut sent = 0;
        while sent < self.buf.len() {
            match self.stream.write(&self.buf[sent..]) {
                Ok(0) => return Err("connection closed while writing".into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write failed: {e}")),
            }
        }
        self.buf.clear();
        Ok(())
    }

    pub fn send(&mut self, req: &Request) -> Result<(), String> {
        self.push(req);
        self.flush()
    }
}

/// Receiving half of a connection: reads and decodes response frames.
pub struct Reader {
    stream: TcpStream,
    codec: &'static dyn Codec,
    buf: Vec<u8>,
    pos: usize,
    nonblocking: bool,
}

impl Reader {
    /// Decodes the next complete frame already buffered, if any.
    pub fn buffered(&mut self) -> Result<Option<Response>, String> {
        loop {
            match self.codec.decode_response(&self.buf[self.pos..]) {
                Decoded::Frame { consumed, value, .. } => {
                    self.pos += consumed;
                    return Ok(Some(value));
                }
                Decoded::Skip { consumed } => self.pos += consumed,
                Decoded::Incomplete => return Ok(None),
                Decoded::Malformed(m) => return Err(format!("malformed reply: {}", m.error)),
            }
        }
    }

    /// Reads more bytes from the socket. `Ok(false)` means nothing was
    /// available (non-blocking sockets only).
    pub fn fill(&mut self) -> Result<bool, String> {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > (1 << 20) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock && self.nonblocking => Ok(false),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err(format!("no reply within {REPLY_TIMEOUT:?}"))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(false),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Blocks until the next response arrives.
    pub fn recv(&mut self) -> Result<Response, String> {
        loop {
            if let Some(resp) = self.buffered()? {
                return Ok(resp);
            }
            if !self.fill()? {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    /// Returns a response if one can be had without blocking.
    pub fn try_recv(&mut self) -> Result<Option<Response>, String> {
        if let Some(resp) = self.buffered()? {
            return Ok(Some(resp));
        }
        self.fill()?;
        self.buffered()
    }
}

/// One connection to the server: a writer and a reader over the same socket.
pub struct Conn {
    pub writer: Writer,
    pub reader: Reader,
}

impl Conn {
    pub fn connect(addr: SocketAddr, format: WireFormat) -> Result<Conn, String> {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        if format == WireFormat::Ssb {
            stream.write_all(SSB_MAGIC).map_err(|e| format!("writing magic: {e}"))?;
        }
        let codec = format.codec();
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer: Writer { stream, codec, buf: Vec::new(), next_id: 0 },
            reader: Reader {
                stream: read_half,
                codec,
                buf: Vec::new(),
                pos: 0,
                nonblocking: false,
            },
        })
    }

    /// Switches the socket to non-blocking mode (for the admin connection,
    /// which the load loop polls between sends).
    pub fn set_nonblocking(&mut self) -> Result<(), String> {
        self.reader.nonblocking = true;
        self.reader.stream.set_nonblocking(true).map_err(|e| e.to_string())
    }

    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.writer.send(req)?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(resp) = self.reader.try_recv()? {
                return Ok(resp);
            }
            if Instant::now() > deadline {
                return Err(format!("no reply to {req:?} within {REPLY_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    pub fn stats(&mut self) -> Result<StatsReply, String> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(*s),
            other => Err(format!("stats op answered {other:?}")),
        }
    }
}

/// A running `simstar serve` child with every flag at its default.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the server and waits for its announce file.
    pub fn spawn(simstar: &Path, graph: &Path, announce: &Path) -> Result<ServerProc, String> {
        let _ = std::fs::remove_file(announce);
        let child = Command::new(simstar)
            .arg("serve")
            .arg("--input")
            .arg(graph)
            .args(["--port", "0", "--announce"])
            .arg(announce)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", simstar.display()))?;
        let mut proc = ServerProc { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(text) = std::fs::read_to_string(announce) {
                if let Some(line) = text.strip_suffix('\n') {
                    proc.addr = line
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad announce line `{line}`: {e}"))?;
                    return Ok(proc);
                }
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not announce within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(&self.child.id().to_string())
    }

    /// User and system CPU seconds of the server process so far.
    pub fn user_system_seconds(&self) -> Result<(f64, f64), String> {
        user_system_seconds(self.child.id())
    }

    /// CPU seconds the server process has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        cpu_seconds(self.child.id())
    }

    /// Asks the server to stop and waits for the process to end.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.addr, WireFormat::Jsonl)
            .and_then(|mut c| c.call(&Request::Shutdown).map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit within 10 s of shutdown".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
