//! The load generator: one process, one query connection, at most one
//! admin connection, and at most two threads.
//!
//! * [`open_loop`] sends Poisson arrivals at a fixed rate. The sender
//!   (the calling thread) writes each request when it falls due; a
//!   receiver thread reads the in-order replies. Latency runs from when a
//!   request was *due*, so a stall also charges the requests queued behind
//!   it, and the sender's own lateness is reported as lag.
//! * [`closed_loop`] keeps a fixed number of requests in flight on the
//!   pipelined connection from a single thread.
//!
//! Both poll an optional [`Admin`] writer between sends, and both check
//! every reply with a [`Checker`].

use crate::server::Conn;
use crate::trace::Spans;
use crate::util::{Rng, Zipf};
use ssr_graph::NodeId;
use ssr_serve::{QueryReply, Request, Response};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ranked matches as they travel in a reply.
pub type Matches = Arc<Vec<(NodeId, f64)>>;

/// Where a phase's query nodes come from.
pub enum NodeStream {
    /// Walks a pool in order, wrapping around.
    Cycle { pool: Vec<NodeId>, pos: usize },
    /// Zipf-popular draws.
    Zipf { zipf: Zipf, rng: Rng },
    /// Uniform draws.
    Uniform { nodes: Vec<NodeId>, rng: Rng },
}

impl NodeStream {
    pub fn next(&mut self) -> NodeId {
        match self {
            NodeStream::Cycle { pool, pos } => {
                let v = pool[*pos % pool.len()];
                *pos += 1;
                v
            }
            NodeStream::Zipf { zipf, rng } => zipf.draw(rng),
            NodeStream::Uniform { nodes, rng } => nodes[rng.below(nodes.len())],
        }
    }
}

/// Bitwise identity of two ranked lists (scores compared by their bits).
pub fn same_matches(a: &[(NodeId, f64)], b: &[(NodeId, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Checks replies as they arrive: every `(epoch, node)` must always get
/// the same answer (its first answer is kept for the oracle), the echoed
/// node must match, and no answer may come from an epoch older than the
/// last write acknowledged before its request was sent.
#[derive(Default)]
pub struct Checker {
    pub seen: HashMap<(u64, NodeId), Matches>,
    pub inconsistent: u64,
    pub stale: u64,
    pub wrong_node: u64,
}

impl Checker {
    fn check(&mut self, node: NodeId, floor_epoch: u64, reply: &QueryReply) {
        if reply.node != node {
            self.wrong_node += 1;
        }
        if reply.epoch < floor_epoch {
            self.stale += 1;
        }
        match self.seen.get(&(reply.epoch, reply.node)) {
            Some(first) => {
                if !same_matches(first, &reply.matches) {
                    self.inconsistent += 1;
                }
            }
            None => {
                self.seen.insert((reply.epoch, reply.node), reply.matches.clone());
            }
        }
    }

    pub fn failures(&self) -> u64 {
        self.inconsistent + self.stale + self.wrong_node
    }
}

/// One admin write.
#[derive(Debug, Clone)]
pub enum Write {
    Delta { add: Vec<(NodeId, NodeId)>, remove: Vec<(NodeId, NodeId)> },
    Reload { path: String },
}

impl Write {
    pub fn request(&self) -> Request {
        match self {
            Write::Delta { add, remove } => {
                Request::EdgeDelta { add: add.clone(), remove: remove.clone() }
            }
            Write::Reload { path } => Request::Reload { path: path.clone() },
        }
    }
}

/// The admin connection: issues the planned writes on a fixed period,
/// without blocking the load loop that polls it.
pub struct Admin {
    pub conn: Conn,
    plan: Vec<Write>,
    next: usize,
    next_due: Instant,
    period: Duration,
    /// Send time and span id of the write awaiting its acknowledgement.
    outstanding: Option<(Instant, u64)>,
    /// Epoch of the last acknowledged write (0 before any).
    pub acked_epoch: u64,
    /// Sent → acknowledged, per write, in ms.
    pub write_ms: Vec<f64>,
    spans: Spans,
}

impl Admin {
    pub fn new(
        mut conn: Conn,
        plan: Vec<Write>,
        period: Duration,
        spans: Spans,
    ) -> Result<Self, String> {
        conn.set_nonblocking()?;
        Ok(Admin {
            conn,
            plan,
            next: 0,
            next_due: Instant::now() + period / 2,
            period,
            outstanding: None,
            acked_epoch: 0,
            write_ms: Vec::new(),
            spans,
        })
    }

    /// Writes issued so far, in order (the oracle replays exactly these).
    pub fn issued(&self) -> &[Write] {
        &self.plan[..self.next]
    }

    /// Restarts the write clock with a new period.
    pub fn restart(&mut self, period: Duration) {
        self.period = period;
        self.next_due = Instant::now() + period / 2;
    }

    /// Collects an acknowledgement or sends the next due write.
    pub fn poll(&mut self, now: Instant) -> Result<(), String> {
        if let Some((sent, id)) = self.outstanding {
            if let Some(resp) = self.conn.reader.try_recv()? {
                let epoch = match (&self.plan[self.next - 1], resp) {
                    (Write::Delta { .. }, Response::DeltaApplied { epoch, .. }) => epoch,
                    (Write::Reload { .. }, Response::Reloaded { epoch, .. }) => epoch,
                    (w, other) => return Err(format!("admin write {w:?} answered {other:?}")),
                };
                if epoch != self.acked_epoch + 1 {
                    return Err(format!(
                        "write acknowledged epoch {epoch}, expected {}",
                        self.acked_epoch + 1
                    ));
                }
                let done = Instant::now();
                self.spans.record("admin.write", id, None, sent, done);
                self.acked_epoch = epoch;
                self.write_ms.push(done.duration_since(sent).as_secs_f64() * 1e3);
                self.outstanding = None;
            }
        } else if now >= self.next_due && self.next < self.plan.len() {
            self.conn.writer.send(&self.plan[self.next].request())?;
            self.next += 1;
            self.outstanding = Some((Instant::now(), self.spans.reserve_ids(1)));
            self.next_due += self.period;
        }
        Ok(())
    }

    /// Latest time the load loop may sleep to before polling again.
    pub fn wake_by(&self, now: Instant) -> Instant {
        if self.outstanding.is_some() {
            now + Duration::from_millis(1)
        } else {
            self.next_due.max(now)
        }
    }

    /// Sends the next planned write now and waits for its acknowledgement;
    /// returns whether it was an `edge-delta` (else a `reload`).
    pub fn write_now(&mut self) -> Result<bool, String> {
        self.settle()?;
        if self.next == self.plan.len() {
            return Err(format!("all {} planned writes are used up", self.plan.len()));
        }
        let delta = matches!(self.plan.get(self.next), Some(Write::Delta { .. }));
        self.next_due = Instant::now();
        self.poll(self.next_due)?;
        self.settle()?;
        Ok(delta)
    }

    /// Waits for any outstanding write.
    pub fn settle(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.outstanding.is_some() {
            if Instant::now() > deadline {
                return Err("admin write not acknowledged within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
            self.poll(Instant::now())?;
        }
        Ok(())
    }

    pub fn into_spans(self) -> Spans {
        self.spans
    }
}

/// What one phase measured.
#[derive(Default)]
pub struct PhaseOut {
    pub attempted: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    /// Requests sent that got no reply.
    pub timeouts: u64,
    /// Due → reply, in ms, for ok replies.
    pub lat_ms: Vec<f64>,
    /// Sent − due, in ms (open loop only).
    pub lag_ms: Vec<f64>,
    /// Ok replies received inside the measured window, per second.
    pub ok_per_s: f64,
    /// The open-loop schedule: (due offset in s, node) per request.
    pub schedule: Vec<(f64, NodeId)>,
    /// Ok replies kept for the codec probe (open loop only, capped).
    pub replies: Vec<QueryReply>,
}

impl PhaseOut {
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.timeouts
    }
}

/// Replies kept per phase for the codec probe.
const KEEP_REPLIES: usize = 4096;
/// Client-request spans kept per phase (the first ones), so a traced
/// high-rate phase does not write millions of spans.
const SPANS_PER_PHASE: usize = 20_000;

struct Sent {
    due: Instant,
    node: NodeId,
    floor: u64,
}

#[derive(Default)]
struct Received {
    ok: u64,
    shed: u64,
    errors: u64,
    lat_ms: Vec<f64>,
    replies: Vec<QueryReply>,
    /// When the last ok reply inside the measured window arrived.
    last_in_window: Option<Instant>,
    ok_before_end: u64,
}

impl Received {
    fn take(
        &mut self,
        resp: Response,
        sent: &Sent,
        now: Instant,
        end: Instant,
        checker: &mut Checker,
    ) {
        match resp {
            Response::Query(reply) => {
                checker.check(sent.node, sent.floor, &reply);
                self.ok += 1;
                if now <= end {
                    self.ok_before_end += 1;
                    self.last_in_window = Some(now);
                }
                self.lat_ms.push(now.saturating_duration_since(sent.due).as_secs_f64() * 1e3);
                if self.replies.len() < KEEP_REPLIES {
                    self.replies.push(reply);
                }
            }
            Response::Shed { .. } => self.shed += 1,
            _ => self.errors += 1,
        }
    }
}

/// Open loop: Poisson arrivals at `rate` per second for `dur`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conn: &mut Conn,
    src: &mut NodeStream,
    rate: f64,
    dur: Duration,
    k: usize,
    rng: &mut Rng,
    mut admin: Option<&mut Admin>,
    checker: &mut Checker,
    spans: &mut Spans,
) -> Result<PhaseOut, String> {
    let mut schedule = Vec::new();
    let mut t = rng.exp_gap(rate);
    while t < dur.as_secs_f64() {
        schedule.push((t, src.next()));
        t += rng.exp_gap(rate);
    }
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + dur;
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let ids = spans.reserve_ids(schedule.len() as u64);
    let mut recv_spans = spans.fork();
    let mut recv_checker = std::mem::take(checker);
    let (writer, reader) = (&mut conn.writer, &mut conn.reader);
    let (send_result, received, timeouts) = std::thread::scope(|scope| {
        let (recv_checker, recv_spans) = (&mut recv_checker, &mut recv_spans);
        let receiver = scope.spawn(move || {
            let mut got = Received::default();
            let mut timeouts = 0u64;
            let mut failure = None;
            for (i, sent) in rx.iter().enumerate() {
                if failure.is_some() {
                    timeouts += 1;
                    continue;
                }
                match reader.recv() {
                    Ok(resp) => {
                        let now = Instant::now();
                        if i < SPANS_PER_PHASE {
                            let id = ids + i as u64;
                            recv_spans.record("client.request", id, None, sent.due, now);
                        }
                        got.take(resp, &sent, now, end, recv_checker);
                    }
                    Err(e) => {
                        failure = Some(e);
                        timeouts += 1;
                    }
                }
            }
            (got, timeouts, failure)
        });
        let send_result = (|| -> Result<(), String> {
            let mut i = 0;
            while i < schedule.len() {
                let due = start + Duration::from_secs_f64(schedule[i].0);
                loop {
                    let now = Instant::now();
                    if let Some(a) = admin.as_deref_mut() {
                        a.poll(now)?;
                    }
                    if now >= due {
                        break;
                    }
                    let wake = admin.as_deref().map_or(due, |a| a.wake_by(now).min(due));
                    std::thread::sleep(wake.saturating_duration_since(now));
                }
                // Everything already due goes out in one write.
                let now = Instant::now();
                let first = i;
                while i < schedule.len() && start + Duration::from_secs_f64(schedule[i].0) <= now {
                    writer.push(&Request::Query { node: schedule[i].1, k });
                    i += 1;
                }
                writer.flush()?;
                let sent_at = Instant::now();
                let floor = admin.as_deref().map_or(0, |a| a.acked_epoch);
                for (j, &(off, node)) in schedule.iter().enumerate().take(i).skip(first) {
                    let due = start + Duration::from_secs_f64(off);
                    if j < SPANS_PER_PHASE {
                        let id = ids + j as u64;
                        spans.record("client.send", id, Some("client.request"), due, sent_at);
                    }
                    lag_ms.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e3);
                    tx.send(Sent { due, node, floor })
                        .map_err(|_| "receiver thread ended early")?;
                }
            }
            Ok(())
        })();
        drop(tx);
        let (received, timeouts, failure) = receiver.join().expect("receiver thread panicked");
        (send_result.and(failure.map_or(Ok(()), Err)), received, timeouts)
    });
    *checker = recv_checker;
    spans.absorb(recv_spans);
    let mut out = PhaseOut {
        attempted: lag_ms.len() as u64,
        ok: received.ok,
        shed: received.shed,
        errors: received.errors,
        timeouts,
        lat_ms: received.lat_ms,
        lag_ms,
        ok_per_s: received.ok_before_end as f64 / dur.as_secs_f64(),
        schedule,
        replies: received.replies,
    };
    if let Err(e) = send_result {
        out.errors += 1;
        return Err(format!("open loop at {rate}/s failed: {e}"));
    }
    Ok(out)
}

/// Closed loop: `depth` requests in flight for `dur` on one connection.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    conn: &mut Conn,
    src: &mut NodeStream,
    depth: usize,
    dur: Duration,
    k: usize,
    mut admin: Option<&mut Admin>,
    checker: &mut Checker,
    spans: &mut Spans,
) -> Result<PhaseOut, String> {
    let ids = spans.reserve_ids(SPANS_PER_PHASE as u64);
    let start = Instant::now();
    let end = start + dur;
    let mut inflight: VecDeque<Sent> = VecDeque::with_capacity(depth);
    let mut got = Received::default();
    let mut attempted = 0u64;
    let mut refill = depth;
    let mut first_fill = true;
    // Throughput runs from the first batch of replies to the last reply in
    // the window, so the pipeline's fill time is not counted as idle.
    let mut first_batch: Option<(Instant, u64)> = None;
    loop {
        let now = Instant::now();
        // The first fill always goes out, so a zero-length loop sends
        // exactly `depth` requests (the warm-up uses that).
        if std::mem::take(&mut first_fill) || now < end {
            let floor = admin.as_deref().map_or(0, |a| a.acked_epoch);
            for _ in 0..refill {
                let node = src.next();
                conn.writer.push(&Request::Query { node, k });
                inflight.push_back(Sent { due: now, node, floor });
            }
            attempted += refill as u64;
            conn.writer.flush()?;
        }
        if inflight.is_empty() {
            break;
        }
        if let Some(a) = admin.as_deref_mut() {
            a.poll(now)?;
        }
        // Wait for at least one reply, then take every reply buffered.
        let first = conn.reader.recv()?;
        refill = 0;
        let mut next = Some(first);
        while let Some(resp) = next {
            let now = Instant::now();
            let sent = inflight.pop_front().ok_or("reply without a request")?;
            let done = attempted - inflight.len() as u64;
            if done <= SPANS_PER_PHASE as u64 {
                spans.record("client.request", ids + done - 1, None, sent.due, now);
            }
            got.take(resp, &sent, now, end, checker);
            refill += 1;
            next = conn.reader.buffered()?;
        }
        if first_batch.is_none() && got.ok_before_end > 0 {
            first_batch = got.last_in_window.map(|t| (t, got.ok_before_end));
        }
    }
    let ok_per_s = match (first_batch, got.last_in_window) {
        // Too short a span between bursts says nothing; fall back then.
        (Some((t0, n0)), Some(t1)) if t1.duration_since(t0) >= dur / 2 => {
            (got.ok_before_end - n0) as f64 / t1.duration_since(t0).as_secs_f64()
        }
        _ => got.ok_before_end as f64 / dur.as_secs_f64(),
    };
    Ok(PhaseOut {
        attempted,
        ok: got.ok,
        shed: got.shed,
        errors: got.errors,
        timeouts: 0,
        lat_ms: got.lat_ms,
        lag_ms: Vec::new(),
        ok_per_s,
        schedule: Vec::new(),
        replies: Vec::new(),
    })
}
