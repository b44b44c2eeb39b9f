//! End-to-end tests over real TCP: protocol round-trips on both wire
//! formats, runtime reconfiguration, admission control, and — the
//! load-bearing ones — an epoch swap under concurrent client load with no
//! stale-epoch answers, and bit-identical JSON/ssb answers solo and
//! pipelined across a mid-stream reload.

use simrank_star::{QueryEngine, QueryEngineOptions, SimStarParams};
use ssr_graph::{io as gio, DiGraph, NodeId};
use ssr_serve::batcher::BatcherOptions;
use ssr_serve::client::{Client, ClientError, Reply};
use ssr_serve::codec::WireFormat;
use ssr_serve::protocol::{CacheDirective, Request, Response};
use ssr_serve::server::{Server, ServerOptions};

fn graph_v0() -> DiGraph {
    DiGraph::from_edges(8, &[(1, 0), (2, 0), (3, 1), (3, 2), (4, 3), (5, 4), (6, 5), (7, 6)])
        .unwrap()
}

/// Same node count, different topology ⇒ different scores for the same
/// queries — a swap the clients can detect.
fn graph_v1() -> DiGraph {
    DiGraph::from_edges(8, &[(0, 1), (0, 2), (1, 3), (2, 3), (4, 0), (5, 0), (6, 7), (7, 6)])
        .unwrap()
}

fn det_engine(g: &DiGraph, params: SimStarParams) -> QueryEngine {
    QueryEngine::with_options(
        g,
        params,
        QueryEngineOptions { deterministic: true, ..Default::default() },
    )
}

fn start(opts: ServerOptions) -> Server {
    Server::start(graph_v0(), "127.0.0.1", 0, opts).expect("bind ephemeral port")
}

#[test]
fn query_round_trip_matches_engine_bits_and_caches() {
    let params = SimStarParams::default();
    let server = start(ServerOptions { params, ..Default::default() });
    let engine = det_engine(&graph_v0(), params);
    for format in [WireFormat::Jsonl, WireFormat::Ssb] {
        let mut client = Client::builder().protocol(format).connect(server.addr()).unwrap();
        let mut admin = Client::connect(server.addr()).unwrap();
        admin.config(None, None, Some(CacheDirective::Clear), None, None).unwrap();
        for node in 0..8 {
            let expect = engine.top_k(node, 5);
            let Reply::Ok(first) = client.query(node, 5).unwrap() else {
                panic!("query {node} failed")
            };
            assert_eq!(first.epoch, 0);
            assert!(!first.cached, "{format:?} node {node}");
            assert_eq!(*first.matches, expect, "{format:?} round-trip must preserve bits");
            let Reply::Ok(second) = client.query(node, 5).unwrap() else {
                panic!("repeat {node} failed")
            };
            assert!(second.cached);
            assert_eq!(*second.matches, expect);
        }
    }
    server.shutdown();
}

#[test]
fn stats_surface_cache_batcher_epoch_and_thread_metrics() {
    let server = start(ServerOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let _ = client.query(1, 3).unwrap();
    let _ = client.query(1, 3).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.epoch, 0);
    assert_eq!(stats.nodes, 8);
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.batcher.flushed_jobs, 1);
    assert!(stats.connections >= 1);
    // 1 event loop + 1 flush worker + 1 admin executor, regardless of load.
    assert_eq!(stats.worker_threads, server.worker_threads());
    assert_eq!(stats.worker_threads, 3);
    server.shutdown();
}

#[test]
fn config_op_retunes_batcher_and_cache() {
    let server = start(ServerOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let req = Request::Config {
        window_us: Some(0),
        max_batch: Some(7),
        cache: Some(CacheDirective::Off),
        slow_query_us: Some(9_000),
        trace_sample: None,
    };
    let Response::Config { window_us, max_batch, cache_enabled, slow_query_us, .. } =
        client.call(&req).unwrap()
    else {
        panic!("config echo expected")
    };
    assert_eq!((window_us, max_batch, cache_enabled, slow_query_us), (0, 7, false, 9_000));
    // Cache off: repeats never hit.
    let _ = client.query(2, 3).unwrap();
    let Reply::Ok(second) = client.query(2, 3).unwrap() else { panic!() };
    assert!(!second.cached);
    let req = Request::Config {
        window_us: None,
        max_batch: None,
        cache: Some(CacheDirective::On),
        slow_query_us: None,
        trace_sample: None,
    };
    let Response::Config { cache_enabled, slow_query_us, .. } = client.call(&req).unwrap() else {
        panic!()
    };
    assert!(cache_enabled);
    // Omitting the field leaves the threshold untouched.
    assert_eq!(slow_query_us, 9_000);
    server.shutdown();
}

#[test]
fn malformed_requests_get_errors_not_disconnects() {
    let server = start(ServerOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();
    for bad in [
        "not json",
        r#"{"op":"nope"}"#,
        r#"{"op":"query"}"#,
        r#"{"op":"query","node":999}"#,
        r#"{"op":"query","node":-3}"#,
    ] {
        let resp = client.request_line(bad).unwrap();
        assert!(matches!(resp, Response::Error { .. }), "{bad}: {resp:?}");
    }
    // The connection is still serviceable afterwards.
    assert!(matches!(client.query(1, 2).unwrap(), Reply::Ok(_)));
    server.shutdown();
}

#[test]
fn bounded_queue_sheds_under_pressure() {
    let server = start(ServerOptions {
        batch: BatcherOptions { window_us: 100_000, max_batch: 2, queue_capacity: 2, workers: 1 },
        cache_capacity: 0,
        ..Default::default()
    });
    let addr = server.addr();
    // One pipelined connection delivers all 8 frames in a single burst:
    // the event loop dispatches them back-to-back into the 2-deep queue
    // while the flush worker is parked in its 100ms window, so the
    // overflow does not depend on thread-scheduling luck. A few retries
    // absorb the (rare) pump that still interleaves with a flush.
    let queries: Vec<(NodeId, usize)> = (0..8u32).map(|n| (n, 3)).collect();
    let mut client = Client::builder().protocol(WireFormat::Ssb).pipeline(8).connect(addr).unwrap();
    let mut outcomes: Vec<Reply> = Vec::new();
    for _round in 0..5 {
        outcomes = client.query_pipelined(&queries).unwrap();
        if outcomes.iter().any(|r| matches!(r, Reply::Shed)) {
            break;
        }
    }
    let ok = outcomes.iter().filter(|r| matches!(r, Reply::Ok(_))).count();
    let shed = outcomes.iter().filter(|r| matches!(r, Reply::Shed)).count();
    assert!(ok > 0, "some requests must get through");
    assert!(shed > 0, "8 one-burst queries into a 2-deep queue must shed");
    assert_eq!(ok + shed, 8, "no errors expected: {outcomes:?}");
    let mut admin = Client::connect(addr).unwrap();
    let stats = admin.stats().unwrap();
    assert!(stats.batcher.shed >= shed as u64);
    server.shutdown();
}

#[test]
fn connection_cap_sheds_new_sockets() {
    let server = start(ServerOptions { max_connections: 1, ..Default::default() });
    let mut first = Client::connect(server.addr()).unwrap();
    assert!(matches!(first.query(1, 2).unwrap(), Reply::Ok(_)));
    // The second socket gets one shed line, then EOF.
    let mut second = Client::connect(server.addr()).unwrap();
    match second.request_line(r#"{"op":"ping"}"#) {
        Ok(resp) => assert!(matches!(resp, Response::Shed { .. }), "{resp:?}"),
        // The server closes the socket without reading; depending on
        // timing the client sees EOF on read or a pipe error on write.
        // All of them are valid shed behaviors.
        Err(ClientError::Closed) => {}
        Err(ClientError::Io(e)) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
            ),
            "unexpected error kind: {e}"
        ),
        Err(other) => panic!("unexpected shed behavior: {other}"),
    }
    server.shutdown();
}

#[test]
fn idle_connections_are_cheap_and_stay_live() {
    let server = start(ServerOptions { max_connections: 300, ..Default::default() });
    let addr = server.addr();
    let mut idle: Vec<Client> = (0..200)
        .map(|i| {
            let format = if i % 2 == 0 { WireFormat::Jsonl } else { WireFormat::Ssb };
            Client::builder().protocol(format).connect(addr).unwrap()
        })
        .collect();
    let mut admin = Client::connect(addr).unwrap();
    let stats = admin.stats().unwrap();
    assert!(stats.connections >= 201, "gauge {} must cover the idle mass", stats.connections);
    // The thread budget did not move: connections are buffers, not threads.
    assert_eq!(stats.worker_threads, 3);
    // Every held socket still answers — first, last, and a few between.
    for i in [0usize, 67, 133, 199] {
        assert_eq!(idle[i].ping().unwrap(), 0, "idle connection {i}");
    }
    drop(idle);
    server.shutdown();
}

#[test]
fn shutdown_op_stops_the_server() {
    let server = start(ServerOptions::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    server.wait(); // returns because the client asked for shutdown
    server.shutdown();
    assert!(
        Client::connect(addr).is_err() || {
            // A connect may still succeed while the listener drains; a request
            // on it must fail.
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        }
    );
}

/// A dead server must surface as a typed error, not a hang: this is the
/// bench-serve/loadgen bugfix. The client's socket timeout turns a stuck
/// or vanished peer into `TimedOut`/`Closed`.
#[test]
fn dead_server_surfaces_as_typed_error_not_a_hang() {
    let server = start(ServerOptions::default());
    let addr = server.addr();
    let mut client = Client::builder()
        .timeout(Some(std::time::Duration::from_millis(500)))
        .connect(addr)
        .unwrap();
    assert!(matches!(client.query(1, 2).unwrap(), Reply::Ok(_)));
    server.shutdown(); // server gone, socket still held by the client
    let err = match client.query(1, 2) {
        Err(e) => e,
        // The first call after the close may still flush into the kernel
        // buffer; the next read must fail.
        Ok(_) => client.query(2, 2).unwrap_err(),
    };
    assert!(
        matches!(err, ClientError::Closed | ClientError::TimedOut | ClientError::Io(_)),
        "expected a typed transport error, got {err}"
    );
}

/// A single `ssb/1` frame declaring a length that passes the codec's
/// 64 MiB length-lie check but exceeds the runtime's per-connection
/// request-buffer cap must be answered with an error and a close — not
/// buffered in full (which would cost up to 64 MiB × every connection).
#[test]
fn oversized_request_frame_is_rejected_not_buffered() {
    use std::io::{Read, Write};
    fn leb128(mut v: u64, out: &mut Vec<u8>) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(b);
                break;
            }
            out.push(b | 0x80);
        }
    }
    let server = start(ServerOptions::default());
    let addr = server.addr();

    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let limit = Some(std::time::Duration::from_secs(10));
    raw.set_write_timeout(limit).unwrap();
    raw.set_read_timeout(limit).unwrap();
    let mut head = Vec::new();
    head.extend_from_slice(ssr_serve::codec::SSB_MAGIC);
    // Declared 32 MiB: a legal frame length on the wire, but no request
    // the server is willing to buffer.
    leb128(32 << 20, &mut head);
    raw.write_all(&head).unwrap();
    let chunk = [0u8; 64 * 1024];
    let mut sent = 0usize;
    while sent < 6 << 20 {
        match raw.write(&chunk) {
            Ok(n) => sent += n,
            // The server already rejected and closed mid-stream: a pass.
            Err(_) => break,
        }
    }
    // However the close raced our writes, the read side must resolve
    // promptly — an error frame then EOF, or a reset. A timeout here
    // means the server is buffering the frame without bound.
    let mut sink = Vec::new();
    if let Err(e) = raw.read_to_end(&mut sink) {
        assert!(
            e.kind() != std::io::ErrorKind::WouldBlock && e.kind() != std::io::ErrorKind::TimedOut,
            "server wedged instead of rejecting the frame: {e}"
        );
    }
    drop(raw);

    // The rejection was connection-scoped: the server still answers.
    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(client.query(1, 2).unwrap(), Reply::Ok(_)));
    server.shutdown();
}

/// The tentpole's headline e2e: the same queries through the JSON codec
/// and the binary `ssb/1` codec, solo and pipelined, produce bit-identical
/// typed responses — including across an epoch reload that lands in the
/// middle of an in-flight pipeline window. Zero stale-epoch answers: every
/// reply's scores must match the ground truth of exactly the epoch it
/// claims.
#[test]
fn json_and_ssb_answers_are_bit_identical_solo_and_pipelined_across_reload() {
    let params = SimStarParams { c: 0.6, iterations: 6 };
    let server = Server::start(
        graph_v0(),
        "127.0.0.1",
        0,
        ServerOptions {
            params,
            batch: BatcherOptions { window_us: 300, ..Default::default() },
            cache_capacity: 0, // no cache: every answer exercises its codec
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let k = 5;
    let v0 = graph_v0();
    let v1 = graph_v1();
    let truth: Vec<Vec<Vec<(NodeId, f64)>>> = [&v0, &v1]
        .iter()
        .map(|g| {
            let engine = det_engine(g, params);
            (0..8).map(|q| engine.top_k(q, k)).collect()
        })
        .collect();

    let mut json = Client::builder().protocol(WireFormat::Jsonl).connect(addr).unwrap();
    let mut ssb = Client::builder().protocol(WireFormat::Ssb).connect(addr).unwrap();
    let mut ssb_pipe =
        Client::builder().protocol(WireFormat::Ssb).pipeline(4).connect(addr).unwrap();

    // Epoch 0: solo JSON == solo ssb == pipelined ssb == engine truth,
    // bitwise (f64 scores included — JSON prints shortest-round-trip
    // decimals, ssb ships raw IEEE-754 bits).
    let queries: Vec<(NodeId, usize)> = (0..8).map(|n| (n, k)).collect();
    let piped = ssb_pipe.query_pipelined(&queries).unwrap();
    for node in 0..8u32 {
        let Reply::Ok(a) = json.query(node, k).unwrap() else { panic!("json {node}") };
        let Reply::Ok(b) = ssb.query(node, k).unwrap() else { panic!("ssb {node}") };
        let Reply::Ok(p) = &piped[node as usize] else { panic!("pipelined {node}") };
        assert_eq!(a, b, "codecs disagree on node {node}");
        assert_eq!(&a, p, "pipelining changed the answer for node {node}");
        assert_eq!(*a.matches, truth[0][node as usize], "node {node} truth mismatch");
        assert_eq!(a.epoch, 0);
    }

    // Reload mid-pipeline: half a window in flight when the epoch swaps.
    let dir = std::env::temp_dir().join("ssr_serve_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let v1_path = dir.join(format!("codec_v1_{}.txt", std::process::id()));
    std::fs::write(&v1_path, gio::to_edge_list_string(&v1)).unwrap();
    let mut admin = Client::connect(addr).unwrap();
    for node in 0..4u32 {
        ssb_pipe.send_query(node, k).unwrap();
    }
    assert_eq!(admin.reload(&v1_path.to_string_lossy()).unwrap(), 1);
    for node in 4..8u32 {
        ssb_pipe.send_query(node, k).unwrap();
    }
    let mut last_epoch = 0;
    for node in 0..8u32 {
        let Reply::Ok(r) = ssb_pipe.recv_reply().unwrap() else { panic!("mid-swap {node}") };
        // The answer must be exactly the ranking of the graph its epoch
        // tag names — stale bits under a fresh tag (or vice versa) fail.
        assert_eq!(
            *r.matches, truth[r.epoch as usize][node as usize],
            "node {node} answer inconsistent with its epoch {}",
            r.epoch
        );
        assert!(r.epoch >= last_epoch, "epoch went backwards at node {node}");
        last_epoch = r.epoch;
    }

    // Epoch 1, post-swap: both codecs again agree bitwise on the truth.
    for node in 0..8u32 {
        let Reply::Ok(a) = json.query(node, k).unwrap() else { panic!() };
        let Reply::Ok(b) = ssb.query(node, k).unwrap() else { panic!() };
        assert_eq!(a, b, "codecs disagree post-swap on node {node}");
        assert_eq!(a.epoch, 1);
        assert_eq!(*a.matches, truth[1][node as usize]);
    }
    std::fs::remove_file(&v1_path).ok();
    server.shutdown();
}

/// Concurrent clients, an epoch swap (file reload + edge delta)
/// mid-stream, and the assertion that every response is consistent with
/// the epoch it claims — no stale-epoch answers.
#[test]
fn epoch_swap_under_concurrent_load_has_no_stale_answers() {
    let params = SimStarParams { c: 0.6, iterations: 6 };
    let server = start(ServerOptions {
        params,
        batch: BatcherOptions { window_us: 300, ..Default::default() },
        ..Default::default()
    });
    let addr = server.addr();
    let k = 5;

    // Ground truth per epoch, computed with independent deterministic
    // engines: epoch 0 = v0, epoch 1 = v1 (reload), epoch 2 = v1 + delta.
    let v0 = graph_v0();
    let v1 = graph_v1();
    let delta_add = [(3u32, 5u32), (5, 3)];
    let v2 = {
        let mut edges: Vec<(NodeId, NodeId)> = v1.edges().collect();
        edges.extend(delta_add);
        DiGraph::from_edges(8, &edges).unwrap()
    };
    let truth: Vec<Vec<Vec<(NodeId, f64)>>> = [&v0, &v1, &v2]
        .iter()
        .map(|g| {
            let engine = det_engine(g, params);
            (0..8).map(|q| engine.top_k(q, k)).collect()
        })
        .collect();

    // Write v1 to a temp file for the reload op.
    let dir = std::env::temp_dir().join("ssr_serve_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let v1_path = dir.join(format!("v1_{}.txt", std::process::id()));
    std::fs::write(&v1_path, gio::to_edge_list_string(&v1)).unwrap();

    // (epoch, node, matches) per ok response, one stream per client.
    type Observed = Vec<(u64, NodeId, Vec<(NodeId, f64)>)>;
    // Progress-based coordination (no sleep races): the admin waits for
    // the clients to be mid-stream before each swap, the clients keep
    // querying until they have seen the final epoch a few times. Clients
    // alternate codecs — stale-epoch detection must hold on both wires.
    let progress = std::sync::atomic::AtomicU32::new(0);
    let responses: Vec<Observed> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4u32)
            .map(|c| {
                let progress = &progress;
                scope.spawn(move || {
                    let format = if c % 2 == 0 { WireFormat::Jsonl } else { WireFormat::Ssb };
                    let mut client = Client::builder().protocol(format).connect(addr).unwrap();
                    let mut seen = Vec::new();
                    let mut final_epoch_hits = 0u32;
                    for i in 0..5000u32 {
                        let node = (c + i) % 8;
                        match client.query(node, k).unwrap() {
                            Reply::Ok(r) => {
                                final_epoch_hits += (r.epoch == 2) as u32;
                                seen.push((r.epoch, node, r.matches.to_vec()));
                            }
                            Reply::Shed => {}
                            Reply::Error(e) => panic!("client {c}: {e}"),
                        }
                        progress.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if final_epoch_hits >= 10 {
                            break;
                        }
                    }
                    assert!(final_epoch_hits >= 10, "client {c} never reached epoch 2");
                    seen
                })
            })
            .collect();
        // Admin thread: swap epochs twice while the clients hammer away,
        // each swap only after the stream has demonstrably progressed.
        let v1_path = &v1_path;
        let progress = &progress;
        let admin = scope.spawn(move || {
            let wait_for = |target: u32| {
                while progress.load(std::sync::atomic::Ordering::Relaxed) < target {
                    std::thread::yield_now();
                }
            };
            let mut admin = Client::connect(addr).unwrap();
            wait_for(40);
            let e1 = admin.reload(&v1_path.to_string_lossy()).unwrap();
            assert_eq!(e1, 1);
            let mark = progress.load(std::sync::atomic::Ordering::Relaxed);
            wait_for(mark + 40);
            let e2 = admin.edge_delta(&delta_add, &[]).unwrap();
            assert_eq!(e2, 2);
        });
        admin.join().unwrap();
        clients.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut epochs_seen = std::collections::BTreeSet::new();
    for (client_id, stream) in responses.iter().enumerate() {
        assert!(!stream.is_empty());
        let mut last_epoch = 0u64;
        for (epoch, node, matches) in stream {
            // Every answer must be exactly the ranking of the graph
            // version its epoch tag names — a stale answer under a fresh
            // tag (or vice versa) fails bitwise.
            let expect = &truth[*epoch as usize][*node as usize];
            assert_eq!(
                matches, expect,
                "client {client_id}: epoch {epoch} node {node} answer is stale or wrong"
            );
            // Per-connection epoch monotonicity: once a client sees epoch
            // E, it never gets answers from an older snapshot.
            assert!(
                *epoch >= last_epoch,
                "client {client_id}: epoch went backwards ({last_epoch} -> {epoch})"
            );
            last_epoch = *epoch;
            epochs_seen.insert(*epoch);
        }
    }
    // The swaps happened mid-stream: the final epoch must have been
    // observed, and queries issued after the swap completed must be new.
    assert!(epochs_seen.contains(&2), "swap never became visible: {epochs_seen:?}");
    let mut late = Client::connect(addr).unwrap();
    let Reply::Ok(fresh) = late.query(3, k).unwrap() else { panic!() };
    assert_eq!(fresh.epoch, 2, "post-swap queries must run on the new epoch");
    assert_eq!(*fresh.matches, truth[2][3]);

    std::fs::remove_file(&v1_path).ok();
    server.shutdown();
}

/// Observability satellite regression: `stats` and `metrics` counters
/// are server-lifetime — an epoch reload or edge delta must never reset
/// them. (They used to live partly in epoch-scoped structures; this
/// pins the fix.)
#[test]
fn lifetime_counters_survive_epoch_swaps() {
    let server = start(ServerOptions::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    for node in 0..4u32 {
        assert!(matches!(client.query(node, 3).unwrap(), Reply::Ok(_)));
    }
    for node in 0..4u32 {
        assert!(matches!(client.query(node, 3).unwrap(), Reply::Ok(_))); // cache hits
    }
    let before = client.stats().unwrap();
    let m_before = client.metrics().unwrap();
    assert!(before.cache.hits >= 4 && before.cache.misses >= 4);
    assert!(before.requests >= 8);

    // Swap epochs twice: file reload, then an edge delta.
    let dir = std::env::temp_dir().join("ssr_serve_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("obs_v1_{}.txt", std::process::id()));
    std::fs::write(&path, gio::to_edge_list_string(&graph_v1())).unwrap();
    assert_eq!(client.reload(&path.to_string_lossy()).unwrap(), 1);
    assert_eq!(client.edge_delta(&[(3, 5)], &[]).unwrap(), 2);

    // Nothing reset: every lifetime counter is at least its pre-swap
    // value, and the swaps themselves were counted.
    let after = client.stats().unwrap();
    assert!(after.requests > before.requests);
    assert!(after.cache.hits >= before.cache.hits);
    assert!(after.cache.misses >= before.cache.misses);
    assert!(after.batcher.submitted >= before.batcher.submitted);
    assert!(after.batcher.flushed_jobs >= before.batcher.flushed_jobs);
    assert_eq!(after.epoch_swaps, before.epoch_swaps + 2);

    // Queries on the new epoch keep counting up from the old totals.
    assert!(matches!(client.query(1, 3).unwrap(), Reply::Ok(_)));
    let m_after = client.metrics().unwrap();
    let get = |m: &ssr_serve::MetricsReply, name: &str| {
        m.snapshot.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    };
    for name in [
        "ssr_requests_total{codec=\"json\"}",
        "ssr_cache_misses_total",
        "ssr_batch_submitted_total",
        "ssr_responses_total{kind=\"ok\"}",
    ] {
        assert!(
            get(&m_after, name) > get(&m_before, name),
            "{name} must keep climbing across epoch swaps ({} -> {})",
            get(&m_before, name),
            get(&m_after, name),
        );
    }
    assert_eq!(get(&m_after, "ssr_epoch_swaps_total"), 2);
    std::fs::remove_file(&path).ok();
    server.shutdown();
}

/// The `metrics` op means the same thing on both wires: same metric name
/// sets, and — fetched back-to-back with no queries in between — the
/// query-stage histograms are value-identical across `json/1` and
/// `ssb/1`. Every stage histogram counts requests, not flushes: a
/// pipelined burst that coalesces into fewer flushes than jobs still
/// records one `queue` and one `engine` sample per flushed job.
#[test]
fn metrics_op_is_equivalent_across_codecs_with_one_sample_per_request() {
    let server = start(ServerOptions {
        batch: BatcherOptions { window_us: 20_000, ..Default::default() },
        ..Default::default()
    });
    let addr = server.addr();
    let mut json = Client::builder().protocol(WireFormat::Jsonl).connect(addr).unwrap();
    let mut ssb = Client::builder().protocol(WireFormat::Ssb).pipeline(8).connect(addr).unwrap();
    // Eight misses in one pipelined burst share the 20 ms window; the
    // same queries over json then hit the cache.
    let burst: Vec<(NodeId, usize)> = (0..8u32).map(|node| (node, 4)).collect();
    for reply in ssb.query_pipelined(&burst).unwrap() {
        assert!(matches!(reply, Reply::Ok(_)), "{reply:?}");
    }
    for node in 0..8u32 {
        assert!(matches!(json.query(node, 4).unwrap(), Reply::Ok(_)));
    }

    // Quiesced (every query answered); fetch the registry over both wires.
    let a = json.metrics().unwrap();
    let b = ssb.metrics().unwrap();
    assert_eq!(a.version, b.version);
    let names = |pairs: &[(String, u64)]| {
        pairs.iter().map(|(n, _)| n.clone()).collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(names(&a.snapshot.counters), names(&b.snapshot.counters));
    assert_eq!(names(&a.snapshot.gauges), names(&b.snapshot.gauges));
    let hist_names = |m: &ssr_serve::MetricsReply| {
        m.snapshot.hists.iter().map(|h| h.name.clone()).collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(hist_names(&a), hist_names(&b));

    // Only queries touch these stages, and no queries ran between the
    // two fetches — so the two codecs must return identical snapshots.
    let hist = |m: &ssr_serve::MetricsReply, name: &str| {
        m.snapshot.hists.iter().find(|h| h.name == name).cloned().unwrap_or_else(|| {
            panic!("histogram {name} missing: {:?}", hist_names(m));
        })
    };
    for stage in ["cache", "queue", "engine", "total"] {
        let name = format!("ssr_stage_us{{stage=\"{stage}\"}}");
        assert_eq!(hist(&a, &name), hist(&b, &name), "{name} differs across codecs");
    }
    let stage_count = |stage: &str| hist(&a, &format!("ssr_stage_us{{stage=\"{stage}\"}}")).count;
    assert_eq!(stage_count("total"), 16, "8 ssb + 8 json queries observed end-to-end");
    assert_eq!(stage_count("cache"), 16, "every query probes the cache once");

    let get = |m: &ssr_serve::MetricsReply, name: &str| {
        m.snapshot.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    };
    let (flushes, jobs) =
        (get(&a, "ssr_batch_flushes_total"), get(&a, "ssr_batch_flushed_jobs_total"));
    assert_eq!(jobs, 8, "the burst's misses, and nothing else, were flushed");
    assert!(flushes < jobs, "the burst must coalesce: {flushes} flushes for {jobs} jobs");
    assert_eq!(stage_count("queue"), jobs, "one queue sample per flushed job");
    assert_eq!(stage_count("engine"), jobs, "one engine sample per flushed job");

    // One engine per snapshot: its gauges carry no shard label.
    let gauge = |name: &str| a.snapshot.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    assert!(gauge("ssr_engine_resident_bytes").is_some_and(|v| v > 0));
    assert!(gauge("ssr_engine_sweeps").is_some_and(|v| v > 0));

    // Per-codec counters: each wire counted its own traffic (8 queries +
    // 1 metrics fetch each; the ssb fetch happened after json's).
    assert_eq!(get(&a, "ssr_requests_total{codec=\"json\"}"), 9);
    assert_eq!(get(&b, "ssr_requests_total{codec=\"json\"}"), 9);
    assert_eq!(get(&b, "ssr_requests_total{codec=\"ssb\"}"), 9);
    server.shutdown();
}

/// Tentpole invariant: stage spans are disjoint sub-intervals of a
/// request's life, so for every sampled request
/// `decode + cache + queue + engine + encode ≤ total`. The
/// sample is the slow-query log at a 1µs threshold — every query
/// qualifies — and the lines carry the full per-stage breakdown.
#[test]
fn stage_span_sums_bound_end_to_end_latency() {
    let server = start(ServerOptions { cache_capacity: 0, ..Default::default() });
    let addr = server.addr();
    let mut admin = Client::connect(addr).unwrap();
    admin.config(None, None, None, Some(1), None).unwrap();
    for format in [WireFormat::Jsonl, WireFormat::Ssb] {
        let mut client = Client::builder().protocol(format).connect(addr).unwrap();
        for node in 0..8u32 {
            assert!(matches!(client.query(node, 4).unwrap(), Reply::Ok(_)));
        }
    }
    let lines = server.slow_query_lines();
    assert!(lines.len() >= 16, "a 1µs threshold must sample every query, got {}", lines.len());
    for line in &lines {
        let field = |key: &str| -> u64 {
            let tag = format!("{key}=");
            let rest =
                line.split(&tag).nth(1).unwrap_or_else(|| panic!("{key} missing in: {line}"));
            rest.split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap_or_else(|_| panic!("unparsable {key} in: {line}"))
        };
        let total = field("total_us");
        let sum = field("decode_us")
            + field("cache_us")
            + field("queue_us")
            + field("engine_us")
            + field("encode_us");
        assert!(sum <= total, "stage sum {sum}µs exceeds end-to-end {total}µs in: {line}");
    }
    // Both codecs appear in the sample, and the registry counted it.
    assert!(lines.iter().any(|l| l.contains("codec=json")));
    assert!(lines.iter().any(|l| l.contains("codec=ssb")));
    let m = admin.metrics().unwrap();
    let slow = m
        .snapshot
        .counters
        .iter()
        .find(|(n, _)| n == "ssr_slow_queries_total")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    assert!(slow >= 16, "slow-query counter {slow} must cover the sampled queries");
    server.shutdown();
}

/// PR 5 acceptance gate: an admin `reload` pointed at a `.ssg` binary
/// store must produce responses bit-identical to the same graph loaded
/// from a text edge list — the store is a faster container, never a
/// different answer.
#[test]
fn reload_from_binary_store_is_bit_identical_to_text() {
    let params = SimStarParams { c: 0.6, iterations: 6 };
    let server = start(ServerOptions { params, ..Default::default() });
    let addr = server.addr();
    let k = 5;

    let dir = std::env::temp_dir().join("ssr_serve_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let pid = std::process::id();
    let v1 = graph_v1();
    let text_path = dir.join(format!("store_v1_{pid}.txt"));
    std::fs::write(&text_path, gio::to_edge_list_string(&v1)).unwrap();
    let ssg_path = dir.join(format!("store_v1_{pid}.ssg"));
    ssr_store::StoreWriter::new(&v1).write_file(&ssg_path).unwrap();

    let mut admin = Client::connect(addr).unwrap();
    // Epoch 1: text reload. Epoch 2: store reload of the *same* graph.
    assert_eq!(admin.reload(&text_path.to_string_lossy()).unwrap(), 1);
    let mut client = Client::connect(addr).unwrap();
    let from_text: Vec<_> = (0..8)
        .map(|node| match client.query(node, k).unwrap() {
            Reply::Ok(r) => {
                assert_eq!(r.epoch, 1);
                r.matches
            }
            other => panic!("text-epoch query {node}: {other:?}"),
        })
        .collect();
    assert_eq!(admin.reload(&ssg_path.to_string_lossy()).unwrap(), 2);
    for node in 0..8u32 {
        match client.query(node, k).unwrap() {
            Reply::Ok(r) => {
                assert_eq!(r.epoch, 2);
                // Bitwise equality, f64 scores included: the wire format
                // prints shortest-round-trip floats, so any store-side
                // perturbation would show up here.
                assert_eq!(r.matches, from_text[node as usize], "node {node}");
            }
            other => panic!("store-epoch query {node}: {other:?}"),
        }
    }
    // A reload of a corrupt store is refused and keeps the epoch.
    let bad_path = dir.join(format!("store_bad_{pid}.ssg"));
    let mut bytes = std::fs::read(&ssg_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&bad_path, &bytes).unwrap();
    assert!(admin.reload(&bad_path.to_string_lossy()).is_err());
    assert_eq!(admin.ping().unwrap(), 2);
    server.shutdown();
    for p in [&text_path, &ssg_path, &bad_path] {
        std::fs::remove_file(p).ok();
    }
}

/// Tracing acceptance: a server sampling every request
/// (`trace_sample: 1`) answers bit-identically to an untraced server,
/// every sampled reply carries its trace id, and every recorded trace
/// satisfies the analyzer's invariants, with the sweep's `theta-i` /
/// `lambda-i` steps nested directly under the `engine` span.
#[test]
fn traced_answers_match_untraced_bits() {
    let graph = || {
        DiGraph::from_edges(8, &[(1, 0), (2, 0), (3, 1), (4, 3), (6, 5), (7, 6), (5, 7)]).unwrap()
    };
    let plain = Server::start(graph(), "127.0.0.1", 0, ServerOptions::default()).unwrap();
    let traced = Server::start(
        graph(),
        "127.0.0.1",
        0,
        ServerOptions { trace_sample: 1, ..Default::default() },
    )
    .unwrap();
    for format in [WireFormat::Jsonl, WireFormat::Ssb] {
        let mut a = Client::builder().protocol(format).connect(plain.addr()).unwrap();
        let mut b = Client::builder().protocol(format).connect(traced.addr()).unwrap();
        for node in 0..8u32 {
            let Reply::Ok(x) = a.query(node, 5).unwrap() else { panic!("plain {node}") };
            let Reply::Ok(y) = b.query(node, 5).unwrap() else { panic!("traced {node}") };
            assert_eq!(
                x.matches, y.matches,
                "{format:?} node {node}: tracing must not move answer bits"
            );
            assert_eq!(x.trace_id, None, "untraced server must not stamp trace ids");
            assert!(y.trace_id.is_some(), "{format:?} node {node}: sampled reply carries its id");
        }
    }
    let mut admin = Client::connect(traced.addr()).unwrap();
    let dump = admin.trace_dump().unwrap();
    assert_eq!(dump.version, ssr_obs::TRACE_SCHEMA_VERSION);
    assert_eq!(dump.sample_every, 1);
    assert!(dump.traces.len() >= 16, "16 sampled queries, got {} traces", dump.traces.len());
    let mut step_spans = 0usize;
    for t in &dump.traces {
        t.validate().unwrap_or_else(|e| panic!("trace {}: {e}", t.id));
        let has = |name: &str| t.spans.iter().any(|s| s.name == name);
        for required in ["request", "decode", "cache", "encode"] {
            assert!(has(required), "trace {} missing `{required}`", t.id);
        }
        if t.attr("cached") == Some("false") {
            for required in ["queue", "engine"] {
                assert!(has(required), "uncached trace {} missing `{required}`", t.id);
            }
        }
        let engine = t.spans.iter().position(|s| s.name == "engine").map(|i| i as i64);
        let is_step = |name: &str| name.starts_with("theta-") || name.starts_with("lambda-");
        for step in t.spans.iter().filter(|s| is_step(&s.name)) {
            assert_eq!(Some(step.parent), engine, "trace {}: {} outside `engine`", t.id, step.name);
            step_spans += 1;
        }
    }
    assert!(step_spans > 0, "engine step spans must appear in the span trees");
    plain.shutdown();
    traced.shutdown();
}

/// The `trace` op means the same thing on both wires, and the sampling
/// rate is retunable at runtime through the admin `config` op — on, one
/// query, dump, and back off.
#[test]
fn trace_op_is_codec_equivalent_and_sampling_retunes_at_runtime() {
    let server = start(ServerOptions::default());
    let addr = server.addr();
    let mut json = Client::builder().protocol(WireFormat::Jsonl).connect(addr).unwrap();
    let mut ssb = Client::builder().protocol(WireFormat::Ssb).connect(addr).unwrap();

    // Sampling is off by default: no ids on replies, an empty ring.
    let Reply::Ok(r) = json.query(0, 3).unwrap() else { panic!() };
    assert_eq!(r.trace_id, None);
    let dump = json.trace_dump().unwrap();
    assert_eq!((dump.sample_every, dump.traces.len()), (0, 0));

    // Retune to 1-in-1; the config echo reports the live rate.
    let req = Request::Config {
        window_us: None,
        max_batch: None,
        cache: None,
        slow_query_us: None,
        trace_sample: Some(1),
    };
    let Response::Config { trace_sample, .. } = json.call(&req).unwrap() else {
        panic!("config echo expected")
    };
    assert_eq!(trace_sample, 1);
    let Reply::Ok(r) = ssb.query(1, 3).unwrap() else { panic!() };
    assert!(r.trace_id.is_some(), "sampling on: replies carry ids");

    // Quiesced between the two fetches, so the dumps must be identical
    // — the codec-equivalence contract extended to the trace op.
    let a = json.trace_dump().unwrap();
    let b = ssb.trace_dump().unwrap();
    assert_eq!(a.version, b.version);
    assert_eq!(a.sample_every, 1);
    assert!(!a.traces.is_empty());
    assert_eq!(a.traces, b.traces, "trace op must be semantically identical across codecs");
    for t in &a.traces {
        t.validate().unwrap();
    }

    // And off again: new replies are unstamped (the ring keeps history).
    json.config(None, None, None, None, Some(0)).unwrap();
    let Reply::Ok(r) = json.query(2, 3).unwrap() else { panic!() };
    assert_eq!(r.trace_id, None);
    server.shutdown();
}

/// The readiness probe's contract: `ping` answers with the live epoch
/// on both codecs (what `serve-probe --healthz` prints).
#[test]
fn ping_reports_epoch() {
    let server = start(ServerOptions::default());
    for format in [WireFormat::Jsonl, WireFormat::Ssb] {
        let mut client = Client::builder().protocol(format).connect(server.addr()).unwrap();
        assert_eq!(client.ping().unwrap(), 0, "{format:?}");
    }
    server.shutdown();
}

/// `--trace-out` streams one parseable JSONL document per sampled
/// request, and 1-in-N sampling is deterministic in the request
/// sequence: with `trace_sample: 2`, exactly the even-numbered request
/// ids land in the file.
#[test]
fn trace_out_streams_deterministically_sampled_jsonl() {
    let dir = std::env::temp_dir().join("ssr_serve_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("trace_out_{}.jsonl", std::process::id()));
    let server = start(ServerOptions {
        trace_sample: 2,
        trace_out: Some(path.clone()),
        ..Default::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    for node in 0..8u32 {
        assert!(matches!(client.query(node, 3).unwrap(), Reply::Ok(_)));
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let traces: Vec<_> = text
        .lines()
        .map(|l| ssr_serve::parse_trace_line(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert_eq!(traces.len(), 4, "1-in-2 sampling of 8 requests");
    for t in &traces {
        t.validate().unwrap();
        assert_eq!(t.id % 2, 0, "sampling must be a pure function of the request id");
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
}
