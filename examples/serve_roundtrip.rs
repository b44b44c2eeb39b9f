//! Serve round trip: start a query server in-process, talk both wire
//! formats to it (newline-JSON and binary `ssb/1`), swap the graph
//! mid-session, and read the metrics.
//!
//! Run with `cargo run --release --example serve_roundtrip`.

use simrank_star_repro::ssr_gen::fixtures::figure1_graph;
use simrank_star_repro::ssr_serve::client::{Client, Reply};
use simrank_star_repro::ssr_serve::codec::WireFormat;
use simrank_star_repro::ssr_serve::server::{Server, ServerOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Serve the paper's Figure 1 graph on an ephemeral loopback port.
    let server = Server::start(figure1_graph(), "127.0.0.1", 0, ServerOptions::default())
        .expect("bind an ephemeral port");
    println!("server listening on {}", server.addr());

    let mut client = Client::connect(server.addr())?;

    // 2. A top-k query; the response carries the epoch that computed it.
    let Reply::Ok(first) = client.query(8, 3)? else { panic!("query failed") };
    println!("\nepoch {}: top-3 for node 8 (computed):", first.epoch);
    for (v, s) in first.matches.iter() {
        println!("  node {v:>2}  score {s:.6}");
    }

    // 3. The same query again is a cache hit — same bits, no recompute.
    let Reply::Ok(again) = client.query(8, 3)? else { panic!("query failed") };
    assert!(again.cached && again.matches == first.matches);
    println!("repeat was served from the cache (bit-identical)");

    // 4. The binary codec returns the same answer, bit for bit — scores
    //    travel as raw IEEE-754 bits instead of decimal text.
    let mut binary =
        Client::builder().protocol(WireFormat::Ssb).pipeline(4).connect(server.addr())?;
    let Reply::Ok(via_ssb) = binary.query(8, 3)? else { panic!("ssb query failed") };
    assert_eq!(via_ssb.matches, first.matches);
    println!("ssb/1 answer is bit-identical to the JSON answer");

    // 5. An edge delta, sent over ssb/1 (admin ops travel as their JSON
    //    document inside one binary frame), publishes a new epoch; the JSON
    //    client's next query sees the new graph, and its epoch says so.
    let epoch = binary.edge_delta(&[(8, 4), (4, 8)], &[])?;
    let Reply::Ok(fresh) = client.query(8, 3)? else { panic!("query failed") };
    println!("\nafter edge-delta: epoch {epoch}, top-3 for node 8:");
    for (v, s) in fresh.matches.iter() {
        println!("  node {v:>2}  score {s:.6}");
    }
    assert_eq!(fresh.epoch, epoch);

    // 6. The stats op surfaces cache / batcher / epoch metrics, typed.
    let stats = client.stats()?;
    println!(
        "\nstats: epoch_swaps={}, cache hits={} misses={} entries={}",
        stats.epoch_swaps, stats.cache.hits, stats.cache.misses, stats.cache.entries,
    );

    client.shutdown()?;
    server.shutdown();
    println!("server stopped");
    Ok(())
}
