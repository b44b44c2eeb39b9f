//! Property tests of the serving pipeline's core guarantee: for the same
//! `(epoch, node, params)`, the bits of a response do not depend on *how*
//! it was produced — computed solo (batch window disabled), coalesced into
//! a micro-batch with arbitrary neighbors, served from the result cache,
//! or recomputed by an independent engine instance.

use proptest::prelude::*;
use simrank_star::{QueryEngine, QueryEngineOptions, SimStarParams};
use ssr_graph::{DiGraph, NodeId};
use ssr_serve::batcher::{Batcher, BatcherOptions, CompletionSink, SubmitError};
use ssr_serve::cache::ShardedCache;
use ssr_serve::epoch::EpochStore;
use ssr_serve::QueryAnswer;
use std::sync::{mpsc, Arc};

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m)
            .prop_map(move |edges| (n, edges))
    })
}

/// Delivers a queued job's outcome over a channel.
struct ChannelSink(mpsc::Sender<Result<QueryAnswer, SubmitError>>);

impl CompletionSink for ChannelSink {
    fn complete(&self, _tag: u64, result: Result<QueryAnswer, SubmitError>) {
        let _ = self.0.send(result);
    }
}

/// Submits one query and blocks for its answer: a cache hit inline, a
/// queued job through a channel-backed sink.
fn serve(b: &Batcher, node: NodeId, k: usize) -> Result<QueryAnswer, SubmitError> {
    let (tx, rx) = mpsc::channel();
    let sink: Arc<dyn CompletionSink> = Arc::new(ChannelSink(tx));
    if let Some(hit) = b.submit(node, k, false, &sink, 0)? {
        return Ok(hit);
    }
    drop(sink);
    rx.recv().expect("job dropped without a reply")
}

fn pipeline(
    g: &DiGraph,
    params: SimStarParams,
    opts: BatcherOptions,
) -> (Arc<EpochStore>, Arc<ShardedCache>, Batcher) {
    let store = Arc::new(EpochStore::new(g.clone(), params, QueryEngineOptions::default()));
    let cache = Arc::new(ShardedCache::new(256, 4));
    let batcher = Batcher::start(store.clone(), cache.clone(), opts);
    (store, cache, batcher)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Solo (window 0) vs cached vs micro-batched (concurrent submits
    /// under a wide window) responses are bit-identical, and match an
    /// independently built engine.
    #[test]
    fn cached_uncached_and_batched_bits_agree((n, edges) in arb_graph(12, 40)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let params = SimStarParams { c: 0.7, iterations: 6 };
        let k = 5;

        // Reference: a fresh engine, one query per sweep.
        let reference = QueryEngine::new(&g, params);

        // Serial pipeline: every flush is a batch of one.
        let (_, _, serial) = pipeline(&g, params, BatcherOptions {
            window_us: 0,
            ..Default::default()
        });
        let uncached: Vec<_> = (0..n as NodeId)
            .map(|q| serve(&serial, q, k).unwrap())
            .collect();
        let cached: Vec<_> = (0..n as NodeId)
            .map(|q| serve(&serial, q, k).unwrap())
            .collect();

        // Micro-batched pipeline: all queries submitted concurrently and
        // coalesced by a wide window (batch composition is whatever the
        // scheduler produced — the point of the property).
        let (_, _, wide) = pipeline(&g, params, BatcherOptions {
            window_us: 30_000,
            max_batch: 16,
            ..Default::default()
        });
        let batched: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n as NodeId)
                .map(|q| {
                    let wide = &wide;
                    scope.spawn(move || serve(wide, q, k).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for q in 0..n {
            let expect = reference.top_k(q as NodeId, k);
            prop_assert!(!uncached[q].cached);
            prop_assert!(cached[q].cached, "second pass must hit the cache");
            // Bitwise equality: (node, score) pairs compare f64 bits via ==
            // because every score is finite and reproduced exactly.
            prop_assert_eq!(&*uncached[q].matches, &expect, "solo vs reference, q={}", q);
            prop_assert_eq!(&*cached[q].matches, &expect, "cached vs reference, q={}", q);
            prop_assert_eq!(&*batched[q].matches, &expect, "batched vs reference, q={}", q);
            prop_assert_eq!(uncached[q].epoch, 0u64);
        }
    }

    /// Mixed `k` requests coalesced together stay prefix-consistent with
    /// solo requests of the same `k`.
    #[test]
    fn mixed_k_batches_match_solo_bits((n, edges) in arb_graph(10, 30)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let params = SimStarParams::default();
        let (store, _, wide) = pipeline(&g, params, BatcherOptions {
            window_us: 30_000,
            max_batch: 16,
            ..Default::default()
        });
        let engine = store.current().engine().clone();
        let ks = [1usize, 3, 7];
        let answers: Vec<(NodeId, usize, QueryAnswer)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n as NodeId)
                    .flat_map(|q| ks.iter().map(move |&k| (q, k)))
                    .map(|(q, k)| {
                        let wide = &wide;
                        scope.spawn(move || (q, k, serve(wide, q, k).unwrap()))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        for (q, k, answer) in answers {
            prop_assert_eq!(&*answer.matches, &engine.top_k(q, k), "q={}, k={}", q, k);
        }
    }
}
