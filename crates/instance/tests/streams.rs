//! Seeded properties of the action streams and the sorter action:
//!
//! - an action's input stream reassembles chunks pushed in any order by
//!   their seqs;
//! - the `sorter` built-in, fed through the manager in chunks that cut
//!   records anywhere, answers the stable sort of its records by key.
//!
//! Each runs seeds 1–8; `GLIDER_REPLAY_SEED=<n> cargo test -p
//! glider-instance --test streams` runs one, and a failure names its seed
//! and case.

use bytes::Bytes;
use glider_instance::{ActionInputStream, ActionManager, ActionRegistry, Instance, Spawn};
use glider_proto::types::{ActionSpec, NodeId, StreamDir};
use glider_sim::{seeds, Lcg};
use glider_trace::SpanContext;
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Context, Poll, Waker};

/// Cases per seed.
const CASES: usize = 8;

/// Polls `future` once; the stream calls here never wait.
fn ready<F: Future>(future: F, at: &str) -> F::Output {
    match pin!(future).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("{at}: the call waited"),
    }
}

/// `n` indices in a seeded order (Fisher–Yates).
fn shuffled(rng: &mut Lcg, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

#[test]
fn input_stream_reassembles_any_permutation() {
    for seed in seeds(1..=8) {
        let mut rng = Lcg(seed);
        for case in 0..CASES {
            let chunks: Vec<Vec<u8>> = (0..rng.range(1, 16))
                .map(|_| {
                    let len = rng.range(0, 32);
                    (0..len).map(|_| rng.byte()).collect()
                })
                .collect();
            let order = shuffled(&mut rng, chunks.len());
            let at = format!("seed {seed} case {case}: order {order:?}");
            let (mut input, pusher) = ActionInputStream::new(64);
            for &i in &order {
                let push = pusher.push(i as u64, Bytes::from(chunks[i].clone()));
                ready(push, &at).unwrap_or_else(|e| panic!("{at}: push {i}: {e:?}"));
            }
            pusher.finish();
            let got = ready(input.read_all(), &at).unwrap_or_else(|e| panic!("{at}: {e:?}"));
            assert_eq!(got, chunks.concat(), "{at}");
        }
    }
}

/// A manager whose spawned instances one thread polls between the polls
/// of the call it runs.
struct Host {
    m: ActionManager,
    spawned: Arc<Mutex<Vec<Instance>>>,
}

impl Host {
    fn new() -> Host {
        let spawned: Arc<Mutex<Vec<Instance>>> = Arc::default();
        let queue = Arc::clone(&spawned);
        let spawn: Spawn = Arc::new(move |instance| {
            queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(instance);
        });
        let registry = Arc::new(ActionRegistry::with_builtins());
        Host {
            m: ActionManager::new(registry, 2, None, None, spawn),
            spawned,
        }
    }

    /// Runs `future` to completion, polling every instance between its
    /// polls.
    fn run<F: Future>(&self, future: F, at: &str) -> F::Output {
        let mut future = pin!(future);
        let cx = &mut Context::from_waker(Waker::noop());
        for _ in 0..1000 {
            if let Poll::Ready(out) = future.as_mut().poll(cx) {
                return out;
            }
            let mut spawned = self.spawned.lock().unwrap_or_else(PoisonError::into_inner);
            spawned.retain_mut(|instance| Pin::new(instance).poll(cx).is_pending());
        }
        panic!("{at}: the call never completed");
    }
}

#[test]
fn sorter_action_agrees_with_std_sort() {
    for seed in seeds(1..=8) {
        let mut rng = Lcg(seed);
        for case in 0..CASES {
            let record = rng.range(1, 9) as usize;
            let key = rng.range(1, record as u64 + 1) as usize;
            // Bytes from a four-letter alphabet half the time, so keys
            // tie and the sort's stability shows.
            let alphabet = if rng.below(2) == 0 { 4 } else { 256 };
            let records: Vec<Vec<u8>> = (0..rng.range(0, 40))
                .map(|_| (0..record).map(|_| rng.range(0, alphabet) as u8).collect())
                .collect();
            let chunking = rng.range(1, 13) as usize;
            let at = format!(
                "seed {seed} case {case}: {} records of {record} bytes, key {key}, chunks of {chunking}",
                records.len()
            );

            let h = Host::new();
            let spec =
                ActionSpec::new("sorter", false).with_params(format!("record={record};key={key}"));
            h.run(h.m.create_action(NodeId(1), spec), &at)
                .unwrap_or_else(|e| panic!("{at}: create: {e:?}"));
            let open = |dir| {
                h.run(h.m.open_stream(SpanContext::NONE, NodeId(1), dir), &at)
                    .unwrap_or_else(|e| panic!("{at}: open: {e:?}"))
            };
            let sid = open(StreamDir::Write);
            for (i, chunk) in records.concat().chunks(chunking).enumerate() {
                h.run(
                    h.m.push_chunk(sid, i as u64, Bytes::copy_from_slice(chunk)),
                    &at,
                )
                .unwrap_or_else(|e| panic!("{at}: push {i}: {e:?}"));
            }
            h.run(h.m.close_stream(sid), &at)
                .unwrap_or_else(|e| panic!("{at}: close: {e:?}"));

            let rid = open(StreamDir::Read);
            let mut got = Vec::new();
            loop {
                let (_seq, bytes, eof) = h
                    .run(h.m.fetch(rid, 1 << 20), &at)
                    .unwrap_or_else(|e| panic!("{at}: fetch: {e:?}"));
                got.extend_from_slice(&bytes);
                if eof {
                    break;
                }
            }
            h.run(h.m.close_stream(rid), &at)
                .unwrap_or_else(|e| panic!("{at}: close: {e:?}"));

            let mut expected = records.clone();
            expected.sort_by(|a, b| a[..key].cmp(&b[..key]));
            assert_eq!(got, expected.concat(), "{at}");
        }
    }
}
