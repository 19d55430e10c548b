//! The paper's §5 action manager, checked by running it: a seeded,
//! one-thread history drives the real `ActionManager` over a few nodes
//! and `slots` ≥ 1, with the built-in actions, through real `Instance`s.
//!
//! The manager's spawn function feeds a one-thread poller. Every task —
//! each instance and each call the history makes — has a waker that
//! records its wake-ups, and a pending task is polled again only after
//! its waker fired. When no task is woken, every pending task is polled
//! once more: one that then completes, or wakes anything, had lost a
//! wake-up, and the history fails naming its seed and step.
//!
//! The seed chooses interleavings of: create (counter, merge, sorter,
//! filter or cache; serial or interleaved; now and then an unknown type
//! or bad params) and delete, including a delete whose caller drops it
//! midway; opening write and read streams; `push_chunk`,
//! `push_chunk_batch`, and chunks and batches through the fast path,
//! `try_serve` (some batches malformed), in any seq order, with writers
//! cutting chunks mid-line and mid-record; `fetch` and fetches through
//! `try_serve`, with up to two fetchers waiting on one read stream;
//! `close_stream`, and `abort_streams_of`. Checked at every step:
//!
//! - no node ever has two instances that have not stopped, and at most
//!   `slots` instances have not stopped;
//! - a create is refused while the node's previous instance has not
//!   stopped, and accepted after (the model computes every create's,
//!   delete's and open's answer from the instances still running);
//! - every call completes exactly once, with the model's result or error
//!   code (a stranded method — queued behind a delete — answers `Closed`);
//! - per read stream, seqs are dense from 0, each chunk arrives once, and
//!   the end-of-stream seq equals the chunk count;
//! - a push is one queue entry: a fast push grows the stream's queue by
//!   exactly one entry, or leaves it unchanged and is handed back, so a
//!   batch is queued whole, its successor cannot overtake its tail, and
//!   no record is lost or delivered twice;
//! - read outputs equal their oracles: the counter's byte total; merge's
//!   `str::parse` + `HashMap` fold over closed streams; the sorter's
//!   stable sort of whole records; filter's lines that contain the
//!   pattern; the cache's hits in request order;
//! - `Signal::Queue`, `Signal::ActionInstances` and the storage gauge
//!   are 0 whenever no instance is running.
//!
//! In interleaved mode a method's effect depends on when it runs, so the
//! model opens a read only once every earlier write's input has ended,
//! and a cache write only while no other write's input is open: then
//! every effect lands in mailbox order, as it does in serial mode.
//!
//! Run one history with `GLIDER_REPLAY_SEED=<n> cargo test -p
//! glider-instance --test manager`.

use bytes::Bytes;
use glider_instance::{ActionManager, ActionRegistry, Instance, MemStore, Spawn};
use glider_metrics::{MetricsRegistry, Signal};
use glider_proto::batch::RecordBatchBuilder;
use glider_proto::message::{RequestBody, ResponseBody};
use glider_proto::types::{ActionSpec, NodeId, StreamDir, StreamId};
use glider_proto::{ErrorCode, GliderResult};
use glider_sim::{seeds, Lcg, TaskWaker, Wakes};
use glider_trace::SpanContext;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, PoisonError};
use std::task::Poll;

/// Steps one history takes before it runs everything out.
const STEPS: usize = 3000;

/// Nodes the history addresses.
const NODES: u64 = 4;

/// The manager's write-stream queue depth, in push requests.
const INPUT_QUEUE: usize = 64;

/// Files the filter reads: two present, one missing, one failing.
const FILES: [&str; 4] = ["/f0", "/f1", "/missing", "/failing"];

/// Filter patterns; the empty one keeps every line.
const PATTERNS: [&str; 3] = ["ab", "", "zz"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Merge,
    Sorter { record: usize, key: usize },
    Filter { src: usize, pattern: usize },
    Cache { capacity: usize },
}

/// One instance's lifetime in the model.
struct Gen {
    node: u64,
    kind: Kind,
    interleaved: bool,
    /// Stream indices in mailbox order.
    units: Vec<usize>,
    /// How many units were queued ahead of the delete: the rest are
    /// stranded.
    delete_at: Option<usize>,
    stopped: bool,
    /// A sorter unit lost a piece to an abort: its records are torn, so
    /// later outputs of this lifetime have no oracle.
    torn: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Piece {
    Free,
    /// Held by an async push.
    Sending,
    Queued,
}

struct Write {
    gen: usize,
    sid: StreamId,
    /// The payload, by seq; chunks cut it mid-line and mid-record.
    pieces: Vec<Vec<u8>>,
    state: Vec<Piece>,
    /// The stream is still in the manager's table.
    entry: bool,
    /// Async pushes not yet completed.
    sending: usize,
}

impl Write {
    fn input_ended(&self) -> bool {
        !self.entry && self.sending == 0
    }

    /// What the method consumes: every queued piece, in seq order.
    fn consumed(&self) -> Vec<u8> {
        self.pieces
            .iter()
            .zip(&self.state)
            .filter(|(_, s)| **s == Piece::Queued)
            .flat_map(|(p, _)| p.iter().copied())
            .collect()
    }

    fn whole(&self) -> bool {
        self.state.iter().all(|s| *s == Piece::Queued)
    }
}

struct Read {
    gen: usize,
    sid: StreamId,
    entry: bool,
    got: Vec<u8>,
    chunks: u64,
    end: Option<Result<u64, ErrorCode>>,
    fetchers: usize,
}

enum Stream {
    Write(Write),
    Read(Read),
}

impl Stream {
    fn gen(&self) -> usize {
        match self {
            Stream::Write(w) => w.gen,
            Stream::Read(r) => r.gen,
        }
    }

    fn sid(&self) -> StreamId {
        match self {
            Stream::Write(w) => w.sid,
            Stream::Read(r) => r.sid,
        }
    }

    fn entry(&self) -> bool {
        match self {
            Stream::Write(w) => w.entry,
            Stream::Read(r) => r.entry,
        }
    }
}

type Fetched = GliderResult<(u64, Bytes, bool)>;

enum Out {
    Unit(GliderResult<()>),
    Fetch(Fetched),
}

enum What {
    Create {
        node: u64,
        expect: Option<ErrorCode>,
    },
    Delete {
        expect: Option<ErrorCode>,
    },
    /// `expect` is an error the call meets before any queue.
    Push {
        stream: usize,
        pieces: Vec<usize>,
        expect: Option<ErrorCode>,
    },
    Close {
        stream: usize,
        expect: Option<ErrorCode>,
    },
    Fetch {
        stream: usize,
        expect: Option<ErrorCode>,
    },
}

struct Call {
    what: What,
    future: Pin<Box<dyn Future<Output = Out>>>,
    wake: TaskWaker,
}

struct Running {
    gen: usize,
    instance: Instance,
    wake: TaskWaker,
}

struct History {
    seed: u64,
    step: usize,
    rng: Lcg,
    slots: usize,
    m: Arc<ActionManager>,
    spawned: Arc<Mutex<Vec<Instance>>>,
    store: MemStore,
    metrics: Arc<MetricsRegistry>,
    wakes: Wakes,
    running: Vec<Running>,
    calls: Vec<Call>,
    gens: Vec<Gen>,
    streams: Vec<Stream>,
    /// Seen: creates refused for a running node, batches refused whole,
    /// fetches that shared a stream, cancelled deletes, outputs checked
    /// against an oracle.
    refused_running: usize,
    refused_batches: usize,
    shared_fetches: usize,
    cancelled: usize,
    oracles: usize,
}

fn code<T>(result: &GliderResult<T>) -> Option<ErrorCode> {
    result.as_ref().err().map(|e| e.code())
}

fn fetch_body(stream_id: StreamId) -> RequestBody {
    RequestBody::StreamFetch {
        stream_id,
        max_len: 1 << 20,
    }
}

fn chunk_body(stream_id: StreamId) -> RequestBody {
    RequestBody::StreamChunk {
        stream_id,
        seq: 0,
        data: Bytes::from_static(b"x"),
    }
}

/// A fetch's answer as `fetch` gives it.
fn fetched(answer: GliderResult<ResponseBody>) -> Fetched {
    answer.map(|body| match body {
        ResponseBody::Data { seq, bytes, eof } => (seq, bytes, eof),
        other => panic!("a fetch answered {other:?}"),
    })
}

impl History {
    fn new(seed: u64) -> Self {
        let mut rng = Lcg(seed);
        let slots = 1 + (seed % 3) as usize;
        let spawned: Arc<Mutex<Vec<Instance>>> = Arc::default();
        let queue = Arc::clone(&spawned);
        let spawn: Spawn = Arc::new(move |instance| {
            queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(instance);
        });
        let store = MemStore::new(1 + (rng.next() % 6) as usize);
        store.put("/f0", Bytes::from_static(b"ab cd\nxx\nzab\n\nlast ab"));
        store.put("/f1", Bytes::from_static(b"no match here\nzz top\nab"));
        store.fail("/failing", ErrorCode::Closed);
        let metrics = MetricsRegistry::new();
        let m = ActionManager::new(
            Arc::new(ActionRegistry::with_builtins()),
            slots,
            Some(Arc::new(store.clone())),
            Some(Arc::clone(&metrics)),
            spawn,
        );
        History {
            seed,
            step: 0,
            rng,
            slots,
            m: Arc::new(m),
            spawned,
            store,
            metrics,
            wakes: Wakes::default(),
            running: Vec::new(),
            calls: Vec::new(),
            gens: Vec::new(),
            streams: Vec::new(),
            refused_running: 0,
            refused_batches: 0,
            shared_fetches: 0,
            cancelled: 0,
            oracles: 0,
        }
    }

    fn at(&self) -> String {
        format!("seed {} step {}", self.seed, self.step)
    }

    fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        self.rng.below(bound)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.rng.next() % 100 < percent
    }

    fn pick(&mut self, from: &[usize]) -> Option<usize> {
        (!from.is_empty()).then(|| from[self.below(from.len())])
    }

    /// The lifetime of `node` whose instance has not stopped.
    fn running_gen(&self, node: u64) -> Option<usize> {
        self.gens.iter().rposition(|g| g.node == node && !g.stopped)
    }

    /// The lifetime of `node` that still takes opens and deletes.
    fn addressable(&self, node: u64) -> Option<usize> {
        self.running_gen(node)
            .filter(|&g| self.gens[g].delete_at.is_none())
    }

    fn stranded(&self, stream: usize) -> bool {
        let gen = &self.gens[self.streams[stream].gen()];
        let position = gen.units.iter().position(|&s| s == stream);
        matches!((gen.delete_at, position), (Some(d), Some(p)) if p >= d)
    }

    // ----- the one-thread poller -------------------------------------

    /// Moves what the spawn function was handed onto the poller.
    fn adopt(&mut self, gen: Option<usize>) {
        let spawned =
            std::mem::take(&mut *self.spawned.lock().unwrap_or_else(PoisonError::into_inner));
        let at = self.at();
        match (gen, spawned.len()) {
            (None, 0) => {}
            (Some(gen), 1) => {
                let instance = spawned.into_iter().next().unwrap();
                assert_eq!(instance.node_id(), NodeId(self.gens[gen].node), "{at}");
                let wake = self.wakes.task();
                self.running.push(Running {
                    gen,
                    instance,
                    wake,
                });
            }
            (want, n) => panic!(
                "{at}: a create spawned {n} instances where the model expected {}",
                if want.is_some() {
                    "one"
                } else {
                    "none: its node or every slot is held by a running instance"
                }
            ),
        }
    }

    /// Polls instance `at` once; an instance that stops leaves the poller.
    fn poll_instance(&mut self, at: usize) -> bool {
        let running = &mut self.running[at];
        let poll = running
            .wake
            .poll(|cx| Pin::new(&mut running.instance).poll(cx));
        if poll.is_pending() {
            return false;
        }
        let gen = self.running.remove(at).gen;
        self.gens[gen].stopped = true;
        true
    }

    /// Polls call `at` once; a completed call is checked and leaves.
    fn poll_call(&mut self, at: usize) -> bool {
        let call = &mut self.calls[at];
        let Poll::Ready(out) = call.wake.poll(|cx| call.future.as_mut().poll(cx)) else {
            return false;
        };
        let call = self.calls.remove(at);
        self.completed(call.what, out);
        true
    }

    /// Issues a call: polls it once now, keeps it if it waits.
    fn issue(&mut self, what: What, future: Pin<Box<dyn Future<Output = Out>>>) {
        self.calls.push(Call {
            what,
            future,
            wake: self.wakes.task(),
        });
        self.poll_call(self.calls.len() - 1);
    }

    /// Polls one woken task; false when none is woken.
    fn poll_woken(&mut self) -> bool {
        let instances: Vec<usize> = (0..self.running.len())
            .filter(|&i| self.running[i].wake.fired())
            .collect();
        let calls: Vec<usize> = (0..self.calls.len())
            .filter(|&i| self.calls[i].wake.fired())
            .collect();
        if instances.is_empty() && calls.is_empty() {
            return false;
        }
        let chosen = self.below(instances.len() + calls.len());
        match instances.get(chosen) {
            Some(&at) => {
                self.poll_instance(at);
            }
            None => {
                self.poll_call(calls[chosen - instances.len()]);
            }
        }
        true
    }

    /// With nothing woken, every pending task must still be stuck: one
    /// that completes or wakes anything when polled had lost a wake-up.
    fn no_lost_wakeups(&mut self) {
        let at = self.at();
        for i in 0..self.running.len() {
            let before = self.wakes.count();
            let gen = self.running[i].gen;
            let stopped = self.poll_instance(i);
            let woke = self.wakes.count() != before;
            assert!(
                !stopped && !woke,
                "{at}: lost wake-up: the instance of node {} made progress unwoken",
                self.gens[gen].node
            );
        }
        for i in 0..self.calls.len() {
            let before = self.wakes.count();
            let call = &mut self.calls[i];
            let poll = call.wake.poll(|cx| call.future.as_mut().poll(cx));
            let woke = self.wakes.count() != before;
            assert!(
                poll.is_pending() && !woke,
                "{at}: lost wake-up: call {} made progress unwoken",
                self.describe(&self.calls[i].what)
            );
        }
    }

    fn describe(&self, what: &What) -> String {
        match what {
            What::Create { node, .. } => format!("create of node {node}"),
            What::Delete { .. } => "delete".to_string(),
            What::Push { stream, .. } => format!("push on {}", self.streams[*stream].sid()),
            What::Close { stream, .. } => format!("close of {}", self.streams[*stream].sid()),
            What::Fetch { stream, .. } => format!("fetch on {}", self.streams[*stream].sid()),
        }
    }

    /// Polls woken tasks until none is woken, then checks none was lost.
    fn quiesce(&mut self) {
        let mut polls = 0;
        while self.poll_woken() {
            polls += 1;
            assert!(polls < 100_000, "{}: the tasks never settle", self.at());
            self.check();
        }
        self.no_lost_wakeups();
    }

    // ----- calls and their answers -----------------------------------

    fn completed(&mut self, what: What, out: Out) {
        let at = self.at();
        match (what, out) {
            (What::Create { node, expect }, Out::Unit(result)) => {
                assert_eq!(
                    code(&result),
                    expect,
                    "{at}: create of node {node}: {result:?}"
                );
            }
            (What::Delete { expect }, Out::Unit(result)) => {
                assert_eq!(code(&result), expect, "{at}: delete: {result:?}");
            }
            (
                What::Push {
                    stream,
                    pieces,
                    expect,
                },
                Out::Unit(result),
            ) => {
                let want = expect.or_else(|| self.closed_under(stream));
                assert_eq!(code(&result), want, "{at}: push of {pieces:?}: {result:?}");
                if let Stream::Write(w) = &mut self.streams[stream] {
                    if expect.is_none() {
                        w.sending -= 1;
                        let state = if result.is_ok() {
                            Piece::Queued
                        } else {
                            Piece::Free
                        };
                        for p in pieces {
                            w.state[p] = state;
                        }
                    }
                }
            }
            (What::Close { stream, expect }, Out::Unit(result)) => {
                let want = expect.or_else(|| {
                    let write = matches!(self.streams[stream], Stream::Write(_));
                    (write && self.stranded(stream)).then_some(ErrorCode::Closed)
                });
                assert_eq!(code(&result), want, "{at}: close: {result:?}");
            }
            (What::Fetch { stream, expect }, Out::Fetch(result)) => {
                if let Stream::Read(r) = &mut self.streams[stream] {
                    if expect.is_none() {
                        r.fetchers -= 1;
                    }
                }
                match expect {
                    Some(want) => assert_eq!(code(&result), Some(want), "{at}: fetch"),
                    None => self.fetched(stream, result),
                }
            }
            _ => panic!("{at}: a call answered with the wrong shape"),
        }
    }

    /// A push meets `Closed` once its write is stranded and the instance
    /// has stopped (the stranded input dropped with the mailbox).
    fn closed_under(&self, stream: usize) -> Option<ErrorCode> {
        let stopped = self.gens[self.streams[stream].gen()].stopped;
        (self.stranded(stream) && stopped).then_some(ErrorCode::Closed)
    }

    /// One fetch's answer, fast path or async.
    fn fetched(&mut self, stream: usize, result: Fetched) {
        let at = self.at();
        let expected = self.read_result(stream);
        let Stream::Read(r) = &mut self.streams[stream] else {
            unreachable!("fetches go to read streams")
        };
        match result {
            Ok((seq, bytes, false)) => {
                assert!(r.end.is_none(), "{at}: data after the end of {}", r.sid);
                assert_eq!(seq, r.chunks, "{at}: seqs of {} not dense", r.sid);
                r.chunks += 1;
                r.got.extend_from_slice(&bytes);
            }
            Ok((seq, _, true)) => {
                assert_eq!(
                    seq, r.chunks,
                    "{at}: end seq of {} is not its chunk count",
                    r.sid
                );
                if r.end.is_none() {
                    let got = String::from_utf8_lossy(&r.got).into_owned();
                    match expected {
                        Some(Ok(want)) => {
                            let want = String::from_utf8_lossy(&want).into_owned();
                            assert_eq!(got, want, "{at}: output of {}", r.sid);
                            self.oracles += 1;
                        }
                        Some(Err(code)) => {
                            panic!("{at}: {} ended cleanly, the model {code:?}", r.sid)
                        }
                        None => {}
                    }
                }
                r.end = Some(Ok(seq));
            }
            Err(e) => {
                match r.end {
                    Some(end) => assert_eq!(end, Err(e.code()), "{at}: {} ended twice", r.sid),
                    None => {
                        assert!(r.got.is_empty(), "{at}: {} failed after data", r.sid);
                        if let Some(want) = expected {
                            assert_eq!(Err(e.code()), want.map(|_| ()), "{at}: {}", r.sid);
                            self.oracles += 1;
                        }
                    }
                }
                r.end = Some(Err(e.code()));
            }
        }
    }

    // ----- the oracles -------------------------------------------------

    /// What read `stream` must answer: its bytes, or its error code;
    /// `None` where the model has no oracle (a torn sorter).
    fn read_result(&self, stream: usize) -> Option<Result<Vec<u8>, ErrorCode>> {
        if self.stranded(stream) {
            return Some(Err(ErrorCode::Closed));
        }
        let gen = &self.gens[self.streams[stream].gen()];
        let ahead = &gen.units[..gen.units.iter().position(|&s| s == stream)?];
        let writes = || {
            ahead.iter().filter_map(|&s| match &self.streams[s] {
                Stream::Write(w) => Some(w),
                Stream::Read(_) => None,
            })
        };
        Some(Ok(match gen.kind {
            Kind::Counter => {
                let total: usize = writes().map(|w| w.consumed().len()).sum();
                total.to_string().into_bytes()
            }
            Kind::Merge => merge_oracle(writes().map(Write::consumed)),
            Kind::Sorter { record, key } => {
                if gen.torn {
                    return None;
                }
                // Each read takes the buffer: only writes since the last.
                let since = ahead
                    .iter()
                    .rposition(|&s| matches!(self.streams[s], Stream::Read(_)))
                    .map_or(0, |p| p + 1);
                let mut records: Vec<Vec<u8>> = ahead[since..]
                    .iter()
                    .filter_map(|&s| match &self.streams[s] {
                        Stream::Write(w) => Some(w.consumed()),
                        Stream::Read(_) => None,
                    })
                    .flat_map(|bytes| bytes.chunks(record).map(<[u8]>::to_vec).collect::<Vec<_>>())
                    .collect();
                records.sort_by(|a, b| a[..key].cmp(&b[..key]));
                records.concat()
            }
            Kind::Filter { src, pattern } => {
                let Some(file) = self.store.get(FILES[src]) else {
                    let code = if FILES[src] == "/failing" {
                        ErrorCode::Closed
                    } else {
                        ErrorCode::NotFound
                    };
                    return Some(Err(code));
                };
                let text = String::from_utf8_lossy(&file).into_owned();
                let mut lines: Vec<&str> = text.split('\n').collect();
                if text.ends_with('\n') {
                    lines.pop();
                }
                lines
                    .into_iter()
                    .filter(|l| l.contains(PATTERNS[pattern]))
                    .flat_map(|l| format!("{l}\n").into_bytes())
                    .collect()
            }
            Kind::Cache { capacity } => {
                let mut cache = CacheModel::default();
                for &s in ahead {
                    match &self.streams[s] {
                        Stream::Write(w) => cache.write(&w.consumed(), capacity),
                        Stream::Read(_) => drop(cache.read()),
                    }
                }
                cache.read()
            }
        }))
    }

    // ----- external actions --------------------------------------------

    fn create(&mut self) {
        let node = 1 + self.below(NODES as usize) as u64;
        let interleaved = self.chance(50);
        let (spec, kind) = match self.below(22) {
            0 => (ActionSpec::new("no-such-type", interleaved), None),
            1 => (
                ActionSpec::new("sorter", interleaved).with_params("record=2;key=5"),
                None,
            ),
            2..=5 => (ActionSpec::new("counter", interleaved), Some(Kind::Counter)),
            6..=9 => (ActionSpec::new("merge", interleaved), Some(Kind::Merge)),
            10..=13 => {
                let record = 2 + self.below(4);
                let key = 1 + self.below(record);
                let spec = ActionSpec::new("sorter", interleaved)
                    .with_params(format!("record={record};key={key}"));
                (spec, Some(Kind::Sorter { record, key }))
            }
            14..=17 => {
                let (src, pattern) = (self.below(FILES.len()), self.below(PATTERNS.len()));
                let spec = ActionSpec::new("filter", interleaved)
                    .with_params(format!("src={};pattern={}", FILES[src], PATTERNS[pattern]));
                (spec, Some(Kind::Filter { src, pattern }))
            }
            _ => {
                let capacity = 1 + self.below(3);
                let spec = ActionSpec::new("cache", interleaved)
                    .with_params(format!("capacity={capacity}"));
                (spec, Some(Kind::Cache { capacity }))
            }
        };
        let running = self.gens.iter().filter(|g| !g.stopped).count();
        let expect = match kind {
            None if spec.type_name == "no-such-type" => Some(ErrorCode::UnknownActionType),
            None => Some(ErrorCode::InvalidArgument),
            Some(_) if self.running_gen(node).is_some() => Some(ErrorCode::AlreadyExists),
            Some(_) if running >= self.slots => Some(ErrorCode::OutOfCapacity),
            Some(_) => None,
        };
        if expect == Some(ErrorCode::AlreadyExists) {
            self.refused_running += 1;
        }
        let gen = match (kind, expect) {
            (Some(kind), None) => {
                self.gens.push(Gen {
                    node,
                    kind,
                    interleaved,
                    units: Vec::new(),
                    delete_at: None,
                    stopped: false,
                    torn: false,
                });
                Some(self.gens.len() - 1)
            }
            _ => None,
        };
        let m = Arc::clone(&self.m);
        let future = Box::pin(async move { Out::Unit(m.create_action(NodeId(node), spec).await) });
        self.calls.push(Call {
            what: What::Create { node, expect },
            future,
            wake: self.wakes.task(),
        });
        let at = self.calls.len() - 1;
        // The table decides at the first poll, which spawns the instance.
        let done = self.poll_call(at);
        self.adopt(gen);
        if done {
            assert!(
                gen.is_none(),
                "{}: an accepted create answered at once",
                self.at()
            );
        }
    }

    fn delete(&mut self, cancel: bool) {
        let node = 1 + self.below(NODES as usize) as u64;
        let gen = self.addressable(node);
        let expect = match gen {
            None => Some(ErrorCode::NotFound),
            Some(g) => {
                self.gens[g].delete_at = Some(self.gens[g].units.len());
                None
            }
        };
        let m = Arc::clone(&self.m);
        let mut future: Pin<Box<dyn Future<Output = Out>>> =
            Box::pin(
                async move { Out::Unit(m.delete_action(SpanContext::NONE, NodeId(node)).await) },
            );
        if cancel && gen.is_some() {
            // The caller goes away after the first poll queued the
            // delete; the instance still stops and frees the slot.
            let wake = self.wakes.task();
            assert!(wake.poll(|cx| future.as_mut().poll(cx)).is_pending());
            drop(future);
            self.cancelled += 1;
            return;
        }
        self.issue(What::Delete { expect }, future);
    }

    fn open(&mut self, dir: StreamDir) {
        let node = 1 + self.below(NODES as usize) as u64;
        let gen = self.addressable(node);
        if let Some(g) = gen {
            let gen = &self.gens[g];
            let writes_open = || {
                gen.units.iter().any(|&s| match &self.streams[s] {
                    Stream::Write(w) => !w.input_ended(),
                    Stream::Read(_) => false,
                })
            };
            // In interleaved mode, keep every effect in mailbox order.
            let cache = matches!(gen.kind, Kind::Cache { .. });
            if gen.interleaved && (dir == StreamDir::Read || cache) && writes_open() {
                return;
            }
        }
        let m = Arc::clone(&self.m);
        let mut future =
            Box::pin(async move { m.open_stream(SpanContext::NONE, NodeId(node), dir).await });
        let wake = self.wakes.task();
        let Poll::Ready(result) = wake.poll(|cx| future.as_mut().poll(cx)) else {
            panic!("{}: an open waited", self.at());
        };
        let at = self.at();
        let Some(g) = gen else {
            assert_eq!(
                code(&result),
                Some(ErrorCode::NotFound),
                "{at}: open on node {node}"
            );
            return;
        };
        let sid = result.unwrap_or_else(|e| panic!("{at}: open on node {node}: {e}"));
        let stream = match dir {
            StreamDir::Write => {
                let pieces = self.payload(self.gens[g].kind);
                Stream::Write(Write {
                    gen: g,
                    sid,
                    state: vec![Piece::Free; pieces.len()],
                    pieces,
                    entry: true,
                    sending: 0,
                })
            }
            StreamDir::Read => Stream::Read(Read {
                gen: g,
                sid,
                entry: true,
                got: Vec::new(),
                chunks: 0,
                end: None,
                fetchers: 0,
            }),
        };
        self.streams.push(stream);
        let index = self.streams.len() - 1;
        self.gens[g].units.push(index);
        // Now and then two fetchers at once, before the method has run,
        // so both wait on the stream.
        if dir == StreamDir::Read && self.chance(20) {
            self.fetch_on(index);
            self.fetch_on(index);
        }
    }

    /// A write's payload for `kind`, cut into pieces of 1..=7 bytes.
    fn payload(&mut self, kind: Kind) -> Vec<Vec<u8>> {
        // Now and then a long write, so queues fill.
        let lines = if self.chance(25) {
            100 + self.below(150)
        } else {
            1 + self.below(14)
        };
        let mut text = Vec::new();
        for _ in 0..lines {
            let line = match kind {
                Kind::Counter | Kind::Filter { .. } => {
                    let n = 1 + self.below(9);
                    (0..n).map(|_| b'a' + self.below(4) as u8).collect()
                }
                Kind::Merge => {
                    let odd = [
                        "+7,1",
                        "7,+2",
                        "3, 4",
                        " 3,4",
                        ",5",
                        "6,",
                        "x,y",
                        "-0,1",
                        "1234567890123456789,1",
                        "12345678901234567890,9",
                        "9,1\r",
                    ];
                    if self.chance(20) {
                        odd[self.below(odd.len())].to_string()
                    } else {
                        format!("{},{}", self.below(6), self.below(101) as i64 - 50)
                    }
                    .into_bytes()
                }
                Kind::Sorter { record, key } => {
                    // A record is determined by its key, so ties are
                    // equal and a stable sort has one answer.
                    let k: Vec<u8> = (0..key).map(|_| b'a' + self.below(3) as u8).collect();
                    (0..record).map(|i| k[i % key]).collect()
                }
                Kind::Cache { .. } => {
                    let k = self.below(5);
                    if self.chance(50) {
                        format!("k{k}={}", self.below(100))
                    } else {
                        format!("k{k}")
                    }
                    .into_bytes()
                }
            };
            text.extend_from_slice(&line);
            if !matches!(kind, Kind::Sorter { .. }) && (self.chance(90) || lines > 1) {
                text.push(b'\n');
            }
        }
        let mut pieces = Vec::new();
        let mut rest = text.as_slice();
        while !rest.is_empty() {
            let n = (1 + self.below(7)).min(rest.len());
            pieces.push(rest[..n].to_vec());
            rest = &rest[n..];
        }
        pieces
    }

    fn writes(&self, filter: impl Fn(&Write) -> bool) -> Vec<usize> {
        (0..self.streams.len())
            .filter(|&i| matches!(&self.streams[i], Stream::Write(w) if filter(w)))
            .collect()
    }

    fn reads(&self, filter: impl Fn(&Read) -> bool) -> Vec<usize> {
        (0..self.streams.len())
            .filter(|&i| matches!(&self.streams[i], Stream::Read(r) if filter(r)))
            .collect()
    }

    /// A burst of pushes on one write stream; now and then one longer
    /// than the queue, on the stream with the most unsent pieces, which
    /// fills it (a push is one entry).
    fn push(&mut self) {
        let open = self.writes(|w| w.entry && w.state.contains(&Piece::Free));
        let long = self.chance(10);
        let stream = if long {
            open.iter()
                .copied()
                .max_by_key(|&i| match &self.streams[i] {
                    Stream::Write(w) => w.state.iter().filter(|&&p| p == Piece::Free).count(),
                    Stream::Read(_) => 0,
                })
        } else {
            self.pick(&open)
        };
        let Some(stream) = stream else {
            return;
        };
        let burst = if long {
            INPUT_QUEUE + 24
        } else {
            1 + self.below(24)
        };
        for _ in 0..burst {
            match &self.streams[stream] {
                Stream::Write(w) if w.entry && w.state.contains(&Piece::Free) => {
                    self.push_on(stream);
                }
                _ => return,
            }
        }
    }

    fn push_on(&mut self, stream: usize) {
        let Stream::Write(w) = &self.streams[stream] else {
            unreachable!()
        };
        let free: Vec<usize> = (0..w.pieces.len())
            .filter(|&p| w.state[p] == Piece::Free)
            .collect();
        let first = free[self.below(free.len())];
        let mut pieces = vec![first];
        let batch = self.below(5);
        let most = 1 + self.below(8);
        let malformed = batch >= 2 && self.chance(8);
        let Stream::Write(w) = &self.streams[stream] else {
            unreachable!()
        };
        if batch >= 2 {
            while pieces.len() < most && w.state.get(first + pieces.len()) == Some(&Piece::Free) {
                pieces.push(first + pieces.len());
            }
        }
        let (sid, seq) = (w.sid, first as u64);
        let mut builder = RecordBatchBuilder::new();
        for &p in &pieces {
            builder.push(&w.pieces[p]);
        }
        let (mut count, data) = builder.finish();
        if malformed {
            count += 1;
        }
        let single = Bytes::from(w.pieces[first].clone());
        let before = self
            .m
            .queued(sid)
            .unwrap_or_else(|| panic!("{}: queue of {sid}", self.at()));
        let stopped_closed = self.closed_under(stream);
        let at = self.at();
        if batch.is_multiple_of(2) {
            // The fast path: settled now, or handed back with no effect.
            let body = if batch >= 2 {
                RequestBody::StreamChunkBatch {
                    stream_id: sid,
                    seq,
                    count,
                    data,
                }
            } else {
                RequestBody::StreamChunk {
                    stream_id: sid,
                    seq,
                    data: single,
                }
            };
            let answer = self.m.try_serve(body);
            let after = self.m.queued(sid).unwrap_or(0);
            let want = if malformed {
                Some(ErrorCode::Protocol)
            } else {
                stopped_closed
            };
            match answer {
                Err(_) => {
                    assert!(
                        want.is_none() && before + 1 > INPUT_QUEUE,
                        "{at}: {sid} refused at depth {before}"
                    );
                    assert_eq!(
                        after, before,
                        "{at}: a refused batch on {sid} left records behind"
                    );
                    self.refused_batches += usize::from(pieces.len() > 1);
                }
                Ok(result) => {
                    assert_eq!(code(&result), want, "{at}: fast push on {sid}: {result:?}");
                    if result.is_ok() {
                        assert_eq!(
                            after,
                            before + 1,
                            "{at}: a push on {sid} queued other than one entry"
                        );
                        let Stream::Write(w) = &mut self.streams[stream] else {
                            unreachable!()
                        };
                        for p in pieces {
                            w.state[p] = Piece::Queued;
                        }
                    } else if want == Some(ErrorCode::Protocol) {
                        assert_eq!(after, before, "{at}: a malformed batch on {sid} queued");
                    }
                }
            }
            return;
        }
        let m = Arc::clone(&self.m);
        let future: Pin<Box<dyn Future<Output = Out>>> = if batch >= 2 {
            Box::pin(async move { Out::Unit(m.push_chunk_batch(sid, seq, count, data).await) })
        } else {
            Box::pin(async move { Out::Unit(m.push_chunk(sid, seq, single).await) })
        };
        let expect = malformed.then_some(ErrorCode::Protocol);
        if expect.is_none() {
            let Stream::Write(w) = &mut self.streams[stream] else {
                unreachable!()
            };
            w.sending += 1;
            for &p in &pieces {
                w.state[p] = Piece::Sending;
            }
        }
        self.issue(
            What::Push {
                stream,
                pieces,
                expect,
            },
            future,
        );
    }

    /// A push or a fetch on a stream that is gone, or of the wrong kind.
    fn misdirected(&mut self) {
        let Some(stream) = self.pick(&(0..self.streams.len()).collect::<Vec<_>>()) else {
            return;
        };
        let s = &self.streams[stream];
        let (sid, entry, write) = (s.sid(), s.entry(), matches!(s, Stream::Write(_)));
        let at = self.at();
        if write {
            let want = if entry {
                None
            } else {
                Some(ErrorCode::NotFound)
            };
            if want.is_some() {
                let answer = self.m.try_serve(chunk_body(sid));
                assert_eq!(
                    answer.map(|r| code(&r)),
                    Ok(want),
                    "{at}: push on gone {sid}"
                );
            }
            let m = Arc::clone(&self.m);
            let future = Box::pin(async move { Out::Fetch(m.fetch(sid, 1 << 20).await) });
            let want = if entry {
                ErrorCode::WrongNodeKind
            } else {
                ErrorCode::NotFound
            };
            self.issue(
                What::Fetch {
                    stream,
                    expect: Some(want),
                },
                future,
            );
        } else {
            let want = if entry {
                ErrorCode::WrongNodeKind
            } else {
                ErrorCode::NotFound
            };
            let answer = self.m.try_serve(chunk_body(sid));
            assert_eq!(
                answer.map(|r| code(&r)),
                Ok(Some(want)),
                "{at}: push on read {sid}"
            );
            if !entry {
                let answer = self.m.try_serve(fetch_body(sid));
                assert_eq!(
                    answer.map(|r| code(&r)),
                    Ok(Some(ErrorCode::NotFound)),
                    "{at}: fast fetch on gone {sid}"
                );
            }
        }
    }

    fn fetch(&mut self, fast: bool) {
        let open = self.reads(|r| r.entry && r.fetchers < 2);
        let Some(stream) = self.pick(&open) else {
            return;
        };
        let Stream::Read(r) = &mut self.streams[stream] else {
            unreachable!()
        };
        let sid = r.sid;
        if fast {
            if let Ok(answer) = self.m.try_serve(fetch_body(sid)) {
                self.fetched(stream, fetched(answer));
            }
            return;
        }
        self.fetch_on(stream);
    }

    /// An async fetch on read `stream`.
    fn fetch_on(&mut self, stream: usize) {
        let Stream::Read(r) = &mut self.streams[stream] else {
            unreachable!()
        };
        let sid = r.sid;
        r.fetchers += 1;
        if r.fetchers == 2 {
            self.shared_fetches += 1;
        }
        let m = Arc::clone(&self.m);
        let future = Box::pin(async move { Out::Fetch(m.fetch(sid, 1 << 20).await) });
        self.issue(
            What::Fetch {
                stream,
                expect: None,
            },
            future,
        );
    }

    fn close(&mut self, stream: usize) {
        let s = &mut self.streams[stream];
        let sid = s.sid();
        let expect = (!s.entry()).then_some(ErrorCode::NotFound);
        match s {
            Stream::Write(w) => w.entry = false,
            Stream::Read(r) => r.entry = false,
        }
        self.note_torn(stream);
        let m = Arc::clone(&self.m);
        let future = Box::pin(async move { Out::Unit(m.close_stream(sid).await) });
        self.issue(What::Close { stream, expect }, future);
    }

    fn close_any(&mut self) {
        // Writes close once all is pushed, now and then early; reads
        // close any time (a reader walking away).
        let early = self.chance(10);
        let mut open = self.writes(|w| w.entry && (early || w.whole()));
        if self.chance(30) {
            open = self.reads(|r| r.entry);
        }
        if let Some(stream) = self.pick(&open) {
            self.close(stream);
        } else if self.chance(5) {
            let gone: Vec<usize> = (0..self.streams.len())
                .filter(|&i| !self.streams[i].entry())
                .collect();
            if let Some(stream) = self.pick(&gone) {
                self.close(stream);
            }
        }
    }

    /// A sorter write that ends short leaves torn records behind.
    fn note_torn(&mut self, stream: usize) {
        let Stream::Write(w) = &self.streams[stream] else {
            return;
        };
        let gen = w.gen;
        if !w.whole() && matches!(self.gens[gen].kind, Kind::Sorter { .. }) {
            self.gens[gen].torn = true;
        }
    }

    fn abort(&mut self) {
        let node = 1 + self.below(NODES as usize) as u64;
        self.m.abort_streams_of(NodeId(node));
        for i in 0..self.streams.len() {
            if self.gens[self.streams[i].gen()].node == node && self.streams[i].entry() {
                match &mut self.streams[i] {
                    Stream::Write(w) => w.entry = false,
                    Stream::Read(r) => r.entry = false,
                }
                self.note_torn(i);
            }
        }
    }

    // ----- invariants ------------------------------------------------------

    fn check(&mut self) {
        let at = self.at();
        let mut nodes: HashMap<u64, usize> = HashMap::new();
        for r in &self.running {
            *nodes.entry(self.gens[r.gen].node).or_default() += 1;
        }
        for (node, n) in &nodes {
            assert!(*n <= 1, "{at}: node {node} has {n} running instances");
        }
        assert!(
            self.running.len() <= self.slots,
            "{at}: {} running instances over {} slots",
            self.running.len(),
            self.slots
        );
        assert_eq!(
            self.m.instance_count(),
            self.running.len(),
            "{at}: the table counts other instances than are running"
        );
        if self.running.is_empty() {
            let s = self.metrics.snapshot();
            assert_eq!(
                (
                    s.current(Signal::Queue),
                    s.current(Signal::ActionInstances),
                    s.storage_current
                ),
                (0, 0, 0),
                "{at}: gauges held with no instance running"
            );
        }
    }

    fn step(&mut self) {
        match self.below(100) {
            0..=5 => self.create(),
            6..=8 => self.delete(false),
            9 => self.delete(true),
            10..=16 => self.open(StreamDir::Write),
            17..=22 => self.open(StreamDir::Read),
            23..=44 => self.push(),
            45..=54 => self.fetch(false),
            55..=58 => self.fetch(true),
            59..=62 => self.close_any(),
            63 => self.abort(),
            64 => self.misdirected(),
            _ => {
                if !self.poll_woken() {
                    self.no_lost_wakeups();
                }
            }
        }
    }

    /// Runs everything out: pushes and closes every write, drains every
    /// read, deletes every node; then nothing may be left.
    fn finish(&mut self) {
        for round in 0.. {
            assert!(round < 500, "{}: the history never ran out", self.at());
            self.quiesce();
            let open = self.writes(|w| w.entry);
            for stream in open {
                let Stream::Write(w) = &self.streams[stream] else {
                    unreachable!()
                };
                if w.state.contains(&Piece::Free) {
                    self.push_all(stream);
                } else if w.sending == 0 {
                    self.close(stream);
                }
            }
            for stream in self.reads(|r| r.entry && r.end.is_none() && r.fetchers == 0) {
                let Stream::Read(r) = &mut self.streams[stream] else {
                    unreachable!()
                };
                r.fetchers += 1;
                let (sid, m) = (r.sid, Arc::clone(&self.m));
                let future = Box::pin(async move { Out::Fetch(m.fetch(sid, 1 << 20).await) });
                self.issue(
                    What::Fetch {
                        stream,
                        expect: None,
                    },
                    future,
                );
            }
            for stream in self.reads(|r| r.entry && r.end.is_some()) {
                self.close(stream);
            }
            for node in 1..=NODES {
                if self.addressable(node).is_some() && self.writes(|w| w.entry).is_empty() {
                    let g = self.addressable(node).unwrap();
                    self.gens[g].delete_at = Some(self.gens[g].units.len());
                    let m = Arc::clone(&self.m);
                    let future = Box::pin(async move {
                        Out::Unit(m.delete_action(SpanContext::NONE, NodeId(node)).await)
                    });
                    self.issue(What::Delete { expect: None }, future);
                }
            }
            self.quiesce();
            self.check();
            if self.running.is_empty()
                && self.calls.is_empty()
                && self.streams.iter().all(|s| !s.entry())
            {
                return;
            }
        }
    }

    /// Pushes every free piece of a write on the async path.
    fn push_all(&mut self, stream: usize) {
        let Stream::Write(w) = &mut self.streams[stream] else {
            unreachable!()
        };
        let sid = w.sid;
        for p in 0..w.pieces.len() {
            if w.state[p] != Piece::Free {
                continue;
            }
            w.state[p] = Piece::Sending;
            w.sending += 1;
            let (m, data) = (Arc::clone(&self.m), Bytes::from(w.pieces[p].clone()));
            self.calls.push(Call {
                what: What::Push {
                    stream,
                    pieces: vec![p],
                    expect: None,
                },
                future: Box::pin(async move { Out::Unit(m.push_chunk(sid, p as u64, data).await) }),
                wake: self.wakes.task(),
            });
        }
    }

    fn run(&mut self) {
        while self.step < STEPS {
            self.step += 1;
            self.step();
            self.check();
        }
        self.finish();
        let s = self.metrics.snapshot();
        assert_eq!(
            (
                s.current(Signal::Queue),
                s.current(Signal::ActionInstances),
                s.storage_current
            ),
            (0, 0, 0),
            "{}: gauges held at the end",
            self.at()
        );
    }
}

/// `str::parse` + `HashMap`: merge's fold, one map per write stream.
fn merge_oracle(streams: impl Iterator<Item = Vec<u8>>) -> Vec<u8> {
    let mut map: HashMap<i64, i64> = HashMap::new();
    for stream in streams {
        for line in String::from_utf8_lossy(&stream).split('\n') {
            let Some((k, v)) = line.split_once(',') else {
                continue;
            };
            if let (Ok(k), Ok(v)) = (k.parse::<i64>(), v.parse::<i64>()) {
                let acc = map.entry(k).or_insert(0);
                *acc = acc.wrapping_add(v);
            }
        }
    }
    let entries: BTreeMap<i64, i64> = map.into_iter().collect();
    entries
        .iter()
        .flat_map(|(k, v)| format!("{k},{v}\n").into_bytes())
        .collect()
}

/// The cache action as a plain state machine, applied in mailbox order.
#[derive(Default)]
struct CacheModel {
    map: HashMap<String, String>,
    order: VecDeque<String>,
    requests: Vec<String>,
}

impl CacheModel {
    fn write(&mut self, bytes: &[u8], capacity: usize) {
        let text = String::from_utf8_lossy(bytes).into_owned();
        for line in text.split('\n') {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match line.split_once('=') {
                Some((k, v)) => {
                    if self.map.insert(k.to_string(), v.to_string()).is_none() {
                        self.order.push_back(k.to_string());
                        while self.order.len() > capacity {
                            let evicted = self.order.pop_front().unwrap();
                            self.map.remove(&evicted);
                        }
                    }
                }
                None => self.requests.push(line.to_string()),
            }
        }
    }

    fn read(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.requests)
            .into_iter()
            .filter_map(|k| self.map.get(&k).map(|v| format!("{k}={v}\n")))
            .flat_map(String::into_bytes)
            .collect()
    }
}

#[test]
fn one_instance_per_node_every_call_once_outputs_match_their_oracles() {
    for seed in seeds(1..=8) {
        let mut h = History::new(seed);
        h.run();
        let seen = format!(
            "seed {seed}: {} slots, {} lifetimes, {} streams, {} outputs checked, \
             {} creates refused beside a running instance, {} batches refused whole, \
             {} shared fetches, {} cancelled deletes",
            h.slots,
            h.gens.len(),
            h.streams.len(),
            h.oracles,
            h.refused_running,
            h.refused_batches,
            h.shared_fetches,
            h.cancelled,
        );
        println!("{seen}");
        let reached = h.gens.len() > 5
            && h.oracles > 10
            && h.refused_running > 0
            && h.refused_batches > 0
            && h.shared_fetches > 0
            && h.cancelled > 0;
        assert!(reached, "{seen}");
    }
}
