//! The paper's §4.2 promises, checked by running them: a seeded,
//! one-thread history drives the real `Instance` through a run of
//! instance lifetimes, serial and interleaved. The instance's waker
//! records its wake-ups, and the instance is polled again only after it
//! fired; polled unwoken, it must make no progress, or a wake-up was lost
//! and the history fails naming its seed and step.
//!
//! The seed chooses the order of everything the outside world does: it
//! enqueues writes, reads and deletes through a small mailbox (retrying
//! what a full one refuses), pushes input chunks out of order and closes
//! the streams, drains readers or lets them walk away, opens each
//! method's await point (a gate the method waits on after it starts),
//! and polls the instance. It also scripts panics: a poison chunk in a
//! write, a read that panics past its gate, and `on_create` or
//! `on_delete` that panics or fails. A lifetime ends at its delete, or
//! by dropping the last handle; every stream is then run out.
//!
//! Checked at every step:
//!
//! - polls of one instance never overlap;
//! - in serial mode, method lifetimes (first poll to drop) never overlap;
//! - methods start in mailbox order; `on_delete` runs once, after the
//!   last in-flight method, and no method starts beside or after it;
//! - every reply (create, write, read, delete, and those stranded behind
//!   a delete) fires exactly once, with the model's result: a panic
//!   yields `ActionFailed` to its own caller only, later invocations
//!   still run, and what waits behind a delete is answered `Closed`;
//! - a read's output is the write total the model predicts (exactly in
//!   serial mode, within bounds when interleaved);
//! - a full mailbox makes `try_enqueue` refuse with the invocation
//!   intact, so nothing is lost; a stopped one refuses with `Closed`;
//! - `Signal::Queue` equals the mailbox's depth, and after the instance
//!   stops it, `Signal::ActionInstances` and the storage gauge are 0.
//!
//! Run one history with `GLIDER_REPLAY_SEED=<n> cargo test -p
//! glider-instance --test instance`; a failure names its seed and step.

// Shared with glider-wal's property tests; `frac` and `byte` are unused
// here.
#[allow(dead_code)]
#[path = "../../wal/tests/common/lcg.rs"]
mod lcg;

use bytes::Bytes;
use glider_instance::{
    reply, Action, ActionContext, ActionInputStream, ActionOutputStream, BoxFuture, Enqueued,
    InputPusher, Instance, InstanceHandle, Invocation, Receiver, TryRecvError, TrySendError,
};
use glider_metrics::{MetricsRegistry, Signal};
use glider_proto::types::NodeId;
use glider_proto::{ErrorCode, GliderError, GliderResult};
use lcg::Lcg;
use std::collections::BTreeSet;
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};
use std::task::{Context, Poll, Wake, Waker};

/// Steps one history takes.
const STEPS: usize = 3000;

/// Invocations the mailbox holds: small, so it fills.
const MAILBOX: usize = 3;

/// Chunks a write stream's queue holds.
const INPUT_DEPTH: usize = 2;

/// Chunks a read stream's queue holds: one, so every write waits.
const OUTPUT_DEPTH: usize = 1;

/// Chunks a read writes after the total.
const READ_TAIL: usize = 2;

/// The chunk a write panics on.
const POISON: &[u8] = b"!";

/// Every scripted panic names itself so, and the hook keeps it quiet.
const SCRIPTED: &str = "scripted panic";

/// Where a method or hook waits after it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Gate {
    Create,
    Delete,
    /// A data method, by ordinal.
    Method(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Write,
    Read,
}

/// What the action records as it runs; the history reads it.
#[derive(Default)]
struct ProbeState {
    serial: bool,
    /// A poll of this instance's code is on the stack.
    polling: bool,
    /// Methods started, by ordinal.
    started: Vec<Kind>,
    /// Ordinals started and not yet dropped.
    live: BTreeSet<usize>,
    most_live: usize,
    deletes: usize,
    deleting: bool,
    opened: BTreeSet<Gate>,
    every_gate_open: bool,
    /// Wakers of futures waiting at a shut gate.
    at_gates: Vec<Waker>,
    /// Reads that panic past their gate, by ordinal.
    read_panics: BTreeSet<usize>,
    /// Bytes the writes consumed.
    total: u64,
    violations: Vec<String>,
}

#[derive(Default)]
struct Probe(Mutex<ProbeState>);

impl Probe {
    fn lock(&self) -> MutexGuard<'_, ProbeState> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts a data method: its ordinal, and a guard that ends its
    /// lifetime when the method's future completes, unwinds or drops.
    fn begin(self: &Arc<Self>, kind: Kind) -> Life {
        let mut s = self.lock();
        let ordinal = s.started.len();
        if s.serial && !s.live.is_empty() {
            let live = s.live.clone();
            s.violations
                .push(format!("serial: method {ordinal} started beside {live:?}"));
        }
        if s.deleting || s.deletes > 0 {
            s.violations.push(format!(
                "method {ordinal} started beside or after on_delete"
            ));
        }
        s.started.push(kind);
        s.live.insert(ordinal);
        s.most_live = s.most_live.max(s.live.len());
        Life {
            probe: Arc::clone(self),
            ordinal: Some(ordinal),
        }
    }

    /// Starts `on_delete`.
    fn begin_delete(self: &Arc<Self>) -> Life {
        let mut s = self.lock();
        if !s.live.is_empty() {
            let live = s.live.clone();
            s.violations
                .push(format!("on_delete started beside methods {live:?}"));
        }
        if s.deletes > 0 {
            s.violations.push("on_delete ran twice".to_string());
        }
        s.deletes += 1;
        s.deleting = true;
        Life {
            probe: Arc::clone(self),
            ordinal: None,
        }
    }

    fn gate(&self, gate: Gate) -> impl Future<Output = ()> + '_ {
        poll_fn(move |cx| {
            let mut s = self.lock();
            if s.every_gate_open || s.opened.contains(&gate) {
                Poll::Ready(())
            } else {
                s.at_gates.push(cx.waker().clone());
                Poll::Pending
            }
        })
    }

    /// Opens `gate` (or every gate), waking whatever waits at one.
    fn open(&self, gate: Option<Gate>) {
        let mut s = self.lock();
        match gate {
            Some(gate) => {
                s.opened.insert(gate);
            }
            None => s.every_gate_open = true,
        }
        let waiting = std::mem::take(&mut s.at_gates);
        drop(s);
        waiting.into_iter().for_each(Waker::wake);
    }
}

/// A method's (or `on_delete`'s) lifetime.
struct Life {
    probe: Arc<Probe>,
    ordinal: Option<usize>,
}

impl Drop for Life {
    fn drop(&mut self) {
        let mut s = self.probe.lock();
        match self.ordinal {
            Some(ordinal) => {
                s.live.remove(&ordinal);
            }
            None => s.deleting = false,
        }
    }
}

/// Wraps one of the action's futures: its polls must never nest in
/// another poll of the same instance.
fn probed<'a>(
    probe: &'a Probe,
    inner: impl Future<Output = GliderResult<()>> + Send + 'a,
) -> BoxFuture<'a, GliderResult<()>> {
    struct Polling<'a>(&'a Probe);
    impl Drop for Polling<'_> {
        fn drop(&mut self) {
            self.0.lock().polling = false;
        }
    }
    let mut inner = Box::pin(inner);
    Box::pin(poll_fn(move |cx| {
        {
            let mut s = probe.lock();
            if s.polling {
                s.violations.push("polls overlap".to_string());
            }
            s.polling = true;
        }
        let _polling = Polling(probe);
        inner.as_mut().poll(cx)
    }))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Create {
    Ok,
    Fails,
    Panics,
}

/// The action under test: writes sum their bytes, a read reports the
/// sum, and every method waits at its gate once.
struct Subject {
    probe: Arc<Probe>,
    create: Create,
    delete_panics: bool,
}

impl Action for Subject {
    fn on_create<'a>(&'a self, _ctx: &'a ActionContext) -> BoxFuture<'a, GliderResult<()>> {
        probed(&self.probe, async move {
            self.probe.gate(Gate::Create).await;
            match self.create {
                Create::Ok => Ok(()),
                Create::Fails => Err(GliderError::invalid("create refused")),
                Create::Panics => panic!("{SCRIPTED} in on_create"),
            }
        })
    }

    fn on_delete<'a>(&'a self, _ctx: &'a ActionContext) -> BoxFuture<'a, GliderResult<()>> {
        probed(&self.probe, async move {
            let _life = self.probe.begin_delete();
            self.probe.gate(Gate::Delete).await;
            if self.delete_panics {
                panic!("{SCRIPTED} in on_delete");
            }
            Ok(())
        })
    }

    fn on_write<'a>(
        &'a self,
        input: &'a mut ActionInputStream,
        _ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        probed(&self.probe, async move {
            let life = self.probe.begin(Kind::Write);
            self.probe
                .gate(Gate::Method(life.ordinal.unwrap_or(0)))
                .await;
            while let Some(chunk) = input.next_chunk().await? {
                if &chunk[..] == POISON {
                    panic!("{SCRIPTED}: a poison chunk");
                }
                self.probe.lock().total += chunk.len() as u64;
            }
            Ok(())
        })
    }

    fn on_read<'a>(
        &'a self,
        output: &'a mut ActionOutputStream,
        _ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        probed(&self.probe, async move {
            let life = self.probe.begin(Kind::Read);
            let ordinal = life.ordinal.unwrap_or(0);
            self.probe.gate(Gate::Method(ordinal)).await;
            if self.probe.lock().read_panics.contains(&ordinal) {
                panic!("{SCRIPTED} in read {ordinal}");
            }
            let total = self.probe.lock().total;
            output.write(Bytes::from(total.to_string())).await?;
            for _ in 0..READ_TAIL {
                output.write(Bytes::from_static(b".")).await?;
            }
            Ok(())
        })
    }

    fn state_size(&self) -> u64 {
        self.probe.lock().total
    }
}

enum Plan {
    Write {
        chunks: Vec<Vec<u8>>,
        pushed: Vec<bool>,
        pusher: Option<InputPusher>,
    },
    Read {
        rx: Option<Receiver<Bytes>>,
        got: Vec<u8>,
        panics: bool,
        /// The model's least total when the read passed its gate.
        floor: u64,
    },
    Delete,
}

impl Plan {
    /// Bytes a write's method consumes: everything before a poison chunk.
    fn consumed(&self) -> u64 {
        match self {
            Plan::Write { chunks, .. } => chunks
                .iter()
                .take_while(|c| c.as_slice() != POISON)
                .map(|c| c.len() as u64)
                .sum(),
            _ => 0,
        }
    }

    fn poisoned(&self) -> bool {
        matches!(self, Plan::Write { chunks, .. } if chunks.iter().any(|c| c.as_slice() == POISON))
    }
}

/// One invocation, from its first enqueue attempt.
struct Inv {
    plan: Plan,
    done: Receiver<GliderResult<()>>,
    answer: Option<GliderResult<()>>,
    /// Mailbox position, once accepted.
    position: Option<usize>,
    /// Among writes and reads, in mailbox order.
    ordinal: Option<usize>,
    /// Refused by a full mailbox: held for a retry.
    parked: Option<Box<(Enqueued, Invocation)>>,
    /// Refused by a stopped instance: no reply is due.
    refused: bool,
}

/// The instance's waker: records that it fired.
#[derive(Default)]
struct Woken(AtomicBool);

impl Wake for Woken {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// One instance, from creation until it stops and everything is run out.
struct Lifetime {
    probe: Arc<Probe>,
    metrics: Arc<MetricsRegistry>,
    instance: Instance,
    /// Set by the instance's waker; a new instance starts woken.
    woken: Arc<Woken>,
    handle: Option<InstanceHandle>,
    interleaved: bool,
    create: Create,
    delete_panics: bool,
    created: Receiver<GliderResult<()>>,
    create_answer: Option<GliderResult<()>>,
    invs: Vec<Inv>,
    accepted: usize,
    /// Inv indices by ordinal.
    ordinals: Vec<usize>,
    /// Mailbox position of the first delete.
    delete_at: Option<usize>,
    stopped: bool,
}

struct History {
    seed: u64,
    step: usize,
    rng: Lcg,
    life: Lifetime,
    lives: usize,
    lives_interleaved: usize,
    panics: usize,
    stranded: usize,
    refusals: usize,
    overlaps: usize,
}

fn new_life(rng: &mut Lcg) -> Lifetime {
    let probe = Arc::new(Probe::default());
    let interleaved = rng.next().is_multiple_of(2);
    probe.lock().serial = !interleaved;
    let create = match rng.next() % 20 {
        0 => Create::Fails,
        1 => Create::Panics,
        _ => Create::Ok,
    };
    let delete_panics = rng.next().is_multiple_of(6);
    let subject = Subject {
        probe: Arc::clone(&probe),
        create,
        delete_panics,
    };
    let metrics = MetricsRegistry::new();
    let ctx = ActionContext::new(NodeId(1), interleaved, None);
    let (instance, handle, created) =
        Instance::new(Arc::new(subject), ctx, Some(Arc::clone(&metrics)), MAILBOX);
    Lifetime {
        probe,
        metrics,
        instance,
        woken: Arc::new(Woken(AtomicBool::new(true))),
        handle: Some(handle),
        interleaved,
        create,
        delete_panics,
        created,
        create_answer: None,
        invs: Vec::new(),
        accepted: 0,
        ordinals: Vec::new(),
        delete_at: None,
        stopped: false,
    }
}

fn expect(answer: &GliderResult<()>, want: Option<ErrorCode>) -> bool {
    match (answer, want) {
        (Ok(()), None) => true,
        (Err(e), Some(code)) => e.code() == code,
        _ => false,
    }
}

impl History {
    fn new(seed: u64) -> Self {
        let mut rng = Lcg(seed);
        let life = new_life(&mut rng);
        History {
            seed,
            step: 0,
            rng,
            life,
            lives: 0,
            lives_interleaved: 0,
            panics: 0,
            stranded: 0,
            refusals: 0,
            overlaps: 0,
        }
    }

    fn at(&self) -> String {
        let mode = if self.life.interleaved {
            "interleaved"
        } else {
            "serial"
        };
        format!(
            "seed {} step {} (lifetime {}, {mode})",
            self.seed, self.step, self.lives
        )
    }

    fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        (self.rng.next() % bound as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.rng.next() % 100 < percent
    }

    /// What an unwoken poll must leave as it was: methods started and
    /// deleted, bytes consumed, replies sent, chunks written and taken.
    fn progress(&self) -> [u64; 6] {
        let life = &self.life;
        let s = life.probe.lock();
        let replies = life.created.len() + life.invs.iter().map(|i| i.done.len()).sum::<usize>();
        let (mut written, mut queued) = (0, 0);
        for inv in &life.invs {
            match &inv.plan {
                Plan::Read { rx: Some(rx), .. } => written += rx.len(),
                Plan::Write {
                    pusher: Some(p), ..
                } => queued += p.queued(),
                _ => {}
            }
        }
        [
            s.started.len() as u64,
            s.deletes as u64,
            s.total,
            replies as u64,
            written as u64,
            queued as u64,
        ]
    }

    /// Polls the instance if its waker fired. Unwoken, it is polled to
    /// show it cannot progress: if it does, a wake-up was lost.
    fn poll(&mut self) {
        if self.life.stopped {
            return;
        }
        let woken = self.life.woken.0.swap(false, Ordering::SeqCst);
        let before = (!woken).then(|| self.progress());
        let waker = Waker::from(Arc::clone(&self.life.woken));
        let instance = &mut self.life.instance;
        let polled = catch_unwind(AssertUnwindSafe(|| {
            Pin::new(instance).poll(&mut Context::from_waker(&waker))
        }));
        if let Some(before) = before {
            let progressed =
                polled.as_ref().is_ok_and(|p| p.is_ready()) || self.progress() != before;
            assert!(
                !progressed,
                "{}: lost wake-up: the instance progressed unwoken",
                self.at()
            );
        }
        match polled {
            Ok(Poll::Ready(())) => self.life.stopped = true,
            Ok(Poll::Pending) => {}
            Err(panic) => {
                let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
                panic!("{}: a poll of the instance unwound: {message}", self.at());
            }
        }
    }

    fn enqueue_write(&mut self) {
        let n = 1 + self.below(4);
        let poison = self.chance(12).then(|| self.below(n));
        let chunks = (0..n)
            .map(|i| {
                if poison == Some(i) {
                    POISON.to_vec()
                } else {
                    vec![b'a'; 1 + self.below(5)]
                }
            })
            .collect::<Vec<_>>();
        let (input, pusher) = ActionInputStream::new(INPUT_DEPTH);
        let (done, done_rx) = reply();
        let plan = Plan::Write {
            pushed: vec![false; chunks.len()],
            chunks,
            pusher: Some(pusher),
        };
        self.offer(plan, Invocation::Write { input, done }, done_rx);
    }

    fn enqueue_read(&mut self) {
        let (output, rx) = ActionOutputStream::new(OUTPUT_DEPTH);
        let (done, done_rx) = reply();
        let plan = Plan::Read {
            rx: Some(rx),
            got: Vec::new(),
            panics: self.chance(10),
            floor: 0,
        };
        self.offer(plan, Invocation::Read { output, done }, done_rx);
    }

    fn enqueue_delete(&mut self) {
        let (done, done_rx) = reply();
        self.offer(Plan::Delete, Invocation::Delete { done }, done_rx);
    }

    fn offer(&mut self, plan: Plan, inv: Invocation, done: Receiver<GliderResult<()>>) {
        if self.life.handle.is_none() {
            return;
        }
        self.life.invs.push(Inv {
            plan,
            done,
            answer: None,
            position: None,
            ordinal: None,
            parked: Some(Box::new((Enqueued::detached(), inv))),
            refused: false,
        });
        self.retry(self.life.invs.len() - 1);
    }

    /// Offers a parked invocation to the mailbox again.
    fn retry(&mut self, at: usize) {
        let at_str = self.at();
        let life = &mut self.life;
        let (Some(handle), Some(parked)) = (&life.handle, life.invs[at].parked.take()) else {
            return;
        };
        let (queued, inv) = *parked;
        match handle.try_enqueue(queued, inv) {
            Ok(()) => {
                assert!(!life.stopped, "{at_str}: a stopped instance accepted work");
                let position = life.accepted;
                life.accepted += 1;
                let entry = &mut life.invs[at];
                entry.position = Some(position);
                match &entry.plan {
                    Plan::Delete => {
                        life.delete_at.get_or_insert(position);
                    }
                    plan => {
                        let ordinal = life.ordinals.len();
                        life.ordinals.push(at);
                        entry.ordinal = Some(ordinal);
                        if matches!(plan, Plan::Read { panics: true, .. }) {
                            life.probe.lock().read_panics.insert(ordinal);
                        }
                    }
                }
            }
            Err(TrySendError::Full(back)) => {
                assert!(
                    handle.mailbox_depth() >= MAILBOX,
                    "{at_str}: refused below capacity"
                );
                self.refusals += 1;
                life.invs[at].parked = Some(back);
            }
            Err(TrySendError::Closed(back)) => {
                assert!(life.stopped, "{at_str}: a live instance refused as closed");
                drop(back);
                life.invs[at].refused = true;
            }
        }
    }

    fn retry_any(&mut self) {
        let parked: Vec<usize> = (0..self.life.invs.len())
            .filter(|&i| self.life.invs[i].parked.is_some())
            .collect();
        if !parked.is_empty() {
            let at = parked[self.below(parked.len())];
            self.retry(at);
        }
    }

    /// Pushes one chunk, in any order, of a write stream still open.
    fn push(&mut self, at: usize) {
        let chosen = self.rng.next() as usize;
        let Plan::Write {
            chunks,
            pushed,
            pusher,
        } = &mut self.life.invs[at].plan
        else {
            return;
        };
        let Some(p) = pusher else { return };
        let left: Vec<usize> = (0..chunks.len()).filter(|&i| !pushed[i]).collect();
        if left.is_empty() {
            return;
        }
        let i = left[chosen % left.len()];
        let first_poll = std::pin::pin!(p.push(i as u64, Bytes::from(chunks[i].clone())))
            .poll(&mut Context::from_waker(Waker::noop()));
        match first_poll {
            Poll::Ready(Ok(())) => pushed[i] = true,
            Poll::Pending => {}
            Poll::Ready(Err(e)) => {
                assert_eq!(e.code(), ErrorCode::Closed);
                // The method has ended; its reply is already sent.
                *pusher = None;
            }
        }
    }

    fn push_any(&mut self) {
        let open: Vec<usize> = (0..self.life.invs.len())
            .filter(|&i| {
                matches!(
                    &self.life.invs[i].plan,
                    Plan::Write {
                        pusher: Some(_),
                        ..
                    }
                )
            })
            .collect();
        if !open.is_empty() {
            let at = open[self.below(open.len())];
            self.push(at);
        }
    }

    /// Closes write streams whose chunks are all pushed.
    fn finish(&mut self, all: bool) {
        for inv in &mut self.life.invs {
            if let Plan::Write { pushed, pusher, .. } = &mut inv.plan {
                if pushed.iter().all(|&p| p) && pusher.is_some() {
                    *pusher = None;
                    if !all {
                        return;
                    }
                }
            }
        }
    }

    /// Takes one chunk from a reader.
    fn drain(&mut self, at: usize) {
        let Plan::Read {
            rx: Some(rx), got, ..
        } = &mut self.life.invs[at].plan
        else {
            return;
        };
        match rx.try_recv() {
            Ok(chunk) => got.extend_from_slice(&chunk),
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => self.read_ended(at),
        }
    }

    fn drain_any(&mut self) {
        let open: Vec<usize> = (0..self.life.invs.len())
            .filter(|&i| matches!(&self.life.invs[i].plan, Plan::Read { rx: Some(_), .. }))
            .collect();
        if !open.is_empty() {
            let at = open[self.below(open.len())];
            self.drain(at);
        }
    }

    /// A read's output ended: it must be the total the model predicts.
    fn read_ended(&mut self, at: usize) {
        let at_str = self.at();
        let serial_total = self.total_before(at);
        let ceiling: u64 = self.life.invs.iter().map(|i| i.plan.consumed()).sum();
        // Never run: stranded, or refused by a stopped instance.
        let unrun = self.stranded_at(at) || self.life.invs[at].refused;
        let life = &mut self.life;
        let Plan::Read {
            rx,
            got,
            panics,
            floor,
            ..
        } = &mut life.invs[at].plan
        else {
            return;
        };
        *rx = None;
        let text = String::from_utf8_lossy(got).into_owned();
        if unrun || *panics {
            assert!(got.is_empty(), "{at_str}: read {at} wrote {text:?}");
            return;
        }

        let tail = ".".repeat(READ_TAIL);
        let total: u64 = text
            .strip_suffix(tail.as_str())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{at_str}: read {at} wrote {text:?}"));
        if life.interleaved {
            assert!(
                (*floor..=ceiling).contains(&total),
                "{at_str}: read {at} saw {total}, outside {floor}..={ceiling}"
            );
        } else {
            assert_eq!(total, serial_total, "{at_str}: read {at} saw {total}");
        }
    }

    /// What writes ahead of `at` in mailbox order consume: in serial
    /// mode, the total a read at `at` sees.
    fn total_before(&self, at: usize) -> u64 {
        let Some(position) = self.life.invs[at].position else {
            return 0;
        };
        self.life
            .invs
            .iter()
            .filter(|i| i.position.is_some_and(|p| p < position))
            .map(|i| i.plan.consumed())
            .sum()
    }

    fn walk_away(&mut self) {
        let open: Vec<usize> = (0..self.life.invs.len())
            .filter(|&i| matches!(&self.life.invs[i].plan, Plan::Read { rx: Some(_), .. }))
            .collect();
        if open.is_empty() {
            return;
        }
        let at = open[self.below(open.len())];
        if let Plan::Read { rx, .. } = &mut self.life.invs[at].plan {
            *rx = None;
        }
    }

    /// Opens one gate not yet open.
    fn open_gate(&mut self) {
        let mut shut = Vec::new();
        {
            let s = self.life.probe.lock();
            for gate in [Gate::Create, Gate::Delete]
                .into_iter()
                .chain((0..self.life.ordinals.len()).map(Gate::Method))
            {
                if !s.opened.contains(&gate) {
                    shut.push(gate);
                }
            }
        }
        if shut.is_empty() {
            return;
        }
        let gate = shut[self.below(shut.len())];
        if let Gate::Method(ordinal) = gate {
            let floor = self.answered_total();
            let at = self.life.ordinals[ordinal];
            if let Plan::Read { floor: f, .. } = &mut self.life.invs[at].plan {
                *f = floor;
            }
        }
        self.life.probe.open(Some(gate));
    }

    /// What the writes already answered have consumed.
    fn answered_total(&self) -> u64 {
        self.life
            .invs
            .iter()
            .filter(|i| matches!(&i.answer, Some(a) if !matches!(a, Err(e) if e.code() == ErrorCode::Closed)))
            .map(|i| i.plan.consumed())
            .sum()
    }

    fn stranded_at(&self, at: usize) -> bool {
        let life = &self.life;
        life.create != Create::Ok
            || matches!((life.delete_at, life.invs[at].position), (Some(d), Some(p)) if p > d)
    }

    /// The model's answer to invocation `at`.
    fn expected(&self, at: usize) -> Option<ErrorCode> {
        if self.stranded_at(at) {
            return Some(ErrorCode::Closed);
        }
        let inv = &self.life.invs[at];
        let fails = match &inv.plan {
            Plan::Write { .. } => inv.plan.poisoned(),
            Plan::Read { panics, .. } => *panics,
            Plan::Delete => self.life.delete_panics,
        };
        fails.then_some(ErrorCode::ActionFailed)
    }

    /// Collects every reply that fired, and checks every invariant.
    fn check(&mut self) {
        let at_str = self.at();
        let violations = std::mem::take(&mut self.life.probe.lock().violations);
        assert!(violations.is_empty(), "{at_str}: {violations:?}");

        // The create reply.
        match self.life.created.try_recv() {
            Ok(answer) => {
                assert!(
                    self.life.create_answer.is_none(),
                    "{at_str}: create answered twice"
                );
                let want = match self.life.create {
                    Create::Ok => None,
                    Create::Fails => Some(ErrorCode::InvalidArgument),
                    Create::Panics => Some(ErrorCode::ActionFailed),
                };
                assert!(expect(&answer, want), "{at_str}: create gave {answer:?}");
                self.life.create_answer = Some(answer);
            }
            Err(TryRecvError::Disconnected) => assert!(
                self.life.create_answer.is_some(),
                "{at_str}: create dropped unanswered"
            ),
            Err(TryRecvError::Empty) => {}
        }

        // Every invocation's reply.
        for at in 0..self.life.invs.len() {
            let got = self.life.invs[at].done.try_recv();
            let inv = &self.life.invs[at];
            match got {
                Ok(answer) => {
                    assert!(inv.answer.is_none(), "{at_str}: {at} answered twice");
                    assert!(inv.position.is_some(), "{at_str}: {at} answered unsent");
                    let want = self.expected(at);
                    assert!(
                        expect(&answer, want),
                        "{at_str}: {at} gave {answer:?}, the model {want:?}"
                    );
                    match want {
                        Some(ErrorCode::Closed) => self.stranded += 1,
                        Some(_) => self.panics += 1,
                        None => {}
                    }
                    self.life.invs[at].answer = Some(answer);
                }
                Err(TryRecvError::Disconnected) => assert!(
                    inv.answer.is_some() || inv.refused,
                    "{at_str}: {at} dropped unanswered"
                ),
                Err(TryRecvError::Empty) => {}
            }
        }

        // Methods started in mailbox order.
        let started = self.life.probe.lock().started.clone();
        for (ordinal, kind) in started.iter().enumerate() {
            let want = match &self.life.invs[self.life.ordinals[ordinal]].plan {
                Plan::Write { .. } => Kind::Write,
                _ => Kind::Read,
            };
            assert_eq!(
                *kind, want,
                "{at_str}: method {ordinal} out of mailbox order"
            );
        }

        // The gauges.
        let s = self.life.metrics.snapshot();
        if self.life.stopped {
            assert_eq!(
                (s.current(Signal::Queue), s.current(Signal::ActionInstances)),
                (0, 0),
                "{at_str}: stopped with gauges held"
            );
            assert_eq!(s.storage_current, 0, "{at_str}: stopped with state held");
        } else {
            // Without a handle the depth cannot be read.
            if let Some(handle) = &self.life.handle {
                let depth = handle.mailbox_depth() as u64;
                assert_eq!(s.current(Signal::Queue), depth, "{at_str}: queue gauge");
            }
            let live = matches!(self.life.create_answer, Some(Ok(())));
            if live {
                assert_eq!(
                    s.current(Signal::ActionInstances),
                    1,
                    "{at_str}: instance gauge"
                );
            }
        }
    }

    fn step(&mut self) {
        match self.below(100) {
            0..=11 => self.enqueue_write(),
            12..=19 => self.enqueue_read(),
            20..=21 => self.enqueue_delete(),
            22..=25 => self.retry_any(),
            26..=45 => self.push_any(),
            46..=51 => self.finish(false),
            52..=64 => self.drain_any(),
            65..=66 => self.walk_away(),
            67..=79 => self.open_gate(),
            80 => {
                // The last handle goes; nothing may be left parked.
                let parked = self.life.invs.iter().any(|i| i.parked.is_some());
                if !parked && self.life.delete_at.is_none() && self.chance(30) {
                    self.life.handle = None;
                }
            }
            _ => self.poll(),
        }
    }

    /// Runs the lifetime out: every gate open, every stream pushed and
    /// closed, every reader drained, a delete if none was sent; then the
    /// stopped instance must refuse more work.
    fn end_life(&mut self) {
        self.life.probe.open(None);
        let mut rounds = 0;
        while !(self.life.stopped && self.life.invs.iter().all(|i| i.parked.is_none())) {
            rounds += 1;
            assert!(rounds < 1000, "{}: the instance never stopped", self.at());
            for at in 0..self.life.invs.len() {
                self.retry(at);
                for _ in 0..4 {
                    self.push(at);
                }
                self.drain(at);
            }
            self.finish(true);
            let delete_sent = self
                .life
                .invs
                .iter()
                .any(|i| matches!(i.plan, Plan::Delete));
            if !delete_sent {
                self.enqueue_delete();
            }
            self.poll();
            self.check();
        }
        for at in 0..self.life.invs.len() {
            while matches!(&self.life.invs[at].plan, Plan::Read { rx: Some(_), .. }) {
                self.drain(at);
            }
        }
        self.enqueue_read();
        self.check();
        let at_str = self.at();
        let life = &self.life;
        if let Some(last) = life.invs.last() {
            assert!(
                last.refused || life.handle.is_none(),
                "{at_str}: a stopped instance took a read"
            );
        }
        for (at, inv) in life.invs.iter().enumerate() {
            assert!(
                inv.answer.is_some() || inv.refused || inv.position.is_none(),
                "{at_str}: {at} never answered"
            );
        }
        let admitted: u64 = life
            .invs
            .iter()
            .enumerate()
            .filter(|(at, i)| i.position.is_some() && !self.stranded_at(*at))
            .map(|(_, i)| i.plan.consumed())
            .sum();
        let s = life.probe.lock();
        assert_eq!(s.total, admitted, "{at_str}: writes consumed");
        let deleted = life.create == Create::Ok && life.delete_at.is_some();
        assert_eq!(s.deletes, usize::from(deleted), "{at_str}: on_delete runs");
        if life.interleaved && s.most_live > 1 {
            self.overlaps += 1;
        }
    }

    fn run(&mut self) {
        let mut life_end = self.step + 100 + self.below(200);
        while self.step < STEPS {
            self.step += 1;
            if self.life.stopped || self.step >= life_end {
                self.end_life();
                self.lives += 1;
                if self.life.interleaved {
                    self.lives_interleaved += 1;
                }
                self.life = new_life(&mut self.rng);
                life_end = self.step + 100 + self.below(200);
                continue;
            }
            self.step();
            self.check();
        }
        self.end_life();
        self.lives += 1;
    }
}

fn seeds() -> Vec<u64> {
    match std::env::var("GLIDER_REPLAY_SEED") {
        Ok(s) => vec![s.parse().expect("GLIDER_REPLAY_SEED is a u64")],
        Err(_) => (1..=8).collect(),
    }
}

/// Keeps the scripted panics out of the test output.
fn quiet_scripted_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let scripted = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with(SCRIPTED));
            if !scripted {
                default(info);
            }
        }));
    });
}

#[test]
fn one_method_at_a_time_delete_last_every_reply_once() {
    quiet_scripted_panics();
    for seed in seeds() {
        let mut history = History::new(seed);
        history.run();
        let History {
            lives,
            lives_interleaved,
            panics,
            stranded,
            refusals,
            overlaps,
            ..
        } = history;
        let seen = format!(
            "seed {seed}: {lives} lifetimes ({lives_interleaved} interleaved, {overlaps} overlapping), \
             {panics} failed calls, {stranded} closed, {refusals} refusals"
        );
        println!("{seen}");
        let reached = lives > 5
            && lives_interleaved > 0
            && lives_interleaved < lives
            && overlaps > 0
            && panics > 0
            && stranded > 0
            && refusals > 0;
        assert!(reached, "{seen}");
    }
}
