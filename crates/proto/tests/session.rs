//! The connection protocol, checked by running it: a seeded, one-thread
//! history drives one `ClientSession` against a `ServerSession` per
//! connection through a model wire, the way the RPC shell does.
//!
//! The wire keeps each stream's requests in order but reorders them
//! across streams, and delivers the server's frames in any order. The
//! history opens and closes streams, starts calls on stream 0, on open
//! streams and on closed ones, cancels calls, and loses connections in
//! three ways:
//!
//! - a sever: every frame in flight is dropped and the reader stops;
//! - a writer death (the half-open case): nothing more goes up, but the
//!   server still admits, grants and answers what it holds, and those
//!   frames arrive after the client has dialed the next connection;
//! - an old reader stopping, which fails what was still pending on it.
//!
//! The server also sends duplicate, oversized and unsolicited grants.
//!
//! Checked at every step:
//!
//! - every started call completes exactly once: a reply (to the call it
//!   answers), `Closed`, or a cancel; at the end nothing is pending;
//! - every open stream's window equals the model's, and `outstanding ≤
//!   size`; the model lowers a window only on a grant from the current
//!   connection, and by at most what is outstanding;
//! - a call is refused for credit only when its own stream's window is
//!   full: never on stream 0, never because another stream is stalled;
//! - after `connected()`, every open stream has its full window;
//! - nothing from an older connection — a frame or its reader stopping —
//!   changes a window.
//!
//! Run one history with `GLIDER_REPLAY_SEED=<n> cargo test -p
//! glider-proto --test session`; a failure names its seed and step.

use glider_proto::frame::{Frame, TaggedFrame, LEGACY_STREAM};
use glider_proto::message::{Request, RequestBody, Response, ResponseBody};
use glider_proto::session::{Admit, ClientSession, Event, ServerSession, Start, Window};
use glider_proto::types::{NodeId, PeerTier};
use glider_sim::{seeds, Lcg};
use std::collections::{BTreeMap, VecDeque};

/// Steps one history takes.
const STEPS: usize = 4000;

/// The most streams open at once.
const MAX_STREAMS: usize = 4;

/// The largest window a stream opens with.
const MAX_WINDOW: u64 = 4;

/// The client session under test: a waiter is the call's index in
/// `History::calls`, and a stream's wake is unused.
type Client = ClientSession<usize, ()>;

/// A call the session sent.
#[derive(Debug)]
struct Call {
    id: u64,
    generation: u64,
    /// How it completed, once it has.
    done: Option<&'static str>,
}

/// One connection, from the dial until its reader stops.
struct Conn {
    server: ServerSession,
    /// Requests the client wrote, per stream.
    up: BTreeMap<u32, VecDeque<TaggedFrame>>,
    /// Admitted requests the server is running: (stream, id).
    running: Vec<(u32, u64)>,
    /// Frames the server wrote, delivered in any order.
    down: Vec<TaggedFrame>,
    /// The client's writer died: nothing more goes up.
    writer_dead: bool,
}

struct History {
    seed: u64,
    step: usize,
    rng: Lcg,
    client: Client,
    /// Connections whose reader still runs, by generation.
    conns: BTreeMap<u64, Conn>,
    /// The generation calls are sent on; 0 before the first dial.
    current: u64,
    /// Whether the current connection's reader still runs.
    connected: bool,
    /// Open streams: (size, outstanding) as the model counts them.
    streams: BTreeMap<u32, (u32, u32)>,
    /// Streams opened and closed since.
    closed_streams: Vec<u32>,
    calls: Vec<Call>,
    replies: usize,
    refusals: usize,
    stale_frames: usize,
}

fn body(n: u64) -> RequestBody {
    RequestBody::AddBlocks {
        node_id: NodeId(n),
        count: 1,
    }
}

/// The server's answer to request `id`: it names the id, so a reply
/// that reaches the wrong waiter shows.
fn answer(id: u64) -> Frame {
    let body = ResponseBody::Written { n: id };
    Frame::Response(Response { id, body })
}

fn credit(stream_id: u32, credits: u32) -> TaggedFrame {
    (stream_id, Frame::Credit { stream_id, credits })
}

impl History {
    fn new(seed: u64) -> History {
        History {
            seed,
            step: 0,
            rng: Lcg(seed ^ 0x5e55_1011),
            client: Client::new(),
            conns: BTreeMap::new(),
            current: 0,
            connected: false,
            streams: BTreeMap::new(),
            closed_streams: Vec::new(),
            calls: Vec::new(),
            replies: 0,
            refusals: 0,
            stale_frames: 0,
        }
    }

    fn at(&self) -> String {
        format!("seed {} step {}", self.seed, self.step)
    }

    fn below(&mut self, bound: usize) -> usize {
        self.rng.below(bound.max(1))
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.rng.range(0, 100) < percent
    }

    fn windows(&self) -> Vec<Option<Window>> {
        let ids = self.streams.keys().chain(&self.closed_streams);
        ids.map(|&s| self.client.window(s)).collect()
    }

    fn check_windows(&self) {
        for (&s, &(size, outstanding)) in &self.streams {
            let want = Window { size, outstanding };
            assert_eq!(
                self.client.window(s),
                Some(want),
                "{}: stream {s}",
                self.at()
            );
            assert!(
                outstanding <= size,
                "{}: stream {s} over its window",
                self.at()
            );
        }
        for &s in &self.closed_streams {
            assert_eq!(self.client.window(s), None, "{}: closed {s}", self.at());
        }
    }

    fn complete(&mut self, waiter: usize, how: &'static str) {
        let at = self.at();
        let call = &mut self.calls[waiter];
        assert_eq!(
            call.done, None,
            "{at}: call {} completed twice ({how})",
            call.id
        );
        call.done = Some(how);
    }

    fn pending_on(&self, generation: u64) -> Vec<usize> {
        let calls = self.calls.iter().enumerate();
        calls
            .filter(|(_, c)| c.done.is_none() && c.generation == generation)
            .map(|(w, _)| w)
            .collect()
    }

    /// Dials: the new connection's server answers the handshake, then the
    /// session starts its generation.
    fn dial(&mut self) {
        let mut server = ServerSession::default();
        let hello = RequestBody::Hello {
            tier: PeerTier::Compute,
        };
        let frame = Frame::Request(Request {
            id: 0,
            trace_id: 0,
            body: hello,
        });
        match server.on_frame((LEGACY_STREAM, frame)) {
            Admit::Hello { peer, reply } => {
                assert_eq!(peer, PeerTier::Compute, "{}", self.at());
                let body = ResponseBody::Ok;
                let want = Frame::Response(Response { id: 0, body });
                assert_eq!(reply, (LEGACY_STREAM, want), "{}", self.at());
            }
            other => panic!("{}: handshake answered {other:?}", self.at()),
        }
        let (generation, wakes) = self.client.connected();
        assert!(
            generation > self.current,
            "{}: generation reused",
            self.at()
        );
        assert_eq!(wakes.len(), self.streams.len(), "{}: wakes", self.at());
        self.current = generation;
        self.connected = true;
        for window in self.streams.values_mut() {
            window.1 = 0;
        }
        for (&s, &(size, _)) in &self.streams {
            let full = Window {
                size,
                outstanding: 0,
            };
            assert_eq!(
                self.client.window(s),
                Some(full),
                "{}: {s} not full",
                self.at()
            );
        }
        let conn = Conn {
            server,
            up: BTreeMap::new(),
            running: Vec::new(),
            down: Vec::new(),
            writer_dead: false,
        };
        self.conns.insert(generation, conn);
    }

    fn open_stream(&mut self) {
        let size = self.rng.range(1, MAX_WINDOW + 1) as u32;
        let id = self.client.open_stream(size, ());
        assert_ne!(id, LEGACY_STREAM, "{}", self.at());
        assert!(
            !self.streams.contains_key(&id) && !self.closed_streams.contains(&id),
            "{}: stream id {id} reused",
            self.at()
        );
        self.streams.insert(id, (size, 0));
    }

    fn close_stream(&mut self) {
        let at = self.below(self.streams.len());
        if let Some(&id) = self.streams.keys().nth(at) {
            self.client.close_stream(id);
            self.streams.remove(&id);
            self.closed_streams.push(id);
        }
    }

    fn call(&mut self) {
        let stream = match self.below(8) {
            0..=2 => LEGACY_STREAM,
            3 => match self.below(self.closed_streams.len() + 1) {
                0 => 1 << 20, // never opened
                i => self.closed_streams[i - 1],
            },
            _ => {
                let at = self.below(self.streams.len());
                self.streams
                    .keys()
                    .nth(at)
                    .copied()
                    .unwrap_or(LEGACY_STREAM)
            }
        };
        let waiter = self.calls.len();
        let trace_id = self.rng.next();
        let start = self
            .client
            .start_call(stream, trace_id, body(trace_id), waiter);
        let window = self.streams.get(&stream).copied();
        match start {
            Start::Send {
                generation,
                id,
                frame,
            } => {
                assert!(self.connected, "{}: sent while closed", self.at());
                assert_eq!(generation, self.current, "{}", self.at());
                let fresh = self.calls.last().is_none_or(|c| c.id < id);
                assert!(fresh, "{}: id {id} reused", self.at());
                let req = Frame::Request(Request {
                    id,
                    trace_id,
                    body: body(trace_id),
                });
                assert_eq!(frame, (stream, req), "{}", self.at());
                match window {
                    Some((size, outstanding)) => {
                        assert!(outstanding < size, "{}: sent past window", self.at());
                        if let Some(w) = self.streams.get_mut(&stream) {
                            w.1 += 1;
                        }
                    }
                    None => assert_eq!(stream, LEGACY_STREAM, "{}: closed", self.at()),
                }
                self.calls.push(Call {
                    id,
                    generation,
                    done: None,
                });
                let Some(conn) = self.conns.get_mut(&generation) else {
                    panic!("{}: sent on a connection with no reader", self.at());
                };
                if conn.writer_dead {
                    // The shell's send fails; it withdraws the call.
                    let back = self.client.cancel(id);
                    assert_eq!(back, Some(waiter), "{}: cancel after send", self.at());
                    self.complete(waiter, "send failed");
                } else {
                    conn.up.entry(stream).or_default().push_back(frame);
                }
            }
            Start::NoCredit(w) => {
                assert_eq!(w, waiter, "{}", self.at());
                assert!(self.connected, "{}: no credit while closed", self.at());
                match window {
                    Some((size, outstanding)) => assert_eq!(
                        outstanding,
                        size,
                        "{}: stream {stream} refused with credit left",
                        self.at()
                    ),
                    None => panic!("{}: stream {stream} has no window", self.at()),
                }
                self.refusals += 1;
            }
            Start::Closed(w) => {
                assert_eq!(w, waiter, "{}", self.at());
                assert!(
                    !self.connected || (stream != LEGACY_STREAM && window.is_none()),
                    "{}: stream {stream} refused as closed",
                    self.at()
                );
            }
        }
    }

    fn cancel(&mut self) {
        if self.calls.is_empty() {
            return;
        }
        let waiter = self.below(self.calls.len());
        let pending = self.calls[waiter].done.is_none();
        let back = self.client.cancel(self.calls[waiter].id);
        if pending {
            assert_eq!(back, Some(waiter), "{}: cancel", self.at());
            self.complete(waiter, "cancelled");
        } else {
            assert_eq!(back, None, "{}: cancel of a completed call", self.at());
        }
    }

    /// The wire hands the server one request of a random stream.
    fn admit(&mut self) {
        let live: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.up.is_empty())
            .map(|(&g, _)| g)
            .collect();
        let at = self.below(live.len());
        let Some(&generation) = live.get(at) else {
            return;
        };
        let lie = self.below(16);
        let pick = self.below(MAX_STREAMS + 1);
        let Some(conn) = self.conns.get_mut(&generation) else {
            return;
        };
        let streams: Vec<u32> = conn.up.keys().copied().collect();
        let stream = streams[pick % streams.len()];
        let queue = conn.up.get_mut(&stream).expect("a non-empty queue");
        let frame = queue.pop_front().expect("a queued frame");
        if queue.is_empty() {
            conn.up.remove(&stream);
        }
        match conn.server.on_frame(frame) {
            Admit::Request {
                stream: s,
                request,
                credit: grant,
            } => {
                assert_eq!(s, stream);
                match grant {
                    Some(grant) => {
                        assert_eq!(grant, credit(stream, 1));
                        match lie {
                            0 => conn.down.push(grant.clone()),
                            1 => conn.down.push(credit(stream, 2 + pick as u32)),
                            2 => conn.down.push(credit(1 + pick as u32, 1)),
                            _ => {}
                        }
                        if lie != 1 {
                            conn.down.push(grant);
                        }
                    }
                    None => assert_eq!(stream, LEGACY_STREAM),
                }
                conn.running.push((stream, request.id));
            }
            other => panic!("seed {}: admitted {other:?}", self.seed),
        }
    }

    /// The server finishes one running request.
    fn answer(&mut self) {
        let busy: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.running.is_empty())
            .map(|(&g, _)| g)
            .collect();
        let at = self.below(busy.len());
        let Some(&generation) = busy.get(at) else {
            return;
        };
        let pick = self.rng.next() as usize;
        if let Some(conn) = self.conns.get_mut(&generation) {
            let (stream, id) = conn.running.swap_remove(pick % conn.running.len());
            conn.down.push((stream, answer(id)));
        }
    }

    /// The client's reader of one connection reads one frame.
    fn deliver(&mut self) {
        let ready: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.down.is_empty())
            .map(|(&g, _)| g)
            .collect();
        let at = self.below(ready.len());
        let Some(&generation) = ready.get(at) else {
            return;
        };
        let pick = self.rng.next() as usize;
        let Some(conn) = self.conns.get_mut(&generation) else {
            return;
        };
        let frame = conn.down.swap_remove(pick % conn.down.len());
        let before = self.windows();
        let stale = generation != self.current;
        let event = self.client.on_frame(generation, frame.clone());
        match (event, &frame.1) {
            (Event::Reply(waiter, body), Frame::Response(resp)) => {
                let call = &self.calls[waiter];
                assert_eq!(call.id, resp.id, "{}: reply to the wrong call", self.at());
                assert_eq!(call.generation, generation, "{}", self.at());
                assert_eq!(body, ResponseBody::Written { n: resp.id }, "{}", self.at());
                self.complete(waiter, "reply");
                self.replies += 1;
            }
            (Event::Ignored, Frame::Response(resp)) => {
                let pending = self
                    .calls
                    .iter()
                    .any(|c| c.id == resp.id && c.done.is_none());
                assert!(!pending, "{}: reply {} dropped", self.at(), resp.id);
            }
            (Event::Credit { stream, wake: () }, &Frame::Credit { stream_id, credits }) => {
                assert!(!stale, "{}: credit from generation {generation}", self.at());
                assert_eq!(stream, stream_id, "{}", self.at());
                let Some(w) = self.streams.get_mut(&stream) else {
                    panic!("{}: credit for closed stream {stream}", self.at());
                };
                assert!(w.1 > 0, "{}: credit with nothing outstanding", self.at());
                w.1 -= credits.min(w.1);
            }
            (Event::Ignored, &Frame::Credit { stream_id, .. }) => {
                let outstanding = self.streams.get(&stream_id).map_or(0, |w| w.1);
                assert!(
                    stale || outstanding == 0,
                    "{}: a current credit for stream {stream_id} ignored",
                    self.at()
                );
            }
            (event, frame) => panic!("{}: {frame:?} made {event:?}", self.at()),
        }
        if stale {
            self.stale_frames += 1;
            assert_eq!(
                self.windows(),
                before,
                "{}: stale frame moved a window",
                self.at()
            );
        }
    }

    /// The reader of connection `generation` stops: the session fails
    /// exactly the calls still pending on it.
    fn reader_stops(&mut self, generation: u64) {
        self.conns.remove(&generation);
        let before = self.windows();
        let was_up = generation == self.current && self.connected;
        let (mut failed, wakes) = self.client.closed(generation);
        let woken = if was_up { self.streams.len() } else { 0 };
        assert_eq!(
            wakes.len(),
            woken,
            "{}: wakes of closed({generation})",
            self.at()
        );
        failed.sort_unstable();
        assert_eq!(
            failed,
            self.pending_on(generation),
            "{}: closed({generation})",
            self.at()
        );
        for waiter in failed {
            self.complete(waiter, "closed");
        }
        if generation == self.current {
            self.connected = false;
        }
        assert_eq!(
            self.windows(),
            before,
            "{}: closed moved a window",
            self.at()
        );
        assert_eq!(self.client.is_connected(), self.connected, "{}", self.at());
    }

    fn step(&mut self) {
        let current = self.conns.get(&self.current);
        let writer_up = current.is_some_and(|c| !c.writer_dead);
        if !writer_up && self.chance(20) {
            self.dial();
            return;
        }
        // Weights in half-percents: the current connection is lost about
        // once in 100 steps, by a sever or by its writer dying.
        match self.below(200) {
            0..=39 => self.call(),
            40..=89 => self.admit(),
            90..=129 => self.answer(),
            130..=189 => self.deliver(),
            190..=192 => self.cancel(),
            193..=194 => self.open_stream(),
            195 => self.close_stream(),
            196 => {
                // A sever: every frame in flight is lost with the reader.
                if self.conns.contains_key(&self.current) {
                    self.reader_stops(self.current);
                }
            }
            197 => {
                // The writer dies; the reader keeps reading what the
                // server still sends.
                if let Some(conn) = self.conns.get_mut(&self.current) {
                    conn.writer_dead = true;
                    conn.up.clear();
                }
            }
            _ => {
                // An old connection's server drains and closes.
                let old: Vec<u64> = self
                    .conns
                    .keys()
                    .copied()
                    .filter(|&g| g != self.current)
                    .collect();
                let at = self.below(old.len());
                if let Some(&generation) = old.get(at) {
                    self.reader_stops(generation);
                }
            }
        }
    }

    /// Closes every connection: nothing may be left pending.
    fn finish(&mut self) {
        let generations: Vec<u64> = self.conns.keys().copied().collect();
        for generation in generations {
            self.reader_stops(generation);
        }
        let at = self.at();
        for (waiter, call) in self.calls.iter().enumerate() {
            assert!(
                call.done.is_some(),
                "{at}: call {} never completed",
                call.id
            );
            assert_eq!(
                self.client.cancel(call.id),
                None,
                "{at}: {waiter} still pending"
            );
        }
    }
}

#[test]
fn every_call_completes_once_and_no_window_grows_past_its_size() {
    for seed in seeds(1..=8) {
        let mut history = History::new(seed);
        for _ in 0..2 {
            history.open_stream();
        }
        history.dial();
        while history.step < STEPS {
            history.step += 1;
            history.step();
            history.check_windows();
        }
        history.finish();
        // The history reached what it is meant to check.
        let History {
            replies,
            refusals,
            stale_frames,
            current,
            ..
        } = history;
        let seen = format!(
            "seed {seed}: {replies} replies, {refusals} refusals, {stale_frames} stale frames, {current} connections"
        );
        println!("{seen}");
        let reached = replies > STEPS / 10 && refusals > 0 && stale_frames > 0 && current > 3;
        assert!(reached, "{seen}");
    }
}

/// Starts a call that must be sent; returns its id.
fn send(client: &mut Client, stream: u32, waiter: usize) -> u64 {
    match client.start_call(stream, 0, body(1), waiter) {
        Start::Send { id, .. } => id,
        other => panic!("call {waiter} on stream {stream}: {other:?}"),
    }
}

fn refused(client: &mut Client, stream: u32) -> bool {
    matches!(
        client.start_call(stream, 0, body(1), 99),
        Start::NoCredit(99)
    )
}

#[test]
fn stream_window_survives_reconnect() {
    // A window of 1 whose credit is taken when the connection dies: the
    // next connection starts with the window full, so calls go through
    // back to back.
    let mut client = Client::new();
    let stream = client.open_stream(1, ());
    let (first, _) = client.connected();
    send(&mut client, stream, 0);
    assert!(refused(&mut client, stream));
    assert_eq!(client.closed(first), (vec![0], vec![()]));
    assert!(matches!(
        client.start_call(stream, 0, body(1), 1),
        Start::Closed(1)
    ));
    let (second, wakes) = client.connected();
    assert_eq!(wakes.len(), 1);
    for waiter in 2..5 {
        let id = send(&mut client, stream, waiter);
        assert!(refused(&mut client, stream));
        let event = client.on_frame(second, credit(stream, 1));
        assert!(matches!(event, Event::Credit { stream: s, .. } if s == stream));
        let event = client.on_frame(second, (stream, answer(id)));
        assert!(matches!(event, Event::Reply(w, _) if w == waiter));
    }
}

#[test]
fn a_half_open_connection_cannot_refund_its_successor() {
    // Connection A's writer dies with a call in flight; the client dials
    // B and takes the credit again there. A's reader outlives the dial:
    // A's late grant and A's close must leave B's window alone, so the
    // window of 1 never admits a second call.
    let mut client = Client::new();
    let stream = client.open_stream(1, ());
    let (a, _) = client.connected();
    let on_a = send(&mut client, stream, 0);
    let (b, _) = client.connected();
    let on_b = send(&mut client, stream, 1);
    assert!(refused(&mut client, stream));
    // Stream 0 and other streams are not held back by the stalled one.
    let other = client.open_stream(1, ());
    send(&mut client, LEGACY_STREAM, 2);
    let on_other = send(&mut client, other, 3);
    // A's server admitted its call and grants late: ignored.
    assert!(matches!(
        client.on_frame(a, credit(stream, 1)),
        Event::Ignored
    ));
    assert!(refused(&mut client, stream));
    // A's reply still completes A's call.
    assert!(matches!(
        client.on_frame(a, (stream, answer(on_a))),
        Event::Reply(0, _)
    ));
    // A's reader stops: nothing of B's is refunded.
    assert_eq!(client.closed(a), (vec![], vec![]));
    assert!(client.is_connected());
    assert!(refused(&mut client, stream));
    let held = Window {
        size: 1,
        outstanding: 1,
    };
    assert_eq!(client.window(stream), Some(held));
    // B's grant returns the one credit.
    assert!(matches!(
        client.on_frame(b, credit(stream, 1)),
        Event::Credit { .. }
    ));
    send(&mut client, stream, 4);
    assert!(refused(&mut client, stream));
    // A reply on the wrong connection does not complete B's call.
    assert!(matches!(
        client.on_frame(a, (stream, answer(on_b))),
        Event::Ignored
    ));
    assert!(matches!(
        client.on_frame(b, (other, answer(on_other))),
        Event::Reply(3, _)
    ));
}

#[test]
fn oversized_and_duplicate_grants_never_grow_a_window() {
    let mut client = Client::new();
    let stream = client.open_stream(2, ());
    let (generation, _) = client.connected();
    send(&mut client, stream, 0);
    // Five credits for one outstanding call return one.
    assert!(matches!(
        client.on_frame(generation, credit(stream, 5)),
        Event::Credit { .. }
    ));
    let full = Window {
        size: 2,
        outstanding: 0,
    };
    assert_eq!(client.window(stream), Some(full));
    // A duplicate grant with nothing outstanding is surplus.
    assert!(matches!(
        client.on_frame(generation, credit(stream, 1)),
        Event::Ignored
    ));
    send(&mut client, stream, 1);
    send(&mut client, stream, 2);
    assert!(refused(&mut client, stream));
}
