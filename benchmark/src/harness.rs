//! The closed-loop driver: a fixed set of client threads, each issuing
//! its next operation only when the previous one has returned.

use crate::scratch::Scratch;
use crate::stats::{percentile_ns, Summary};
use crate::tracer::{LayerShares, NoTrace, SpanList, Tracer};
use crate::workloads::Scale;
use std::io;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// `setup_s` is the median over repeated set-ups: at least
/// `MIN_SETUPS`, and more of a cheap one, until `SETUP_BUDGET` is spent.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// Timed repetitions per run, after one discarded warm-up repetition.
pub const REPETITIONS: usize = 5;
/// Measurements a run may repeat because the hypervisor disturbed them.
const MAX_REDOS: u32 = 20;

/// The machine's CPU time so far, and the part of it the hypervisor gave
/// to someone else ("steal"), in clock ticks from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map_while(|t| t.parse().ok())
        .collect();
    (ticks.len() == 8).then(|| (ticks.iter().sum(), ticks[7]))
}

/// Repeats measurements a noisy neighbour spoiled. On the shared
/// two-core VM this was developed on, the hypervisor now and then takes
/// more than half of the CPU time away for minutes; every wall-clock
/// number halves and scatters meanwhile. A measurement during which more
/// than 1 % of the machine's CPU time was stolen is made again, at most
/// [`MAX_REDOS`] times per run; after that, what was measured stands.
#[derive(Debug)]
struct Undisturbed {
    /// `(all ticks, stolen ticks)` so far; [`cpu_ticks`] outside tests.
    ticks: fn() -> Option<(u64, u64)>,
    redone: u32,
}

impl Undisturbed {
    fn measure<R>(&mut self, mut measurement: impl FnMut() -> R) -> R {
        loop {
            let before = (self.ticks)();
            let result = measurement();
            let disturbed = match (before, (self.ticks)()) {
                (Some((total0, steal0)), Some((total1, steal1))) => {
                    (steal1 - steal0) * 100 > total1 - total0
                }
                _ => false,
            };
            if !disturbed || self.redone == MAX_REDOS {
                return result;
            }
            self.redone += 1;
        }
    }
}

/// One closed-loop caller.
pub trait Client: Send {
    /// Issues one operation and waits for it. `false` is a failed
    /// operation: an `Err` from a layer call or a result the oracle
    /// rejects.
    fn op<T: Tracer>(&mut self, tr: &mut T) -> bool;
}

/// WAL counters of a run, as ratios (see the README's layer table).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalAccount {
    pub fsyncs_per_ack: f64,
    pub bytes_per_user_byte: f64,
    pub disk_bytes_per_live_byte: f64,
}

pub trait Workload: Sized + Sync {
    type Client: Client;

    /// Client threads the workload asks for; the harness caps it at the
    /// machine's parallelism.
    const THREADS: usize;
    /// Latency is sampled on every `SAMPLE_EVERY`-th operation: 1 for
    /// operations of 5 µs and more, 16 below that, which keeps the two
    /// clock reads under 1 % of the run.
    const SAMPLE_EVERY: u64;

    /// Generates inputs and prepares files. Timed as `setup_s`.
    fn setup(seed: u64, scratch: &Scratch, scale: Scale) -> io::Result<Self>;

    /// Builds the oracle's expectations. Not part of `setup_s`: it is
    /// the benchmark's cost, not the program's.
    fn prepare_oracle(&mut self) {}

    fn clients(&self, n: usize) -> Vec<Self::Client>;

    /// End-state oracle, run once after the last repetition. Returns the
    /// number of items it rejects, each counted as one failed operation.
    fn verify(self, clients: Vec<Self::Client>) -> Verdict;
}

#[derive(Debug, Default)]
pub struct Verdict {
    pub failed: u64,
    pub wal: Option<WalAccount>,
}

struct Repetition {
    ops: u64,
    failed: u64,
    wall: Duration,
    latencies_ns: Vec<u64>,
}

fn repetition<C: Client, T: Tracer>(
    clients: &mut [C],
    tracers: &mut [T],
    sample_every: u64,
    length: Duration,
) -> Repetition {
    struct ClientRun {
        ops: u64,
        failed: u64,
        start: Instant,
        end: Instant,
        latencies_ns: Vec<u64>,
    }
    let barrier = Barrier::new(clients.len());
    let per_client: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(client, tr)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut latencies_ns = Vec::new();
                    let (mut ops, mut failed) = (0u64, 0u64);
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + length;
                    let end = loop {
                        let sampled = ops % sample_every == 0;
                        let t0 = if sampled { Some(Instant::now()) } else { None };
                        let root = tr.begin("op");
                        let ok = client.op(tr);
                        tr.end(root);
                        ops += 1;
                        failed += u64::from(!ok);
                        if let Some(t0) = t0 {
                            let t1 = Instant::now();
                            latencies_ns.push((t1 - t0).as_nanos() as u64);
                            if t1 >= deadline || tr.full() {
                                break t1;
                            }
                        }
                    };
                    ClientRun {
                        ops,
                        failed,
                        start,
                        end,
                        latencies_ns,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = per_client
        .iter()
        .map(|c| c.start)
        .min()
        .expect("one client");
    let end = per_client.iter().map(|c| c.end).max().expect("one client");
    Repetition {
        ops: per_client.iter().map(|c| c.ops).sum(),
        failed: per_client.iter().map(|c| c.failed).sum(),
        wall: end - start,
        latencies_ns: per_client
            .into_iter()
            .flat_map(|c| c.latencies_ns)
            .collect(),
    }
}

/// What one traced repetition showed.
#[derive(Debug)]
pub struct Traced {
    pub shares: LayerShares,
    pub lists: Vec<SpanList>,
    /// Traced against untraced `throughput_ops_s`, in percent lost.
    pub overhead_pct: f64,
}

/// Everything one run of one workload measured.
#[derive(Debug)]
pub struct Outcome {
    pub threads: usize,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Summary,
    pub throughput_ops_s: Summary,
    pub latency_p50_us: Summary,
    pub latency_p99_us: Summary,
    /// Latency samples behind each repetition's percentiles.
    pub latency_samples: Vec<f64>,
    pub wal: Option<WalAccount>,
    pub traced: Option<Traced>,
    /// Measurements made again because the hypervisor took CPU time away
    /// during them.
    pub redone: u32,
}

/// Runs `W` for about `seconds`: set-up, one discarded warm-up
/// repetition, [`REPETITIONS`] timed ones, then (with `trace`) one more
/// under the benchmark's own tracer, then the oracle.
pub fn run<W: Workload>(
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    scratch: &Scratch,
) -> io::Result<Outcome> {
    let mut undisturbed = Undisturbed {
        ticks: cpu_ticks,
        redone: 0,
    };
    let (setups, workload) = undisturbed.measure(|| {
        let mut setups = Vec::new();
        let first_setup = Instant::now();
        loop {
            let t0 = Instant::now();
            let workload = W::setup(seed, scratch, scale);
            setups.push(t0.elapsed().as_secs_f64());
            let enough = setups.len() >= MIN_SETUPS && first_setup.elapsed() >= SETUP_BUDGET;
            if enough || setups.len() == MAX_SETUPS || workload.is_err() {
                break (setups, workload);
            }
            // `workload` is dropped here, before the next one is built:
            // some hold 64 MiB of input.
        }
    });
    let mut workload = workload?;
    workload.prepare_oracle();

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = W::THREADS.min(nproc);
    let mut clients = workload.clients(threads);
    let mut no_trace: Vec<NoTrace> = (0..threads).map(|_| NoTrace).collect();
    let length = Duration::from_secs_f64(seconds / (REPETITIONS + 1) as f64);

    let warm_up = repetition(&mut clients, &mut no_trace, W::SAMPLE_EVERY, length);
    let (mut attempted, mut failed) = (warm_up.ops, warm_up.failed);
    let (mut throughput, mut p50, mut p99, mut samples) = (vec![], vec![], vec![], vec![]);
    for _ in 0..REPETITIONS {
        let mut rep = undisturbed.measure(|| {
            let rep = repetition(&mut clients, &mut no_trace, W::SAMPLE_EVERY, length);
            attempted += rep.ops;
            failed += rep.failed;
            rep
        });
        throughput.push(rep.ops as f64 / rep.wall.as_secs_f64());
        p50.push(percentile_ns(&mut rep.latencies_ns, 0.50) as f64 / 1e3);
        p99.push(percentile_ns(&mut rep.latencies_ns, 0.99) as f64 / 1e3);
        samples.push(rep.latencies_ns.len() as f64);
    }
    let throughput_ops_s = Summary::of(throughput);

    let traced = trace.then(|| {
        let epoch = Instant::now();
        let mut lists: Vec<SpanList> = Vec::new();
        let rep = undisturbed.measure(|| {
            lists = (0..threads).map(|_| SpanList::new(epoch)).collect();
            let rep = repetition(&mut clients, &mut lists, W::SAMPLE_EVERY, length);
            attempted += rep.ops;
            failed += rep.failed;
            rep
        });
        let traced_throughput = rep.ops as f64 / rep.wall.as_secs_f64();
        Traced {
            shares: LayerShares::of(&lists),
            lists,
            overhead_pct: 100.0 * (1.0 - traced_throughput / throughput_ops_s.median),
        }
    });

    let verdict = workload.verify(clients);
    Ok(Outcome {
        threads,
        attempted,
        failed: (failed + verdict.failed).min(attempted),
        setup_s: Summary::of(setups),
        throughput_ops_s,
        latency_p50_us: Summary::of(p50),
        latency_p99_us: Summary::of(p99),
        latency_samples: samples,
        wal: verdict.wal,
        traced,
        redone: undisturbed.redone,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn a_measurement_with_stolen_cpu_time_is_made_again() {
        assert!(cpu_ticks().is_some_and(|(total, steal)| total > steal));

        // Each reading advances 100 ticks; the first `STORM` intervals
        // lose 50 of them to the hypervisor.
        static READS: AtomicU64 = AtomicU64::new(0);
        static STORM: AtomicU64 = AtomicU64::new(0);
        fn fake() -> Option<(u64, u64)> {
            let reads = READS.fetch_add(1, Ordering::Relaxed);
            let stormy_intervals = (reads / 2 + reads % 2).min(STORM.load(Ordering::Relaxed));
            Some((reads * 100, stormy_intervals * 50))
        }
        let mut undisturbed = Undisturbed {
            ticks: fake,
            redone: 0,
        };
        let mut calls = 0;
        STORM.store(3, Ordering::Relaxed);
        undisturbed.measure(|| calls += 1);
        assert_eq!((calls, undisturbed.redone), (4, 3));
        undisturbed.measure(|| calls += 1);
        assert_eq!((calls, undisturbed.redone), (5, 3));

        // A storm that does not end stops being waited for.
        STORM.store(u64::MAX, Ordering::Relaxed);
        undisturbed.measure(|| calls += 1);
        assert_eq!(undisturbed.redone, MAX_REDOS);
        undisturbed.measure(|| calls += 1);
        assert_eq!(calls, 5 + (MAX_REDOS - 3 + 1) + 1);
    }
}
