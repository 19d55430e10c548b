//! The metadata plane's durable path: `meta-commit.always`,
//! `meta-commit.interval` and `meta-recover`.

use super::{install_recorder, Scale};
use crate::gen::{self, SplitMix64};
use crate::harness::{Client, Verdict, WalAccount, Workload};
use crate::scratch::{dir_bytes, Scratch};
use crate::tracer::{span, Tracer};
use glider_bench_layers::hist::LogHistogram;
use glider_bench_layers::shard::shard_of;
use glider_bench_layers::trace::Span;
use glider_bench_layers::wal::{FsyncPolicy, Replay, Wal, WalOptions};
use std::fs;
use std::hint::black_box;
use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records that must have accumulated before a snapshot is due:
/// `WalConfig::new`'s `snapshot_every`.
pub const SNAPSHOT_EVERY: u64 = 512;
/// How often the metadata server's sweeper looks whether one is due: a
/// quarter of the default 3 s lease. There is no sweeper thread here, so
/// the client that acks a multiple of [`SNAPSHOT_EVERY`] after this
/// long stands in for it. A snapshot costs three device flushes; taking
/// one on every 512th ack, as fast as clients can commit, would make
/// `meta-commit.interval` measure the disk instead of the append path.
const SWEEP_INTERVAL: Duration = Duration::from_millis(750);
/// Size of a serialized metadata snapshot in these workloads.
pub const SNAPSHOT_BYTES: usize = 64 * 1024;
/// The `snapshot.bin` header `install_snapshot` writes before the payload.
const SNAPSHOT_HEADER_BYTES: u64 = 24;
/// Namespace shards of the modelled metadata server (`serve --meta-shards`).
const META_SHARDS: usize = 16;
/// Distinct payloads per client; operation `i` sends number `i % POOL`.
const POOL: usize = 4096;
/// Bytes of a payload that carry the client id and operation index.
const STAMP: usize = 12;

/// A 64–256 B mutation record with room for the stamp.
pub fn payload(rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = vec![0u8; 64 + rng.below(193) as usize];
    rng.fill(&mut bytes);
    bytes
}

pub trait Policy: Send + Sync {
    const FSYNC: FsyncPolicy;
}

/// Sync before every ack: the product default (`serve --wal`).
#[derive(Debug)]
pub struct Always;
impl Policy for Always {
    const FSYNC: FsyncPolicy = FsyncPolicy::Always;
}

/// Sync at most every 5 ms, off the ack path.
#[derive(Debug)]
pub struct Interval;
impl Policy for Interval {
    const FSYNC: FsyncPolicy = FsyncPolicy::Interval(Duration::from_millis(5));
}

#[derive(Debug)]
struct CommitShared {
    dir: PathBuf,
    wal: Wal,
    epoch: Instant,
    sweep_interval: Duration,
    /// When the last snapshot was claimed, in ns since `epoch`.
    last_sweep_ns: AtomicU64,
    hist: LogHistogram,
    snapshot: Vec<u8>,
    paths: Vec<String>,
    /// One payload pool per client.
    pools: Vec<Vec<Vec<u8>>>,
}

/// One acked metadata mutation per operation, modelled on
/// `MetadataHandler`: dispatch span, handler span, shard routing, WAL
/// append under the policy, a snapshot when the sweeper would take one,
/// latency histogram, spans into the flight recorder.
#[derive(Debug)]
pub struct MetaCommit<P> {
    shared: Arc<CommitShared>,
    policy: PhantomData<P>,
}

#[derive(Debug)]
pub struct CommitClient {
    shared: Arc<CommitShared>,
    id: u32,
    next: u64,
    buf: Vec<u8>,
    acked: u64,
    lsn_sum: u128,
    lsn_max: u64,
    user_bytes: u64,
    snapshots: u64,
}

impl CommitShared {
    /// True for exactly one caller per sweep interval.
    fn sweep_due(&self) -> bool {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let last = self.last_sweep_ns.load(Ordering::Relaxed);
        now.saturating_sub(last) >= self.sweep_interval.as_nanos() as u64
            && self
                .last_sweep_ns
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }
}

impl Client for CommitClient {
    fn op<T: Tracer>(&mut self, tr: &mut T) -> bool {
        let shared = &*self.shared;
        let index = self.next;
        self.next += 1;
        let path = &shared.paths[index as usize % shared.paths.len()];
        let pool = &shared.pools[self.id as usize];
        self.buf.clear();
        self.buf.extend_from_slice(&pool[index as usize % POOL]);
        self.buf[0..4].copy_from_slice(&self.id.to_le_bytes());
        self.buf[4..STAMP].copy_from_slice(&index.to_le_bytes());

        let started = Instant::now();
        let dispatch = span(tr, "trace.remote", || {
            Span::remote("rpc.dispatch", index + 1)
        });
        let handle = span(tr, "trace.child_of", || {
            Span::child_of(dispatch.context(), "meta.handle")
        });
        black_box(span(tr, "namespace.shard_of", || {
            shard_of(path, META_SHARDS)
        }));
        let mut ok = true;
        match span(tr, "wal.append", || shared.wal.append(&self.buf)) {
            Ok(lsn) => {
                self.acked += 1;
                self.lsn_sum += u128::from(lsn);
                self.lsn_max = self.lsn_max.max(lsn);
                self.user_bytes += self.buf.len() as u64;
                if lsn.is_multiple_of(SNAPSHOT_EVERY) && shared.sweep_due() {
                    self.snapshots += 1;
                    ok = span(tr, "wal.install_snapshot", || {
                        shared.wal.install_snapshot(lsn, &shared.snapshot)
                    })
                    .is_ok();
                }
            }
            Err(_) => {
                handle.set_error();
                ok = false;
            }
        }
        span(tr, "metrics.record", || {
            shared.hist.record(started.elapsed().as_nanos() as u64)
        });
        span(tr, "trace.finish", || {
            drop(handle);
            drop(dispatch);
        });
        ok
    }
}

impl<P: Policy> Workload for MetaCommit<P> {
    type Client = CommitClient;
    const THREADS: usize = 2;
    const SAMPLE_EVERY: u64 = 16;

    fn setup(seed: u64, scratch: &Scratch, scale: Scale) -> io::Result<Self> {
        install_recorder();
        let dir = scratch.subdir("commit")?;
        let (wal, _) = Wal::open(WalOptions::new(&dir).with_fsync(P::FSYNC))?;
        let mut snapshot = vec![0u8; SNAPSHOT_BYTES];
        SplitMix64::stream(seed, "commit.snapshot", 0).fill(&mut snapshot);
        let pools = (0..Self::THREADS as u64)
            .map(|client| {
                let mut rng = SplitMix64::stream(seed, "commit.payloads", client);
                (0..POOL).map(|_| payload(&mut rng)).collect()
            })
            .collect();
        Ok(MetaCommit {
            shared: Arc::new(CommitShared {
                dir,
                wal,
                epoch: Instant::now(),
                // A smoke run is over before the first sweep would be.
                sweep_interval: scale.pick(SWEEP_INTERVAL, Duration::ZERO),
                last_sweep_ns: AtomicU64::new(0),
                hist: LogHistogram::new(),
                snapshot,
                paths: gen::paths(&mut SplitMix64::stream(seed, "commit.paths", 0), 4096, 64),
                pools,
            }),
            policy: PhantomData,
        })
    }

    fn clients(&self, n: usize) -> Vec<CommitClient> {
        (0..n as u32)
            .map(|id| CommitClient {
                shared: Arc::clone(&self.shared),
                id,
                next: 0,
                buf: Vec::with_capacity(256),
                acked: 0,
                lsn_sum: 0,
                lsn_max: 0,
                user_bytes: 0,
                snapshots: 0,
            })
            .collect()
    }

    /// Reopens the log: the snapshot plus the replayed records must
    /// account for every acked LSN, and every replayed payload must be
    /// the bytes its client sent.
    fn verify(self, clients: Vec<CommitClient>) -> Verdict {
        let issued: Vec<u64> = clients.iter().map(|c| c.next).collect();
        let acked: u64 = clients.iter().map(|c| c.acked).sum();
        let lsn_sum: u128 = clients.iter().map(|c| c.lsn_sum).sum();
        let lsn_max = clients.iter().map(|c| c.lsn_max).max().unwrap_or(0);
        let user_bytes: u64 = clients.iter().map(|c| c.user_bytes).sum();
        let snapshots: u64 = clients.iter().map(|c| c.snapshots).sum();
        drop(clients);
        let Ok(shared) = Arc::try_unwrap(self.shared) else {
            unreachable!("the clients held the only other references");
        };
        let CommitShared {
            dir,
            wal,
            hist,
            snapshot,
            pools,
            ..
        } = shared;
        let stats = wal.stats();
        drop(wal);

        let mut failed = 0u64;
        // Acked LSNs are exactly 1..=acked: distinct, dense, none lost.
        let dense = u128::from(acked) * u128::from(acked + 1) / 2;
        failed += u64::from(lsn_sum != dense || lsn_max != acked);
        failed += u64::from(hist.snapshot().count() != issued.iter().sum::<u64>());

        let mut live_bytes = 0u64;
        match Wal::open(WalOptions::new(&dir).with_fsync(FsyncPolicy::Never)) {
            Err(_) => failed += acked.max(1),
            Ok((wal, replay)) => {
                drop(wal);
                failed += u64::from(replay.truncated);
                failed += (replay.snapshot_lsn + replay.records.len() as u64).abs_diff(acked);
                if replay.snapshot_lsn > 0 {
                    failed += u64::from(replay.snapshot.as_deref() != Some(snapshot.as_slice()));
                }
                // A client's appends are sequential, so its replayed
                // records carry consecutive indices ending at its last.
                let mut last_index: Vec<Option<u64>> = vec![None; issued.len()];
                for record in &replay.records {
                    live_bytes += record.len() as u64;
                    if record.len() < STAMP {
                        failed += 1;
                        continue;
                    }
                    let id = u32::from_le_bytes(record[0..4].try_into().expect("4 bytes")) as usize;
                    let index = u64::from_le_bytes(record[4..STAMP].try_into().expect("8 bytes"));
                    let expected = (id < issued.len()).then(|| &pools[id][index as usize % POOL]);
                    let intact = expected
                        .is_some_and(|e| e.len() == record.len() && e[STAMP..] == record[STAMP..]);
                    let in_order = intact
                        && last_index[id].is_none_or(|last| index == last + 1)
                        && index < issued[id];
                    failed += u64::from(!in_order);
                    if intact {
                        last_index[id] = Some(index);
                    }
                }
                for (last, issued) in last_index.iter().zip(&issued) {
                    failed += u64::from(last.is_some_and(|last| last + 1 != *issued));
                }
            }
        }

        let written =
            stats.appended_bytes + snapshots * (SNAPSHOT_HEADER_BYTES + SNAPSHOT_BYTES as u64);
        let on_disk = dir_bytes(&dir).unwrap_or(0);
        Verdict {
            failed,
            wal: Some(WalAccount {
                fsyncs_per_ack: stats.fsyncs as f64 / acked.max(1) as f64,
                bytes_per_user_byte: written as f64 / user_bytes.max(1) as f64,
                disk_bytes_per_live_byte: on_disk as f64 / live_bytes.max(1) as f64,
            }),
        }
    }
}

/// Shape of the log `meta-recover` replays. The snapshot is installed
/// while the first segment is still being written, so compaction cannot
/// delete the records it covers and an open has to read past them.
#[derive(Debug, Clone, Copy)]
struct LogShape {
    covered: u64,
    to_replay: u64,
}

impl LogShape {
    fn of(scale: Scale) -> LogShape {
        // 48 000 records of 168 B on average fill most of one 8 MiB
        // segment; twice that sits in two.
        let n = scale.pick(48_000, 600);
        LogShape {
            covered: n,
            to_replay: n,
        }
    }
}

/// Writes the log: `covered` records, a snapshot over them, `to_replay`
/// more, and a half-written record at the tail as a crash would leave.
pub fn prepare_log(seed: u64, dir: &Path, covered: u64, to_replay: u64) -> io::Result<()> {
    let (wal, _) = Wal::open(WalOptions::new(dir).with_fsync(FsyncPolicy::Never))?;
    let mut rng = SplitMix64::stream(seed, "recover.payloads", 0);
    for _ in 0..covered {
        wal.append(&payload(&mut rng))?;
    }
    let mut snapshot = vec![0u8; SNAPSHOT_BYTES];
    SplitMix64::stream(seed, "recover.snapshot", 0).fill(&mut snapshot);
    wal.install_snapshot(covered, &snapshot)?;
    for _ in 0..to_replay {
        wal.append(&payload(&mut rng))?;
    }
    drop(wal);
    let mut tail = fs::OpenOptions::new()
        .append(true)
        .open(newest_segment(dir)?)?;
    // A record header promising 200 bytes, followed by 50.
    tail.write_all(&200u32.to_le_bytes())?;
    tail.write_all(&[0xAB; 4 + 50])?;
    Ok(())
}

/// The segment file appends go to: the highest-numbered `wal-*.log`.
pub fn newest_segment(dir: &Path) -> io::Result<PathBuf> {
    let mut segments = segments(dir)?;
    segments
        .pop()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no wal segment"))
}

/// The `wal-*.log` files of `dir`, oldest first.
pub fn segments(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    Ok(segments)
}

/// One `Wal::open` of a prepared log per operation: metadata-server
/// restart time.
#[derive(Debug)]
pub struct MetaRecover {
    seed: u64,
    dir: PathBuf,
    shape: LogShape,
    expected_checksum: u64,
}

#[derive(Debug)]
pub struct RecoverClient {
    dir: PathBuf,
    shape: LogShape,
    opens: u64,
    truncations: u64,
    last: Option<Replay>,
}

impl Client for RecoverClient {
    fn op<T: Tracer>(&mut self, tr: &mut T) -> bool {
        let options = WalOptions::new(&self.dir).with_fsync(FsyncPolicy::Never);
        let Ok((wal, replay)) = span(tr, "wal.open", || Wal::open(options)) else {
            return false;
        };
        drop(wal);
        // Only the first open after the crash finds the torn tail.
        let first = self.opens == 0;
        self.opens += 1;
        self.truncations += u64::from(replay.truncated);
        let ok = replay.truncated == first
            && replay.snapshot_lsn == self.shape.covered
            && replay
                .snapshot
                .as_ref()
                .is_some_and(|s| s.len() == SNAPSHOT_BYTES)
            && replay.records.len() as u64 == self.shape.to_replay;
        self.last = Some(replay);
        ok
    }
}

impl Workload for MetaRecover {
    type Client = RecoverClient;
    const THREADS: usize = 1;
    const SAMPLE_EVERY: u64 = 1;

    fn setup(seed: u64, scratch: &Scratch, scale: Scale) -> io::Result<Self> {
        let dir = scratch.subdir("recover")?;
        let shape = LogShape::of(scale);
        prepare_log(seed, &dir, shape.covered, shape.to_replay)?;
        Ok(MetaRecover {
            seed,
            dir,
            shape,
            expected_checksum: 0,
        })
    }

    fn prepare_oracle(&mut self) {
        // What set-up wrote after the snapshot, regenerated rather than
        // kept: the checksum of those payloads, back to back.
        let mut rng = SplitMix64::stream(self.seed, "recover.payloads", 0);
        for _ in 0..self.shape.covered {
            payload(&mut rng);
        }
        let mut all = Vec::new();
        for _ in 0..self.shape.to_replay {
            all.extend_from_slice(&payload(&mut rng));
        }
        self.expected_checksum = gen::checksum(&all);
    }

    fn clients(&self, n: usize) -> Vec<RecoverClient> {
        (0..n)
            .map(|_| RecoverClient {
                dir: self.dir.clone(),
                shape: self.shape,
                opens: 0,
                truncations: 0,
                last: None,
            })
            .collect()
    }

    /// Every open checked the record count; this checks the content of
    /// the last one and that the torn tail was reported exactly once.
    fn verify(self, clients: Vec<RecoverClient>) -> Verdict {
        let mut failed = 0;
        for client in clients {
            failed += u64::from(client.opens > 0 && client.truncations != 1);
            if let Some(replay) = client.last {
                failed +=
                    u64::from(gen::checksum(&replay.records.concat()) != self.expected_checksum);
            }
        }
        Verdict { failed, wal: None }
    }
}
