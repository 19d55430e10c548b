//! Crash-point property tests: whatever point a crash tears the log at,
//! replay yields an exact prefix of the appended op stream, and every
//! record that was fully on disk before the crash point survives.
//!
//! Each property runs as a seeded loop (std-only, so the crate tests
//! offline); a failing case names its seed, and `Lcg(seed)` replays it.

#[path = "common/lcg.rs"]
mod lcg;
use glider_wal::{FsyncPolicy, Wal, WalOptions, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN};
use lcg::Lcg;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const SEGMENT_BYTES: u64 = 256;
const CASES: u64 = 64;
const SNAPSHOT: &[u8] = b"state up to the cut";

static CASE: AtomicU64 = AtomicU64::new(0);

fn case_dir(name: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "glider-wal-prop-{}-{name}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(dir: &PathBuf) -> WalOptions {
    WalOptions::new(dir)
        .with_fsync(FsyncPolicy::Never)
        .with_segment_bytes(SEGMENT_BYTES)
}

fn write_all(dir: &PathBuf, payloads: &[Vec<u8>]) {
    write_all_then_snapshot(dir, payloads, 0);
}

/// Appends `payloads`, then installs a snapshot covering the first
/// `cut` of them (none when `cut` is 0), which compacts the log.
fn write_all_then_snapshot(dir: &PathBuf, payloads: &[Vec<u8>], cut: u64) {
    let (wal, _) = Wal::open(options(dir)).expect("open wal");
    for payload in payloads {
        wal.append(payload).expect("append");
    }
    wal.sync().expect("sync");
    if cut > 0 {
        wal.install_snapshot(cut, SNAPSHOT)
            .expect("install snapshot");
    }
}

fn reopen(dir: &PathBuf) -> glider_wal::Replay {
    let (_, replay) = Wal::open(options(dir)).expect("reopen wal");
    replay
}

/// The `wal-*.log` files of `dir`, oldest first.
fn segments(dir: &PathBuf) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read_dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    segments
}

fn last_segment(dir: &PathBuf) -> PathBuf {
    segments(dir).pop().expect("at least one segment")
}

/// Parse the end offset of every record in one intact segment. This
/// deliberately re-implements the record framing (`len | crc |
/// payload`) so the test would catch the library and the format
/// drifting together.
fn record_ends(segment: &[u8]) -> Vec<u64> {
    let mut ends = Vec::new();
    let mut off = SEGMENT_HEADER_LEN as usize;
    while off + (RECORD_HEADER_LEN as usize) <= segment.len() {
        let len = u32::from_le_bytes([
            segment[off],
            segment[off + 1],
            segment[off + 2],
            segment[off + 3],
        ]) as usize;
        off += RECORD_HEADER_LEN as usize + len;
        assert!(off <= segment.len(), "intact segment parsed past its end");
        ends.push(off as u64);
    }
    ends
}

/// 1..40 payloads of 0..64 arbitrary bytes each.
fn payloads(rng: &mut Lcg) -> Vec<Vec<u8>> {
    (0..rng.range(1, 40))
        .map(|_| (0..rng.range(0, 64)).map(|_| rng.byte()).collect())
        .collect()
}

/// Truncate the tail segment at an arbitrary byte (a kill -9 mid
/// write): replay returns exactly the records that were fully on
/// disk — no more, no fewer, in order.
#[test]
fn truncation_replays_the_exact_on_disk_prefix() {
    for seed in 0..CASES {
        let mut rng = Lcg(seed);
        let payloads = payloads(&mut rng);
        let cut_frac = rng.frac();

        let dir = case_dir("truncate");
        write_all(&dir, &payloads);

        let tail_path = last_segment(&dir);
        let tail = std::fs::read(&tail_path).expect("read tail segment");
        let ends = record_ends(&tail);
        let span = tail.len() as u64 - SEGMENT_HEADER_LEN;
        let cut = SEGMENT_HEADER_LEN + (span as f64 * cut_frac) as u64;
        let survivors_in_tail = ends.iter().filter(|end| **end <= cut).count();
        let expected = payloads.len() - ends.len() + survivors_in_tail;

        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&tail_path)
            .expect("open for truncation");
        file.set_len(cut).expect("set_len");
        drop(file);

        let replay = reopen(&dir);
        assert_eq!(&replay.records, &payloads[..expected], "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flip one arbitrary byte in the tail segment's record area:
/// replay still yields a clean prefix of the op stream (the flip
/// is caught by the length guard or the CRC, never surfaced as a
/// corrupt record).
#[test]
fn tail_bitflip_still_replays_a_prefix() {
    for seed in 0..CASES {
        let mut rng = Lcg(seed);
        let payloads = payloads(&mut rng);
        let pos_frac = rng.frac();
        let bit = rng.range(0, 8);

        let dir = case_dir("bitflip");
        write_all(&dir, &payloads);

        let tail_path = last_segment(&dir);
        let mut tail = std::fs::read(&tail_path).expect("read tail segment");
        if tail.len() as u64 <= SEGMENT_HEADER_LEN {
            // An empty tail segment has no record byte to flip.
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        let span = tail.len() - SEGMENT_HEADER_LEN as usize;
        let pos = SEGMENT_HEADER_LEN as usize + ((span as f64 * pos_frac) as usize).min(span - 1);
        tail[pos] ^= 1 << bit;
        std::fs::write(&tail_path, &tail).expect("write corrupted tail");

        let replay = reopen(&dir);
        assert!(replay.records.len() <= payloads.len(), "seed {seed}");
        assert_eq!(
            &replay.records,
            &payloads[..replay.records.len()],
            "seed {seed}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Drive a tiny KV state machine through the log, crash at a
/// random record boundary, and check the replayed state equals the
/// state after applying exactly the surviving prefix of ops.
#[test]
fn kv_state_machine_recovers_prefix_state() {
    fn apply(state: &mut HashMap<u8, u8>, record: &[u8]) {
        match record {
            [0, key, value] => {
                state.insert(*key, *value);
            }
            [1, key] => {
                state.remove(key);
            }
            other => panic!("unknown op record {other:?}"),
        }
    }

    for seed in 0..CASES {
        let mut rng = Lcg(seed);
        // 1..60 ops: put(key, value) or delete(key).
        let records: Vec<Vec<u8>> = (0..rng.range(1, 60))
            .map(|_| {
                let (key, value) = (rng.byte(), rng.byte());
                if rng.range(0, 2) == 1 {
                    vec![0, key, value]
                } else {
                    vec![1, key]
                }
            })
            .collect();
        let keep_frac = rng.frac();

        let dir = case_dir("kv");
        write_all(&dir, &records);

        // Crash: drop a suffix of the tail segment at a record boundary.
        let tail_path = last_segment(&dir);
        let tail = std::fs::read(&tail_path).expect("read tail segment");
        let mut boundaries = vec![SEGMENT_HEADER_LEN];
        boundaries.extend(record_ends(&tail));
        let keep = ((boundaries.len() - 1) as f64 * keep_frac) as usize;
        let cut = boundaries[keep.min(boundaries.len() - 1)];
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&tail_path)
            .expect("open for truncation");
        file.set_len(cut).expect("set_len");
        drop(file);

        let replay = reopen(&dir);
        let mut expected = HashMap::new();
        for record in &records[..replay.records.len()] {
            apply(&mut expected, record);
        }
        let mut recovered = HashMap::new();
        for record in &replay.records {
            apply(&mut recovered, record);
        }
        assert_eq!(recovered, expected, "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// LSN of the first record of the segment image `segment`.
fn first_lsn(segment: &[u8]) -> u64 {
    u64::from_le_bytes(segment[8..16].try_into().expect("8 bytes"))
}

/// Flips one bit in the checksum or payload of record number `index`
/// (0-based) of the segment at `path`: always a CRC mismatch, never a
/// change of framing.
fn flip_in_record(path: &PathBuf, index: usize, rng: &mut Lcg) {
    let mut segment = std::fs::read(path).expect("read segment");
    let ends = record_ends(&segment);
    let start = if index == 0 {
        SEGMENT_HEADER_LEN
    } else {
        ends[index - 1]
    };
    let pos = rng.range(start + 4, ends[index]) as usize;
    segment[pos] ^= 1 << rng.range(0, 8);
    std::fs::write(path, &segment).expect("write corrupted segment");
}

/// What `benchmark`'s corrupted-recovery self-test relies on: replay
/// verifies the records a snapshot covers too, so a bit flip in one,
/// in a segment that is not the last, fails the open instead of being
/// skipped along with the record.
#[test]
fn bitflip_in_a_covered_record_of_a_non_final_segment_fails_the_open() {
    let mut exercised = 0;
    for seed in 0..CASES {
        let mut rng = Lcg(seed);
        let mut payloads = payloads(&mut rng);
        // Enough records for several segments.
        payloads.extend((0..24).map(|i| vec![i; 40]));
        let cut = rng.range(1, payloads.len() as u64);

        let dir = case_dir("covered-flip");
        write_all_then_snapshot(&dir, &payloads, cut);

        // The oldest retained segment holds covered records only when
        // the cut fell inside it.
        let segments = segments(&dir);
        let oldest = std::fs::read(&segments[0]).expect("read oldest segment");
        let first = first_lsn(&oldest);
        if segments.len() < 2 || first > cut {
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        exercised += 1;
        let covered_here = (cut + 1 - first).min(record_ends(&oldest).len() as u64);
        let victim = rng.range(0, covered_here) as usize;
        flip_in_record(&segments[0], victim, &mut rng);

        let err = Wal::open(options(&dir)).expect_err("corruption must fail the open");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        exercised >= CASES / 2,
        "only {exercised} cases had a target"
    );
}

/// The same flip in the final segment is indistinguishable from a torn
/// write: the log is truncated there, so the flipped record and every
/// record after it are gone (the snapshot still holds their effect).
#[test]
fn bitflip_in_a_covered_record_of_the_final_segment_truncates_there() {
    for seed in 0..CASES {
        let mut rng = Lcg(seed);
        let payloads = payloads(&mut rng);

        let dir = case_dir("covered-flip-tail");
        write_all(&dir, &payloads);
        // A cut inside the final segment: every older one is compacted
        // away and the final one starts with covered records.
        let tail = std::fs::read(last_segment(&dir)).expect("read tail segment");
        let first = first_lsn(&tail);
        let cut = rng.range(first, payloads.len() as u64 + 1);
        {
            let (wal, _) = Wal::open(options(&dir)).expect("open wal");
            wal.install_snapshot(cut, SNAPSHOT)
                .expect("install snapshot");
        }
        assert_eq!(segments(&dir).len(), 1, "seed {seed}");
        let victim = rng.range(0, cut + 1 - first) as usize;
        flip_in_record(&last_segment(&dir), victim, &mut rng);

        let replay = reopen(&dir);
        assert!(replay.truncated, "seed {seed}");
        assert_eq!(replay.snapshot_lsn, cut, "seed {seed}");
        assert!(replay.records.is_empty(), "seed {seed}");
        // The log now ends below its snapshot, so numbering resumes in
        // a segment of its own, past the cut.
        let segments = segments(&dir);
        assert_eq!(segments.len(), 2, "seed {seed}");
        let torn = std::fs::read(&segments[0]).expect("read torn segment");
        assert_eq!(record_ends(&torn).len(), victim, "seed {seed}");
        let fresh = std::fs::read(&segments[1]).expect("read fresh segment");
        assert_eq!(first_lsn(&fresh), cut + 1, "seed {seed}");
        assert!(record_ends(&fresh).is_empty(), "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A snapshot usually covers a prefix of the oldest segment compaction
/// had to keep: replay hands back exactly the records past the cut.
#[test]
fn replay_resumes_exactly_past_the_snapshot() {
    for seed in 0..CASES {
        let mut rng = Lcg(seed);
        let payloads = payloads(&mut rng);
        let cut = rng.range(0, payloads.len() as u64 + 1);

        let dir = case_dir("resume");
        write_all_then_snapshot(&dir, &payloads, cut);

        let replay = reopen(&dir);
        assert_eq!(replay.snapshot_lsn, cut, "seed {seed}");
        assert_eq!(replay.snapshot.is_some(), cut > 0, "seed {seed}");
        assert_eq!(&replay.records, &payloads[cut as usize..], "seed {seed}");
        assert!(!replay.truncated, "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Replay reads every segment through one buffer. A long segment
/// followed by shorter ones must leave nothing behind in it: two opens
/// of the same log agree with each other and with what was appended.
#[test]
fn reopening_twice_replays_the_same_records() {
    for seed in 0..CASES {
        let mut rng = Lcg(seed);
        let big = vec![0xA5u8; 2 * SEGMENT_BYTES as usize];
        let long = payloads(&mut rng);
        let short = payloads(&mut rng);

        let dir = case_dir("reopen-twice");
        {
            // One oversized segment: a record larger than any later
            // segment, then `long` four times over.
            let (wal, _) = Wal::open(options(&dir).with_segment_bytes(1 << 20)).expect("open wal");
            wal.append(&big).expect("append");
            for _ in 0..4 {
                for payload in &long {
                    wal.append(payload).expect("append");
                }
            }
        }
        write_all(&dir, &short);
        let lens: Vec<u64> = segments(&dir)
            .iter()
            .map(|p| std::fs::metadata(p).expect("metadata").len())
            .collect();
        assert!(lens.len() >= 2 && lens[1..].iter().all(|len| *len < lens[0]));

        let expected: Vec<&Vec<u8>> = std::iter::once(&big)
            .chain(long.iter().cycle().take(4 * long.len()))
            .chain(&short)
            .collect();
        let (first, second) = (reopen(&dir), reopen(&dir));
        assert!(
            first.records.iter().eq(expected.iter().copied()),
            "seed {seed}"
        );
        assert_eq!(first.records, second.records, "seed {seed}");
        assert_eq!(first.snapshot, second.snapshot, "seed {seed}");
        assert_eq!(first.snapshot_lsn, second.snapshot_lsn, "seed {seed}");
        assert!(!first.truncated && !second.truncated, "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
