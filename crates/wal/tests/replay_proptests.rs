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

fn write_all(dir: &PathBuf, payloads: &[Vec<u8>]) {
    let (wal, _) = Wal::open(
        WalOptions::new(dir)
            .with_fsync(FsyncPolicy::Never)
            .with_segment_bytes(SEGMENT_BYTES),
    )
    .expect("open wal");
    for payload in payloads {
        wal.append(payload).expect("append");
    }
    wal.sync().expect("sync");
}

fn reopen(dir: &PathBuf) -> glider_wal::Replay {
    let (_, replay) = Wal::open(
        WalOptions::new(dir)
            .with_fsync(FsyncPolicy::Never)
            .with_segment_bytes(SEGMENT_BYTES),
    )
    .expect("reopen wal");
    replay
}

fn last_segment(dir: &PathBuf) -> PathBuf {
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
    segments.pop().expect("at least one segment")
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
