//! Pins the WAL on-disk segment and snapshot formats, the same way the
//! wire-format golden fixtures pin the RPC encoding. If a test here
//! fails you have changed the durable format: bump `FORMAT_VERSION`,
//! write migration notes in DESIGN.md §15, and regenerate the fixture
//! deliberately.

use glider_sim::TempDir;
use glider_wal::{FsyncPolicy, Wal, WalOptions};

const GOLDEN_HEX: &str = include_str!("golden/segment.hex");
const GOLDEN_SNAPSHOT_HEX: &str = include_str!("golden/snapshot.hex");
const GOLDEN_SNAPSHOT_PAYLOAD: &[u8] = b"glider-wal golden snapshot payload";
/// The snapshot fixture covers the first two golden records.
const GOLDEN_SNAPSHOT_LSN: u64 = 2;

fn test_dir(name: &str) -> TempDir {
    TempDir::new(&format!("glider-wal-golden-{name}"))
}

fn golden_payloads() -> Vec<Vec<u8>> {
    vec![
        b"glider-wal golden record one".to_vec(),
        (0u8..16).collect(),
        Vec::new(),
    ]
}

fn hex_encode(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(hex: &str) -> Vec<u8> {
    let hex = hex.trim();
    (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("valid hex"))
        .collect()
}

#[test]
fn segment_bytes_match_golden_fixture() {
    let dir = test_dir("encode");
    let (wal, _) =
        Wal::open(WalOptions::new(dir.path()).with_fsync(FsyncPolicy::Never)).expect("open wal");
    for payload in golden_payloads() {
        wal.append(&payload).expect("append");
    }
    drop(wal);
    let data = std::fs::read(dir.join("wal-000001.log")).expect("read segment");
    assert_eq!(
        hex_encode(&data),
        GOLDEN_HEX.trim(),
        "WAL segment encoding changed — this breaks replay of existing logs"
    );
}

#[test]
fn golden_fixture_replays_to_known_records() {
    let dir = test_dir("decode");
    std::fs::write(dir.join("wal-000001.log"), hex_decode(GOLDEN_HEX)).expect("write");
    let (wal, replay) = Wal::open(WalOptions::new(dir.path()).with_fsync(FsyncPolicy::Never))
        .expect("open wal over fixture");
    assert_eq!(replay.records, golden_payloads());
    assert!(!replay.truncated);
    assert!(replay.snapshot.is_none());
    assert_eq!(wal.last_lsn(), 3);
}

#[test]
fn snapshot_bytes_match_golden_fixture() {
    let dir = test_dir("snapshot-encode");
    let (wal, _) =
        Wal::open(WalOptions::new(dir.path()).with_fsync(FsyncPolicy::Never)).expect("open wal");
    for payload in golden_payloads() {
        wal.append(&payload).expect("append");
    }
    wal.install_snapshot(GOLDEN_SNAPSHOT_LSN, GOLDEN_SNAPSHOT_PAYLOAD)
        .expect("install snapshot");
    drop(wal);
    let data = std::fs::read(dir.join("snapshot.bin")).expect("read snapshot");
    assert_eq!(
        hex_encode(&data),
        GOLDEN_SNAPSHOT_HEX.trim(),
        "WAL snapshot encoding changed — this breaks recovery from existing snapshots"
    );
}

#[test]
fn golden_snapshot_opens_to_known_payload() {
    let dir = test_dir("snapshot-decode");
    std::fs::write(dir.join("wal-000001.log"), hex_decode(GOLDEN_HEX)).expect("write");
    std::fs::write(dir.join("snapshot.bin"), hex_decode(GOLDEN_SNAPSHOT_HEX)).expect("write");
    let (wal, replay) = Wal::open(WalOptions::new(dir.path()).with_fsync(FsyncPolicy::Never))
        .expect("open wal over fixtures");
    assert_eq!(replay.snapshot.as_deref(), Some(GOLDEN_SNAPSHOT_PAYLOAD));
    assert_eq!(replay.snapshot_lsn, GOLDEN_SNAPSHOT_LSN);
    assert_eq!(
        replay.records,
        golden_payloads()[GOLDEN_SNAPSHOT_LSN as usize..]
    );
    assert!(!replay.truncated);
    assert_eq!(wal.last_lsn(), 3);
    assert_eq!(wal.snapshot_lsn(), GOLDEN_SNAPSHOT_LSN);
}
