//! `glider-wal`: a segmented, checksummed, group-committed write-ahead
//! log with snapshot + compaction support.
//!
//! This crate is the bottom of Glider's durability plane (DESIGN.md
//! §15). The metadata server appends one record per applied namespace /
//! registry mutation and replays the log on restart; a periodic
//! snapshot bounds replay time and lets fully-covered segments be
//! deleted.
//!
//! # On-disk format
//!
//! A log directory contains numbered segment files plus at most one
//! snapshot:
//!
//! ```text
//! wal-000001.log
//! wal-000002.log
//! snapshot.bin
//! ```
//!
//! Every segment starts with a 16-byte header:
//!
//! ```text
//! magic "GWAL" (4) | version u16 LE | reserved u16 | first_lsn u64 LE
//! ```
//!
//! followed by back-to-back records:
//!
//! ```text
//! len u32 LE | crc32 u32 LE (over payload) | payload bytes
//! ```
//!
//! Records are assigned monotonically increasing LSNs starting at 1;
//! a segment's header pins the LSN of its first record, so replay can
//! count forward without storing LSNs per record. The snapshot file is
//! written via `snapshot.tmp` + rename (atomic on POSIX) and carries:
//!
//! ```text
//! magic "GSNP" (4) | version u16 | reserved u16 | covered_lsn u64 |
//! payload_len u32 | crc32 u32 | payload
//! ```
//!
//! # Crash semantics
//!
//! Appends go to the tail of the newest segment only, so a crash can
//! tear at most the final record(s) of the final segment. On open,
//! every record of every segment is verified, including those the
//! snapshot covers. The older segments stream through one reused window
//! of a few hundred KiB (grown only for a record larger than it), so a
//! checksum reads its record from L2; only the payloads past the
//! snapshot are copied out of it, back to back, into the arena of
//! [`Records`]. The newest segment is read whole into a buffer that
//! becomes the image of [`Records`]: its records are verified where
//! they lie and kept as offsets into it, so none is copied. An open
//! holds the replay plus one window per scanning thread, and an older
//! segment the snapshot covers costs no allocation.
//! The last segment is truncated at the first short or
//! checksum-failing record (torn-tail truncation); the same anomaly in
//! any *earlier* segment is real corruption and fails the open, naming
//! the record's offset in its file. With two or more segments and a
//! second CPU to run on, the open verifies the newest segment on one
//! scoped `glider-wal-scan` thread while the calling thread verifies the
//! older ones in order; the image is then moved into the replay, behind
//! the arena. Gaps, the torn tail and the segment appends resume in are
//! still decided in segment order afterwards, so nothing is truncated or
//! created unless every older segment verified.
//! A record is only reported durable once [`Wal::sync_to`] has returned
//! for its LSN (under `FsyncPolicy::Always` every append syncs before
//! returning).
//!
//! # Group commit
//!
//! An appender checksums its payload before taking the log mutex;
//! under the mutex it only assembles header + payload in a buffer the
//! log owns (no allocation per record) and hands the kernel the record
//! in one `write`. Appenders then race to `sync_to(lsn)`. The first
//! caller through the sync mutex fsyncs the segment once, through a
//! shared handle and outside the log mutex, and publishes the highest
//! written LSN; everyone who queued behind it observes `synced_lsn >=
//! lsn` and returns without issuing another fsync. Rotation fsyncs the outgoing
//! segment (unless the policy is `Never`), preserving the invariant
//! that only the current segment can hold unsynced bytes.
//!
//! Under `FsyncPolicy::Always` each appender makes that race before it
//! returns. Under `FsyncPolicy::Interval(d)` no appender does: the first
//! append starts one `glider-wal-flush` thread per log, which waits `d`
//! and calls [`Wal::sync`], through the same sync mutex and watermark,
//! so an append neither reads the clock nor waits on an fsync, and a
//! wakeup with nothing new appended issues no fsync. A crash loses at
//! most the records appended in the last interval plus the one fsync
//! then running; dropping the [`Wal`] stops the thread and syncs the
//! rest. A failed background sync ends the thread. No product path
//! uses `Interval` (the metadata server logs under `Always`); the
//! benchmark and the tests do.
//!
//! A failed append write or fsync, in the background or not, is kept:
//! every later `append` (before it writes anything), `sync_to` and
//! `sync` returns an error of its kind. A failed write may leave part
//! of its record in the segment, and a record appended behind it would
//! be acked but lost to the next open's replay; a failed fsync may have
//! dropped pages that Linux reports to that one fsync only, so a later
//! "successful" sync would vouch for bytes that are gone.

mod crc32;

pub use crc32::{crc32, Crc32};

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"GWAL";
/// Magic bytes opening the snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"GSNP";
/// On-disk format version stamped into segment and snapshot headers.
pub const FORMAT_VERSION: u16 = 1;
/// Size of the fixed segment header.
pub const SEGMENT_HEADER_LEN: u64 = 16;
/// Size of the per-record header (`len` + `crc`).
pub const RECORD_HEADER_LEN: u64 = 8;
/// Hard cap on a single record payload; a length field above this is
/// treated as tail corruption rather than an allocation request.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Size of the fixed snapshot header.
const SNAPSHOT_HEADER_LEN: usize = 24;
const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync before every append returns. Slowest, loses nothing.
    Always,
    /// fsync once per interval on a background thread, never on the
    /// appender's path (see the crate's `# Group commit`). A crash may
    /// lose the records appended in the last interval plus one fsync;
    /// dropping the log syncs. `Interval(Duration::ZERO)` is `Always`.
    Interval(Duration),
    /// Never fsync (tests / throwaway state only).
    Never,
}

/// Configuration for [`Wal::open`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Directory holding segments and the snapshot. Created if absent.
    pub dir: PathBuf,
    /// Flush policy; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
}

impl WalOptions {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 * 1024 * 1024,
        }
    }

    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    pub fn with_segment_bytes(mut self, segment_bytes: u64) -> Self {
        self.segment_bytes = segment_bytes.max(SEGMENT_HEADER_LEN + RECORD_HEADER_LEN);
        self
    }
}

/// Everything recovered by [`Wal::open`].
#[derive(Debug, Default)]
pub struct Replay {
    /// Payload of the newest snapshot, if one exists.
    pub snapshot: Option<Vec<u8>>,
    /// LSN covered by the snapshot (0 when there is none).
    pub snapshot_lsn: u64,
    /// Record payloads with LSN `snapshot_lsn + 1 ..`, in order.
    pub records: Records,
    /// True when a torn tail was found and truncated away.
    pub truncated: bool,
}

/// Replayed record payloads in at most two buffers, read through
/// `len`/`get`/`iter`/`concat`: the records of older segments, copied
/// back to back into an arena, then those of the newest segment, left
/// where they lie in its image. Replay costs no allocation per record,
/// and dropping it four frees.
#[derive(Default)]
pub struct Records {
    /// The older segments' payloads in LSN order, with nothing between
    /// them.
    arena: Vec<u8>,
    /// `ends[i]` is where payload `i` ends in `arena`; it starts where
    /// payload `i - 1` ends, or at 0.
    ends: Vec<usize>,
    /// The newest segment's file, verified where it was read.
    image: Vec<u8>,
    /// Where the newest segment's payloads lie in `image`, in LSN
    /// order; they come after every payload of `arena`.
    spans: Vec<(usize, usize)>,
}

impl Records {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len() + self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload of record `i` (0-based, so LSN `snapshot_lsn + 1 + i`).
    pub fn get(&self, i: usize) -> Option<&[u8]> {
        let Some(j) = i.checked_sub(self.ends.len()) else {
            let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
            return Some(&self.arena[start..self.ends[i]]);
        };
        let &(start, end) = self.spans.get(j)?;
        Some(&self.image[start..end])
    }

    /// The payloads in LSN order.
    pub fn iter(&self) -> RecordIter<'_> {
        RecordIter {
            arena: &self.arena,
            ends: self.ends.iter(),
            start: 0,
            image: &self.image,
            spans: self.spans.iter(),
        }
    }

    /// Every payload joined, in LSN order.
    pub fn concat(&self) -> Vec<u8> {
        let mut all = Vec::with_capacity(self.bytes());
        for payload in self {
            all.extend_from_slice(payload);
        }
        all
    }

    /// Payload bytes in all.
    fn bytes(&self) -> usize {
        let image: usize = self.spans.iter().map(|(start, end)| end - start).sum();
        self.arena.len() + image
    }

    fn push(&mut self, payload: &[u8]) {
        self.arena.extend_from_slice(payload);
        self.ends.push(self.arena.len());
    }
}

/// Equal when the payloads are, however they are laid out.
impl PartialEq for Records {
    fn eq(&self, other: &Records) -> bool {
        self.iter().eq(other)
    }
}

impl Eq for Records {}

/// A failing assertion on a [`Replay`] would otherwise print every byte
/// of every record.
impl std::fmt::Debug for Records {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Records")
            .field("len", &self.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl PartialEq<[Vec<u8>]> for Records {
    fn eq(&self, other: &[Vec<u8>]) -> bool {
        self.iter().eq(other)
    }
}

impl PartialEq<Vec<Vec<u8>>> for Records {
    fn eq(&self, other: &Vec<Vec<u8>>) -> bool {
        *self == other[..]
    }
}

impl<'a> IntoIterator for &'a Records {
    type Item = &'a [u8];
    type IntoIter = RecordIter<'a>;

    fn into_iter(self) -> RecordIter<'a> {
        self.iter()
    }
}

/// Iterator over the payloads of [`Records`].
pub struct RecordIter<'a> {
    arena: &'a [u8],
    ends: std::slice::Iter<'a, usize>,
    start: usize,
    image: &'a [u8],
    spans: std::slice::Iter<'a, (usize, usize)>,
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let Some(&end) = self.ends.next() else {
            let &(start, end) = self.spans.next()?;
            return Some(&self.image[start..end]);
        };
        let payload = &self.arena[self.start..end];
        self.start = end;
        Some(payload)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.ends.len() + self.spans.len();
        (len, Some(len))
    }
}

/// Counters exported into the metrics plane (`wal-fsyncs`,
/// `wal-bytes` in Stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// fsync calls issued since open.
    pub fsyncs: u64,
    /// Bytes appended (record headers included) since open.
    pub appended_bytes: u64,
    /// Records appended since open.
    pub records: u64,
    /// Records past the newest snapshot (replay backlog).
    pub since_snapshot: u64,
}

struct Inner {
    /// The segment being appended to; shared so `sync_to` can fsync it
    /// after releasing the log mutex.
    file: Arc<File>,
    seg_index: u64,
    seg_len: u64,
    next_lsn: u64,
    /// Where `append` assembles header + payload for its one `write`;
    /// reused across appends, so it grows to the largest record seen.
    record: Vec<u8>,
}

/// A segmented write-ahead log. Cheap to share behind an `Arc`; all
/// methods take `&self`.
pub struct Wal {
    log: Arc<Log>,
    /// The `glider-wal-flush` thread syncing the log every interval
    /// under `FsyncPolicy::Interval`, started by the first append (so a
    /// log only opened to be read starts no thread); `None` inside if it
    /// could not start. Unset under any other policy.
    flusher: OnceLock<Option<JoinHandle<()>>>,
}

/// The state [`Wal`] and its flusher share.
struct Log {
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    inner: Mutex<Inner>,
    /// Serializes fsyncs (group commit) and snapshot installation.
    sync: Mutex<()>,
    synced_lsn: AtomicU64,
    last_lsn: AtomicU64,
    snapshot_lsn: AtomicU64,
    fsyncs: AtomicU64,
    appended_bytes: AtomicU64,
    records: AtomicU64,
    /// The first failed append write or sync; every later `append`,
    /// `sync_to` and `sync` returns an error of its kind.
    failed: OnceLock<io::Error>,
    /// Set by `Drop` to stop the flusher; `wake` cuts its wait short.
    stop: Mutex<bool>,
    wake: Condvar,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let log = &*self.log;
        f.debug_struct("Wal")
            .field("dir", &log.dir)
            .field("fsync", &log.fsync)
            .field("last_lsn", &log.last_lsn.load(Ordering::Relaxed))
            .field("synced_lsn", &log.synced_lsn.load(Ordering::Relaxed))
            .finish()
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // The WAL holds no invariant that a panicking appender could have
    // broken mid-update (a record is staged in `Inner::record`, which
    // the next append clears, and written with one write_all), so
    // poisoning is recoverable.
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.log"))
}

/// fsync the directory itself so created/renamed/deleted entries are
/// durable (POSIX requires this separately from file data syncs).
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
        else {
            continue;
        };
        let Ok(index) = stem.parse::<u64>() else {
            continue;
        };
        segments.push((index, entry.path()));
    }
    segments.sort_unstable_by_key(|(index, _)| *index);
    Ok(segments)
}

fn create_segment(dir: &Path, index: u64, first_lsn: u64) -> io::Result<File> {
    let path = segment_path(dir, index);
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(&path)?;
    let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
    header[0..4].copy_from_slice(&SEGMENT_MAGIC);
    header[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&first_lsn.to_le_bytes());
    file.write_all(&header)?;
    sync_dir(dir)?;
    Ok(file)
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes([
        bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
    ])
}

fn read_segment_first_lsn(path: &Path) -> io::Result<u64> {
    let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
    File::open(path)?.read_exact(&mut header)?;
    check_segment_header(&header, path)?;
    Ok(le_u64(&header[8..16]))
}

fn check_segment_header(header: &[u8], path: &Path) -> io::Result<()> {
    if header[0..4] != SEGMENT_MAGIC {
        return Err(invalid(format!("{}: bad segment magic", path.display())));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "{}: unsupported segment version {version}",
            path.display()
        )));
    }
    Ok(())
}

/// Whether this process may run on two CPUs at once: a helper thread
/// that has to share the caller's one CPU only adds a switch.
fn has_second_cpu() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
}

/// The window older segments stream through: a refill is one `read`,
/// and a record's checksum reads it from L2.
const WINDOW_BYTES: usize = 256 * 1024;

struct SegScan {
    first_lsn: u64,
    /// LSN the record after this segment's last intact one would get.
    next_lsn: u64,
    /// File offset of the end of the last intact record.
    good_len: u64,
    torn: bool,
}

/// What a scan keeps of the records past the snapshot.
enum Keep<'a> {
    /// Their payloads, copied into the arena: an older segment, read
    /// through a window of `window.len()` bytes reused from segment to
    /// segment.
    Copy(&'a mut Records),
    /// Where their payloads lie in the window, which the scan reads the
    /// whole file into: the newest segment, whose window becomes the
    /// image of [`Records`].
    InPlace(&'a mut Vec<(usize, usize)>),
}

/// A segment file read through a window: `buf[..filled]` holds the
/// file's bytes from offset `base` on.
struct Window<'a> {
    file: File,
    buf: &'a mut Vec<u8>,
    base: u64,
    filled: usize,
    eof: bool,
}

impl Window<'_> {
    /// Makes `buf[off..filled]` hold `need` bytes, unless the file ends
    /// first, and returns where the bytes that were at `off` are now.
    /// Twice per record: its check inlines into the scan loop, and the
    /// refill stays out of it (≈ 0.3 ms less per streamed 8 MiB segment).
    #[inline(always)]
    fn fill(&mut self, off: usize, need: usize) -> io::Result<usize> {
        if self.filled - off >= need || self.eof {
            return Ok(off);
        }
        self.read_on(off, need)
    }

    /// Drops the bytes before `off`, grows the window if `need` exceeds
    /// it, and reads until it is full or the file ends.
    #[inline(never)]
    fn read_on(&mut self, off: usize, need: usize) -> io::Result<usize> {
        self.buf.copy_within(off..self.filled, 0);
        self.base += off as u64;
        self.filled -= off;
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        }
        while self.filled < self.buf.len() {
            match self.file.read(&mut self.buf[self.filled..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.filled += n,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        Ok(0)
    }
}

/// Reads the segment at `path` through `window` and verifies every
/// record in it; `keep` gets those with an LSN above `snapshot_lsn`.
fn scan_segment(
    path: &Path,
    allow_torn: bool,
    snapshot_lsn: u64,
    window: &mut Vec<u8>,
    mut keep: Keep<'_>,
) -> io::Result<SegScan> {
    let mut file = File::open(path)?;
    // The newest segment is read whole: it never moves in its window.
    let whole = matches!(keep, Keep::InPlace(_));
    if whole {
        window.clear();
        file.read_to_end(window)?;
    }
    let mut win = Window {
        file,
        filled: if whole { window.len() } else { 0 },
        buf: window,
        base: 0,
        eof: whole,
    };
    let header_len = SEGMENT_HEADER_LEN as usize;
    win.fill(0, header_len)?;
    let Some(header) = win.buf[..win.filled].get(..header_len) else {
        return Err(invalid(format!("{}: short segment header", path.display())));
    };
    check_segment_header(header, path)?;
    let first_lsn = le_u64(&header[8..]);

    let mut lsn = first_lsn;
    let mut off = header_len;
    // glider: hot-path (Wal::open: frame, checksum, then copy or note each record)
    loop {
        off = win.fill(off, RECORD_HEADER_LEN as usize)?;
        let Some(header) = win.buf[..win.filled].get(off..off + RECORD_HEADER_LEN as usize) else {
            break;
        };
        let len = le_u32(header);
        if len > MAX_RECORD_LEN {
            break;
        }
        let crc = le_u32(&header[4..]);
        off = win.fill(off, RECORD_HEADER_LEN as usize + len as usize)?;
        let start = off + RECORD_HEADER_LEN as usize;
        let end = start + len as usize;
        let Some(payload) = win.buf[..win.filled].get(start..end) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        if lsn > snapshot_lsn {
            match &mut keep {
                Keep::Copy(records) => records.push(payload),
                // The whole file is in the window, which never moves.
                Keep::InPlace(spans) => spans.push((start, end)),
            }
        }
        lsn += 1;
        off = end;
    }
    // glider: end-hot-path
    let good_len = win.base + off as u64;
    // Anything left is a record that is short, over the cap or fails
    // its checksum.
    let torn = off < win.filled;
    if torn && !allow_torn {
        return Err(invalid(format!(
            "{}: corrupt record at offset {good_len} in non-final segment",
            path.display()
        )));
    }
    Ok(SegScan {
        first_lsn,
        next_lsn: lsn,
        good_len,
        torn,
    })
}

fn read_snapshot(dir: &Path) -> io::Result<Option<(u64, Vec<u8>)>> {
    let path = dir.join(SNAPSHOT_FILE);
    let mut file = match File::open(&path) {
        Ok(file) => file,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(err),
    };
    let mut header = [0u8; SNAPSHOT_HEADER_LEN];
    match file.read_exact(&mut header) {
        Ok(()) => {}
        Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => {
            return Err(invalid(format!(
                "{}: short snapshot header",
                path.display()
            )));
        }
        Err(err) => return Err(err),
    }
    if header[0..4] != SNAPSHOT_MAGIC {
        return Err(invalid(format!("{}: bad snapshot magic", path.display())));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "{}: unsupported snapshot version {version}",
            path.display()
        )));
    }
    let covered_lsn = le_u64(&header[8..16]);
    let payload_len = le_u32(&header[16..20]) as usize;
    let crc = le_u32(&header[20..24]);
    // Read straight into the Vec handed back; sized by the file, not
    // by the length field.
    let mut payload = Vec::new();
    file.read_to_end(&mut payload)?;
    if payload.len() != payload_len {
        return Err(invalid(format!(
            "{}: snapshot length mismatch",
            path.display()
        )));
    }
    if crc32(&payload) != crc {
        return Err(invalid(format!(
            "{}: snapshot checksum mismatch",
            path.display()
        )));
    }
    Ok(Some((covered_lsn, payload)))
}

impl Wal {
    /// Open (or create) the log at `options.dir`, replaying whatever
    /// survived the last process. Returns the live handle plus the
    /// recovered state.
    pub fn open(options: WalOptions) -> io::Result<(Self, Replay)> {
        fs::create_dir_all(&options.dir)?;
        // A stale snapshot.tmp is a snapshot that never committed.
        let _ = fs::remove_file(options.dir.join(SNAPSHOT_TMP));

        let (snapshot_lsn, snapshot) = match read_snapshot(&options.dir)? {
            Some((lsn, payload)) => (lsn, Some(payload)),
            None => (0, None),
        };

        let mut segments = list_segments(&options.dir)?;
        let mut truncated = false;
        let mut newest_len = 0;
        // A crash during segment creation can leave a trailing file
        // shorter than its own header; it holds no records, drop it.
        while let Some((_, path)) = segments.last() {
            newest_len = fs::metadata(path)?.len();
            if newest_len >= SEGMENT_HEADER_LEN {
                break;
            }
            fs::remove_file(path)?;
            truncated = true;
            segments.pop();
        }

        let mut records = Records::default();
        let mut next_lsn = snapshot_lsn + 1;
        let mut current: Option<(File, u64, u64)> = None;

        // The newest segment is read whole into its image and verified
        // there; the image is allocated on this thread even when the
        // helper reads it: allocated on the helper, every open faulted
        // in fresh pages of its malloc arena.
        let scan_newest = |path: &Path, mut image: Vec<u8>| {
            let mut spans = Vec::new();
            let keep = Keep::InPlace(&mut spans);
            let scan = scan_segment(path, true, snapshot_lsn, &mut image, keep);
            scan.map(|scan| (scan, image, spans))
        };
        let last_pos = segments.len().wrapping_sub(1);
        std::thread::scope(|scope| -> io::Result<()> {
            // With an older segment to verify here and a second CPU to
            // run on, a helper verifies the newest segment meanwhile.
            let mut newest = None;
            if let [_, .., (_, path)] = &segments[..] {
                if has_second_cpu() {
                    let image = Vec::with_capacity(newest_len as usize);
                    // A helper that cannot start leaves the newest
                    // segment to this thread.
                    newest = std::thread::Builder::new()
                        .name("glider-wal-scan".into())
                        .spawn_scoped(scope, move || scan_newest(path, image))
                        .ok();
                }
            }
            // Older segments share one window; an open of one segment
            // allocates none.
            let mut window = vec![0; if segments.len() > 1 { WINDOW_BYTES } else { 0 }];
            for (pos, (index, path)) in segments.iter().enumerate() {
                let is_last = pos == last_pos;
                let scan = if is_last {
                    let (scan, image, spans) = match newest.take() {
                        Some(helper) => helper
                            .join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?,
                        None => scan_newest(path, Vec::with_capacity(newest_len as usize))?,
                    };
                    // A segment the snapshot covers leaves no image.
                    if !spans.is_empty() {
                        records.image = image;
                        records.spans = spans;
                    }
                    scan
                } else {
                    let keep = Keep::Copy(&mut records);
                    scan_segment(path, false, snapshot_lsn, &mut window, keep)?
                };
                if pos == 0 {
                    if scan.first_lsn > next_lsn {
                        return Err(invalid(format!(
                            "{}: log gap: first segment starts at lsn {} but snapshot covers {}",
                            path.display(),
                            scan.first_lsn,
                            snapshot_lsn
                        )));
                    }
                } else if scan.first_lsn != next_lsn {
                    return Err(invalid(format!(
                        "{}: log gap: segment starts at lsn {} but expected {}",
                        path.display(),
                        scan.first_lsn,
                        next_lsn
                    )));
                }
                if pos > 0 || scan.next_lsn > next_lsn {
                    next_lsn = scan.next_lsn;
                }
                if is_last {
                    let file = OpenOptions::new().append(true).open(path)?;
                    if scan.torn {
                        file.set_len(scan.good_len)?;
                        file.sync_data()?;
                        truncated = true;
                    }
                    current = Some(if scan.next_lsn < next_lsn {
                        // The log ends short of its snapshot (a tail torn
                        // below it). Replay numbers records from the
                        // segment header, so a record appended here would
                        // be numbered under `snapshot_lsn` and dropped by
                        // the next open: resume in a segment of its own.
                        let file = create_segment(&options.dir, index + 1, next_lsn)?;
                        (file, index + 1, SEGMENT_HEADER_LEN)
                    } else {
                        (file, *index, scan.good_len)
                    });
                }
            }
            Ok(())
        })?;

        let (file, seg_index, seg_len) = match current {
            Some(state) => state,
            None => (
                create_segment(&options.dir, 1, next_lsn)?,
                1,
                SEGMENT_HEADER_LEN,
            ),
        };

        // An interval too short to wait is a sync per append.
        let fsync = match options.fsync {
            FsyncPolicy::Interval(interval) if interval.is_zero() => FsyncPolicy::Always,
            fsync => fsync,
        };
        let log = Arc::new(Log {
            dir: options.dir,
            fsync,
            segment_bytes: options.segment_bytes,
            inner: Mutex::new(Inner {
                file: Arc::new(file),
                seg_index,
                seg_len,
                next_lsn,
                record: Vec::new(),
            }),
            sync: Mutex::new(()),
            synced_lsn: AtomicU64::new(next_lsn - 1),
            last_lsn: AtomicU64::new(next_lsn - 1),
            snapshot_lsn: AtomicU64::new(snapshot_lsn),
            fsyncs: AtomicU64::new(0),
            appended_bytes: AtomicU64::new(0),
            records: AtomicU64::new(0),
            failed: OnceLock::new(),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let replay = Replay {
            snapshot,
            snapshot_lsn,
            records,
            truncated,
        };
        let wal = Self {
            log,
            flusher: OnceLock::new(),
        };
        Ok((wal, replay))
    }

    /// Append one record and flush it according to the fsync policy.
    /// Returns the record's LSN; under `FsyncPolicy::Always` the
    /// record is durable when this returns.
    pub fn append(&self, payload: &[u8]) -> io::Result<u64> {
        let log = &*self.log;
        if let FsyncPolicy::Interval(interval) = log.fsync {
            self.start_flusher(interval);
        }
        log.check_failed()?;
        if payload.len() > MAX_RECORD_LEN as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("wal record of {} bytes exceeds cap", payload.len()),
            ));
        }
        let record_len = RECORD_HEADER_LEN + payload.len() as u64;
        let crc = crc32(payload);
        let lsn = {
            let mut inner = lock(&log.inner);
            // glider: hot-path (Wal::append while it holds the log mutex)
            if inner.seg_len + record_len > log.segment_bytes && inner.seg_len > SEGMENT_HEADER_LEN
            {
                self.rotate(&mut inner)?;
            }
            let Inner { file, record, .. } = &mut *inner;
            record.clear();
            record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            record.extend_from_slice(&crc.to_le_bytes());
            record.extend_from_slice(payload);
            // One write per record: once append returns, the whole
            // record is in the kernel and survives kill -9.
            (&**file)
                .write_all(record)
                .map_err(|err| log.fail_sync(err))?;
            inner.seg_len += record_len;
            let lsn = inner.next_lsn;
            inner.next_lsn += 1;
            log.last_lsn.store(lsn, Ordering::Release);
            log.appended_bytes.fetch_add(record_len, Ordering::Relaxed);
            log.records.fetch_add(1, Ordering::Relaxed);
            // glider: end-hot-path
            lsn
        };
        match log.fsync {
            FsyncPolicy::Always => log.sync_to(lsn)?,
            // The flusher syncs this record within one interval.
            FsyncPolicy::Interval(_) | FsyncPolicy::Never => {}
        }
        Ok(lsn)
    }

    /// Starts the flusher unless it has been started; a flusher that
    /// cannot start is a failed background sync.
    fn start_flusher(&self, interval: Duration) {
        self.flusher.get_or_init(|| {
            let log = Arc::clone(&self.log);
            std::thread::Builder::new()
                .name("glider-wal-flush".into())
                .spawn(move || log.flush_every(interval))
                .map_err(|err| self.log.fail_sync(err))
                .ok()
        });
    }

    /// Block until the record at `lsn` (and everything before it) is
    /// durable. Concurrent callers coalesce onto one fsync. An `lsn`
    /// past [`Wal::last_lsn`] names no record and is `InvalidInput`.
    pub fn sync_to(&self, lsn: u64) -> io::Result<()> {
        self.log.sync_to(lsn)
    }

    /// Flush everything appended so far.
    pub fn sync(&self) -> io::Result<()> {
        self.log.sync()
    }

    /// Must be called with `inner` held. Syncs the outgoing segment
    /// (unless policy is `Never`) and starts the next one, keeping the
    /// invariant that only the current segment can be unsynced.
    fn rotate(&self, inner: &mut Inner) -> io::Result<()> {
        let log = &*self.log;
        if log.fsync != FsyncPolicy::Never {
            inner.file.sync_data().map_err(|err| log.fail_sync(err))?;
            log.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        let index = inner.seg_index + 1;
        inner.file = Arc::new(create_segment(&log.dir, index, inner.next_lsn)?);
        inner.seg_index = index;
        inner.seg_len = SEGMENT_HEADER_LEN;
        Ok(())
    }

    /// Atomically install a snapshot covering every record up to and
    /// including `covered_lsn`, then delete segments whose records are
    /// all covered. The caller serializes the *content* of the
    /// snapshot against its own state; it may already hold records
    /// past `covered_lsn`, which replay still returns, so the payload
    /// must say which (the metadata server records a cut per part of
    /// its state). A `covered_lsn` past [`Wal::last_lsn`] is
    /// `InvalidInput` and writes nothing: replay numbers records from
    /// the segment header, so a snapshot claiming more than the log
    /// holds would swallow the records appended after it.
    pub fn install_snapshot(&self, covered_lsn: u64, payload: &[u8]) -> io::Result<()> {
        let log = &*self.log;
        let last = log.last_lsn.load(Ordering::Acquire);
        if covered_lsn > last {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("snapshot covers lsn {covered_lsn} but the log ends at {last}"),
            ));
        }
        let _guard = lock(&log.sync);
        let tmp = log.dir.join(SNAPSHOT_TMP);
        let path = log.dir.join(SNAPSHOT_FILE);
        let mut buf = Vec::with_capacity(SNAPSHOT_HEADER_LEN + payload.len());
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&covered_lsn.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&buf)?;
            file.sync_data()?;
        }
        fs::rename(&tmp, &path)?;
        sync_dir(&log.dir)?;
        log.snapshot_lsn.store(covered_lsn, Ordering::Release);
        self.compact(covered_lsn)?;
        Ok(())
    }

    /// Delete segments entirely covered by `covered_lsn`. The current
    /// segment is always kept.
    fn compact(&self, covered_lsn: u64) -> io::Result<()> {
        let log = &*self.log;
        let current_index = lock(&log.inner).seg_index;
        let segments = list_segments(&log.dir)?;
        let mut removed = false;
        for (pos, (index, path)) in segments.iter().enumerate() {
            if *index == current_index {
                break;
            }
            // A segment is fully covered iff its successor starts at
            // or below covered_lsn + 1 (successor first_lsn is this
            // segment's last lsn + 1).
            let covered = match segments.get(pos + 1) {
                Some((_, next_path)) => read_segment_first_lsn(next_path)? <= covered_lsn + 1,
                None => false,
            };
            if covered {
                fs::remove_file(path)?;
                removed = true;
            } else {
                break;
            }
        }
        if removed {
            sync_dir(&log.dir)?;
        }
        Ok(())
    }

    /// LSN of the most recently appended record (0 before any append).
    pub fn last_lsn(&self) -> u64 {
        self.log.last_lsn.load(Ordering::Acquire)
    }

    /// Highest LSN known durable.
    pub fn synced_lsn(&self) -> u64 {
        self.log.synced_lsn.load(Ordering::Acquire)
    }

    /// LSN covered by the newest installed snapshot.
    pub fn snapshot_lsn(&self) -> u64 {
        self.log.snapshot_lsn.load(Ordering::Acquire)
    }

    pub fn stats(&self) -> WalStats {
        let log = &*self.log;
        let last = log.last_lsn.load(Ordering::Relaxed);
        let snap = log.snapshot_lsn.load(Ordering::Relaxed);
        WalStats {
            fsyncs: log.fsyncs.load(Ordering::Relaxed),
            appended_bytes: log.appended_bytes.load(Ordering::Relaxed),
            records: log.records.load(Ordering::Relaxed),
            since_snapshot: last.saturating_sub(snap),
        }
    }
}

/// Stops and joins the flusher, then syncs what it had not reached: a
/// log closed in order loses nothing under any policy but `Never`.
impl Drop for Wal {
    fn drop(&mut self) {
        let Some(Some(flusher)) = self.flusher.take() else {
            return;
        };
        *lock(&self.log.stop) = true;
        self.log.wake.notify_one();
        // The flusher cannot panic; a sync that fails here has no
        // caller left to tell.
        let _ = flusher.join();
        let _ = self.log.sync();
    }
}

impl Log {
    fn sync_to(&self, lsn: u64) -> io::Result<()> {
        self.check_failed()?;
        if self.synced_lsn.load(Ordering::Acquire) >= lsn {
            return Ok(());
        }
        let last = self.last_lsn.load(Ordering::Acquire);
        if lsn > last {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("sync_to({lsn}) is past the last appended lsn {last}"),
            ));
        }
        let _guard = lock(&self.sync);
        if self.synced_lsn.load(Ordering::Acquire) >= lsn {
            // Another appender synced past us while we queued.
            return Ok(());
        }
        let (file, high) = {
            let inner = lock(&self.inner);
            (Arc::clone(&inner.file), inner.next_lsn - 1)
        };
        file.sync_data().map_err(|err| self.fail_sync(err))?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.synced_lsn.store(high, Ordering::Release);
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        self.sync_to(self.last_lsn.load(Ordering::Acquire))
    }

    /// The flusher's body: sync every `interval` until `Drop` sets
    /// `stop`. A wakeup with nothing new appended finds the log synced
    /// and issues no fsync; a failed sync (which `sync_to` keeps for
    /// every later call) ends the thread.
    fn flush_every(&self, interval: Duration) {
        loop {
            let stopped = {
                let stop = lock(&self.stop);
                let (stop, _) = self
                    .wake
                    .wait_timeout_while(stop, interval, |stop| !*stop)
                    .unwrap_or_else(PoisonError::into_inner);
                *stop
            };
            if stopped {
                return;
            }
            if self.sync().is_err() {
                return;
            }
        }
    }

    /// Keeps `err` as the log's failure (the first one wins) and
    /// returns it to the caller that met it.
    fn fail_sync(&self, err: io::Error) -> io::Error {
        let _ = self.failed.set(io::Error::new(err.kind(), err.to_string()));
        err
    }

    /// An error of the kept failure's kind, if a write or sync failed.
    fn check_failed(&self) -> io::Result<()> {
        match self.failed.get() {
            Some(err) => Err(io::Error::new(
                err.kind(),
                format!("an earlier write or fsync failed: {err}"),
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_sim::TempDir;

    fn test_dir(name: &str) -> TempDir {
        TempDir::new(&format!("glider-wal-test-{name}"))
    }

    fn opts(dir: &Path) -> WalOptions {
        WalOptions::new(dir).with_fsync(FsyncPolicy::Never)
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = test_dir("round-trip");
        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; usize::from(i) * 7 + 1]).collect();
        {
            let (wal, replay) = Wal::open(opts(&dir)).unwrap();
            assert!(replay.records.is_empty());
            assert!(replay.snapshot.is_none());
            for (i, payload) in payloads.iter().enumerate() {
                let lsn = wal.append(payload).unwrap();
                assert_eq!(lsn, i as u64 + 1);
            }
            wal.sync().unwrap();
        }
        let (wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(replay.records, payloads);
        assert!(!replay.truncated);
        assert_eq!(wal.last_lsn(), payloads.len() as u64);
    }

    #[test]
    fn empty_payload_records_are_valid() {
        let dir = test_dir("empty-payload");
        {
            let (wal, _) = Wal::open(opts(&dir)).unwrap();
            wal.append(b"").unwrap();
            wal.append(b"x").unwrap();
        }
        let (_, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(replay.records, vec![Vec::new(), b"x".to_vec()]);
    }

    /// A segment the snapshot covers entirely is still verified but
    /// leaves no bytes behind: the records hold exactly the replayed
    /// payloads, across the arena and the image, and an empty one
    /// between two others keeps its place.
    #[test]
    fn records_hold_exactly_the_replayed_payloads() {
        let dir = test_dir("records");
        let replayed: [&[u8]; 3] = [b"alpha", b"", b"omega"];
        {
            let (wal, _) = Wal::open(opts(&dir).with_segment_bytes(128)).unwrap();
            // Three 32-byte records and "alpha" fill segment 1; the
            // snapshot covers the three while it is still current, so
            // compaction keeps it. The empty payload opens segment 2.
            for i in 0..3u8 {
                wal.append(&[i; 24]).unwrap();
            }
            wal.install_snapshot(3, b"three").unwrap();
            for payload in replayed {
                wal.append(payload).unwrap();
            }
        }
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        let (_, replay) = Wal::open(opts(&dir).with_segment_bytes(128)).unwrap();
        let records = &replay.records;
        assert_eq!(records.len(), 3);
        assert!(records.iter().eq(replayed));
        assert_eq!(records.iter().size_hint(), (3, Some(3)));
        for (i, payload) in replayed.iter().enumerate() {
            assert_eq!(records.get(i), Some(*payload));
        }
        assert_eq!(records.get(3), None);
        assert_eq!(records.concat(), replayed.concat());
        assert_eq!(format!("{records:?}"), "Records { len: 3, bytes: 10 }");
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_usable() {
        let dir = test_dir("torn-tail");
        {
            let (wal, _) = Wal::open(opts(&dir)).unwrap();
            for i in 0..5u8 {
                wal.append(&[i; 32]).unwrap();
            }
        }
        // Chop mid-way through the last record.
        let path = segment_path(&dir, 1);
        let len = fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 10).unwrap();
        drop(file);

        let (wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.records.get(3), Some(&[3u8; 32][..]));
        // The tail is writable again and replays cleanly.
        let lsn = wal.append(&[9u8; 8]).unwrap();
        assert_eq!(lsn, 5);
        drop(wal);
        let (_, replay) = Wal::open(opts(&dir)).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.records.get(4), Some(&[9u8; 8][..]));
    }

    #[test]
    fn corrupt_crc_in_tail_drops_the_record() {
        let dir = test_dir("bad-crc");
        {
            let (wal, _) = Wal::open(opts(&dir)).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
        }
        let path = segment_path(&dir, 1);
        let mut data = fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        fs::write(&path, &data).unwrap();

        let (_, replay) = Wal::open(opts(&dir)).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.records, vec![b"first".to_vec()]);
    }

    #[test]
    fn corruption_in_non_final_segment_is_fatal() {
        let dir = test_dir("mid-corrupt");
        {
            let (wal, _) = Wal::open(opts(&dir).with_segment_bytes(64)).unwrap();
            for i in 0..8u8 {
                wal.append(&[i; 24]).unwrap();
            }
        }
        assert!(list_segments(&dir).unwrap().len() >= 2);
        let path = segment_path(&dir, 1);
        let mut data = fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let err = Wal::open(opts(&dir)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let dir = test_dir("rotate");
        let payloads: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i; 40]).collect();
        {
            let (wal, _) = Wal::open(opts(&dir).with_segment_bytes(128)).unwrap();
            for payload in &payloads {
                wal.append(payload).unwrap();
            }
        }
        assert!(list_segments(&dir).unwrap().len() > 3);
        let (_, replay) = Wal::open(opts(&dir).with_segment_bytes(128)).unwrap();
        assert_eq!(replay.records, payloads);
    }

    #[test]
    fn snapshot_compacts_and_replay_resumes_past_it() {
        let dir = test_dir("snapshot");
        {
            let (wal, _) = Wal::open(opts(&dir).with_segment_bytes(128)).unwrap();
            for i in 0..20u8 {
                wal.append(&[i; 40]).unwrap();
            }
            let cut = wal.last_lsn();
            wal.install_snapshot(cut, b"state-at-20").unwrap();
            for i in 20..25u8 {
                wal.append(&[i; 4]).unwrap();
            }
            assert!(list_segments(&dir).unwrap().len() < 20);
        }
        let (wal, replay) = Wal::open(opts(&dir).with_segment_bytes(128)).unwrap();
        assert_eq!(replay.snapshot.as_deref(), Some(&b"state-at-20"[..]));
        assert_eq!(replay.snapshot_lsn, 20);
        assert_eq!(
            replay.records,
            (20..25u8).map(|i| vec![i; 4]).collect::<Vec<_>>()
        );
        assert_eq!(wal.last_lsn(), 25);
        assert_eq!(wal.snapshot_lsn(), 20);
    }

    /// The second case holds two 1-byte records per segment and cuts
    /// inside the second: the replay joins that segment's uncovered
    /// record, the middle segments and the newest segment, which a
    /// second CPU verifies on the helper.
    #[test]
    fn snapshot_mid_segment_skips_covered_prefix_on_replay() {
        for (segment_bytes, cut) in [(8 * 1024 * 1024, 6u8), (40, 3)] {
            let dir = test_dir(&format!("snapshot-mid-{segment_bytes}"));
            let options = opts(&dir).with_segment_bytes(segment_bytes);
            {
                let (wal, _) = Wal::open(options.clone()).unwrap();
                for i in 0..10u8 {
                    wal.append(&[i]).unwrap();
                }
                wal.install_snapshot(cut.into(), b"cut").unwrap();
            }
            let suffix = |end: u8| (cut..end).map(|i| vec![i]).collect::<Vec<_>>();
            let (wal, replay) = Wal::open(options.clone()).unwrap();
            assert_eq!(replay.snapshot_lsn, u64::from(cut));
            assert_eq!(replay.records, suffix(10));
            assert_eq!(wal.append(&[10]).unwrap(), 11);
            drop(wal);
            let (_, replay) = Wal::open(options).unwrap();
            assert_eq!(replay.records, suffix(11));
            if segment_bytes == 40 {
                assert_eq!(list_segments(&dir).unwrap().len(), 5);
            }
        }
    }

    /// An older segment with a corrupt record fails the open although
    /// the newest, verified meanwhile on the helper, reads as a torn
    /// tail: nothing is truncated before every older segment verified.
    #[test]
    fn corruption_in_older_and_newest_segment_fails_without_truncating() {
        let dir = test_dir("two-corrupt");
        {
            let (wal, _) = Wal::open(opts(&dir).with_segment_bytes(64)).unwrap();
            for i in 0..9u8 {
                wal.append(&[i; 24]).unwrap();
            }
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        let (older, newest) = (&segments[1].1, &segments[segments.len() - 1].1);
        for path in [older, newest] {
            let mut data = fs::read(path).unwrap();
            let last = data.len() - 1;
            data[last] ^= 0xFF;
            fs::write(path, &data).unwrap();
        }
        let newest_len = fs::metadata(newest).unwrap().len();
        let err = Wal::open(opts(&dir).with_segment_bytes(64)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&older.display().to_string()),
            "{err}"
        );
        assert_eq!(fs::metadata(newest).unwrap().len(), newest_len);
    }

    /// Writes `head` into segment 1 and `tail` into segment 2 (one
    /// segment when `head` is empty): the first `tail` record goes
    /// through a log whose segments hold one record each.
    fn write_head_then_tail(dir: &Path, head: &[&[u8]], tail: &[&[u8]]) {
        for (records, segment_bytes) in [(head, 1 << 20), (&tail[..1], 0), (&tail[1..], 1 << 20)] {
            let (wal, _) = Wal::open(opts(dir).with_segment_bytes(segment_bytes)).unwrap();
            for record in records {
                wal.append(record).unwrap();
            }
        }
    }

    /// The older segment's records come before the newest segment's,
    /// whichever holds more bytes, and records compare by payload
    /// whatever their layout.
    #[test]
    fn records_keep_lsn_order_across_segments_and_compare_by_payload() {
        let short: [&[u8]; 2] = [b"a", b""];
        let long: [&[u8]; 3] = [b"bcdef", b"", b"ghij"];
        for (case, (head, tail)) in [(&short[..], &long[..]), (&long, &short), (&[], &long)]
            .into_iter()
            .enumerate()
        {
            let dir = test_dir(&format!("head-tail-{case}"));
            write_head_then_tail(&dir, head, tail);
            let segments = if head.is_empty() { 1 } else { 2 };
            assert_eq!(list_segments(&dir).unwrap().len(), segments);
            let (_, replay) = Wal::open(opts(&dir)).unwrap();
            let merged = &replay.records;
            let expected: Vec<&[u8]> = head.iter().chain(tail).copied().collect();
            assert!(merged.iter().eq(expected.iter().copied()));
            assert_eq!(merged.len(), expected.len());
            for (i, payload) in expected.iter().enumerate() {
                assert_eq!(merged.get(i), Some(*payload));
            }
            assert_eq!(merged.get(expected.len()), None);
            assert_eq!(merged.concat(), expected.concat());

            // The same payloads in one segment: another layout.
            let flat = test_dir(&format!("head-tail-flat-{case}"));
            write_head_then_tail(&flat, &[], &expected);
            assert_eq!(list_segments(&flat).unwrap().len(), 1);
            let (_, flat) = Wal::open(opts(&flat)).unwrap();
            assert_eq!(flat.records, replay.records);
            assert_eq!(format!("{:?}", flat.records), format!("{merged:?}"));
        }
        let differ = |last: &[u8]| {
            let dir = test_dir(&format!("head-tail-differ-{}", last[0]));
            write_head_then_tail(&dir, &short, &[last]);
            Wal::open(opts(&dir)).unwrap().1.records
        };
        assert_ne!(differ(b"b"), differ(b"c"));
    }

    /// The scans' test window: payloads of 0–3 windows put record
    /// headers and payloads across its edges at every offset.
    const TINY: usize = 32;

    /// A one-segment log of `payloads` in `dir`, and its path.
    fn segment_with(dir: &Path, payloads: &[Vec<u8>]) -> PathBuf {
        let (wal, _) = Wal::open(opts(dir)).unwrap();
        for payload in payloads {
            wal.append(payload).unwrap();
        }
        segment_path(dir, 1)
    }

    /// Scans `path` as an older segment, through `window`.
    fn scan_streamed(
        path: &Path,
        allow_torn: bool,
        snapshot_lsn: u64,
        window: &mut Vec<u8>,
    ) -> io::Result<(SegScan, Records)> {
        let mut records = Records::default();
        let scan = scan_segment(
            path,
            allow_torn,
            snapshot_lsn,
            window,
            Keep::Copy(&mut records),
        )?;
        Ok((scan, records))
    }

    /// Scans `path` as the newest segment, read whole.
    fn scan_whole(path: &Path, snapshot_lsn: u64) -> (SegScan, Records) {
        let mut records = Records::default();
        let mut image = Vec::new();
        let keep = Keep::InPlace(&mut records.spans);
        let scan = scan_segment(path, true, snapshot_lsn, &mut image, keep).unwrap();
        records.image = image;
        (scan, records)
    }

    fn scan_fields(scan: &SegScan) -> (u64, u64, u64, bool) {
        (scan.first_lsn, scan.next_lsn, scan.good_len, scan.torn)
    }

    /// Seeded payloads of 0–3 windows, scanned through every window size
    /// from one byte to two test windows, and cut short at every byte:
    /// the streamed scan finds what the whole-file scan finds, with
    /// offsets in the file.
    #[test]
    fn streamed_scans_agree_with_the_whole_file_at_every_window_edge() {
        for seed in glider_sim::seeds(0..16) {
            let mut rng = glider_sim::Lcg(seed);
            let payloads: Vec<Vec<u8>> = (0..rng.range(1, 12))
                .map(|_| {
                    let len = rng.range(0, 3 * TINY as u64 + 1);
                    (0..len).map(|_| rng.byte()).collect()
                })
                .collect();
            let cut = rng.range(0, payloads.len() as u64 + 1);
            let dir = test_dir(&format!("window-{seed}"));
            let path = segment_with(&dir, &payloads);
            let bytes = fs::read(&path).unwrap();
            let (whole, records) = scan_whole(&path, cut);
            let intact = (1, payloads.len() as u64 + 1, bytes.len() as u64, false);
            assert_eq!(scan_fields(&whole), intact, "seed {seed}");
            assert_eq!(records, payloads[cut as usize..], "seed {seed}");
            for window_len in 1..=2 * TINY {
                let mut window = vec![0; window_len];
                let (scan, streamed) = scan_streamed(&path, false, cut, &mut window).unwrap();
                let case = format!("seed {seed}, window {window_len}");
                assert_eq!(scan_fields(&scan), intact, "{case}");
                assert_eq!(streamed, records, "{case}");
            }
            // The same log torn at every byte past the segment header.
            let torn = dir.join("torn.log");
            for len in SEGMENT_HEADER_LEN as usize..bytes.len() {
                fs::write(&torn, &bytes[..len]).unwrap();
                let (whole, records) = scan_whole(&torn, 0);
                for window_len in [1, TINY - 1, TINY] {
                    let mut window = vec![0; window_len];
                    let (scan, streamed) = scan_streamed(&torn, true, 0, &mut window).unwrap();
                    let case = format!("seed {seed}, cut at {len}, window {window_len}");
                    assert_eq!(scan_fields(&scan), scan_fields(&whole), "{case}");
                    assert_eq!(streamed, records, "{case}");
                }
            }
        }
    }

    /// A record larger than the window grows it to that record, and no
    /// further.
    #[test]
    fn a_record_larger_than_the_window_grows_it() {
        let dir = test_dir("window-grows");
        let payloads = vec![vec![1u8; 5], vec![2u8; 5 * TINY], Vec::new(), vec![3u8; 2]];
        let path = segment_with(&dir, &payloads);
        let mut window = vec![0; TINY];
        let (scan, records) = scan_streamed(&path, false, 0, &mut window).unwrap();
        assert_eq!(records, payloads);
        assert_eq!(scan.good_len, fs::metadata(&path).unwrap().len());
        assert_eq!(window.len(), RECORD_HEADER_LEN as usize + 5 * TINY);
    }

    /// The newest segment's window is the whole file, so a tail cut
    /// inside a record header or a payload is cut at the window's end:
    /// both are torn tails, truncated to the last whole record.
    #[test]
    fn a_tail_torn_at_the_end_of_the_newest_window_is_truncated() {
        let payloads = vec![vec![1u8; 40], vec![2u8; 40]];
        let first_end = SEGMENT_HEADER_LEN + RECORD_HEADER_LEN + 40;
        for (case, cut) in [("header", first_end + 3), ("payload", first_end + 8 + 39)] {
            let dir = test_dir(&format!("torn-{case}"));
            let path = segment_with(&dir, &payloads);
            OpenOptions::new()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(cut)
                .unwrap();
            let (scan, records) = scan_whole(&path, 0);
            assert_eq!(scan_fields(&scan), (1, 2, first_end, true), "{case}");
            assert_eq!(records, payloads[..1], "{case}");
            let (wal, replay) = Wal::open(opts(&dir)).unwrap();
            assert!(replay.truncated, "{case}");
            assert_eq!(replay.records, payloads[..1], "{case}");
            assert_eq!(fs::metadata(&path).unwrap().len(), first_end, "{case}");
            assert_eq!(wal.append(b"next").unwrap(), 2, "{case}");
        }
    }

    /// A length over the cap met in a later window ends the scan at that
    /// record's file offset without growing the window for it.
    #[test]
    fn a_length_over_the_cap_in_a_later_window_names_its_file_offset() {
        let dir = test_dir("over-cap");
        let path = segment_with(&dir, &[vec![7u8; TINY], vec![8u8; TINY]]);
        let bad = fs::metadata(&path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&(MAX_RECORD_LEN + 1).to_le_bytes()).unwrap();
        file.write_all(&[0; 4 + TINY]).unwrap();
        drop(file);
        let mut window = vec![0; TINY];
        let (scan, records) = scan_streamed(&path, true, 0, &mut window).unwrap();
        assert_eq!(scan_fields(&scan), (1, 3, bad, true));
        assert_eq!(records.len(), 2);
        assert!(window.len() <= RECORD_HEADER_LEN as usize + TINY);
        let err = scan_streamed(&path, false, 0, &mut vec![0; TINY])
            .err()
            .unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&format!("at offset {bad} ")),
            "{err}"
        );
    }

    /// A checksum that fails in a later window of a non-final segment
    /// fails the scan, naming the record's file offset.
    #[test]
    fn a_checksum_failing_in_a_later_window_names_its_file_offset() {
        let dir = test_dir("later-crc");
        let payloads: Vec<Vec<u8>> = (0..6u8)
            .map(|i| vec![i; TINY / 2 + usize::from(i)])
            .collect();
        let path = segment_with(&dir, &payloads);
        let mut bytes = fs::read(&path).unwrap();
        // The fifth record starts well past the first window.
        let bad: usize = SEGMENT_HEADER_LEN as usize
            + payloads[..4]
                .iter()
                .map(|p| RECORD_HEADER_LEN as usize + p.len())
                .sum::<usize>();
        assert!(bad > 2 * TINY);
        bytes[bad + RECORD_HEADER_LEN as usize] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = scan_streamed(&path, false, 0, &mut vec![0; TINY])
            .err()
            .unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&format!("at offset {bad} ")),
            "{err}"
        );
        let (scan, records) = scan_streamed(&path, true, 0, &mut vec![0; TINY]).unwrap();
        assert_eq!(scan_fields(&scan), (1, 5, bad as u64, true));
        assert_eq!(records, payloads[..4]);
    }

    #[test]
    fn missing_middle_segment_is_a_gap_error() {
        let dir = test_dir("gap");
        {
            let (wal, _) = Wal::open(opts(&dir).with_segment_bytes(64)).unwrap();
            for i in 0..9u8 {
                wal.append(&[i; 24]).unwrap();
            }
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        fs::remove_file(&segments[1].1).unwrap();
        let err = Wal::open(opts(&dir).with_segment_bytes(64)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("gap"), "{err}");
    }

    #[test]
    fn fsync_policy_always_syncs_every_append() {
        let dir = test_dir("fsync-always");
        let (wal, _) =
            Wal::open(WalOptions::new(dir.path()).with_fsync(FsyncPolicy::Always)).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        assert_eq!(wal.synced_lsn(), 2);
        assert!(wal.stats().fsyncs >= 2);
    }

    #[test]
    fn fsync_policy_never_never_syncs() {
        let dir = test_dir("fsync-never");
        let (wal, _) = Wal::open(opts(&dir)).unwrap();
        wal.append(b"a").unwrap();
        assert_eq!(wal.stats().fsyncs, 0);
        assert_eq!(wal.synced_lsn(), 0);
        // An explicit sync still works.
        wal.sync().unwrap();
        assert_eq!(wal.synced_lsn(), 1);
    }

    #[test]
    fn sync_to_coalesces_once_synced() {
        let dir = test_dir("coalesce");
        let (wal, _) = Wal::open(opts(&dir)).unwrap();
        let lsn1 = wal.append(b"a").unwrap();
        let lsn2 = wal.append(b"b").unwrap();
        wal.sync_to(lsn2).unwrap();
        let before = wal.stats().fsyncs;
        // Already covered by the earlier sync: no new fsync.
        wal.sync_to(lsn1).unwrap();
        wal.sync_to(lsn2).unwrap();
        assert_eq!(wal.stats().fsyncs, before);
    }

    #[test]
    fn oversized_records_are_rejected() {
        let dir = test_dir("oversize");
        let (wal, _) = Wal::open(opts(&dir)).unwrap();
        let big = vec![0u8; MAX_RECORD_LEN as usize + 1];
        let err = wal.append(&big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn stale_snapshot_tmp_is_cleaned_up() {
        let dir = test_dir("stale-tmp");
        fs::write(dir.join(SNAPSHOT_TMP), b"half-written").unwrap();
        let (_, replay) = Wal::open(opts(&dir)).unwrap();
        assert!(replay.snapshot.is_none());
        assert!(!dir.join(SNAPSHOT_TMP).exists());
    }

    #[test]
    fn short_trailing_segment_is_discarded() {
        let dir = test_dir("short-trailing");
        {
            let (wal, _) = Wal::open(opts(&dir)).unwrap();
            wal.append(b"alive").unwrap();
        }
        // Simulate a crash during segment creation: header half-written.
        fs::write(segment_path(&dir, 2), b"GWAL").unwrap();
        let (wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.records, vec![b"alive".to_vec()]);
        assert_eq!(wal.append(b"next").unwrap(), 2);
    }

    #[test]
    fn snapshot_past_the_end_of_the_log_is_rejected_and_writes_nothing() {
        let dir = test_dir("snapshot-past-end");
        let (wal, _) = Wal::open(opts(&dir)).unwrap();
        for i in 0..3u8 {
            wal.append(&[i]).unwrap();
        }
        let segment = fs::read(segment_path(&dir, 1)).unwrap();
        let err = wal.install_snapshot(10, b"claims ten").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(wal.snapshot_lsn(), 0);
        let mut names: Vec<_> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["wal-000001.log"]);
        assert_eq!(fs::read(segment_path(&dir, 1)).unwrap(), segment);
        // The record acked after the refused snapshot survives a reopen.
        assert_eq!(wal.append(b"acked").unwrap(), 4);
        drop(wal);
        let (wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(wal.last_lsn(), 4);
        assert_eq!(replay.snapshot_lsn, 0);
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.records.get(3), Some(&b"acked"[..]));
    }

    #[test]
    fn appends_after_a_tail_torn_below_the_snapshot_survive_reopen() {
        let dir = test_dir("torn-below-snapshot");
        {
            let (wal, _) = Wal::open(opts(&dir)).unwrap();
            for i in 0..10u8 {
                wal.append(&[i; 8]).unwrap();
            }
            wal.install_snapshot(6, b"six").unwrap();
        }
        // Power loss kept the snapshot but only two and a bit records.
        let path = segment_path(&dir, 1);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(SEGMENT_HEADER_LEN + 2 * 16 + 5).unwrap();
        drop(file);

        let (wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.snapshot_lsn, 6);
        assert!(replay.records.is_empty());
        assert_eq!(wal.append(b"acked").unwrap(), 7);
        drop(wal);
        for _ in 0..2 {
            let (wal, replay) = Wal::open(opts(&dir)).unwrap();
            assert!(!replay.truncated);
            assert_eq!(replay.records, vec![b"acked".to_vec()]);
            assert_eq!(wal.last_lsn(), 7);
        }
    }

    #[test]
    fn sync_to_past_the_end_of_the_log_is_rejected() {
        let dir = test_dir("sync-past-end");
        let (wal, _) = Wal::open(opts(&dir)).unwrap();
        for i in 0..10u8 {
            wal.append(&[i]).unwrap();
        }
        let err = wal.sync_to(99).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(wal.synced_lsn(), 0);
        assert_eq!(wal.stats().fsyncs, 0);
        wal.sync_to(10).unwrap();
        assert_eq!(wal.synced_lsn(), 10);
    }

    /// The metadata server's call: snapshot at whatever `last_lsn()`
    /// says while handlers keep appending.
    #[test]
    fn snapshot_at_last_lsn_succeeds_under_concurrent_appenders() {
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 1_500;
        let dir = test_dir("snapshot-concurrent");
        let (wal, _) = Wal::open(opts(&dir).with_segment_bytes(4096)).unwrap();
        let start = std::sync::Barrier::new(THREADS + 1);
        let mut installed = 0u64;
        std::thread::scope(|scope| {
            for t in 0..THREADS as u8 {
                let (wal, start) = (&wal, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..PER_THREAD {
                        wal.append(&[t; 24]).unwrap();
                    }
                });
            }
            start.wait();
            // Ends with one snapshot after the last append.
            while installed < THREADS as u64 * PER_THREAD {
                installed = wal.last_lsn();
                wal.install_snapshot(installed, &installed.to_le_bytes())
                    .unwrap();
            }
        });
        assert_eq!(wal.snapshot_lsn(), installed);
        drop(wal);
        let (wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(wal.last_lsn(), THREADS as u64 * PER_THREAD);
        assert_eq!(replay.snapshot_lsn, installed);
        assert_eq!(
            replay.snapshot.as_deref(),
            Some(&installed.to_le_bytes()[..])
        );
        assert_eq!(
            replay.snapshot_lsn + replay.records.len() as u64,
            wal.last_lsn()
        );
    }

    /// Four appenders share the log's one record buffer: every record
    /// must come back whole, and each thread's in the order it sent
    /// them. The second run rolls a 4 KiB segment dozens of times, so
    /// rotations race the flusher's syncs.
    #[test]
    fn concurrent_appends_keep_all_records() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2_000;
        const SEED: u64 = 0xC0FFEE;
        // Thread id, then 0..=300 bytes of that thread's seeded stream.
        let sent: Vec<Vec<Vec<u8>>> = (0..THREADS)
            .map(|t| {
                let mut rng = glider_sim::Lcg(SEED + t as u64);
                (0..PER_THREAD)
                    .map(|_| {
                        let mut payload = vec![t as u8];
                        payload.extend((0..rng.range(0, 301)).map(|_| rng.byte()));
                        payload
                    })
                    .collect()
            })
            .collect();
        for segment_bytes in [None, Some(4096)] {
            let dir = test_dir(&format!("concurrent-{segment_bytes:?}"));
            let mut options = WalOptions::new(dir.path())
                .with_fsync(FsyncPolicy::Interval(Duration::from_millis(1)));
            if let Some(bytes) = segment_bytes {
                options = options.with_segment_bytes(bytes);
            }
            let (wal, _) = Wal::open(options).unwrap();
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for payloads in &sent {
                    let (wal, start) = (&wal, &start);
                    scope.spawn(move || {
                        start.wait();
                        for payload in payloads {
                            wal.append(payload).unwrap();
                        }
                    });
                }
            });
            wal.sync().unwrap();
            assert_eq!(wal.last_lsn(), (THREADS * PER_THREAD) as u64);
            drop(wal);
            let segments = list_segments(&dir).unwrap().len();
            assert!(
                segment_bytes.is_none() || segments > 24,
                "{segments} segments"
            );
            let (_, replay) = Wal::open(opts(&dir)).unwrap();
            assert_eq!(replay.records.len(), THREADS * PER_THREAD);
            let mut next = [0usize; THREADS];
            for (pos, record) in replay.records.iter().enumerate() {
                let t = usize::from(record[0]);
                assert_eq!(
                    record, &sent[t][next[t]],
                    "seed {SEED:#x}, segment_bytes {segment_bytes:?}: record {pos} is not \
                     thread {t}'s record {}",
                    next[t]
                );
                next[t] += 1;
            }
            assert_eq!(next, [PER_THREAD; THREADS]);
        }
    }

    /// Records appended just before a log goes quiet still reach the
    /// disk: the flusher syncs them with no further append.
    #[test]
    fn interval_syncs_a_quiet_log() {
        let dir = test_dir("interval-quiet");
        let options =
            WalOptions::new(dir.path()).with_fsync(FsyncPolicy::Interval(Duration::from_millis(2)));
        let (wal, _) = Wal::open(options).unwrap();
        // The first append starts the flusher.
        assert!(wal.flusher.get().is_none());
        for i in 0..3u8 {
            wal.append(&[i; 16]).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while wal.synced_lsn() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(wal.synced_lsn(), 3);
        assert!(wal.stats().fsyncs >= 1);
    }

    /// Handlers share one log across threads and print it in errors.
    const _: fn() = || {
        fn shareable<T: Send + Sync + std::fmt::Debug>() {}
        shareable::<Wal>();
    };

    /// A zero interval is `Always`: no flusher, one fsync per append.
    #[test]
    fn zero_interval_syncs_every_append() {
        let dir = test_dir("interval-zero");
        let (wal, _) = Wal::open(
            WalOptions::new(dir.path()).with_fsync(FsyncPolicy::Interval(Duration::ZERO)),
        )
        .unwrap();
        assert!(wal.flusher.get().is_none());
        for n in 1..=5u64 {
            assert_eq!(wal.append(&n.to_le_bytes()).unwrap(), n);
            assert_eq!(wal.synced_lsn(), wal.last_lsn());
            assert_eq!(wal.stats().fsyncs, n);
        }
    }

    /// A failed background sync is returned by every later call, and an
    /// append it refuses writes nothing.
    #[test]
    fn failed_background_sync_is_sticky() {
        let dir = test_dir("sticky-failure");
        let options =
            WalOptions::new(dir.path()).with_fsync(FsyncPolicy::Interval(Duration::from_secs(60)));
        let (wal, _) = Wal::open(options).unwrap();
        wal.append(b"before").unwrap();
        let eio = io::Error::from_raw_os_error(5);
        let kind = eio.kind();
        wal.log.fail_sync(eio);
        assert_eq!(wal.append(b"after").unwrap_err().kind(), kind);
        assert_eq!(wal.last_lsn(), 1);
        assert_eq!(wal.sync_to(1).unwrap_err().kind(), kind);
        assert_eq!(wal.sync().unwrap_err().kind(), kind);
        assert_eq!(wal.synced_lsn(), 0);
        assert_eq!(wal.stats().fsyncs, 0);
    }

    /// A failed append write fails the log: no record lands behind the
    /// bytes it may have left, and a reopen replays exactly the records
    /// acked before it.
    #[test]
    fn failed_append_write_is_sticky() {
        let dir = test_dir("sticky-write");
        let (wal, _) = Wal::open(opts(&dir)).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        let path = segment_path(&dir, lock(&wal.log.inner).seg_index);
        let read_only = Arc::new(File::open(&path).unwrap());
        let writable = std::mem::replace(&mut lock(&wal.log.inner).file, read_only);
        let kind = wal.append(b"refused").unwrap_err().kind();
        lock(&wal.log.inner).file = writable;
        assert_eq!(wal.append(b"after").unwrap_err().kind(), kind);
        assert_eq!(wal.sync().unwrap_err().kind(), kind);
        assert_eq!(wal.last_lsn(), 2);
        drop(wal);
        let (_, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(replay.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(!replay.truncated);
    }
}
