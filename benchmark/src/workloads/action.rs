//! Near-data compute inside the paper's actions (Table 2, Fig. 7–9):
//! `action-scan`, `action-reduce` and `action-sort`.

use super::{install_recorder, Scale};
use crate::gen::{self, SplitMix64};
use crate::harness::{Client, Verdict, Workload};
use crate::scratch::Scratch;
use crate::tracer::{span, Tracer};
use glider_bench_layers::hist::LogHistogram;
use glider_bench_layers::kernels::{
    count_words, find_byte, radix_partition_into, sort_records_by_key, StreamingAggregator,
};
use glider_bench_layers::trace::Span;
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// The chunk size `actions_sweep` streams records in.
pub const CHUNK: usize = 16 * 1024;
/// Sort record and key sizes of the paper's sort workload.
pub const RECORD_LEN: usize = 100;
pub const KEY_LEN: usize = 10;
/// Partitions one sorter action fans out to.
pub const PARTITIONS: usize = 8;

/// The `action.run` span and latency record the executor wraps around
/// every handler call; `body` is the handler.
fn action_run<T: Tracer, R>(tr: &mut T, hist: &LogHistogram, body: impl FnOnce(&mut T) -> R) -> R {
    let started = Instant::now();
    let run = span(tr, "trace.root", || Span::root("action.run"));
    let result = body(tr);
    span(tr, "metrics.record", || {
        hist.record(started.elapsed().as_nanos() as u64)
    });
    span(tr, "trace.finish", || drop(run));
    result
}

/// Words and lines of one chunk, by the definitions the kernels must
/// equal: `u8::is_ascii_whitespace` and a byte-by-byte newline count.
fn scalar_scan(chunk: &[u8], mut in_word: bool) -> (u64, u64) {
    let (mut words, mut lines) = (0, 0);
    for &b in chunk {
        let space = b.is_ascii_whitespace();
        words += u64::from(!space && !in_word);
        in_word = !space;
        lines += u64::from(b == b'\n');
    }
    (words, lines)
}

/// Word-count / filter action: one 16 KiB chunk through `count_words`
/// and `find_byte` line splitting per operation.
#[derive(Debug)]
pub struct ActionScan {
    text: Arc<Vec<u8>>,
    hist: Arc<LogHistogram>,
    /// Per chunk: (words, lines), the scalar loop's answer.
    expected: Arc<Vec<(u64, u64)>>,
}

#[derive(Debug)]
pub struct ScanClient {
    text: Arc<Vec<u8>>,
    hist: Arc<LogHistogram>,
    expected: Arc<Vec<(u64, u64)>>,
    chunk: usize,
    in_word: bool,
}

fn is_word_byte(b: u8) -> bool {
    !b.is_ascii_whitespace()
}

impl Client for ScanClient {
    fn op<T: Tracer>(&mut self, tr: &mut T) -> bool {
        let chunks = self.text.len() / CHUNK;
        let index = self.chunk;
        self.chunk = (index + 1) % chunks;
        let chunk = &self.text[index * CHUNK..(index + 1) * CHUNK];
        let carry = self.in_word;
        let (words, in_word, lines) = action_run(tr, &self.hist, |tr| {
            let (words, in_word) = span(tr, "analytics.count_words", || count_words(chunk, carry));
            let lines = span(tr, "analytics.find_byte", || {
                let (mut lines, mut rest) = (0u64, chunk);
                while let Some(newline) = find_byte(rest, b'\n') {
                    lines += 1;
                    rest = &rest[newline + 1..];
                }
                lines
            });
            (words, in_word, lines)
        });
        self.in_word = in_word;
        black_box((words, lines)) == self.expected[index]
    }
}

impl Workload for ActionScan {
    type Client = ScanClient;
    const THREADS: usize = 2;
    const SAMPLE_EVERY: u64 = 1;

    fn setup(seed: u64, _scratch: &Scratch, scale: Scale) -> io::Result<Self> {
        install_recorder();
        let len = scale.pick(64 << 20, 1 << 20);
        Ok(ActionScan {
            text: Arc::new(gen::text(
                &mut SplitMix64::stream(seed, "scan.text", 0),
                len,
            )),
            hist: Arc::new(LogHistogram::new()),
            expected: Arc::new(Vec::new()),
        })
    }

    fn prepare_oracle(&mut self) {
        // Clients walk the buffer as a ring, so each chunk's carry is
        // the byte before it, wrapping at the start.
        let text = &self.text;
        self.expected = Arc::new(
            (0..text.len() / CHUNK)
                .map(|i| {
                    let before = text[(i * CHUNK + text.len() - 1) % text.len()];
                    scalar_scan(&text[i * CHUNK..(i + 1) * CHUNK], is_word_byte(before))
                })
                .collect(),
        );
    }

    fn clients(&self, n: usize) -> Vec<ScanClient> {
        let chunks = self.text.len() / CHUNK;
        (0..n)
            .map(|id| {
                let chunk = id * chunks / n;
                let before = self.text[(chunk * CHUNK + self.text.len() - 1) % self.text.len()];
                ScanClient {
                    text: Arc::clone(&self.text),
                    hist: Arc::clone(&self.hist),
                    expected: Arc::clone(&self.expected),
                    chunk,
                    in_word: is_word_byte(before),
                }
            })
            .collect()
    }

    /// Every operation was compared with the scalar answer as it ran.
    fn verify(self, _clients: Vec<ScanClient>) -> Verdict {
        Verdict::default()
    }
}

/// Reduce action: one 16 KiB chunk of `k,v` lines into the instance's
/// `StreamingAggregator` per operation.
#[derive(Debug)]
pub struct ActionReduce {
    /// One line buffer per instance, each ending on a line boundary.
    lines: Vec<Arc<Vec<u8>>>,
    hist: Arc<LogHistogram>,
}

#[derive(Debug)]
pub struct ReduceClient {
    lines: Arc<Vec<u8>>,
    hist: Arc<LogHistogram>,
    aggregator: StreamingAggregator,
    offset: usize,
    /// Times the whole buffer has been pushed.
    cycles: u64,
}

impl Client for ReduceClient {
    fn op<T: Tracer>(&mut self, tr: &mut T) -> bool {
        let end = (self.offset + CHUNK).min(self.lines.len());
        let chunk = &self.lines[self.offset..end];
        let aggregator = &mut self.aggregator;
        action_run(tr, &self.hist, |tr| {
            span(tr, "analytics.push_chunk", || aggregator.push_chunk(chunk));
        });
        self.offset = end;
        if end == self.lines.len() {
            self.offset = 0;
            self.cycles += 1;
        }
        true
    }
}

/// The dictionary a plain `str::parse::<i64>` + `HashMap` fold builds
/// from complete lines; a trailing unterminated line is left out, as it
/// is still in the aggregator's carry.
fn scalar_fold(data: &[u8]) -> HashMap<i64, i64> {
    let mut map = HashMap::new();
    let complete = data.iter().rposition(|b| *b == b'\n').map_or(0, |i| i + 1);
    for line in data[..complete].split(|b| *b == b'\n') {
        let parsed = std::str::from_utf8(line)
            .ok()
            .and_then(|line| line.split_once(','))
            .and_then(|(k, v)| Some((k.parse::<i64>().ok()?, v.parse::<i64>().ok()?)));
        if let Some((k, v)) = parsed {
            let slot: &mut i64 = map.entry(k).or_insert(0);
            *slot = slot.wrapping_add(v);
        }
    }
    map
}

impl Workload for ActionReduce {
    type Client = ReduceClient;
    const THREADS: usize = 2;
    const SAMPLE_EVERY: u64 = 1;

    fn setup(seed: u64, _scratch: &Scratch, scale: Scale) -> io::Result<Self> {
        install_recorder();
        // 100 000 keys of 16 B and the table's slack outgrow L2.
        let (len, keys) = (scale.pick(8 << 20, 1 << 18), scale.pick(100_000, 2_000));
        Ok(ActionReduce {
            lines: (0..Self::THREADS as u64)
                .map(|lane| {
                    let mut rng = SplitMix64::stream(seed, "reduce.lines", lane);
                    Arc::new(gen::kv_lines(&mut rng, len, keys))
                })
                .collect(),
            hist: Arc::new(LogHistogram::new()),
        })
    }

    fn clients(&self, n: usize) -> Vec<ReduceClient> {
        (0..n)
            .map(|id| ReduceClient {
                lines: Arc::clone(&self.lines[id]),
                hist: Arc::clone(&self.hist),
                aggregator: StreamingAggregator::new(),
                offset: 0,
                cycles: 0,
            })
            .collect()
    }

    /// Each instance's dictionary equals `cycles` × the fold of its whole
    /// buffer plus the fold of the part of the next cycle it pushed.
    fn verify(self, clients: Vec<ReduceClient>) -> Verdict {
        let mut failed = 0;
        for client in clients {
            let mut expected = scalar_fold(&client.lines[..client.offset]);
            if client.cycles > 0 {
                for (k, v) in scalar_fold(&client.lines) {
                    let slot = expected.entry(k).or_insert(0);
                    *slot = slot.wrapping_add(v.wrapping_mul(client.cycles as i64));
                }
            }
            let got = client.aggregator.into_map();
            failed += expected
                .iter()
                .filter(|(k, v)| got.get(k) != Some(v))
                .count() as u64;
            failed += got.keys().filter(|k| !expected.contains_key(k)).count() as u64;
        }
        Verdict { failed, wal: None }
    }
}

/// Sort action: radix-partition one 8 MB batch of 100 B records, then
/// sort every partition by its 10 B key.
#[derive(Debug)]
pub struct ActionSort {
    /// One batch per instance.
    batches: Vec<Arc<Vec<u8>>>,
    hist: Arc<LogHistogram>,
}

#[derive(Debug)]
pub struct SortClient {
    batch: Arc<Vec<u8>>,
    hist: Arc<LogHistogram>,
    partitions: Vec<Vec<u8>>,
    sorted: Vec<Vec<u8>>,
}

impl Client for SortClient {
    fn op<T: Tracer>(&mut self, tr: &mut T) -> bool {
        let (batch, partitions) = (&self.batch, &mut self.partitions);
        self.sorted = action_run(tr, &self.hist, |tr| {
            span(tr, "analytics.radix_partition", || {
                partitions.iter_mut().for_each(Vec::clear);
                radix_partition_into(batch, RECORD_LEN, partitions);
            });
            span(tr, "analytics.sort_records", || {
                partitions
                    .iter()
                    .map(|p| sort_records_by_key(p, RECORD_LEN, KEY_LEN))
                    .collect()
            })
        });
        black_box(self.sorted.iter().map(Vec::len).sum::<usize>()) == batch.len()
    }
}

impl Workload for ActionSort {
    type Client = SortClient;
    const THREADS: usize = 2;
    const SAMPLE_EVERY: u64 = 1;

    fn setup(seed: u64, _scratch: &Scratch, scale: Scale) -> io::Result<Self> {
        install_recorder();
        let records = scale.pick(80_000, 400);
        Ok(ActionSort {
            batches: (0..Self::THREADS as u64)
                .map(|lane| {
                    let mut rng = SplitMix64::stream(seed, "sort.records", lane);
                    Arc::new(gen::sort_records(&mut rng, records, RECORD_LEN))
                })
                .collect(),
            hist: Arc::new(LogHistogram::new()),
        })
    }

    fn clients(&self, n: usize) -> Vec<SortClient> {
        (0..n)
            .map(|id| SortClient {
                batch: Arc::clone(&self.batches[id]),
                hist: Arc::clone(&self.hist),
                partitions: vec![Vec::new(); PARTITIONS],
                sorted: Vec::new(),
            })
            .collect()
    }

    /// The partitions of an instance's last operation, end to end, equal
    /// a stable `sort_by` of its batch on the key, byte for byte. (Every
    /// operation sorts the same batch, and checked its own output size.)
    fn verify(self, clients: Vec<SortClient>) -> Verdict {
        let mut failed = 0;
        for client in clients.iter().filter(|c| !c.sorted.is_empty()) {
            let mut records: Vec<&[u8]> = client.batch.chunks_exact(RECORD_LEN).collect();
            records.sort_by(|a, b| a[..KEY_LEN].cmp(&b[..KEY_LEN]));
            failed += u64::from(records.concat() != client.sorted.concat());
        }
        Verdict { failed, wal: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::NoTrace;

    #[test]
    fn a_wrong_scan_answer_is_a_failed_op() {
        let _turn = crate::tests::recorder_turn();
        let scratch = Scratch::create().unwrap();
        let mut workload = ActionScan::setup(42, &scratch, Scale::Smoke).unwrap();
        workload.prepare_oracle();
        let mut off_by_one_chunk = workload.expected.to_vec();
        off_by_one_chunk.rotate_left(1);
        workload.expected = Arc::new(off_by_one_chunk);
        let mut clients = workload.clients(1);
        let wrong = (0..50).filter(|_| !clients[0].op(&mut NoTrace)).count();
        assert!(wrong >= 45, "{wrong}");
    }
}
