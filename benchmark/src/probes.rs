//! Per-layer probes: each times calls into one layer's public functions
//! on seeded inputs, with nothing else running. They do not depend on
//! the workload; a traced run reports them beside the workload's own
//! per-layer shares so one document holds both.

use crate::gen::{self, SplitMix64};
use crate::scratch::Scratch;
use crate::stats::median;
use crate::workloads::action::{CHUNK, KEY_LEN, PARTITIONS, RECORD_LEN};
use crate::workloads::meta::{payload, prepare_log, SNAPSHOT_BYTES};
use crate::workloads::{install_recorder, Scale};
use glider_bench_layers::hist::LogHistogram;
use glider_bench_layers::kernels::{
    count_words, find_byte, radix_partition_into, sort_records_by_key, StreamingAggregator,
};
use glider_bench_layers::shard::shard_of;
use glider_bench_layers::trace::{set_recorder, Span};
use glider_bench_layers::wal::{crc32, FsyncPolicy, Wal, WalOptions};
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

const MIB: f64 = (1 << 20) as f64;

/// How long each probe measures for.
struct Timer {
    budget: Duration,
}

impl Timer {
    /// Median time per unit, in ns, over batches run for the budget (at
    /// least three, after one discarded). `batch` returns the units it
    /// did.
    fn ns_per_unit(&self, mut batch: impl FnMut() -> u64) -> f64 {
        batch();
        let mut samples = Vec::new();
        let deadline = Instant::now() + self.budget;
        while samples.len() < 3 || Instant::now() < deadline {
            let t0 = Instant::now();
            let units = batch();
            samples.push(t0.elapsed().as_nanos() as f64 / units as f64);
        }
        median(&mut samples)
    }
}

fn mib_per_s(ns_per_byte: f64) -> f64 {
    1e9 / ns_per_byte / MIB
}

/// Runs every probe; returns `(metric name, value)` in a fixed order.
pub fn run(seed: u64, scale: Scale, scratch: &Scratch) -> io::Result<Vec<(&'static str, f64)>> {
    let mut out = Vec::new();
    let timer = Timer {
        budget: Duration::from_millis(scale.pick(120, 2)),
    };
    // Records on each side of the snapshot in the `wal.open_ms` log.
    let open_records: u64 = scale.pick(10_000, 200);

    // wal: the two calls `FsyncPolicy::Always` makes inside `append`,
    // timed apart, then snapshot installation.
    {
        let dir = scratch.subdir("probe-commit")?;
        let (wal, _) = Wal::open(WalOptions::new(&dir).with_fsync(FsyncPolicy::Never))?;
        let mut rng = SplitMix64::stream(seed, "probe.payloads", 0);
        let payloads: Vec<Vec<u8>> = (0..256).map(|_| payload(&mut rng)).collect();
        let (mut append_ns, mut sync_ns, mut snapshot_us) = (vec![], vec![], vec![]);
        let deadline = Instant::now() + 2 * timer.budget;
        let mut i = 0;
        while append_ns.len() < 64 || Instant::now() < deadline {
            let t0 = Instant::now();
            let lsn = wal.append(&payloads[i % payloads.len()])?;
            let t1 = Instant::now();
            wal.sync_to(lsn)?;
            append_ns.push((t1 - t0).as_nanos() as f64);
            sync_ns.push(t1.elapsed().as_nanos() as f64);
            i += 1;
        }
        let mut snapshot = vec![0u8; SNAPSHOT_BYTES];
        rng.fill(&mut snapshot);
        for _ in 0..5 {
            let t0 = Instant::now();
            wal.install_snapshot(wal.last_lsn(), &snapshot)?;
            snapshot_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        out.push(("wal.append_ns", median(&mut append_ns)));
        out.push(("wal.sync_ns", median(&mut sync_ns)));
        out.push(("wal.snapshot_us", median(&mut snapshot_us)));
    }

    // wal: recovery of a log with a snapshot and a replay backlog.
    {
        let dir = scratch.subdir("probe-open")?;
        prepare_log(seed, &dir, open_records, open_records)?;
        let open = || Wal::open(WalOptions::new(&dir).with_fsync(FsyncPolicy::Never));
        // This one truncates the torn tail and shows the log opens at all.
        open()?;
        let open_ns = timer.ns_per_unit(|| {
            drop(black_box(open()));
            1
        });
        out.push(("wal.open_ms", open_ns / 1e6));
        out.push(("wal.replay_ns_per_record", open_ns / open_records as f64));
    }

    {
        let mut data = vec![0u8; 64 * 1024];
        SplitMix64::stream(seed, "probe.crc", 0).fill(&mut data);
        for (name, len) in [
            ("wal.crc32_160b_mib_s", 160),
            ("wal.crc32_64k_mib_s", data.len()),
        ] {
            let passes = (1 << 20) / len as u64;
            let per_byte = timer.ns_per_unit(|| {
                for _ in 0..passes {
                    black_box(crc32(black_box(&data[..len])));
                }
                passes * len as u64
            });
            out.push((name, mib_per_s(per_byte)));
        }
    }

    // trace: a child span into the installed recorder, the same with no
    // recorder, and a dump of the full ring.
    {
        let recorder = install_recorder();
        let parent = Span::root("probe.parent");
        let child_spans = || {
            for _ in 0..10_000 {
                drop(black_box(Span::child_of(parent.context(), "probe.child")));
            }
            10_000
        };
        out.push(("trace.span_ns", timer.ns_per_unit(child_spans)));
        let snapshot_ns = timer.ns_per_unit(|| {
            black_box(recorder.snapshot(0, 0));
            1
        });
        out.push(("trace.snapshot_us", snapshot_ns / 1e3));
        set_recorder(None);
        out.push(("trace.disabled_span_ns", timer.ns_per_unit(child_spans)));
    }

    {
        let hist = LogHistogram::new();
        let mut rng = SplitMix64::stream(seed, "probe.hist", 0);
        let values: Vec<u64> = (0..4096).map(|_| rng.next_u64() >> rng.below(64)).collect();
        out.push((
            "metrics.hist_record_ns",
            timer.ns_per_unit(|| {
                for _ in 0..16 {
                    for v in &values {
                        hist.record(black_box(*v));
                    }
                }
                16 * values.len() as u64
            }),
        ));
        out.push((
            "metrics.hist_snapshot_ns",
            timer.ns_per_unit(|| {
                for _ in 0..1000 {
                    black_box(black_box(&hist).snapshot().p99());
                }
                1000
            }),
        ));
    }

    {
        let paths = gen::paths(&mut SplitMix64::stream(seed, "probe.paths", 0), 4096, 64);
        out.push((
            "namespace.shard_of_ns",
            timer.ns_per_unit(|| {
                for path in &paths {
                    black_box(shard_of(black_box(path), 16));
                }
                paths.len() as u64
            }),
        ));
    }

    {
        let text = gen::text(
            &mut SplitMix64::stream(seed, "probe.text", 0),
            scale.pick(64 << 20, 1 << 20),
        );
        let per_byte = timer.ns_per_unit(|| {
            let mut in_word = false;
            for chunk in text.chunks(CHUNK) {
                let (words, carry) = count_words(black_box(chunk), in_word);
                black_box(words);
                in_word = carry;
            }
            text.len() as u64
        });
        out.push(("analytics.count_words_mib_s", mib_per_s(per_byte)));
        let per_byte = timer.ns_per_unit(|| {
            for chunk in text.chunks(CHUNK) {
                let mut rest = black_box(chunk);
                while let Some(newline) = find_byte(rest, b'\n') {
                    rest = &rest[newline + 1..];
                }
                black_box(rest);
            }
            text.len() as u64
        });
        out.push(("analytics.find_byte_mib_s", mib_per_s(per_byte)));
    }

    {
        let lines = gen::kv_lines(
            &mut SplitMix64::stream(seed, "probe.lines", 0),
            scale.pick(8 << 20, 1 << 18),
            100_000,
        );
        let count = lines.iter().filter(|b| **b == b'\n').count() as u64;
        let mut aggregator = StreamingAggregator::new();
        let per_line = timer.ns_per_unit(|| {
            for chunk in lines.chunks(CHUNK) {
                aggregator.push_chunk(black_box(chunk));
            }
            count
        });
        black_box(aggregator);
        out.push(("analytics.aggregate_lines_s", 1e9 / per_line));
    }

    {
        let batch = gen::sort_records(
            &mut SplitMix64::stream(seed, "probe.sort", 0),
            scale.pick(80_000, 400),
            RECORD_LEN,
        );
        let mut partitions = vec![Vec::new(); PARTITIONS];
        let per_byte = timer.ns_per_unit(|| {
            partitions.iter_mut().for_each(Vec::clear);
            radix_partition_into(black_box(&batch), RECORD_LEN, &mut partitions);
            batch.len() as u64
        });
        out.push(("analytics.radix_partition_mib_s", mib_per_s(per_byte)));
        let per_byte = timer.ns_per_unit(|| {
            for partition in &partitions {
                black_box(sort_records_by_key(
                    black_box(partition),
                    RECORD_LEN,
                    KEY_LEN,
                ));
            }
            batch.len() as u64
        });
        out.push(("analytics.sort_records_mib_s", mib_per_s(per_byte)));
    }

    Ok(out)
}
