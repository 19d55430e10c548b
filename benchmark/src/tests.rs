//! Self-tests of the benchmark as a whole: every workload against its
//! oracle, a corrupted input, and the contract with `BENCHMARK.json`.

use super::*;
use harness::{Client, Verdict, Workload};
use json::Json;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;
use tracer::{LayerShares, NoTrace, SpanList, Tracer};
use workloads::meta;

/// Workloads install a process-global flight recorder, so tests that run
/// one take turns.
pub(crate) fn recorder_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sets up `W` at `scale`, lets `tamper` at its files, issues `ops`
/// operations from every client, half of them traced, and runs the
/// oracle. Returns (failed operations, attempted, verdict, traced shares).
fn smoke<W: Workload>(
    scale: Scale,
    ops: u64,
    tamper: impl FnOnce(&Path),
) -> (u64, u64, Verdict, LayerShares) {
    let scratch = Scratch::create().unwrap();
    let mut workload = W::setup(42, &scratch, scale).unwrap();
    tamper(scratch.path());
    workload.prepare_oracle();
    let mut clients = workload.clients(W::THREADS);
    let mut lists: Vec<SpanList> = clients
        .iter()
        .map(|_| SpanList::new(Instant::now()))
        .collect();
    let mut failed = 0;
    for i in 0..ops {
        for (client, list) in clients.iter_mut().zip(&mut lists) {
            let ok = if i % 2 == 0 {
                client.op(&mut NoTrace)
            } else {
                let root = list.begin("op");
                let ok = client.op(list);
                list.end(root);
                ok
            };
            failed += u64::from(!ok);
        }
    }
    let attempted = ops * clients.len() as u64;
    (
        failed,
        attempted,
        workload.verify(clients),
        LayerShares::of(&lists),
    )
}

fn assert_clean<W: Workload>(ops: u64, dominant_layer: &str) {
    let (failed, _, verdict, shares) = smoke::<W>(Scale::Smoke, ops, |_| ());
    assert_eq!(
        (failed, verdict.failed),
        (0, 0),
        "{}",
        std::any::type_name::<W>()
    );
    let (top, _) = shares
        .self_ns
        .iter()
        .filter(|(layer, _)| **layer != "op")
        .max_by_key(|(_, ns)| **ns)
        .unwrap();
    assert_eq!(
        *top,
        dominant_layer,
        "{}: {shares:?}",
        std::any::type_name::<W>()
    );
}

#[test]
fn every_workload_passes_its_oracle_on_a_thousand_ops() {
    let _turn = recorder_turn();
    assert_clean::<MetaCommit<Interval>>(1000, "wal");
    assert_clean::<MetaRecover>(1000, "wal");
    assert_clean::<ActionScan>(1000, "analytics");
    assert_clean::<ActionReduce>(1000, "analytics");
    assert_clean::<ActionSort>(1000, "analytics");
    assert_clean::<ObsSpan>(1000, "trace");
    // Crosses a snapshot and, with the reopen in the oracle, exercises
    // every WAL path the timed run does.
    let (failed, _, verdict, _) = smoke::<MetaCommit<Always>>(Scale::Smoke, 1000, |_| ());
    assert_eq!((failed, verdict.failed), (0, 0));
    let wal = verdict.wal.unwrap();
    assert!(
        wal.fsyncs_per_ack > 0.5 && wal.fsyncs_per_ack < 1.5,
        "{wal:?}"
    );
    assert!(
        wal.bytes_per_user_byte > 1.0 && wal.disk_bytes_per_live_byte > 1.0,
        "{wal:?}"
    );
}

/// Flips one bit in the middle of `file`.
fn flip_byte(file: &Path) {
    let mut bytes = fs::read(file).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x40;
    fs::write(file, bytes).unwrap();
}

#[test]
fn a_corrupted_recovery_log_is_failed_ops_not_a_panic_or_a_pass() {
    let _turn = recorder_turn();
    // The smoke-scale log fits one segment; corruption there reads as a
    // torn tail, so opens succeed but return too few records.
    let (failed, attempted, _, _) = smoke::<MetaRecover>(Scale::Smoke, 20, |scratch| {
        flip_byte(&meta::newest_segment(&scratch.join("recover")).unwrap());
    });
    assert_eq!(failed, attempted);

    // At full scale the log has two segments; in the older one it is
    // real corruption and the open itself fails.
    let (failed, attempted, _, _) = smoke::<MetaRecover>(Scale::Full, 3, |scratch| {
        let segments = meta::segments(&scratch.join("recover")).unwrap();
        assert_eq!(segments.len(), 2);
        flip_byte(&segments[0]);
    });
    assert_eq!(failed, attempted);
}

#[test]
fn results_carry_exactly_the_metrics_benchmark_json_names() {
    let _turn = recorder_turn();
    let spec = Spec::load();
    assert!(spec
        .workloads
        .iter()
        .all(|(name, _)| workloads::NAMES.contains(&name.as_str())));
    assert!(spec
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));

    let scratch = Scratch::create().unwrap();
    let env = Environment {
        nproc: 2,
        rustc: "rustc".to_string(),
        git_head: "unknown".to_string(),
        scratch_fs: scratch::fs_type(scratch.path()),
        scratch_dir: String::new(),
    };
    for (traced, name) in workloads::NAMES
        .iter()
        .enumerate()
        .map(|(i, w)| (i % 3 == 0, w))
    {
        let outcome = run_workload(name, 7, 0.12, traced, Scale::Smoke, &scratch).unwrap();
        assert_eq!(outcome.failed, 0, "{name}");
        let probes = if traced {
            probes::run(7, Scale::Smoke, &scratch).unwrap()
        } else {
            Vec::new()
        };
        let report = Report {
            spec: &spec,
            env: &env,
            workload: name,
            seed: 7,
            seconds: 0.12,
            outcome: &outcome,
            probes: &probes,
        };
        let line = Json::parse(&report.result_line()).unwrap();
        let Json::Obj(fields) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        let expected = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        assert_eq!(
            metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            expected.iter().map(|m| m.name.as_str()).collect::<Vec<_>>()
        );
        for ((_, value), spec) in metrics.iter().zip(expected) {
            assert_eq!(
                value.get("unit").and_then(Json::as_str),
                Some(spec.unit.as_str())
            );
            assert!(
                value
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap()
                    .is_finite(),
                "{name} {}",
                spec.name
            );
        }

        let record = Json::parse(&report.record().encode()).unwrap();
        assert_eq!(record.get("claim"), Some(&Json::Null));
        let throughput = record
            .get("end_to_end")
            .unwrap()
            .get("throughput_ops_s")
            .unwrap();
        assert_eq!(
            throughput.get("raw").unwrap().as_array().len(),
            harness::REPETITIONS
        );
        assert_eq!(
            throughput.get("bound").and_then(Json::as_f64),
            Some(spec.end_to_end[0].bound.unwrap())
        );
        assert!(report.tables().contains("latency_p99_us"));
    }
    assert!(run_workload("no-such-workload", 1, 0.1, false, Scale::Smoke, &scratch).is_err());
}

#[test]
fn arguments_in_the_driver_s_and_the_issue_s_form() {
    let spec = Spec::load();
    let parse = |args: &[&str]| parse_args(&spec, args.iter().map(|a| a.to_string()));
    let driver = parse(&[
        "--workload",
        "obs-span",
        "--seed",
        "9",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(
        (
            driver.workload.as_deref(),
            driver.seed,
            driver.seconds,
            driver.trace
        ),
        (Some("obs-span"), 9, 3.0, true)
    );
    assert!(!parse(&["--trace", "0"]).unwrap().trace);
    let bare = parse(&["--trace", "--seed", "4"]).unwrap();
    assert_eq!((bare.trace, bare.seed, bare.workload), (true, 4, None));
    assert!(parse(&["--trace"]).unwrap().trace);
    assert_eq!(parse(&[]).unwrap().seconds, spec.run_seconds);
    for bad in [
        &["--workload", "nope"][..],
        &["--seed"],
        &["--seed", "x"],
        &["--seconds", "0"],
        &["--fast"],
    ] {
        assert!(parse(bad).is_err(), "{bad:?}");
    }
}
