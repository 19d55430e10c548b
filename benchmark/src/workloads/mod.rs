//! The seven workloads.

pub mod action;
pub mod meta;
pub mod obs;

use glider_bench_layers::trace::{set_recorder, FlightRecorder};
use std::sync::Arc;

/// Every workload the benchmark can run. Names are final: later issues
/// cite them. `BENCHMARK.json` lists the ones the driver gates on.
pub const NAMES: [&str; 7] = [
    "meta-commit.always",
    "meta-commit.interval",
    "meta-recover",
    "action-scan",
    "action-reduce",
    "action-sort",
    "obs-span",
];

/// How much input a set-up generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small inputs for the self-tests' smoke runs.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

impl Scale {
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Installs a fresh process-global flight recorder, as `Cluster::start`
/// does, replacing the previous set-up's.
pub fn install_recorder() -> Arc<FlightRecorder> {
    let recorder = Arc::new(FlightRecorder::new());
    set_recorder(Some(Arc::clone(&recorder)));
    recorder
}
