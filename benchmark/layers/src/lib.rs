pub use glider_trace as trace;
pub use glider_wal as wal;

#[path = "../../../crates/metrics/src/hist.rs"]
pub mod hist;
#[path = "../../../crates/analytics/src/kernels.rs"]
pub mod kernels;
#[path = "../../../crates/namespace/src/shard.rs"]
pub mod shard;
