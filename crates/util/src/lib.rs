//! Shared utilities for the Glider reproduction.
//!
//! This crate hosts the small, dependency-light helpers used across the
//! workspace: byte-size formatting and parsing, a token-bucket rate limiter
//! used to model constrained serverless network links, monotonic id
//! allocation, seeded random-data generators, and a stopwatch for the
//! benchmark harnesses.
//!
//! # Examples
//!
//! ```
//! use glider_util::size::ByteSize;
//!
//! let sz = ByteSize::mib(4);
//! assert_eq!(sz.as_u64(), 4 * 1024 * 1024);
//! assert_eq!(sz.to_string(), "4.00 MiB");
//! ```

pub mod ids;
pub mod lockorder;
pub mod rate;
pub mod size;
pub mod stopwatch;
pub mod textgen;

pub use ids::IdGen;
pub use lockorder::{LockRank, OrderedMutex};
pub use rate::TokenBucket;
pub use size::ByteSize;
pub use stopwatch::Stopwatch;
