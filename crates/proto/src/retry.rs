//! Deadlines, retry budgets, and jittered backoff for the RPC plane.
//!
//! Every call carries a deadline chosen by its *operation class* (metadata,
//! data, or action — action streams legitimately block far longer than a
//! lookup). Failed calls are retried automatically only when the operation
//! is idempotent ([`crate::op::Op::idempotent`]) *and* the error is
//! transient ([`crate::ErrorCode::is_retryable`]); everything else
//! surfaces the typed error so the caller can decide. Retry delays use
//! exponential backoff with *full jitter* (delay drawn uniformly from
//! `[0, min(cap, base·2^attempt)]`), the standard recipe for avoiding
//! synchronized retry storms from swarms of serverless workers.
//!
//! The decision is pure: the transport (`glider-net`'s RPC client) asks
//! the policy and sleeps, and these tests check the policy alone.

use crate::op::OpClass;
use std::time::Duration;

/// Per-connection fault-tolerance knobs: per-class deadlines, the retry
/// budget, and backoff shape. One policy instance is attached to each
/// RPC client.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Hard cap on any single backoff delay.
    pub max_delay: Duration,
    /// Deadline for metadata-plane calls.
    pub metadata_deadline: Duration,
    /// Deadline for data-plane calls.
    pub data_deadline: Duration,
    /// Deadline for action calls (streams block on user code).
    pub action_deadline: Duration,
    /// Dial attempts when healing a dropped connection.
    pub reconnect_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            metadata_deadline: Duration::from_secs(10),
            data_deadline: Duration::from_secs(30),
            action_deadline: Duration::from_secs(120),
            reconnect_attempts: 4,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never redials (deadlines still
    /// apply). Useful for tests asserting first-failure behavior.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            reconnect_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The deadline for one attempt of an operation in `class`.
    pub fn deadline(&self, class: OpClass) -> Duration {
        match class {
            OpClass::Metadata => self.metadata_deadline,
            OpClass::Data => self.data_deadline,
            OpClass::Action => self.action_deadline,
        }
    }

    /// Whether the budget allows another attempt after `attempts_made`
    /// attempts have already run. The RPC client's retry loops gate every
    /// retry on this, so the budget is a hard bound by construction.
    pub fn allows(&self, attempts_made: u32) -> bool {
        attempts_made < self.max_attempts
    }

    /// The full-jitter backoff delay before retry number `attempt`
    /// (1-based): uniform in `[0, min(max_delay, base_delay · 2^attempt)]`.
    pub fn backoff(&self, attempt: u32, rng: &mut JitterRng) -> Duration {
        let cap = envelope(self.base_delay, attempt).min(self.max_delay);
        let nanos = cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(rng.next_u64() % (nanos + 1))
    }
}

/// `base · 2^attempt`, the exponent clamped at 16 and the product
/// saturating.
fn envelope(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
}

/// A tiny xorshift64* generator for backoff jitter. Not cryptographic —
/// it only has to decorrelate retry timings across callers, and taking a
/// dependency on a full RNG crate for that is not worth it.
#[derive(Debug)]
pub struct JitterRng(u64);

impl JitterRng {
    /// Seeds the generator (zero seeds are nudged to stay productive).
    pub fn seeded(seed: u64) -> Self {
        JitterRng(seed | 1)
    }

    /// The next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64 seeds drawn by the generator itself, plus the edge seeds.
    fn seeds() -> Vec<u64> {
        let mut draw = JitterRng::seeded(0x5EED);
        let mut seeds: Vec<u64> = (0..64).map(|_| draw.next_u64()).collect();
        seeds.extend([0, 1, u64::MAX]);
        seeds
    }

    #[test]
    fn deadlines_grow_from_metadata_to_actions() {
        let p = RetryPolicy::default();
        assert!(p.deadline(OpClass::Action) >= p.deadline(OpClass::Data));
        assert!(p.deadline(OpClass::Data) >= p.deadline(OpClass::Metadata));
    }

    /// Jittered delays are always bounded by the cap AND by the
    /// exponential envelope, across seeds, shapes and attempts.
    #[test]
    fn backoff_is_bounded_by_cap_and_envelope() {
        let mut shape = JitterRng::seeded(7);
        for seed in seeds() {
            let base_ms = 1 + shape.next_u64() % 99;
            let cap_ms = 1 + shape.next_u64() % 1999;
            let policy = RetryPolicy {
                base_delay: Duration::from_millis(base_ms),
                max_delay: Duration::from_millis(cap_ms),
                ..RetryPolicy::default()
            };
            let mut rng = JitterRng::seeded(seed);
            for attempt in 1..32 {
                let delay = policy.backoff(attempt, &mut rng);
                let at = format!("seed {seed} attempt {attempt} base {base_ms} cap {cap_ms}");
                assert!(delay <= policy.max_delay, "{at}: {delay:?}");
                assert!(
                    delay <= envelope(policy.base_delay, attempt),
                    "{at}: {delay:?}"
                );
            }
        }
    }

    /// The retry budget is a hard bound — a loop gated on `allows`
    /// (exactly how the RPC client gates retries) never runs more
    /// attempts than configured.
    #[test]
    fn budget_never_exceeds_configured_attempts() {
        for max_attempts in 1..32 {
            let policy = RetryPolicy {
                max_attempts,
                ..RetryPolicy::default()
            };
            let mut attempts = 0u32;
            loop {
                attempts += 1; // the attempt itself (always fails)
                if !policy.allows(attempts) {
                    break;
                }
            }
            assert_eq!(attempts, max_attempts);
        }
    }

    /// A small cap bounds every delay, whatever the seed and attempt.
    #[test]
    fn cap_is_monotone() {
        let small = RetryPolicy {
            max_delay: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        for seed in seeds() {
            let mut rng = JitterRng::seeded(seed);
            for attempt in 1..32 {
                let d = small.backoff(attempt, &mut rng);
                assert!(
                    d <= Duration::from_millis(50),
                    "seed {seed} attempt {attempt}"
                );
            }
        }
    }
}
