//! The seeded generator behind the std-only property tests of
//! `glider-wal` and `glider-trace` (which pulls this file in with
//! `#[path]`; neither crate may grow a dependency for it).

/// Minimal LCG (Numerical Recipes constants), as in glider-proto's
/// `batch_fuzz_smoke.rs`. Draws are the high 31 bits: the low bits of
/// a power-of-two-modulus LCG cycle with short periods.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform-ish value in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Uniform-ish fraction in `0.0..1.0`.
    pub fn frac(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 31) as f64
    }

    pub fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}
