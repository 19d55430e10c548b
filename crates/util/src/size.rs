//! Byte-size arithmetic and human-readable formatting.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};
use std::str::FromStr;

/// A number of bytes with convenient constructors and binary-unit display.
///
/// `ByteSize` is a thin newtype over `u64` used throughout the workspace for
/// block sizes, buffer sizes and transfer accounting, so that quantities in
/// bytes cannot be confused with counts ([C-NEWTYPE]).
///
/// # Examples
///
/// ```
/// use glider_util::size::ByteSize;
///
/// let block = ByteSize::mib(1);
/// assert_eq!(block * 4, ByteSize::mib(4));
/// assert_eq!("512 KiB".parse::<ByteSize>().unwrap(), ByteSize::kib(512));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

pub const KIB: u64 = 1024;
pub const MIB: u64 = 1024 * KIB;
pub const GIB: u64 = 1024 * MIB;

impl ByteSize {
    /// Creates a size of `n` bytes.
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// Creates a size of `n` kibibytes.
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * KIB)
    }

    /// Creates a size of `n` mebibytes.
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * MIB)
    }

    /// Creates a size of `n` gibibytes.
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * GIB)
    }

    /// Returns the raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the byte count as a `usize`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `usize` (not possible on 64-bit
    /// targets).
    pub fn as_usize(self) -> usize {
        usize::try_from(self.0).expect("byte size exceeds usize")
    }

    /// Whole mebibytes (truncating).
    pub const fn whole_mib(self) -> u64 {
        self.0 / MIB
    }

    /// Fractional mebibytes.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / MIB as f64
    }

    /// Fractional gibibytes.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / GIB as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Returns `self / rhs` rounded up; useful for block counts.
    pub fn div_ceil(self, rhs: ByteSize) -> u64 {
        debug_assert!(rhs.0 > 0);
        self.0.div_ceil(rhs.0)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GIB {
            write!(f, "{:.2} GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

impl From<u64> for ByteSize {
    fn from(n: u64) -> Self {
        ByteSize(n)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

/// Error returned when parsing a [`ByteSize`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseByteSizeError(String);

impl fmt::Display for ParseByteSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid byte size: {:?}", self.0)
    }
}

impl std::error::Error for ParseByteSizeError {}

impl FromStr for ByteSize {
    type Err = ParseByteSizeError;

    /// Parses strings like `"1024"`, `"64 KiB"`, `"4MiB"`, `"2 GiB"`, `"10g"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let split = s
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .unwrap_or(s.len());
        let (num, unit) = s.split_at(split);
        let value: f64 = num
            .trim()
            .parse()
            .map_err(|_| ParseByteSizeError(s.to_string()))?;
        let mult = match unit.trim().to_ascii_lowercase().as_str() {
            "" | "b" => 1,
            "k" | "kb" | "kib" => KIB,
            "m" | "mb" | "mib" => MIB,
            "g" | "gb" | "gib" => GIB,
            _ => return Err(ParseByteSizeError(s.to_string())),
        };
        Ok(ByteSize((value * mult as f64) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_sim::{seeds, Lcg};

    #[test]
    fn constructors_scale() {
        assert_eq!(ByteSize::kib(1).as_u64(), 1024);
        assert_eq!(ByteSize::mib(1).as_u64(), 1024 * 1024);
        assert_eq!(ByteSize::gib(1).as_u64(), 1024 * 1024 * 1024);
    }

    #[test]
    fn display_picks_binary_unit() {
        assert_eq!(ByteSize::bytes(17).to_string(), "17 B");
        assert_eq!(ByteSize::kib(3).to_string(), "3.00 KiB");
        // Integer division printed 1535 B as "1 KiB", which parses back
        // a third short.
        assert_eq!(ByteSize::bytes(1535).to_string(), "1.50 KiB");
        assert_eq!(ByteSize::mib(5).to_string(), "5.00 MiB");
        assert_eq!(ByteSize::gib(2).to_string(), "2.00 GiB");
    }

    #[test]
    fn parse_round_trips_units() {
        assert_eq!("1024".parse::<ByteSize>().unwrap(), ByteSize::kib(1));
        assert_eq!("64 KiB".parse::<ByteSize>().unwrap(), ByteSize::kib(64));
        assert_eq!("4MiB".parse::<ByteSize>().unwrap(), ByteSize::mib(4));
        assert_eq!("2 g".parse::<ByteSize>().unwrap(), ByteSize::gib(2));
        assert_eq!(
            "1.5 KiB".parse::<ByteSize>().unwrap(),
            ByteSize::bytes(1536)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<ByteSize>().is_err());
        assert!("12 parsecs".parse::<ByteSize>().is_err());
        assert!("abc".parse::<ByteSize>().is_err());
    }

    #[test]
    fn arithmetic_behaves() {
        let a = ByteSize::mib(3);
        let b = ByteSize::mib(1);
        assert_eq!(a + b, ByteSize::mib(4));
        assert_eq!(a - b, ByteSize::mib(2));
        assert_eq!(b * 8, ByteSize::mib(8));
        assert_eq!(b.saturating_sub(a), ByteSize::bytes(0));
    }

    #[test]
    fn div_ceil_counts_blocks() {
        let block = ByteSize::mib(1);
        assert_eq!(ByteSize::bytes(0).div_ceil(block), 0);
        assert_eq!(ByteSize::bytes(1).div_ceil(block), 1);
        assert_eq!(ByteSize::mib(1).div_ceil(block), 1);
        assert_eq!((ByteSize::mib(1) + ByteSize::bytes(1)).div_ceil(block), 2);
    }

    /// Display then parse gives the size back up to Display's rounding
    /// (two decimals above 1 MiB: within 1 %, plus 8 B), at every
    /// magnitude below `u64::MAX / 2048`.
    #[test]
    fn display_parse_round_trips_within_display_rounding() {
        for seed in seeds(1..=8) {
            let mut rng = Lcg(seed);
            for case in 0..32 {
                let wide = (rng.next() << 62) ^ (rng.next() << 31) ^ rng.next();
                let n = (wide >> rng.range(0, 64)) % (u64::MAX / 2048);
                let at = format!("seed {seed} case {case}: {n}");
                let parsed: ByteSize = ByteSize::bytes(n)
                    .to_string()
                    .parse()
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                let err = parsed.as_u64().abs_diff(n);
                assert!(
                    err as f64 <= n as f64 * 0.01 + 8.0,
                    "{at} parsed back as {}",
                    parsed.as_u64()
                );
            }
        }
    }
}
