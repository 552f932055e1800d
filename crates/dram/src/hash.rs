//! The two stable hashes every crate shares: FNV-1a over bytes and the
//! SplitMix64 generator. Unlike `std`'s hashers they give the same
//! output on every platform and release, so the seeds, checkpoint keys,
//! trace fingerprints and sketch indices derived from them never move.

/// The 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over `bytes`, its offset basis XORed with `seed` (`seed = 0`
/// is plain FNV-1a).
pub fn fnv1a(seed: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    fnv1a_continue(FNV_OFFSET ^ seed, bytes)
}

/// Folds `bytes` into a running FNV-1a `hash`.
pub fn fnv1a_continue(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// A tiny deterministic PRNG (SplitMix64): one `u64` of state, full
/// 2^64 period, identical output on every platform. Written out here
/// rather than taken from the `rand` shim so the streams drawn from it
/// (fault plans, DSAC's replacement draws) are pinned by this crate
/// alone and survive a `rand` shim change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `0..bound` (`bound == 0` returns 0). Uses the
    /// widening-multiply trick; the slight modulo bias is irrelevant at
    /// the tiny bounds used here and keeps the draw one multiplication.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A Bernoulli draw at probability `rate` (clamped to `[0, 1]`).
    /// Compares 64 random bits against a fixed-point threshold, so equal
    /// seeds and rates give identical decision streams everywhere.
    /// `rate <= 0` consumes **no** randomness.
    pub fn chance(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            self.next_u64();
            return true;
        }
        let threshold = (rate * (u64::MAX as f64)) as u64;
        self.next_u64() < threshold
    }
}
