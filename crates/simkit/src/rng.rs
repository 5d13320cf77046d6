//! Seeded, splittable random streams for reproducible simulations.
//!
//! Each simulation entity (satellite, link, SµDC) gets its own stream
//! derived from the run seed and a stable label, so adding entities or
//! reordering event handling does not perturb other entities' draws.
//!
//! The generator is an in-tree xoshiro256++ (public domain, Blackman &
//! Vigna) seeded through splitmix64 — the workspace builds in offline
//! environments, so no external `rand` is used (see ISSUE 2).

/// A deterministic 64-bit PRNG stream (xoshiro256++).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a stream from a 64-bit seed (splitmix64-expanded, so
    /// nearby seeds yield unrelated streams).
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next value in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift (no
    /// modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below needs a positive bound");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// A factory of independent named random streams under one run seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Creates a factory from the run seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Derives a stream for a labelled entity (e.g. `("satellite", 7)`).
    /// The same `(label, index)` always yields the same stream.
    #[inline]
    pub fn stream(&self, label: &str, index: u64) -> Rng64 {
        Rng64::seed_from_u64(self.seed(label, index))
    }

    /// The 64-bit seed of [`stream`](Self::stream)`(label, index)`.
    #[inline]
    pub fn seed(&self, label: &str, index: u64) -> u64 {
        // An FNV-1a-style hash of the label: FNV's 64-bit offset basis,
        // but multiplied by 2⁴⁴ + 0x1b3, not by the FNV prime 2⁴⁰ + 0x1b3.
        // Every seeded draw depends on this constant, so it stays; the
        // hash is then mixed with the run seed and index.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.seed.rotate_left(17))
            .wrapping_add(index.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }
}

/// Draws from an exponential distribution with the given mean.
///
/// # Panics
///
/// Panics if `mean` is not positive.
#[inline]
pub fn exponential(rng: &mut Rng64, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = rng.next_f64().max(1e-12);
    -mean * u.ln()
}

/// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
#[inline]
pub fn coin(rng: &mut Rng64, p: f64) -> bool {
    rng.next_f64() < p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The label hash's multiplier is 2⁴⁴ + 0x1b3, not FNV's prime;
    /// every committed draw depends on it, so one seed is pinned.
    #[test]
    fn factory_seed_is_pinned() {
        assert_eq!(
            RngFactory::new(42).seed("serve_arrival", 7),
            0x4332_ae58_43e0_6323
        );
    }

    #[test]
    fn xoshiro_matches_reference_sequence() {
        // Reference: xoshiro256++ with state {1, 2, 3, 4} (from the
        // public test vectors of the Blackman–Vigna implementation).
        let mut r = Rng64 { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..6).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                41943041,
                58720359,
                3588806011781223,
                3591011842654386,
                9228616714210784205,
                9973669472204895162,
            ]
        );
    }

    #[test]
    fn same_label_same_stream() {
        let f = RngFactory::new(42);
        let a: Vec<u64> = {
            let mut r = f.stream("sat", 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = f.stream("sat", 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(42);
        let a: u64 = f.stream("sat", 0).next_u64();
        let b: u64 = f.stream("link", 0).next_u64();
        let c: u64 = f.stream("sat", 1).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = RngFactory::new(1).stream("x", 0).next_u64();
        let b: u64 = RngFactory::new(2).stream("x", 0).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut r = Rng64::seed_from_u64(11);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v), "got {v}");
        }
    }

    #[test]
    fn next_below_is_unbiased_enough() {
        let mut r = Rng64::seed_from_u64(3);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.next_below(7) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_300..10_700).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = RngFactory::new(7).stream("exp", 0);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "got {mean}");
    }

    #[test]
    fn coin_respects_probability() {
        let mut r = RngFactory::new(9).stream("coin", 0);
        let heads = (0..10_000).filter(|_| coin(&mut r, 0.3)).count();
        let frac = heads as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "got {frac}");
        assert!(!coin(&mut r, 0.0));
        assert!(coin(&mut r, 1.0));
    }
}
