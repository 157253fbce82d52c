//! A classic Bloom filter (Bloom 1970, the paper's reference [5]).
//!
//! The stats table stores *"a bloom filter representation of the most
//! current successful commit times of write transactions"* per entry. The
//! filter here is a straightforward `m`-bit, `k`-hash structure using the
//! Kirsch–Mitzenmacher double-hashing scheme (`h_i = h1 + i·h2`), which
//! preserves the standard false-positive bound with only two base hashes.

/// A fixed-size Bloom filter over `u64` items.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: usize,
    k: u32,
}

#[inline]
fn mix1(x: u64) -> u64 {
    // splitmix64 finalizer
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn mix2(x: u64) -> u64 {
    // murmur3 finalizer with different constants
    let mut z = x ^ 0xFF51_AFD7_ED55_8CCD;
    z = z.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^= z >> 33;
    z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^ (z >> 33)
}

impl BloomFilter {
    /// A filter with `m` bits (rounded up to a multiple of 64) and `k` hash
    /// functions.
    pub fn new(m: usize, k: u32) -> Self {
        assert!(m > 0 && k > 0);
        let words = m.div_ceil(64);
        BloomFilter {
            bits: vec![0; words],
            m: words * 64,
            k,
        }
    }

    /// A filter sized for `n` expected items at false-positive rate `p`,
    /// using the standard optima `m = -n ln p / (ln 2)^2`, `k = (m/n) ln 2`.
    pub fn with_capacity(n: usize, p: f64) -> Self {
        assert!(n > 0 && p > 0.0 && p < 1.0);
        let ln2 = std::f64::consts::LN_2;
        let m = (-(n as f64) * p.ln() / (ln2 * ln2)).ceil() as usize;
        let k = ((m as f64 / n as f64) * ln2).round().max(1.0) as u32;
        BloomFilter::new(m.max(64), k)
    }

    /// The item's `k` bit positions. The iterator owns `h1`, `h2` and `m`
    /// and borrows nothing, so `insert` — once per commit on every node —
    /// sets bits while iterating instead of collecting the positions first.
    #[inline]
    fn bit_positions(&self, item: u64) -> impl Iterator<Item = usize> {
        let h1 = mix1(item);
        let h2 = mix2(item) | 1; // odd stride
        let m = self.m as u64;
        (0..self.k).map(move |i| (h1.wrapping_add(h2.wrapping_mul(i as u64)) % m) as usize)
    }

    pub fn insert(&mut self, item: u64) {
        for pos in self.bit_positions(item) {
            self.bits[pos / 64] |= 1u64 << (pos % 64);
        }
    }

    /// `true` means "possibly present"; `false` means "definitely absent".
    pub fn contains(&self, item: u64) -> bool {
        self.bit_positions(item)
            .all(|pos| self.bits[pos / 64] & (1u64 << (pos % 64)) != 0)
    }

    pub fn clear(&mut self) {
        self.bits.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000u64 {
            f.insert(i * 7919);
        }
        for i in 0..1000u64 {
            assert!(f.contains(i * 7919), "inserted item missing");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000u64 {
            f.insert(i);
        }
        let fps = (1_000_000u64..1_100_000).filter(|&x| f.contains(x)).count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.03, "fp rate {rate} too high for 1% target");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(1024, 4);
        assert!(!f.contains(42));
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(1024, 4);
        f.insert(42);
        assert!(f.contains(42));
        f.clear();
        assert!(!f.contains(42));
    }

    #[test]
    fn sizing_formula_sane() {
        let f = BloomFilter::with_capacity(1000, 0.01);
        // Standard result: ~9.6 bits/item, k ~ 7 for p = 1%.
        assert!((9_000..11_000).contains(&f.m), "m = {}", f.m);
        assert_eq!(f.k, 7);
    }

    proptest! {
        #[test]
        fn bloom_has_no_false_negatives(items in proptest::collection::hash_set(0u64..1_000_000, 1..500)) {
            let mut f = BloomFilter::with_capacity(items.len().max(8), 0.01);
            for &x in &items {
                f.insert(x);
            }
            for &x in &items {
                prop_assert!(f.contains(x));
            }
        }
    }
}
