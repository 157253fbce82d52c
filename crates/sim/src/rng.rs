//! Deterministic, splittable random-number streams.
//!
//! Every run of an experiment derives all of its randomness from one `u64`
//! seed, so results are reproducible bit-for-bit. Rather than depend on a
//! particular `rand` generator whose stream may change across versions, we
//! ship a self-contained **xoshiro256++** generator (Blackman & Vigna),
//! seeded through **splitmix64** as its authors recommend. The generator is
//! dependency-free; the inherent methods below cover every distribution the
//! simulator needs.
//!
//! Streams are *splittable*: [`SimRng::split`] derives an independent child
//! stream from a label, so each node / transaction / workload generator owns
//! its own stream and event-ordering changes in one component do not perturb
//! the random choices of another (a classic reproducibility hazard in
//! parallel simulators).

/// splitmix64 step: the canonical seeding function for xoshiro.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless splitmix64-style finalizer: maps any `u64` to a well-mixed
/// `u64`, deterministically and without carrying stream state.
///
/// This is the building block for *random-access* randomness: where a
/// sequential [`SimRng`] stream would force materializing all draws up
/// front (e.g. the O(n²) per-pair link delays of a network topology), a
/// keyed `mix64` lets the consumer recompute any single draw on demand in
/// O(1) with O(1) memory.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut state = x;
    splitmix64(&mut state)
}

/// A deterministic xoshiro256++ stream.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
    /// Immutable stream identity used by [`SimRng::split`]; unlike `s`, it
    /// does not advance as numbers are drawn.
    id: u64,
}

impl SimRng {
    /// Create a stream from a seed. Any seed (including 0) is valid; the
    /// state is expanded through splitmix64 so it is never all-zero.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            id: seed,
        }
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// The child's seed mixes this stream's *identity* (not its position), so
    /// splitting is insensitive to how many numbers the parent has already
    /// drawn — call sites can be reordered without changing child streams, as
    /// long as labels are stable.
    pub fn split(&self, label: u64) -> SimRng {
        let mut sm = self.id ^ label.wrapping_mul(0xA24B_AED4_963E_E407);
        let child_id = splitmix64(&mut sm);
        SimRng::new(child_id)
    }

    /// The raw xoshiro256++ step.
    #[allow(clippy::should_implement_trait)] // established PRNG naming for the raw step
    #[inline]
    pub fn next(&mut self) -> u64 {
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

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection
    /// method (unbiased).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut x = self.next();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(8);
        let same = (0..100).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_is_position_independent() {
        let parent1 = SimRng::new(99);
        let mut parent2 = SimRng::new(99);
        for _ in 0..57 {
            parent2.next(); // advance one copy
        }
        let mut c1 = parent1.split(5);
        let mut c2 = parent2.split(5);
        for _ in 0..100 {
            assert_eq!(c1.next(), c2.next());
        }
    }

    #[test]
    fn split_labels_independent() {
        let parent = SimRng::new(99);
        let mut c1 = parent.split(1);
        let mut c2 = parent.split(2);
        let same = (0..100).filter(|_| c1.next() == c2.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = SimRng::new(1);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut rng = SimRng::new(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match rng.range_inclusive(1, 50) {
                1 => lo_seen = true,
                50 => hi_seen = true,
                v => assert!((1..=50).contains(&v)),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut rng = SimRng::new(4);
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = SimRng::new(5);
        let hits = (0..100_000).filter(|_| rng.chance(0.9)).count();
        assert!((88_000..92_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(6);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<u32>>(),
            "shuffle left input unchanged"
        );
    }
}
