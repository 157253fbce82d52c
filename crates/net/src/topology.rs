//! Network topologies: per-pair one-way delays behind a single [`Topology`]
//! API, with per-kind storage.
//!
//! A topology used to always materialize the full O(n²) delay matrix. That
//! caps the node counts a sweep can reach (memory and generation time both
//! scale quadratically), so storage is now per-representation:
//!
//! * **Dense matrix** — only for [`Topology::uniform_random`], whose delays
//!   are drawn from a *sequential* rejection-sampling RNG stream and
//!   therefore cannot be recomputed pair-by-pair. Kept byte-identical to the
//!   original generator so every existing seed reproduces the same network.
//! * **On-demand** — the plane stores O(n) coordinates and the complete
//!   graph one delay, and each computes `delay(a,b)` when asked, producing
//!   exactly the values the old matrices held.
//! * **Hashed** — a new O(1)-memory uniform-random kind for large-scale
//!   sweeps: each pair's delay is a stateless [`mix64`] of
//!   `(seed, a, b)`, so a 100k-node topology costs nothing to "build".
//!   Statistically equivalent to `uniform_random` but a different stream —
//!   use it for new large-scale experiments, not to reproduce old runs.

use dstm_sim::{mix64, ActorId, SimDuration, SimRng};

/// Per-kind delay storage (see the module docs).
#[derive(Clone, Debug)]
enum Repr {
    /// Row-major delays; `delays[a * n + b]`, symmetric, zero diagonal.
    Dense(Vec<SimDuration>),
    /// Point coordinates in ms; delay = Euclidean distance + fixed offset.
    Plane {
        pts: Vec<(f64, f64)>,
        min_ms: u64,
    },
    Complete {
        d: SimDuration,
    },
    Hashed {
        seed: u64,
        min_ms: u64,
        max_ms: u64,
    },
}

/// A static, symmetric delay function over `n` nodes.
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
    repr: Repr,
}

impl Topology {
    fn from_matrix(n: usize, delays: Vec<SimDuration>) -> Self {
        debug_assert_eq!(delays.len(), n * n);
        Topology {
            n,
            repr: Repr::Dense(delays),
        }
    }

    /// The paper's setup: every distinct pair gets an independent uniform
    /// delay in `[min_ms, max_ms]` milliseconds (defaults 1–50 in the
    /// harness). Symmetric; the matrix is fixed for the whole run ("static
    /// network"). Dense storage: the sequential RNG stream cannot be
    /// replayed per pair, and existing seeds must keep their exact network.
    pub fn uniform_random(n: usize, min_ms: u64, max_ms: u64, rng: &mut SimRng) -> Self {
        assert!(n > 0 && min_ms <= max_ms);
        let mut delays = vec![SimDuration::ZERO; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                let d = SimDuration::from_millis(rng.range_inclusive(min_ms, max_ms));
                delays[a * n + b] = d;
                delays[b * n + a] = d;
            }
        }
        Topology::from_matrix(n, delays)
    }

    /// Like [`Topology::uniform_random`] but with O(1) memory: each pair's
    /// delay is a stateless hash of `(seed, a, b)`, computed on demand.
    /// Same distribution, different stream — the large-scale sweep setup.
    pub fn hashed_random(n: usize, min_ms: u64, max_ms: u64, seed: u64) -> Self {
        assert!(n > 0 && min_ms <= max_ms);
        Topology {
            n,
            repr: Repr::Hashed {
                seed,
                min_ms,
                max_ms,
            },
        }
    }

    /// Uniform points in a `side_ms × side_ms` square; delay is the Euclidean
    /// distance in milliseconds **plus** a `min_ms` per-hop offset. The
    /// additive offset models fixed link overhead and — unlike clamping —
    /// preserves the triangle inequality, so this is a true metric space,
    /// used to validate the §III-D analysis. Stores only the n coordinates;
    /// delays are computed on demand (bit-identical to the old matrix).
    pub fn metric_plane(n: usize, side_ms: f64, min_ms: u64, rng: &mut SimRng) -> Self {
        assert!(n > 0 && side_ms > 0.0);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.unit_f64() * side_ms, rng.unit_f64() * side_ms))
            .collect();
        Topology {
            n,
            repr: Repr::Plane { pts, min_ms },
        }
    }

    /// Constant delay `d_ms` between every distinct pair. O(1) storage.
    pub fn complete(n: usize, d_ms: u64) -> Self {
        assert!(n > 0);
        Topology {
            n,
            repr: Repr::Complete {
                d: SimDuration::from_millis(d_ms),
            },
        }
    }

    /// Materialize this topology into a dense matrix (same delays). Differential tests compare on-demand representations
    /// against their materialized form; not useful in production paths.
    pub fn to_dense(&self) -> Topology {
        let mut delays = vec![SimDuration::ZERO; self.n * self.n];
        for a in 0..self.n {
            for b in 0..self.n {
                delays[a * self.n + b] = self.d(a, b);
            }
        }
        Topology::from_matrix(self.n, delays)
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Index-based delay lookup (internal form of [`Topology::delay`]).
    #[inline]
    fn d(&self, a: usize, b: usize) -> SimDuration {
        match &self.repr {
            Repr::Dense(delays) => delays[a * self.n + b],
            _ if a == b => SimDuration::ZERO,
            Repr::Plane { pts, min_ms } => {
                let dx = pts[a].0 - pts[b].0;
                let dy = pts[a].1 - pts[b].1;
                let ms = (dx * dx + dy * dy).sqrt();
                SimDuration::from_nanos((ms * 1e6) as u64 + min_ms * 1_000_000)
            }
            Repr::Complete { d } => *d,
            Repr::Hashed {
                seed,
                min_ms,
                max_ms,
            } => {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                let h = mix64(seed ^ mix64(((lo as u64) << 32) | hi as u64));
                let span = max_ms - min_ms + 1;
                // Multiply-shift maps the hash uniformly onto the range
                // without the modulo bias of `h % span`.
                let ms = min_ms + ((u128::from(h) * u128::from(span)) >> 64) as u64;
                SimDuration::from_millis(ms)
            }
        }
    }

    /// One-way message delay between two nodes. Zero for `a == b`.
    #[inline]
    pub fn delay(&self, a: ActorId, b: ActorId) -> SimDuration {
        self.d(a.index(), b.index())
    }

    /// Greedy nearest-neighbour tour over all nodes starting at `start`.
    /// Rosenkrantz et al. (cited by the paper as \[21\]) bound NN tours within
    /// `O(log N)` of optimal on metric spaces; the analysis reproduction
    /// checks the paper's use of that bound.
    pub fn nearest_neighbour_tour(&self, start: ActorId) -> Vec<ActorId> {
        let mut visited = vec![false; self.n];
        let mut tour = Vec::with_capacity(self.n);
        let mut cur = start;
        visited[cur.index()] = true;
        tour.push(cur);
        for _ in 1..self.n {
            let mut best: Option<(usize, SimDuration)> = None;
            for (b, seen) in visited.iter().enumerate() {
                if !seen {
                    let d = self.d(cur.index(), b);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((b, d));
                    }
                }
            }
            let (b, _) = best.expect("unvisited node must exist");
            visited[b] = true;
            cur = ActorId(b as u32);
            tour.push(cur);
        }
        tour
    }

    /// Does the topology satisfy the triangle inequality (within exact
    /// integer arithmetic)? Uniform and hashed random topologies generally
    /// do not; plane and complete ones do.
    pub fn is_metric(&self) -> bool {
        for a in 0..self.n {
            for b in 0..self.n {
                let dab = self.d(a, b).as_nanos();
                for c in 0..self.n {
                    let via = self.d(a, c).as_nanos() as u128 + self.d(c, b).as_nanos() as u128;
                    if (dab as u128) > via {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Is the delay function symmetric with a zero diagonal? (Invariant
    /// check used by property tests.)
    pub fn is_well_formed(&self) -> bool {
        for a in 0..self.n {
            if !self.d(a, a).is_zero() {
                return false;
            }
            for b in 0..self.n {
                if self.d(a, b) != self.d(b, a) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(2026)
    }

    #[test]
    fn uniform_random_in_range_and_well_formed() {
        let t = Topology::uniform_random(20, 1, 50, &mut rng());
        assert!(t.is_well_formed());
        for a in 0..20 {
            for b in 0..20 {
                if a != b {
                    let ms = t.delay(ActorId(a), ActorId(b)).as_millis();
                    assert!((1..=50).contains(&ms), "delay {ms}ms out of range");
                }
            }
        }
    }

    #[test]
    fn hashed_random_in_range_and_well_formed() {
        let t = Topology::hashed_random(64, 1, 50, 99);
        assert!(t.is_well_formed());
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..64 {
            for b in 0..64 {
                if a != b {
                    let ms = t.delay(ActorId(a), ActorId(b)).as_millis();
                    assert!((1..=50).contains(&ms), "delay {ms}ms out of range");
                    seen.insert(ms);
                }
            }
        }
        assert!(seen.len() > 40, "hashed delays barely vary: {}", seen.len());
    }

    #[test]
    fn hashed_random_is_deterministic_and_seed_sensitive() {
        let a = Topology::hashed_random(30, 1, 50, 5);
        let b = Topology::hashed_random(30, 1, 50, 5);
        let c = Topology::hashed_random(30, 1, 50, 6);
        let mut differs = false;
        for x in 0..30 {
            for y in 0..30 {
                assert_eq!(
                    a.delay(ActorId(x), ActorId(y)),
                    b.delay(ActorId(x), ActorId(y))
                );
                differs |= a.delay(ActorId(x), ActorId(y)) != c.delay(ActorId(x), ActorId(y));
            }
        }
        assert!(differs, "seed does not influence hashed delays");
    }

    #[test]
    fn metric_plane_is_metric() {
        let t = Topology::metric_plane(15, 50.0, 1, &mut rng());
        assert!(t.is_well_formed());
        assert!(t.is_metric());
    }

    #[test]
    fn on_demand_reprs_match_materialized_dense() {
        // Every on-demand representation must agree with its own dense
        // materialization at every pair (and stay well-formed).
        let tops = [
            ("plane", Topology::metric_plane(17, 40.0, 2, &mut rng())),
            ("complete", Topology::complete(17, 9)),
            ("hashed", Topology::hashed_random(17, 1, 50, 77)),
        ];
        for (name, t) in tops {
            let dense = t.to_dense();
            for a in 0..17 {
                for b in 0..17 {
                    assert_eq!(
                        t.delay(ActorId(a), ActorId(b)),
                        dense.delay(ActorId(a), ActorId(b)),
                        "{name} diverges from its dense form at ({a},{b})"
                    );
                    // The generators' floor: distinct nodes are never
                    // closer than 1 ms.
                    assert!(
                        a == b || t.delay(ActorId(a), ActorId(b)) >= SimDuration::from_millis(1)
                    );
                }
            }
        }
    }

    #[test]
    fn complete_constant() {
        let t = Topology::complete(5, 7);
        assert_eq!(t.delay(ActorId(0), ActorId(4)).as_millis(), 7);
        assert!(t.is_metric());
    }

    /// The tour takes the nearest unvisited node at every step, not the
    /// next index: checked against a brute-force greedy walk over `delay`
    /// on a plane, where index order and distance order disagree.
    #[test]
    fn nn_tour_steps_to_the_nearest_unvisited_node() {
        let n = 12;
        let t = Topology::metric_plane(n, 50.0, 1, &mut rng());
        let tour = t.nearest_neighbour_tour(ActorId(3));
        let mut expected = vec![ActorId(3)];
        while expected.len() < n {
            let cur = *expected.last().expect("the walk starts somewhere");
            let next = (0..n as u32)
                .map(ActorId)
                .filter(|b| !expected.contains(b))
                .min_by_key(|&b| (t.delay(cur, b), b.0))
                .expect("an unvisited node is left");
            expected.push(next);
        }
        assert_eq!(tour, expected);
        assert_ne!(
            tour,
            (0..n as u32).map(ActorId).collect::<Vec<_>>(),
            "index order would pass too"
        );
    }

    #[test]
    fn nn_tour_visits_each_node_once() {
        let t = Topology::uniform_random(30, 1, 50, &mut rng());
        let tour = t.nearest_neighbour_tour(ActorId(7));
        let mut seen: Vec<u32> = tour.iter().map(|a| a.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..30).collect::<Vec<u32>>());
    }

    #[test]
    fn determinism_per_seed() {
        let a = Topology::uniform_random(10, 1, 50, &mut SimRng::new(5));
        let b = Topology::uniform_random(10, 1, 50, &mut SimRng::new(5));
        for x in 0..10 {
            for y in 0..10 {
                assert_eq!(
                    a.delay(ActorId(x), ActorId(y)),
                    b.delay(ActorId(x), ActorId(y))
                );
            }
        }
    }
}
