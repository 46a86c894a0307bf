//! Seeded randomness for workload generation: SplitMix64 and a zipf
//! sampler. Everything the benchmark sends is a pure function of `--seed`.

/// SplitMix64: small, fast, and every seed gives a full-period stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A stream for one purpose (`lane`) derived from a run seed, so the
    /// clients of one run draw independent sequences.
    pub fn for_lane(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n`: `P(rank r) ∝ 1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1);
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..16).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(
            Rng::for_lane(7, 0).next_u64(),
            Rng::for_lane(7, 1).next_u64()
        );
    }

    #[test]
    fn zipf_favours_low_ranks_and_repeats_per_seed() {
        let z = Zipf::new(32, 0.99);
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..4000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        let count = |rank| a.iter().filter(|&&r| r == rank).count();
        assert!(a.iter().all(|&r| r < 32));
        // rank 0 carries ~1/H(32) ≈ 25 % of the mass, rank 31 under 1 %
        assert!(count(0) > 800 && count(0) < 1200, "rank 0: {}", count(0));
        assert!(count(0) > 10 * count(31));
    }

    #[test]
    fn below_and_shuffle_stay_in_range() {
        let mut r = Rng::new(3);
        assert!((0..1000).all(|_| r.below(5) < 5));
        let mut v: Vec<u32> = (0..8).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }
}
