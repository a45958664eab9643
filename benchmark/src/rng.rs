//! The benchmark's own random-number generator.
//!
//! Every input a workload hands to the program (send schedules, frame
//! sizes, LBAs, operation mixes) is drawn here from `--seed`; the program
//! under test only ever receives the generated data, never the seed.

/// xoshiro256** seeded through SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for one named input stream of one run: `stream` keeps
    /// the streams of a workload (one per client, per volume, …)
    /// independent of each other under the same `--seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut st = seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut st);
        }
        Rng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: unbiased enough for workload shaping (n << 2^64).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential with the given mean (inter-arrival gaps of a Poisson
    /// process).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.f64()).ln()
    }
}

/// FNV-1a, the digest used for generated inputs and for snapshot bytes.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn of(data: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.bytes(data);
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 3);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 3);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_and_streams_differ() {
        let first = |seed, stream| Rng::new(seed, stream).next_u64();
        assert_ne!(first(7, 3), first(8, 3));
        assert_ne!(first(7, 3), first(7, 4));
    }

    #[test]
    fn exp_has_the_requested_mean() {
        let mut r = Rng::new(1, 0);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exp(10_000.0)).sum::<f64>() / n as f64;
        assert!((mean - 10_000.0).abs() < 100.0, "mean {mean}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(2, 0);
        assert!((0..10_000).all(|_| r.below(10) < 10));
    }
}
