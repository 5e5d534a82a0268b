//! The benchmark's own random source (SplitMix64). Inputs and request
//! schedules depend only on it and the seed, so a change to the library's
//! generators or RNG stubs cannot move the ruler.

#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed: different streams of
    /// the same seed are independent.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the stream name
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by the multiply-shift reduction.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(8, "x").next_u64());
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::new(1, "range");
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
