//! Independent parallel stream families — the MT2203-family replacement.
//!
//! MKL ships 6024 MT2203 parameter sets so every thread can own an
//! independent Mersenne twister. We get the same contract from Philox:
//! [`StreamFamily::stream(i)`](StreamFamily::stream) returns the `i`-th
//! member, and members never share output blocks for any pair of distinct
//! indices under the same seed.

use crate::Philox4x32;
#[cfg(test)]
use crate::RngCore64;

/// A family of independent random streams sharing one user seed.
///
/// ```
/// use finbench_rng::{StreamFamily, RngCore64};
/// let family = StreamFamily::new(42);
/// let mut s0 = family.stream(0);
/// let mut s1 = family.stream(1);
/// assert_ne!(s0.next_u64(), s1.next_u64());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StreamFamily {
    seed: u64,
}

impl StreamFamily {
    /// Create a family from a user seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The `id`-th independent stream of the family. Any `u64` id is
    /// valid (the paper's MT2203 family caps at 6024; we do not).
    pub fn stream(&self, id: u64) -> Philox4x32 {
        crate::counters::STREAMS_CREATED.add(1);
        Philox4x32::new_stream(self.seed, id)
    }

    /// The family seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::moments;

    #[test]
    fn streams_reproducible() {
        let f = StreamFamily::new(7);
        let a: Vec<u64> = {
            let mut s = f.stream(3);
            (0..50).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = f.stream(3);
            (0..50).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn streams_disjoint_prefixes() {
        let f = StreamFamily::new(7);
        let mut seen = std::collections::HashSet::new();
        for id in 0..64u64 {
            let mut s = f.stream(id);
            for _ in 0..32 {
                // 2048 64-bit draws across 64 streams: collisions would
                // signal broken keying, not chance (p ~ 1e-13).
                assert!(seen.insert(s.next_u64()), "collision across streams");
            }
        }
    }

    #[test]
    fn different_seeds_give_different_families() {
        let a = StreamFamily::new(1).stream(0).next_u64();
        let b = StreamFamily::new(2).stream(0).next_u64();
        assert_ne!(a, b);
    }

    /// `out` in `chunk`-sized blocks, block `i` from stream `i`: the
    /// scenario grid's layout (one stream per scenario).
    fn fill_blocked(f: &StreamFamily, out: &mut [f64], chunk: usize) {
        for (i, block) in out.chunks_mut(chunk).enumerate() {
            crate::uniform::fill_uniform(&mut f.stream(i as u64), block);
        }
    }

    #[test]
    fn blocked_fill_is_split_invariant() {
        let f = StreamFamily::new(99);
        let mut whole = vec![0.0; 1024];
        fill_blocked(&f, &mut whole, 128);

        // Same blocks filled "by another worker layout" — in reverse, each
        // from its own family handle — must agree.
        let mut parts = vec![0.0; 1024];
        for blk in (0..8).rev() {
            let mut rng = StreamFamily::new(99).stream(blk as u64);
            crate::uniform::fill_uniform(&mut rng, &mut parts[blk * 128..(blk + 1) * 128]);
        }
        assert_eq!(whole, parts);
    }

    #[test]
    fn pooled_streams_still_uniform() {
        // Concatenating many streams must not distort the distribution.
        let f = StreamFamily::new(123);
        let mut buf = vec![0.0; 64 * 1024];
        fill_blocked(&f, &mut buf, 1024);
        let m = moments(&buf);
        assert!((m.mean - 0.5).abs() < 0.01, "mean {}", m.mean);
        assert!((m.variance - 1.0 / 12.0).abs() < 0.01, "var {}", m.variance);
    }
}
