//! Deterministic per-event sampling.
//!
//! Loss draws are a pure function of `(seed, edge, packet seq,
//! attempt)` rather than a sequential RNG stream. This makes scheme
//! comparisons *paired*: every scheme replaying the same trace sees
//! identical loss outcomes on identical (edge, packet) events, so
//! differences between schemes reflect routing, not sampling noise.

use dg_core::splitmix64;

/// A uniform sample in `[0, 1)` determined by the event coordinates.
pub fn unit_sample(seed: u64, edge: u32, seq: u64, attempt: u32) -> f64 {
    let mut h = splitmix64(seed);
    h = splitmix64(h ^ u64::from(edge));
    h = splitmix64(h ^ seq);
    h = splitmix64(h ^ u64::from(attempt));
    // 53 random bits into the mantissa range.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(unit_sample(1, 2, 3, 0), unit_sample(1, 2, 3, 0));
    }

    #[test]
    fn coordinates_matter() {
        let base = unit_sample(1, 2, 3, 0);
        assert_ne!(base, unit_sample(2, 2, 3, 0));
        assert_ne!(base, unit_sample(1, 3, 3, 0));
        assert_ne!(base, unit_sample(1, 2, 4, 0));
        assert_ne!(base, unit_sample(1, 2, 3, 1));
    }

    #[test]
    fn in_unit_interval_and_roughly_uniform() {
        let n = 10_000;
        let mut sum = 0.0;
        for seq in 0..n {
            let s = unit_sample(42, 7, seq, 0);
            assert!((0.0..1.0).contains(&s));
            sum += s;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn loss_frequency_tracks_probability() {
        let n = 20_000;
        let p = 0.3;
        let losses = (0..n).filter(|&seq| unit_sample(9, 1, seq, 0) < p).count();
        let freq = losses as f64 / n as f64;
        assert!((freq - p).abs() < 0.02, "freq {freq}");
    }
}
