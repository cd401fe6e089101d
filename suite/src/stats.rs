//! Order statistics and digests shared by the runner and `compare`.

use adapt_obs::nearest_rank;

/// Samples a tail percentile needs: the choosing-metrics rule reports the
/// highest percentile with at least ten samples beyond it, so p90 needs
/// 100.
pub const MIN_TAIL_SAMPLES: usize = 100;

/// Nearest-rank percentile `q` (0–100) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(v.len(), q).map(|rank| v[rank - 1])
}

/// p90 of `values`, refused when they stand for fewer than
/// [`MIN_TAIL_SAMPLES`] timed samples.
pub fn p90(values: &[f64], samples: usize) -> Option<f64> {
    if samples < MIN_TAIL_SAMPLES {
        return None;
    }
    percentile(values, 90.0)
}

pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles, as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) computes them. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |j: usize| {
        let m = (n + 1) as f64 * j as f64 / 4.0;
        let k = (m.floor() as usize).clamp(1, n - 1);
        let frac = m - k as f64;
        v[k - 1] + (v[k] - v[k - 1]) * frac
    };
    Some((at(1), at(3)))
}

pub fn geomean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let logs: f64 = samples.iter().map(|v| v.ln()).sum();
    Some((logs / samples.len() as f64).exp())
}

/// FNV-1a over a stream of u64 words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[3.0], 90.0), Some(3.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Exactly ten of the hundred samples lie beyond the p90.
        let p = p90(&v, v.len()).expect("100 samples suffice");
        assert_eq!(v.iter().filter(|&&x| x > p).count(), 10);
        assert_eq!(p90(&v[..99], 99), None);
        // Values standing for pooled samples count the samples, not the values.
        assert_eq!(p90(&v[..10], 100), Some(9.0));
        assert_eq!(p90(&v[..10], 99), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn geomean_and_digest() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-12);
        assert_ne!(fnv([1, 2]), fnv([2, 1]));
        assert_eq!(fnv([]), 0xCBF2_9CE4_8422_2325);
    }
}
