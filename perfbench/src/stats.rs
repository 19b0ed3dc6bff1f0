//! Order statistics of timing samples: median, quartiles and the tail rule.

/// Sorted copy of `samples` (NaN-free input assumed; NaNs sort last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median: the middle sample, or the mean of the two middle samples.
/// Returns `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the "exclusive" method (the default
/// of Python's `statistics.quantiles(data, n=4)`), so the spread this tool
/// prints is the one an outside script computes from the same values.
/// A single sample is its own quartiles; an empty slice gives `None`.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = n + 1;
            let mut q = [0.0; 3];
            for (i, slot) in q.iter_mut().enumerate() {
                let i = i + 1;
                // Clamp j into [1, n-1] exactly as the reference does.
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(q)
        }
    }
}

/// The nearest-rank `p`-th percentile (`p` in 1..=100) of `samples`.
pub fn percentile(samples: &[f64], p: usize) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    (n > 0 && (1..=100).contains(&p)).then(|| v[(p * n).div_ceil(100).max(1) - 1])
}

/// Minimum number of samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a timing distribution: the highest whole percentile that
/// still has at least [`TAIL_BEYOND`] samples above it, by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (1–99), or 100 when fewer than
    /// `TAIL_BEYOND + 1` samples exist and the maximum is all there is.
    pub percentile: u32,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
    /// Total sample count.
    pub samples: usize,
}

/// Applies the tail rule to `samples`; `None` for an empty slice.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    // Nearest rank of percentile p is ceil(p·n/100); it leaves n − rank
    // samples above it.
    let rank = |p: usize| (p * n).div_ceil(100);
    let best = (1..=99usize)
        .rev()
        .find(|&p| n - rank(p) >= TAIL_BEYOND && rank(p) >= 1);
    Some(match best {
        Some(p) => Tail {
            percentile: p as u32,
            value: v[rank(p) - 1],
            beyond: n - rank(p),
            samples: n,
        },
        None => Tail {
            percentile: 100,
            value: v[n - 1],
            beyond: 0,
            samples: n,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 7, 2, 9, 4, 11], n=4) == [2.0, 4.0, 9.0]
        let odd = [3.0, 1.0, 7.0, 2.0, 9.0, 4.0, 11.0];
        assert_eq!(quartiles(&odd), Some([2.0, 4.0, 9.0]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn percentile_uses_the_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 10), Some(2.0));
        assert_eq!(percentile(&v, 50), Some(10.0));
        assert_eq!(percentile(&v, 100), Some(20.0));
        assert_eq!(percentile(&[3.0], 1), Some(3.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&v, 0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: p90 has rank 90 and exactly 10 above it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90, 90.0, 10, 100)
        );
        // 26 samples: p61 → rank ceil(15.86) = 16, 10 beyond; p62 → rank
        // 17 leaves only 9.
        let v: Vec<f64> = (1..=26).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (61, 16.0, 10));
        // 1000 samples: p99 has 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 99);
    }

    #[test]
    fn tail_of_a_small_sample_falls_back_to_the_maximum() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (100, 10.0, 0, 10)
        );
        // 11 samples: p9 → rank 1, 10 beyond.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (9, 1.0, 10));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_never_reports_fewer_than_ten_beyond() {
        for n in 11..300 {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&v).unwrap();
            assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
            // One percentile higher would leave fewer than ten beyond.
            if t.percentile < 99 {
                let rank = ((t.percentile as usize + 1) * n).div_ceil(100);
                assert!(n - rank < TAIL_BEYOND, "n={n}: {t:?}");
            }
        }
    }
}
