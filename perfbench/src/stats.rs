//! Order statistics for latency samples.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least [`TAIL_MIN`] samples beyond it, so a "p99" from a short run
//! never rests on one or two outliers. Failed requests enter as `+inf`: a
//! failure misses every latency limit.

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_MIN: usize = 10;

/// A percentile as reported: the value, the percentile actually used (may
/// be lower than asked for on short runs) and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub percentile: f64,
    pub n: usize,
}

/// Nearest-rank index of percentile `p` (0..=100) in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    let k = (p * n as f64 / 100.0).ceil() as usize;
    k.clamp(1, n) - 1
}

/// Sort samples ascending (`+inf` last; NaN is never produced).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    v
}

/// Nearest-rank median of sorted samples.
pub fn median(sorted: &[f64]) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(50.0, sorted.len())])
}

/// The percentile closest to `want` that leaves at least [`TAIL_MIN`]
/// samples beyond it. `None` when there are too few samples for any.
pub fn tail(sorted: &[f64], want: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n <= TAIL_MIN {
        return None;
    }
    let k = rank(want, n).min(n - 1 - TAIL_MIN);
    Some(Quantile {
        value: sorted[k],
        percentile: (k + 1) as f64 * 100.0 / n as f64,
        n,
    })
}

/// The median of per-window values over the quieter windows: those whose
/// host steal is at or below the median window's. A window in which the
/// hypervisor took the CPU away measures the host, not the program, so it
/// does not set the run's figure; when no window was disturbed this is
/// the median over about half the windows.
pub fn quiet_median(values: &[f64], steal: &[f64]) -> f64 {
    assert_eq!(values.len(), steal.len(), "one steal figure per window");
    let Some(limit) = median(&sorted(steal.to_vec())) else {
        return f64::NAN;
    };
    let quiet: Vec<f64> = values
        .iter()
        .zip(steal)
        .filter(|(_, s)| **s <= limit)
        .map(|(v, _)| *v)
        .collect();
    median_of(&quiet)
}

/// Median of unsorted values (for "set up several times, report the
/// median" style measurements).
pub fn median_of(v: &[f64]) -> f64 {
    median(&sorted(v.to_vec())).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2000 samples: p99 is rank 1980, with 20 beyond it
        let q = tail(&ramp(2000), 99.0).unwrap();
        assert_eq!(q.value, 1980.0);
        assert_eq!(q.percentile, 99.0);
        // 1000 samples: p99 is rank 990, exactly ten beyond
        let q = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(q.value, 990.0);
        assert_eq!(q.n, 1000);
        // 200 samples: p99 would leave 2 beyond, so rank 190 (p95) is used
        let q = tail(&ramp(200), 99.0).unwrap();
        assert_eq!(q.value, 190.0);
        assert_eq!(q.percentile, 95.0);
        assert_eq!(ramp(200).iter().filter(|&&x| x > q.value).count(), 10);
        // eleven samples: only the minimum leaves ten beyond it
        assert_eq!(tail(&ramp(11), 99.0).unwrap().value, 1.0);
        assert_eq!(tail(&ramp(10), 99.0), None);
    }

    #[test]
    fn tail_never_exceeds_the_asked_percentile() {
        let q = tail(&ramp(100_000), 50.0).unwrap();
        assert_eq!(q.value, 50_000.0);
        assert_eq!(q.percentile, 50.0);
    }

    #[test]
    fn failures_sort_last_and_surface_in_the_tail() {
        let mut v = ramp(100);
        v.extend(std::iter::repeat_n(f64::INFINITY, 20));
        let s = sorted(v);
        assert_eq!(median(&s), Some(60.0));
        assert!(tail(&s, 99.0).unwrap().value.is_infinite());
    }

    #[test]
    fn quiet_median_skips_windows_the_host_disturbed() {
        // five windows; the two with heavy steal read slow
        let values = [10.0, 50.0, 11.0, 12.0, 40.0];
        let steal = [0.5, 20.0, 1.0, 0.0, 15.0];
        assert_eq!(quiet_median(&values, &steal), 11.0);
        // an undisturbed host: the median over the lower-steal half
        assert_eq!(quiet_median(&[3.0, 1.0, 2.0], &[0.0, 0.0, 0.0]), 2.0);
        assert!(quiet_median(&[], &[]).is_nan());
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), None);
        assert_eq!(median_of(&[5.0]), 5.0);
    }
}
