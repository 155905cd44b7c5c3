//! Sample reduction: the percentile rule and medians.

/// A percentile as reported: which percentile was taken, its value, and
/// how many samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile actually reported (0..=100).
    pub p: f64,
    /// Its value, in the samples' unit.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// The nearest-rank percentile `p` of `sorted` (ascending, non-empty).
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    // The epsilon keeps `p = 100 (n - 10) / n` from rounding up a rank.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The percentile closest to `want` that still has at least ten samples
/// beyond it, and never lower than the median. With `n` samples the
/// nearest-rank percentile `p` leaves `n - ceil(p n / 100)` samples above
/// it, so the highest admissible percentile is `100 (n - 10) / n`.
pub fn tail(samples: &[f64], want: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let highest = 100.0 * (n as f64 - 10.0) / n as f64;
    let p = want.min(highest).max(50.0);
    Some(Pct {
        p,
        value: nearest_rank(&sorted, p),
        n,
    })
}

/// The median (nearest rank) with its sample count.
pub fn p50(samples: &[f64]) -> Option<Pct> {
    tail(samples, 50.0)
}

/// Median of repeated measurements (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The median over repeated runs of one per-run percentile (by the rule
/// of [`tail`]), reported with the median percentile and sample count the
/// runs used; a zero value of count 0 when no run has samples.
pub fn median_pct<'a>(runs: impl IntoIterator<Item = &'a [f64]>, want: f64) -> Pct {
    let per: Vec<Pct> = runs.into_iter().filter_map(|s| tail(s, want)).collect();
    if per.is_empty() {
        return Pct {
            p: want,
            value: 0.0,
            n: 0,
        };
    }
    let med = |f: fn(&Pct) -> f64| median(&per.iter().map(f).collect::<Vec<_>>());
    Pct {
        p: med(|t| t.p),
        value: med(|t| t.value),
        n: med(|t| t.n as f64) as usize,
    }
}

/// A bounded sample buffer: past `cap` samples it keeps every other one
/// and doubles its stride, so long runs keep an evenly spread subset.
#[derive(Debug, Clone)]
pub struct Reservoir {
    kept: Vec<f64>,
    stride: u64,
    seen: u64,
    cap: usize,
}

impl Reservoir {
    /// A reservoir holding at most `cap` samples.
    pub fn new(cap: usize) -> Self {
        Reservoir {
            kept: Vec::new(),
            stride: 1,
            seen: 0,
            cap: cap.max(2),
        }
    }

    /// Offers one sample.
    pub fn push(&mut self, x: f64) {
        if self.seen.is_multiple_of(self.stride) {
            self.kept.push(x);
            if self.kept.len() >= self.cap {
                let halved: Vec<f64> = self.kept.iter().copied().step_by(2).collect();
                self.kept = halved;
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }

    /// The kept samples.
    pub fn samples(&self) -> &[f64] {
        &self.kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!((t.p, t.value, t.n), (99.0, 990.0, 1000));
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(ramp(1000).iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn fewer_samples_fall_back_to_the_highest_percentile_with_ten_beyond() {
        for n in [20usize, 100, 250, 500, 999] {
            let t = tail(&ramp(n), 99.0).unwrap();
            assert!(t.p < 99.0, "n={n} p={}", t.p);
            assert_eq!(t.n, n);
            let beyond = ramp(n).iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, 10, "n={n}: {beyond} samples beyond p{}", t.p);
        }
        assert_eq!(tail(&ramp(100), 99.0).unwrap().p, 90.0);
    }

    #[test]
    fn the_tail_never_drops_below_the_median() {
        let t = tail(&ramp(12), 99.0).unwrap();
        assert_eq!((t.p, t.value), (50.0, 6.0));
        assert!(tail(&[], 99.0).is_none());
        assert_eq!(p50(&[3.0, 1.0, 2.0]).unwrap().value, 2.0);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn reservoir_stays_bounded_and_spread() {
        let mut r = Reservoir::new(8);
        for i in 0..1000 {
            r.push(i as f64);
        }
        assert!(r.samples().len() < 8);
        let s = r.samples();
        assert_eq!(s[0], 0.0);
        assert!(s.windows(2).all(|w| w[1] - w[0] == s[1] - s[0]));
    }
}
