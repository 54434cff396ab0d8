//! Summary statistics for the benchmark's samples.
//!
//! Tail percentiles obey one rule: a percentile is reported only when at
//! least ten samples lie beyond it, so `p90` needs 100 samples and `p99`
//! needs 1000. A median of repeated whole-run measurements (set-up
//! times, grid passes) is a [`Summary`] and carries its sample count
//! instead.
//!
//! On a shared host the speed of the machine changes within a run, so a
//! run's figure is a trimmed mean over batches: consecutive stretches of
//! the run, each summarized on its own (a pass's wall time, a batch's
//! percentile). The mean follows the share of the run the host spent at
//! each speed; a median or a pooled percentile jumps between the speeds
//! when that share is near a half. Trimming a tenth at each end keeps a
//! stray stall out without making the mean jump in its stead.

/// The `q`-quantile of `samples` (`0 < q < 1`), linearly interpolated
/// between the closest ranks, or `None` unless at least ten samples lie
/// beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if !(0.0..1.0).contains(&q) || (samples.len() as f64) * (1.0 - q) < 10.0 - 1e-9 {
        return None;
    }
    Some(quantile(samples, q))
}

/// The interpolated `q`-quantile of a non-empty sample (no size rule).
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Samples a batch needs for its `q`-percentile under the ten-beyond
/// rule.
fn batch_size(q: f64) -> usize {
    (10.0 / (1.0 - q) - 1e-9).ceil() as usize
}

/// The `q`-percentile of each of up to `max_batches` consecutive
/// batches of `samples` (kept in the order they were taken), as many
/// batches as keep ten samples beyond each one's percentile; `None`
/// when there are too few samples for one batch.
pub fn batch_percentiles(samples: &[f64], q: f64, max_batches: usize) -> Option<Vec<f64>> {
    if !(0.0..1.0).contains(&q) {
        return None;
    }
    let k = (samples.len() / batch_size(q)).min(max_batches);
    if k == 0 {
        return None;
    }
    let n = samples.len();
    (0..k)
        .map(|i| percentile(&samples[i * n / k..(i + 1) * n / k], q))
        .collect()
}

/// The trimmed mean: the mean of `values` without the lowest and the
/// highest tenth (rounded down); `None` when there are none.
pub fn trimmed_mean(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let middle = &sorted[cut..sorted.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Median, quartiles and count of a set of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// How many samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        Some(Summary {
            median: quantile(samples, 0.5),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
            n: samples.len(),
        })
    }
}

/// Online least-squares fit of `y = intercept + slope * x`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fit {
    n: f64,
    sx: f64,
    sy: f64,
    sxx: f64,
    sxy: f64,
}

impl Fit {
    /// Adds one `(x, y)` observation.
    pub fn add(&mut self, x: f64, y: f64) {
        self.n += 1.0;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.sxy += x * y;
    }

    /// Merges another fit's observations into this one.
    pub fn merge(&mut self, other: &Fit) {
        self.n += other.n;
        self.sx += other.sx;
        self.sy += other.sy;
        self.sxx += other.sxx;
        self.sxy += other.sxy;
    }

    /// `(intercept, slope)`; the slope is 0 when every `x` is equal.
    pub fn line(&self) -> (f64, f64) {
        if self.n == 0.0 {
            return (0.0, 0.0);
        }
        let var = self.n * self.sxx - self.sx * self.sx;
        let slope = if var.abs() < 1e-12 {
            0.0
        } else {
            (self.n * self.sxy - self.sx * self.sy) / var
        };
        ((self.sy - slope * self.sx) / self.n, slope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        assert!(percentile(&hundred, 0.9).is_some());
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&hundred[..20], 0.5), Some(9.5));
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        assert!(percentile(&thousand, 0.99).is_some());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Some(50.5));
        let p90 = percentile(&v, 0.9).unwrap();
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
    }

    #[test]
    fn batches_keep_ten_samples_beyond_their_percentile() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(batch_percentiles(&v[..19], 0.5, 8), None);
        assert_eq!(batch_percentiles(&v[..20], 0.5, 8).unwrap().len(), 1);
        assert_eq!(batch_percentiles(&v[..99], 0.9, 8), None);
        assert_eq!(batch_percentiles(&v[..299], 0.9, 8).unwrap().len(), 2);
        assert_eq!(batch_percentiles(&v, 0.5, 8).unwrap().len(), 8);
        assert_eq!(batch_percentiles(&v, 0.99, 8).unwrap().len(), 1);
        // Consecutive batches: 0..500 and 500..1000.
        assert_eq!(batch_percentiles(&v, 0.5, 2), Some(vec![249.5, 749.5]));
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        assert_eq!(trimmed_mean(&[]), None);
        assert_eq!(trimmed_mean(&[3.0]), Some(3.0));
        assert_eq!(trimmed_mean(&[1.0, 2.0, 9.0]), Some(4.0));
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        v.extend([100.0, -50.0]);
        assert_eq!(trimmed_mean(&v), Some(4.5));
    }

    #[test]
    fn summary_reports_quartiles_and_count() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn fit_recovers_a_line() {
        let mut f = Fit::default();
        for x in 0..10 {
            f.add(f64::from(x), 3.0 + 0.5 * f64::from(x));
        }
        let (a, b) = f.line();
        assert!((a - 3.0).abs() < 1e-9 && (b - 0.5).abs() < 1e-9);
        let mut flat = Fit::default();
        flat.add(2.0, 7.0);
        flat.add(2.0, 9.0);
        assert_eq!(flat.line(), (8.0, 0.0));
    }
}
