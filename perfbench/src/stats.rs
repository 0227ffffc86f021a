//! Small statistics helpers: quantiles of sample vectors and a log-linear
//! histogram for per-op latencies (too many ops per run to keep them all).

/// Linear-interpolated quantile `q` (0..=1) of `xs`; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Sub-buckets per power of two: a recorded value is reported to within
/// 1/32 (about 3%).
const SUB: u64 = 32;
const BUCKETS: usize = 64 * SUB as usize;

/// A log-linear histogram of nanosecond values.
pub struct LogHist {
    counts: [u64; BUCKETS],
    total: u64,
}

impl LogHist {
    /// An empty histogram.
    pub const fn new() -> LogHist {
        LogHist {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as u64; // >= 5
        let mant = (v >> (exp - 5)) - SUB; // 0..32
        ((exp - 4) * SUB + mant) as usize
    }

    fn floor(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let exp = i / SUB + 4;
        let mant = i % SUB + SUB;
        mant << (exp - 5)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[LogHist::index(v)] += 1;
        self.total += 1;
    }

    /// The lower bound of the bucket holding quantile `q`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return LogHist::floor(i);
            }
        }
        LogHist::floor(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn log_hist_is_within_three_percent() {
        for v in [0u64, 7, 31, 32, 33, 100, 1_000, 123_456, 9_876_543_210] {
            let f = LogHist::floor(LogHist::index(v));
            assert!(f <= v && v - f <= v / 32, "{v} -> {f}");
        }
        let mut h = LogHist::new();
        for v in 1..=1000 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((484..=500).contains(&p50), "{p50}");
    }
}
