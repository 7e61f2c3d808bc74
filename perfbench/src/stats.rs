//! Summary statistics: medians, percentiles with the tail rule, and
//! ratios that carry their base counts.

use std::fmt;

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // up past an exact rank.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The percentiles the tail rule picks from, lowest first.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A tail latency as the rule reports it: the highest percentile of
/// [`TAIL_LADDER`] with at least ten samples beyond it, its value, and
/// the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Applies the tail rule to `xs`; `None` when even the median has
/// fewer than ten samples beyond it.
pub fn reportable_tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| samples_beyond(n, p) >= 10)
        .map(|&p| Tail {
            p,
            value: percentile(xs, p),
            samples: n,
        })
}

impl fmt::Display for Tail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{} = {:.4} (n={})", self.p, self.value, self.samples)
    }
}

/// A ratio that keeps its numerator and denominator, so every report
/// of it can state the base it was taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    /// Numerator count.
    pub num: u64,
    /// Denominator count.
    pub den: u64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: u64, den: u64) -> Ratio {
        Ratio { num, den }
    }

    /// The ratio's value; 0 over an empty base.
    pub fn value(self) -> f64 {
        if self.den == 0 {
            0.0
        } else {
            self.num as f64 / self.den as f64
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ({}/{})", self.value(), self.num, self.den)
    }
}
