//! Order statistics: nearest-rank percentiles for latency samples, and
//! the median / quartile / extreme summary every end-to-end metric carries.

use crate::json::Value;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `p` in `(0, 1]`.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Quartile cut points by the rule Python's `statistics.quantiles(v, n=4)`
/// uses (exclusive method: the i-th cut sits at position `i·(n+1)/4`,
/// interpolated linearly), so spreads computed here equal the ones the
/// acceptance driver computes. One sample is its own three quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some([v[0]; 3]),
        n => {
            let cut = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some([cut(1), cut(2), cut(3)])
        }
    }
}

pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q[1])
}

/// What a metric's samples boil down to in a report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        let [q1, median, q3] = quartiles(values)?;
        Some(Summary {
            median,
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        })
    }

    /// Interquartile range as a share of the median: the run-to-run spread
    /// a bound is compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Value {
        Value::object([
            ("median", Value::Num(self.median)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
            ("min", Value::Num(self.min)),
            ("max", Value::Num(self.max)),
            ("n", Value::Num(self.n as f64)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        Some(Summary {
            median: v.get("median")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
            min: v.get("min")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
            n: v.get("n")?.as_f64()? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), Some(50));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100));
        assert_eq!(percentile_sorted(&[7u32], 0.99), Some(7));
        assert_eq!(percentile_sorted(&[1u32, 2, 3, 4], 0.5), Some(2));
        assert_eq!(percentile_sorted(&[1u32, 2, 3, 4], 0.51), Some(3));
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(quartiles(&[3.0]), Some([3.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_and_spread() {
        let s = Summary::of(&[100.0, 102.0, 98.0, 101.0, 99.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (100.0, 98.0, 102.0, 5));
        assert_eq!((s.q1, s.q3), (98.5, 101.5));
        assert!((s.spread() - 0.03).abs() < 1e-12);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
