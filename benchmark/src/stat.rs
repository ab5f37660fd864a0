//! Medians, the spread of repetitions, and the bound comparison.

/// Median of `v` (mean of the middle pair for an even count). `v` must not
/// be empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Largest minus smallest value, as a share of the median.
pub fn range_share(v: &[f64]) -> f64 {
    let max = v.iter().copied().fold(f64::MIN, f64::max);
    let min = v.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(v)
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// By what share of `base` the value `new` is worse (negative: better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn range_share_is_the_spread_of_the_repetitions() {
        assert!((range_share(&[1.9, 2.0, 2.2]) - 0.15).abs() < 1e-12);
        assert_eq!(range_share(&[5.0]), 0.0);
    }

    #[test]
    fn worse_by_respects_direction_and_bound() {
        assert!((worse_by(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, Better::Lower) + 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
        // A 10% bound admits +9% and rejects +11%.
        assert!(worse_by(1.0, 1.09, Better::Lower) <= 0.10);
        assert!(worse_by(1.0, 1.11, Better::Lower) > 0.10);
    }
}
