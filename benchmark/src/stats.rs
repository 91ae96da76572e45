//! The one statistics module of the benchmark: every median, percentile,
//! quartile and geometric mean the harness prints goes through here, and
//! every timing summary carries its sample count.

/// Fewest samples that must lie beyond a reported percentile: below this a
/// tail figure is a handful of outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of an ascending-sorted sample. A
/// low percentile mirrors the high one — p10 of 100 samples is the 11th
/// smallest as p90 is the 90th — so both have the same count beyond them.
/// Refuses — with the counts, so the caller can say why — when fewer than
/// [`MIN_BEYOND`] samples lie beyond the picked one, on its tail's side.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile wants 0 < p < 1, got {p}");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "percentile wants sorted input");
    let n = sorted.len();
    let rank = ((p.max(1.0 - p) * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {n} samples has {beyond} beyond it, fewer than {MIN_BEYOND}",
            p * 100.0
        ));
    }
    Ok(if p < 0.5 { sorted[n - rank] } else { sorted[rank - 1] })
}

/// Median of a small sample (set-up repetitions, calibration probes), where
/// the ten-beyond rule of [`percentile`] cannot apply. `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Geometric mean of positive values. `None` when empty or when any value
/// is not positive (a zero latency is a measurement bug, not a fast query).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan() || *x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Arithmetic mean. `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// First quartile, median, third quartile — the same cut points Python's
/// `statistics.quantiles(values, n=4)` gives (the "exclusive" method), so
/// spreads printed here equal the ones the acceptance check computes.
/// `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Ok(50.0));
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
        assert_eq!(percentile(&v, 0.1), Ok(11.0), "ten below it, as p90 has ten above");
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        // 99 samples: p90 is rank 90, nine beyond it — refused.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = percentile(&v, 0.9).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        // 100 samples: exactly ten beyond — accepted.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_ok());
        assert!(percentile(&v, 0.1).is_ok());
        assert!(percentile(&v[1..], 0.1).unwrap_err().contains("9 beyond"));
        // The median needs ten beyond it too.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&v, 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn geomean_wants_positive_values() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    /// Cut points of `statistics.quantiles(values, n=4)` for 1..=10 and for
    /// an odd-sized sample, computed with Python 3.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 10.0, 4.0]), Some([2.0, 4.0, 8.5]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
