//! Order statistics over latency samples.

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of the usual percentiles that leaves at least ten
/// samples above it, or `None` when even p50 does not.
pub fn highest_supported(n: usize) -> Option<f64> {
    // In per mille, so the count beyond the nearest rank is exact.
    [999, 990, 950, 900, 500]
        .into_iter()
        .find(|&p| n - (p * n).div_ceil(1000) >= 10)
        .map(|p| p as f64 / 10.0)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let logs: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// One report line for a statement-level metric: its median, sample
/// count and the highest percentile the count supports.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let mut line = format!(
        "stmt {name} median={:.4} {unit} n={}",
        median(samples),
        samples.len()
    );
    match highest_supported(samples.len()) {
        Some(p) if p > 50.0 => {
            line.push_str(&format!(" p{p}={:.4} {unit}", percentile(samples, p)));
        }
        Some(_) => line.push_str(" (no tail percentile: fewer than 100 samples)"),
        None => line.push_str(" (fewer than 20 samples)"),
    }
    line
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(19), None);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
