//! Sample statistics and the one numeric schema every result is printed in.

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank position of the `permille`-th percentile among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000)
}

/// Whether `n` samples support the `permille`-th percentile: at least
/// [`MIN_BEYOND`] of them must lie beyond it, so p50 needs 20 samples, p90
/// needs 100 and p99 needs 1000.
pub fn supports(n: usize, permille: usize) -> bool {
    n >= rank(n, permille) + MIN_BEYOND
}

/// Nearest-rank percentile (given in permille: 500 is p50, 990 is p99) of an
/// ascending slice, or `None` when the sample does not [support](supports) it.
pub fn percentile(sorted: &[f64], permille: usize) -> Option<f64> {
    let n = sorted.len();
    supports(n, permille).then(|| sorted[rank(n, permille).max(1) - 1])
}

/// Median of an unsorted sample (mean of the middle two when even); 0 for
/// an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sorts a latency sample (nanoseconds) into ascending milliseconds.
pub fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// One reported number: always a JSON number with its unit beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders a finite `f64` with all its digits; non-finite values (a ratio
/// with an empty base) are reported as 0 so the line stays valid JSON.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, …}` in the given order.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let cells: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(percentile(&ramp(19), 500), None);
        assert_eq!(percentile(&ramp(20), 500), Some(10.0));
        assert_eq!(percentile(&ramp(99), 900), None);
        assert_eq!(percentile(&ramp(100), 900), Some(90.0));
        assert_eq!(percentile(&ramp(999), 990), None);
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn median_and_numbers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\n\"");
        let m = [Metric {
            name: "x_ms",
            value: 0.5,
            unit: "ms",
        }];
        assert_eq!(
            metrics_json(&m),
            "{\"x_ms\": {\"value\": 0.5, \"unit\": \"ms\"}}"
        );
    }
}
