//! Order statistics and the result-line plumbing shared by every pass.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads printed here match the ones Python computes from the
/// same samples. A single value is its own quartiles; an empty
/// slice gives NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The tails of a sample set once it has more than ten samples:
/// `((p, value), (100 - p, value))`, where `p` is the highest whole
/// percentile with at least ten samples above it and `100 - p` the
/// lowest with at least ten below it. Which tail is the slow one depends
/// on the metric (seconds or embeddings per second), so both are given.
pub fn tails(values: &[f64]) -> Option<((usize, f64), (usize, f64))> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let p = 100 * (n - 10) / n;
    Some(((p, data[n - 11]), (100 - p, data[10])))
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Pass/fail bookkeeping: every embed and every output check is one
/// attempted operation; a failed check is one failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one checked operation, logging the failure to stderr.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }
}

/// One reported metric with every sample it was computed from. The
/// reported value is the median of the samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric computed from several samples.
    pub fn samples(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        self.0.push(Metric { name, unit, samples });
    }

    /// Adds a metric measured once.
    pub fn one(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.samples(name, unit, vec![value]);
    }

    /// The names in report order.
    pub fn names(&self) -> Vec<&'static str> {
        self.0.iter().map(|m| m.name).collect()
    }

    /// The per-metric summary object: median, quartiles, sample count
    /// and, once there are more than ten samples, both [`tails`].
    pub fn summary_json(&self) -> String {
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let (q1, med, q3) = quartiles(&m.samples);
                let tail = match tails(&m.samples) {
                    Some(((hi_pct, hi), (lo_pct, lo))) => format!(
                        ", \"tail_hi_pct\": {hi_pct}, \"tail_hi\": {}, \"tail_lo_pct\": {lo_pct}, \"tail_lo\": {}",
                        num(hi),
                        num(lo)
                    ),
                    None => String::new(),
                };
                format!(
                    "\"{}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}{tail}, \"unit\": \"{}\"}}",
                    m.name,
                    num(med),
                    num(q1),
                    num(q3),
                    m.samples.len(),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }

    /// The final result line: `correct`, `attempted`, `failed` and one
    /// `{value, unit}` per metric. A non-finite value is reported as 0
    /// and counted as a failed check by the caller.
    pub fn result_json(&self, checks: &Checks) -> String {
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(median(&m.samples)),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            checks.failed == 0,
            checks.attempted,
            checks.failed,
            rows.join(", ")
        )
    }

    /// Whether every reported value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|m| median(&m.samples).is_finite())
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form);
/// non-finite values, which JSON cannot carry, become 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(tails(&v), None);
        let many: Vec<f64> = (1..=40).map(f64::from).collect();
        // 10 of 40 samples lie above 30 (the 75th percentile) and 10
        // below 11 (the 25th).
        assert_eq!(tails(&many), Some(((75, 30.0), (25, 11.0))));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_name_rule() {
        assert!(valid_metric_name("linalg.spmm_gbps_computed"));
        assert!(valid_metric_name("embeddings_per_s_1t"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.samples("latency_ms", "ms", vec![3.0, 1.0, 2.0]);
        let mut c = Checks::default();
        c.check("ok", true);
        assert_eq!(
            m.result_json(&c),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
    }
}
