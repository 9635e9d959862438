//! Quantiles, the result line and the per-run report file.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted values;
/// 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `sum / count`, or 0 when nothing was counted.
pub fn ratio(sum: f64, count: f64) -> f64 {
    if count == 0.0 {
        0.0
    } else {
        sum / count
    }
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics with units, in insertion order.
#[derive(Default, Debug, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The metrics named in `names`, in that order, as a JSON object.
    pub fn json(&self, names: &[&str]) -> String {
        let body: Vec<String> = names
            .iter()
            .filter_map(|n| self.0.iter().find(|m| m.0 == *n))
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Every metric as a JSON object.
    pub fn json_all(&self) -> String {
        let names: Vec<&str> = self.0.iter().map(|m| m.0.as_str()).collect();
        self.json(&names)
    }
}

/// A JSON number with every digit Rust keeps (non-finite values, which
/// JSON cannot carry, become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_the_usual_definition() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_keeps_order_and_units() {
        let mut m = Metrics::default();
        m.put("b", 1.5, "ms");
        m.put("a", 2.0, "count");
        assert_eq!(
            m.json(&["a", "b"]),
            "{\"a\": {\"value\": 2.0, \"unit\": \"count\"}, \"b\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
    }
}
