//! Order statistics under the benchmark's percentile rule, and the small
//! JSON writer the result lines are printed with.

/// Smallest number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0.0..=1.0`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
///
/// A failed operation enters as `f64::INFINITY`: it misses every latency
/// limit, so a run with more than `1 - q` failures reads as infinite at
/// `q` instead of looking faster for having dropped its slow requests.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty list (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A JSON value, enough for the result and environment lines.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // Non-finite numbers have no JSON form; the largest finite
            // double keeps "failed everything" ordered above any real value.
            Json::Num(x) if !x.is_finite() => out.push_str(&format!("{:e}", f64::MAX)),
            // `{:?}` prints the shortest string that reads back as the
            // same double: every measured digit, and always a `.` or `e`.
            Json::Num(x) => out.push_str(&format!("{x:?}")),
            Json::Str(s) => write_str(out, s),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        // Rank 99 of 100 leaves one sample beyond: not reportable.
        assert_eq!(percentile(&samples, 0.99), None);
        // Order of the input does not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 0.5), Some(50.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of n samples sits at rank ceil(0.99 n): 1000 samples leave
        // exactly ten beyond it, 999 leave nine.
        let ok: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&ok, 0.99), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.99), None);
        // The median of 19 samples has nine beyond it; of 20, ten.
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 0.5), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failures_count_as_missing_every_percentile() {
        let mut samples: Vec<f64> = vec![1.0; 60];
        samples.extend([f64::INFINITY; 40]);
        assert_eq!(percentile(&samples, 0.5), Some(1.0));
        assert_eq!(percentile(&samples, 0.61), Some(f64::INFINITY));
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_keeps_every_digit_and_escapes() {
        let v = Json::obj([
            ("a", Json::Num(1.203_456_789_012_3)),
            ("b", Json::Num(2.0)),
            ("c", Json::Str("x\"y\n".into())),
            ("d", Json::Num(f64::INFINITY)),
            ("e", Json::Int(-3)),
            ("f", Json::Bool(true)),
        ]);
        assert_eq!(
            v.render(),
            "{\"a\": 1.2034567890123, \"b\": 2.0, \"c\": \"x\\\"y\\n\", \"d\": 1.7976931348623157e308, \"e\": -3, \"f\": true}"
        );
    }
}
