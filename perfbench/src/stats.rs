//! Order statistics and the metric record the benchmark prints.
//!
//! Every timing is reported as a median plus the highest nearest-rank
//! percentile that still has at least [`TAIL_BEYOND`] samples beyond it,
//! together with the sample count it rests on.

use std::fmt::Write as _;

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p/100 · N)`, clamped to `[1, N]`. `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median (nearest rank, so the lower middle of an even sample).
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(values), 50.0)
}

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples beyond it: rank `N − 10`, i.e. percentile `100·(N − 10)/N`.
/// Returns `(percentile, value)`, or `None` when `N ≤ 10`.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// An ascending copy (NaN-free input assumed; NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median and tail of one timing sample, with its size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// Median over windows of each window's [`tail`]; the maximum when the
    /// sample is too small for the rule.
    pub tail: f64,
    pub tail_pct: f64,
    /// Windows the tail is the median of.
    pub windows: usize,
}

/// Summarises a sample in run order; `None` when it is empty.
///
/// The tail is taken in consecutive windows of `window` samples (the
/// whole sample for `None`, or when it is shorter than one window) and
/// the median over windows is reported: a tail over a whole run rests on
/// its ten worst units, which a single slow stretch of machine time can
/// supply.
pub fn summarize(values: &[f64], window: Option<usize>) -> Option<Summary> {
    let s = sorted(values);
    let median = nearest_rank(&s, 50.0)?;
    let w = window
        .filter(|&w| w > TAIL_BEYOND && w <= values.len())
        .unwrap_or(values.len());
    let tails: Vec<(f64, f64)> = values
        .chunks_exact(w)
        .filter_map(|c| tail(&sorted(c)))
        .collect();
    let (tail_pct, tail) = if tails.is_empty() {
        (100.0, s[s.len() - 1])
    } else {
        let v: Vec<f64> = tails.iter().map(|t| t.1).collect();
        (tails[0].0, self::median(&v).expect("non-empty"))
    };
    Some(Summary {
        n: s.len(),
        median,
        tail,
        tail_pct,
        windows: tails.len().max(1),
    })
}

/// Units per second over consecutive chunks of `chunk` units, each unit
/// given as its wall time in seconds. A trailing partial chunk is
/// dropped, unless the sample is shorter than one chunk.
pub fn chunk_rates(unit_s: &[f64], units_each: f64, chunk: usize) -> Vec<f64> {
    unit_s
        .chunks_exact(chunk.clamp(1, unit_s.len().max(1)))
        .map(|c| c.len() as f64 * units_each / c.iter().sum::<f64>())
        .collect()
}

/// Metric names: a letter or digit, then letters, digits, `_`, `.`, `-`;
/// at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1–16 of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// An ordered set of named metrics with units.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics on a malformed or repeated name or unit — a bug in the
    /// benchmark, not a measurement.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(valid_name(name), "malformed metric name {name:?}");
        assert!(valid_unit(unit), "malformed unit {unit:?}");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.entries.push((name.to_string(), unit, value));
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// Every value is a finite number (JSON has no NaN or infinity).
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, _, v)| v.is_finite())
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`, each value with every
    /// digit of Rust's shortest round-trip formatting. A non-finite value
    /// renders as `-1` so the line stays valid JSON (the run is then
    /// marked incorrect by the caller).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, value)) in self.entries.iter().enumerate() {
            let v = if value.is_finite() { *value } else { -1.0 };
            write!(
                out,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
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
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_pins() {
        for (n, p50, p99) in [
            (1, 1.0, 1.0),
            (2, 1.0, 2.0),
            (4, 2.0, 4.0),
            (100, 50.0, 99.0),
        ] {
            let v = ladder(n);
            assert_eq!(nearest_rank(&v, 50.0), Some(p50), "p50 at N={n}");
            assert_eq!(nearest_rank(&v, 99.0), Some(p99), "p99 at N={n}");
        }
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&ladder(10), 100.0), Some(10.0));
        assert_eq!(nearest_rank(&ladder(10), 0.1), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&ladder(10)), None);
        assert_eq!(tail(&ladder(11)), Some((100.0 / 11.0, 1.0)));
        let (pct, v) = tail(&ladder(1000)).unwrap();
        assert_eq!(pct, 99.0);
        assert_eq!(v, 990.0);
        // The rule agrees with nearest rank at its own percentile, and one
        // step higher would leave fewer than ten samples beyond.
        for n in [11, 37, 200, 1001] {
            let v = ladder(n);
            let (pct, value) = tail(&v).unwrap();
            assert_eq!(nearest_rank(&v, pct), Some(value));
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert_eq!(beyond, TAIL_BEYOND, "N={n}");
        }
    }

    #[test]
    fn summary_falls_back_to_max_on_small_samples() {
        let s = summarize(&[5.0, 1.0, 3.0], None).unwrap();
        assert_eq!((s.n, s.median, s.tail, s.tail_pct), (3, 3.0, 5.0, 100.0));
        assert!(summarize(&[], None).is_none());
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Three windows of 20; window tails are their 10th values.
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v.extend((1..=20).map(|x| f64::from(x) + 100.0));
        v.extend((1..=20).map(|x| f64::from(x) + 1000.0));
        let s = summarize(&v, Some(20)).unwrap();
        assert_eq!((s.windows, s.tail_pct, s.tail), (3, 50.0, 110.0));
        // A trailing partial window is ignored; a window longer than the
        // sample falls back to the whole sample.
        let s = summarize(&v[..50], Some(20)).unwrap();
        assert_eq!((s.windows, s.tail), (2, 10.0));
        let whole = summarize(&v, Some(1000)).unwrap();
        assert_eq!(whole, summarize(&v, None).unwrap());
        assert_eq!((whole.windows, whole.tail), (1, 1010.0));
    }

    #[test]
    fn chunk_rates_divide_units_by_chunk_time() {
        let r = chunk_rates(&[0.5, 0.5, 1.0, 1.0, 9.0], 32.0, 2);
        assert_eq!(r, vec![64.0, 32.0]);
        assert_eq!(chunk_rates(&[0.5], 32.0, 2), vec![64.0]);
        assert!(chunk_rates(&[], 32.0, 2).is_empty());
    }

    #[test]
    fn name_grammar() {
        for ok in [
            "setup_s",
            "latency_us",
            "nn.mesh.prebuild_us",
            "a",
            "0x-1.b_c",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "ü",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "MB", "%"] {
            assert!(valid_unit(ok), "{ok}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_panics() {
        let mut m = Metrics::default();
        m.put("x", "s", 1.0);
        m.put("x", "s", 2.0);
    }

    #[test]
    fn json_renders_every_digit() {
        let mut m = Metrics::default();
        m.put("a", "ms", 1.2034567891);
        m.put("b", "count", 3.0);
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 3, \"unit\": \"count\"}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
