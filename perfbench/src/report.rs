//! The metric catalogue, the percentile rule, and the result writer.
//!
//! The result is one JSON line written by hand: the workspace's
//! `serde_json` is an offline stub whose `to_string` returns `"{}"`, so
//! nothing here goes through serde.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("sim_fps", "frames/s"),
    ("decision_p50_ms", "ms"),
    ("decision_p99_ms", "ms"),
    ("answer_s", "s"),
    ("idf1", "fraction"),
    ("candidate_recall", "fraction"),
    ("query_recall", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("track.ms", "ms"),
    ("track.tracks_out", "count"),
    ("pairs.ms", "ms"),
    ("pairs.count", "count"),
    ("pairs.windows", "count"),
    ("select.calls", "count"),
    ("select.self_ms", "ms"),
    ("select.p50_us", "us"),
    ("select.p99_us", "us"),
    ("select.arms_mean", "count"),
    ("select.pulls", "count"),
    ("select.ns_per_pull", "ns"),
    ("select.candidates", "count"),
    ("select.precision", "fraction"),
    ("reid.observe_calls", "count"),
    ("reid.observe_ms", "ms"),
    ("reid.inferences", "count"),
    ("reid.cache_hits", "count"),
    ("reid.hit_rate", "fraction"),
    ("reid.gate.extract", "count"),
    ("reid.gate.reuse", "count"),
    ("reid.gate.saved_charges", "count"),
    ("reid.batch.requests", "count"),
    ("reid.batch.computed", "count"),
    ("reid.batch.saved_ratio", "fraction"),
    ("reid.backend_faults", "count"),
    ("reid.retries", "count"),
    ("merge.ms", "ms"),
    ("merge.accepted", "count"),
    ("window.degraded", "count"),
    ("window.reverified", "count"),
    ("global.rounds", "count"),
    ("global.pairs", "count"),
    ("global.admit_ratio", "fraction"),
    ("global.merges", "count"),
    ("global.select_ms", "ms"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.decode_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("serve.cycle_p50_ms", "ms"),
    ("serve.cycle_p99_ms", "ms"),
    ("serve.submit.admitted", "count"),
    ("serve.submit.rejected", "count"),
    ("serve.query_p50_us", "us"),
    ("serve.shed.entries", "count"),
    ("serve.resident_windows", "count"),
    ("serve.generator_late_ms", "ms"),
    ("query.self_ms", "ms"),
    ("query.spent", "count"),
    ("query.spent_ratio", "fraction"),
    ("query.early_stops", "count"),
    ("query.deferred", "count"),
    ("query.interval_width", "count"),
    ("trace.overhead_pct", "%"),
];

/// A percentile is reported only with at least this many samples
/// strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Nearest-rank percentile `p` (in percent) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    rank(sorted.len(), p).map(|r| sorted[r - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples, if at
/// least [`MIN_BEYOND`] samples lie beyond it.
fn rank(n: usize, p: f64) -> Option<usize> {
    let r = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (r <= n && n - r >= MIN_BEYOND).then_some(r)
}

/// The highest whole percentile, at most `cap`, that [`percentile`] can
/// report for `n` samples; `None` when not even the first can be.
pub fn tail_percentile(n: usize, cap: u32) -> Option<u32> {
    (1..=cap).rev().find(|&p| rank(n, p as f64).is_some())
}

/// `samples` sorted ascending, with the tail percentile used (≤ `cap`)
/// and its value, plus the median. Errors name the metric.
pub struct Summary {
    /// The median.
    pub p50: f64,
    /// The tail percentile actually used.
    pub tail_pct: u32,
    /// Its value.
    pub tail: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarises `samples` by the percentile rule.
pub fn summarize(what: &str, mut samples: Vec<f64>, cap: u32) -> Result<Summary, String> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let p50 = percentile(&samples, 50.0)
        .ok_or_else(|| format!("{what}: {n} samples are too few for a median"))?;
    let tail_pct = tail_percentile(n, cap).expect("a median implies a tail percentile");
    let tail = percentile(&samples, tail_pct as f64).expect("tail_percentile checked it");
    Ok(Summary {
        p50,
        tail_pct,
        tail,
        n,
    })
}

/// Plain median (no tail claim), for run-level aggregates such as set-up
/// repetitions.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A JSON scalar for the meta line.
#[derive(Debug, Clone)]
pub enum Meta {
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
}

/// Metrics and counters one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: refusals, `Err` results, failed checks.
    pub failed: u64,
    /// Descriptions of failed correctness checks (first few kept).
    pub check_failures: Vec<String>,
    /// Facts about the run recorded beside the metrics.
    pub meta: Vec<(String, Meta)>,
}

impl Report {
    /// Sets a metric (later calls overwrite).
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets every per-layer metric under one of `prefixes` to zero: the
    /// workload does not exercise those layers.
    pub fn not_exercised(&mut self, prefixes: &[&str]) {
        for (name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.set(name, 0.0);
            }
        }
    }

    /// Records a fact for the meta line.
    pub fn meta(&mut self, key: &str, value: Meta) {
        self.meta.push((key.to_string(), value));
    }

    /// Counts one attempted operation; it failed when `failures` (refusals,
    /// errors, failed correctness checks) is non-empty.
    pub fn op(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            let room = 8usize.saturating_sub(self.check_failures.len());
            self.check_failures.extend(failures.into_iter().take(room));
        }
    }

    /// The result line for `catalogue`: every metric must be present and
    /// finite, and no other metric may be set.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        for name in self.metrics.keys() {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} breaks the name grammar"));
            }
            if !catalogue.iter().any(|(n, _)| n == name) {
                return Err(format!("metric {name} is not in this run's catalogue"));
            }
        }
        let mut body = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = *self
                .metrics
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                body.push_str(", ");
            }
            write!(
                body,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            )
            .expect("writing to a String cannot fail");
        }
        let correct = self.failed == 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted, self.failed
        ))
    }

    /// The meta line: `{"meta": {...}}`.
    pub fn meta_line(&self) -> String {
        let mut body = String::new();
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            match v {
                Meta::Str(s) => write!(body, "\"{k}\": \"{}\"", escape(s)),
                Meta::Num(x) if x.is_finite() => write!(body, "\"{k}\": {}", num(*x)),
                Meta::Num(_) => write!(body, "\"{k}\": null"),
            }
            .expect("writing to a String cannot fail");
        }
        format!("{{\"meta\": {{{body}}}}}")
    }
}

/// A finite number in JSON syntax: Rust's shortest round-trip decimal,
/// which never uses exponent notation, so every digit is kept.
fn num(x: f64) -> String {
    format!("{x}")
}

fn escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogued_name_fits_the_grammar_and_is_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let flat: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = flat.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn name_grammar_rejects_what_it_must() {
        assert!(valid_name("select.p99_us"));
        assert!(valid_name("9lives-ok"));
        for bad in [
            "",
            ".hidden",
            "_x",
            "a b",
            "a/b",
            "a:b",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn no_percentile_without_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        // rank 10 of 20 leaves exactly 10 beyond.
        assert_eq!(percentile(&s, 50.0), Some(10.0));
        // rank 11 leaves 9.
        assert_eq!(percentile(&s, 51.0), None);
        assert_eq!(percentile(&s[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&big[..999], 99.0), None);
    }

    #[test]
    fn tail_percentile_is_the_highest_reportable_one() {
        assert_eq!(tail_percentile(10, 99), None);
        assert_eq!(tail_percentile(20, 99), Some(50));
        assert_eq!(tail_percentile(25, 99), Some(60));
        assert_eq!(tail_percentile(1000, 99), Some(99));
        assert_eq!(tail_percentile(100_000, 99), Some(99));
        let s = summarize("x", (1..=25).map(f64::from).collect(), 99).unwrap();
        assert_eq!((s.p50, s.tail_pct, s.tail, s.n), (13.0, 60, 15.0, 25));
        assert!(summarize("x", vec![1.0; 19], 99).is_err());
    }

    #[test]
    fn result_line_fails_loudly_on_missing_or_non_finite_metrics() {
        let cat = &[("a", "ms"), ("b", "count")];
        let mut r = Report::default();
        r.set("a", 1.5);
        assert!(r
            .result_line(cat)
            .unwrap_err()
            .contains("b was not measured"));
        r.set("b", f64::NAN);
        assert!(r.result_line(cat).unwrap_err().contains("not finite"));
        r.set("b", 3.0);
        r.set("c", 1.0);
        assert!(r.result_line(cat).unwrap_err().contains("not in"));
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut r = Report::default();
        r.set("a", 1.25);
        r.set("b", 3.0);
        r.op(Vec::new());
        let line = r.result_line(&[("a", "ms"), ("b", "count")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        r.op(vec!["boom".into()]);
        assert!(r
            .result_line(&[("a", "ms"), ("b", "count")])
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
