//! The perf-trajectory harness: schema, measurement and validation for the
//! `BENCH_*.json` files the `perf_trajectory` binary writes at the repo
//! root.
//!
//! Those files are the repo's persistent performance record: each run
//! appends a point to the trajectory (kernels / cache / ingest), tagged
//! with the git SHA, thread count and SIMD dispatch that produced it, so a
//! regression shows up as a diff. Files are written and re-read through
//! the [`crate::json`] codec, so the validator can re-read what the binary
//! is about to write *before* it overwrites the previous trajectory point.
//!
//! Also here: the counting global allocator the allocation audit and the
//! bench binary install ([`CountingAlloc`]) and the SIMD speedup gate
//! ([`speedup`], asserted ≥ 1.5× for the dot kernel on AVX2 hosts).

use crate::json::{parse_json, to_json_pretty, write_object, Json, ToJson};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Version stamp written into every report; bump on schema changes.
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` shim over the system allocator that counts
/// every allocation (calls and bytes; `realloc` counts the new size).
/// Deallocation is uncounted — the audits care about allocation pressure,
/// not live bytes.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side-effect-only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// A point-in-time reading of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Total bytes requested since process start.
    pub bytes: u64,
    /// Total allocation calls since process start.
    pub calls: u64,
}

impl CountingAlloc {
    /// Current counter values. Meaningful only in binaries that install
    /// `CountingAlloc` as the global allocator; elsewhere both stay 0.
    pub fn snapshot() -> AllocSnapshot {
        AllocSnapshot {
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            calls: ALLOC_CALLS.load(Ordering::Relaxed),
        }
    }
}

impl AllocSnapshot {
    /// Counter growth since `self` was taken.
    pub fn delta(&self) -> AllocSnapshot {
        let now = CountingAlloc::snapshot();
        AllocSnapshot {
            bytes: now.bytes - self.bytes,
            calls: now.calls - self.calls,
        }
    }
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Wall-clock percentiles over repeated runs of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Measured iterations (after 2 warm-up runs).
    pub iters: u64,
    /// Median per-iteration wall time.
    pub p50_ns: u64,
    /// 99th-percentile per-iteration wall time (nearest-rank).
    pub p99_ns: u64,
}

/// Runs `f` twice to warm caches/pools, then `iters` timed iterations.
pub fn time_iters(iters: usize, mut f: impl FnMut()) -> Timing {
    assert!(iters >= 1, "need at least one timed iteration");
    f();
    f();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    Timing {
        iters: iters as u64,
        p50_ns: percentile(&samples, 50.0),
        p99_ns: percentile(&samples, 99.0),
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty() && (0.0..=100.0).contains(&p));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The speedup of `fast` over `base` by median wall time.
pub fn speedup(base: Timing, fast: Timing) -> f64 {
    base.p50_ns as f64 / fast.p50_ns.max(1) as f64
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

crate::json_struct! {
    /// One benchmark case of a trajectory file.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchCase {
        /// Unique case name within the file.
        pub name: String,
        /// Timed iterations behind the percentiles.
        pub iters: u64,
        /// Median per-iteration wall time.
        pub wall_ns_p50: u64,
        /// 99th-percentile per-iteration wall time.
        pub wall_ns_p99: u64,
        /// Workload items per second at the median (items are case-defined:
        /// dot products, cache lookups, ingested frames…).
        pub throughput_items_per_s: f64,
        /// Simulated ReID inferences the case performed (0 for pure kernels).
        pub inferences: u64,
        /// Heap bytes allocated during the timed iterations (counted by
        /// [`CountingAlloc`]; 0 when the binary did not install it).
        pub bytes_allocated: u64,
    }
}

impl BenchCase {
    /// Builds a case from a [`Timing`] plus workload-level counters.
    pub fn from_timing(
        name: &str,
        t: Timing,
        items_per_iter: u64,
        inferences: u64,
        bytes_allocated: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            iters: t.iters,
            wall_ns_p50: t.p50_ns,
            wall_ns_p99: t.p99_ns,
            throughput_items_per_s: items_per_iter as f64 * 1e9 / t.p50_ns.max(1) as f64,
            inferences,
            bytes_allocated,
        }
    }
}

crate::json_struct! {
    /// Environment stamp of a trajectory point.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchMeta {
        /// `git rev-parse --short HEAD`, or `"unknown"` outside a work tree.
        pub git_sha: String,
        /// `tm_par::max_threads()` at measurement time.
        pub threads: u64,
        /// Runtime-detected CPU features relevant to the kernels.
        pub cpu: Vec<String>,
        /// Active kernel dispatch: `"avx2+fma"` or `"scalar-fallback"`.
        pub simd: String,
        /// Whether the run used `--quick` (reduced iteration counts).
        pub quick: bool,
    }
}

/// One `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Environment stamp.
    pub meta: BenchMeta,
    /// The suite's cases.
    pub cases: Vec<BenchCase>,
}

impl ToJson for BenchReport {
    fn write_json(&self, out: &mut String, depth: usize) {
        write_object(
            out,
            depth,
            [
                ("schema_version", &SCHEMA_VERSION as &dyn ToJson),
                ("meta", &self.meta),
                ("cases", &self.cases),
            ],
        );
    }
}

/// Collects the environment stamp for this process.
pub fn collect_meta(quick: bool) -> BenchMeta {
    let git_sha = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let mut cpu = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (flag, present) in [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
        ] {
            if present {
                cpu.push(flag.to_string());
            }
        }
    }
    BenchMeta {
        git_sha,
        threads: tm_par::max_threads() as u64,
        cpu,
        simd: tm_types::simd::dispatch_name().to_string(),
        quick,
    }
}

/// The repository root (nearest ancestor of the current directory holding
/// `ROADMAP.md`), where the trajectory files live. Falls back to the
/// current directory so the binary still runs from exotic cwds.
pub fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("ROADMAP.md").is_file() {
            return dir;
        }
        if !dir.pop() {
            return std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

impl BenchReport {
    /// Serializes the report through the [`crate::json`] codec, whose
    /// floats round-trip exactly, so `decode(encode(r)) == r`.
    ///
    /// # Panics
    /// If a throughput value is non-finite (the validator rejects those
    /// first on every write path).
    pub fn encode(&self) -> String {
        for c in &self.cases {
            assert!(
                c.throughput_items_per_s.is_finite(),
                "case {} has non-finite throughput",
                c.name
            );
        }
        to_json_pretty(self) + "\n"
    }

    /// Parses a document produced by [`BenchReport::encode`] (or an edited
    /// descendant — any field order, whitespace and escapes accepted).
    pub fn decode(text: &str) -> Result<Self, String> {
        let root = parse_json(text)?;
        let version = field(&root, "schema_version", Json::as_u64)?;
        if version != SCHEMA_VERSION {
            return Err(format!("unsupported schema_version {version}"));
        }
        let text = |v: &Json, key: &str| field(v, key, Json::as_str).map(str::to_string);
        let meta = &root["meta"];
        let meta = BenchMeta {
            git_sha: text(meta, "git_sha")?,
            threads: field(meta, "threads", Json::as_u64)?,
            cpu: field(meta, "cpu", Json::as_arr)?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or("cpu entry not a string")
                })
                .collect::<Result<_, _>>()?,
            simd: text(meta, "simd")?,
            quick: field(meta, "quick", Json::as_bool)?,
        };
        let cases = field(&root, "cases", Json::as_arr)?
            .iter()
            .map(|c| {
                Ok(BenchCase {
                    name: text(c, "name")?,
                    iters: field(c, "iters", Json::as_u64)?,
                    wall_ns_p50: field(c, "wall_ns_p50", Json::as_u64)?,
                    wall_ns_p99: field(c, "wall_ns_p99", Json::as_u64)?,
                    throughput_items_per_s: field(c, "throughput_items_per_s", Json::as_f64)?,
                    inferences: field(c, "inferences", Json::as_u64)?,
                    bytes_allocated: field(c, "bytes_allocated", Json::as_u64)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(BenchReport { meta, cases })
    }

    /// Structural checks run before every write (and by the CI smoke job
    /// after): non-empty unique case names, sane percentiles, finite
    /// positive throughputs, a recognized dispatch string.
    pub fn validate(&self) -> Result<(), String> {
        if self.meta.git_sha.is_empty() {
            return Err("meta.git_sha empty".into());
        }
        if self.meta.threads == 0 {
            return Err("meta.threads must be >= 1".into());
        }
        if self.meta.simd != "avx2+fma" && self.meta.simd != "scalar-fallback" {
            return Err(format!("unknown meta.simd {:?}", self.meta.simd));
        }
        if self.cases.is_empty() {
            return Err("no cases".into());
        }
        let mut names = std::collections::HashSet::new();
        for c in &self.cases {
            if c.name.is_empty() {
                return Err("case with empty name".into());
            }
            if !names.insert(c.name.as_str()) {
                return Err(format!("duplicate case name {:?}", c.name));
            }
            if c.iters == 0 {
                return Err(format!("{}: iters must be >= 1", c.name));
            }
            if c.wall_ns_p50 > c.wall_ns_p99 {
                return Err(format!("{}: p50 > p99", c.name));
            }
            if !c.throughput_items_per_s.is_finite() || c.throughput_items_per_s <= 0.0 {
                return Err(format!("{}: throughput must be finite and > 0", c.name));
            }
        }
        Ok(())
    }
}

/// `v[key]` read as a `T`, or an error naming the missing key.
fn field<'a, T>(v: &'a Json, key: &str, get: fn(&'a Json) -> Option<T>) -> Result<T, String> {
    get(&v[key]).ok_or_else(|| format!("{key} missing"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            meta: BenchMeta {
                git_sha: "abc1234".into(),
                threads: 3,
                cpu: vec!["avx2".into(), "fma".into()],
                simd: "avx2+fma".into(),
                quick: true,
            },
            cases: vec![
                BenchCase {
                    name: "dot_simd_d256".into(),
                    iters: 30,
                    wall_ns_p50: 12_345,
                    wall_ns_p99: 45_678,
                    throughput_items_per_s: 8.25e7,
                    inferences: 0,
                    bytes_allocated: 0,
                },
                BenchCase {
                    name: "ingest_window".into(),
                    iters: 5,
                    wall_ns_p50: 1_000_000,
                    wall_ns_p99: 1_500_000,
                    throughput_items_per_s: 700.0000000001,
                    inferences: 1_234,
                    bytes_allocated: 987_654,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_exactly() {
        let r = sample_report();
        r.validate().unwrap();
        let text = r.encode();
        let back = BenchReport::decode(&text).unwrap();
        assert_eq!(back, r);
        // And a second generation is byte-stable.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn decode_accepts_reordered_fields_and_escapes() {
        let text = r#"{
            "cases": [{"bytes_allocated": 1, "inferences": 2, "iters": 3,
                       "wall_ns_p99": 9, "wall_ns_p50": 4,
                       "throughput_items_per_s": 1.5e3,
                       "name": "weird \"name\"A"}],
            "meta": {"quick": false, "simd": "scalar-fallback",
                     "cpu": [], "threads": 1, "git_sha": "deadbee"},
            "schema_version": 1
        }"#;
        let r = BenchReport::decode(text).unwrap();
        assert_eq!(r.cases[0].name, "weird \"name\"A");
        assert_eq!(r.cases[0].throughput_items_per_s, 1500.0);
        assert_eq!(r.meta.simd, "scalar-fallback");
        r.validate().unwrap();
    }

    #[test]
    fn validator_rejects_bad_documents() {
        let good = sample_report();
        let mut dup = good.clone();
        dup.cases.push(dup.cases[0].clone());
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let mut inverted = good.clone();
        inverted.cases[0].wall_ns_p50 = inverted.cases[0].wall_ns_p99 + 1;
        assert!(inverted.validate().unwrap_err().contains("p50"));

        let mut nan = good.clone();
        nan.cases[0].throughput_items_per_s = f64::NAN;
        assert!(nan.validate().unwrap_err().contains("finite"));

        let mut weird_simd = good.clone();
        weird_simd.meta.simd = "avx512".into();
        assert!(weird_simd.validate().unwrap_err().contains("simd"));

        let mut empty = good.clone();
        empty.cases.clear();
        assert!(empty.validate().is_err());
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(BenchReport::decode("").is_err());
        assert!(BenchReport::decode("{}").is_err());
        assert!(BenchReport::decode("{\"schema_version\": 99}").is_err());
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn timing_and_case_shapes() {
        let t = time_iters(5, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(t.iters, 5);
        assert!(t.p50_ns <= t.p99_ns);
        let c = BenchCase::from_timing("x", t, 1_000, 2, 3);
        assert_eq!(c.inferences, 2);
        assert_eq!(c.bytes_allocated, 3);
        assert!(c.throughput_items_per_s > 0.0);
        assert!(speedup(t, t) > 0.99 && speedup(t, t) < 1.01 || t.p50_ns == 0);
    }
}
