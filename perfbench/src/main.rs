//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_mot17|live_city|anytime_pathtrack> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed, drives one workload
//! through the public APIs, checks the outputs, and prints a meta line
//! and then, as the last line of standard output, one JSON result:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for the metric catalogue.

mod anytime;
mod batch;
mod city;
mod probe;
mod report;
mod videos;

use probe::SelectLog;
use report::{summarize, Meta, Report, END_TO_END, PER_LAYER};
use std::time::Instant;

/// The seed later performance claims must also be shown on; never used
/// while tuning the benchmark.
pub const HELD_OUT_SEED: u64 = 90_017;

/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// A workload's entry point.
type Workload = fn(&Args) -> Result<Report, String>;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64 of `seed` salted with `salt`: derives independent input
/// seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `setup` `repeats` times; returns the last result and every
/// duration in seconds.
pub fn repeat_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), times)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Sets the `select.*` metrics from a probe log, per pass over the
/// workload's inputs. `precision` is oracle-true candidates over
/// candidates.
pub fn set_select(
    r: &mut Report,
    log: &SelectLog,
    passes: f64,
    precision: f64,
) -> Result<(), String> {
    let self_ns = log.ns.saturating_sub(log.reid_ns) as f64;
    r.set("select.calls", log.calls as f64 / passes);
    r.set("select.self_ms", self_ns / 1e6 / passes);
    let us: Vec<f64> = log.samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let s = summarize("select latency", us, 99)?;
    r.set("select.p50_us", s.p50);
    r.set("select.p99_us", s.tail);
    r.meta("select_tail_pct", Meta::Num(s.tail_pct as f64));
    r.meta("select_samples", Meta::Num(s.n as f64));
    r.set(
        "select.arms_mean",
        log.arms as f64 / log.calls.max(1) as f64,
    );
    r.set("select.pulls", log.pulls as f64 / passes);
    r.set("select.ns_per_pull", self_ns / log.pulls.max(1) as f64);
    r.set("select.candidates", log.candidates as f64 / passes);
    r.set("select.precision", precision);
    Ok(())
}

/// Sets `decision_p50_ms`/`decision_p99_ms` from per-decision latencies
/// (ms); the tail is the highest percentile ≤ 99 the samples support,
/// recorded in the meta line with the sample count.
pub fn set_decisions(r: &mut Report, latencies_ms: Vec<f64>) -> Result<(), String> {
    let s = summarize("decision latency", latencies_ms, 99)?;
    r.set("decision_p50_ms", s.p50);
    r.set("decision_p99_ms", s.tail);
    r.meta("decision_tail_pct", Meta::Num(s.tail_pct as f64));
    r.meta("decision_samples", Meta::Num(s.n as f64));
    Ok(())
}

/// Whether another pass fits in a run of `seconds`, judged by the mean
/// of the `passes` already made in `elapsed` seconds (the first always
/// runs), so a run overshoots its length by less than one pass.
pub fn another_pass(elapsed: f64, passes: u64, seconds: f64) -> bool {
    passes == 0 || elapsed * (passes + 1) as f64 / passes as f64 <= seconds
}

/// `100 · (traced / untraced − 1)`, the tracing overhead in percent.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    100.0 * (traced_s / untraced_s - 1.0)
}

fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    if let Ok(sha) = std::env::var("TMERGE_GIT_SHA") {
        return sha;
    }
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn simd_features() -> String {
    let mut f: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::is_x86_feature_detected!("fma") {
            f.push("fma");
        }
    }
    if std::env::var("TMERGE_SIMD").as_deref() == Ok("0") {
        f.push("disabled-by-TMERGE_SIMD=0");
    }
    if f.is_empty() {
        "none".into()
    } else {
        f.join("+")
    }
}

/// Pins `TMERGE_THREADS` to at most `nproc`, by default to the
/// workload's own setting; returns `(nproc, threads)`.
fn pin_threads(default: usize) -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("TMERGE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(default)
        .clamp(1, nproc);
    // Single-threaded here: nothing else reads the environment yet.
    std::env::set_var("TMERGE_THREADS", threads.to_string());
    (nproc, threads)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // One worker thread unless a workload needs two to fit its run: on
    // a 2-core shared machine a second worker made host times swing by
    // about ±10% between identical runs, one by a few percent.
    let (workload, threads): (Workload, usize) = match args.workload.as_str() {
        "batch_mot17" => (batch::run, batch::THREADS),
        "live_city" => (city::run, 1),
        "anytime_pathtrack" => (anytime::run, 1),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let (nproc, threads) = pin_threads(threads);
    let mut r = workload(&args)?;
    if !args.trace {
        r.set("peak_rss_mb", peak_rss_mb()?);
    }
    let mut meta = vec![
        ("workload".to_string(), Meta::Str(args.workload.clone())),
        ("seed".into(), Meta::Num(args.seed as f64)),
        ("held_out_seed".into(), Meta::Num(HELD_OUT_SEED as f64)),
        ("seconds".into(), Meta::Num(args.seconds)),
        (
            "trace".into(),
            Meta::Num(if args.trace { 1.0 } else { 0.0 }),
        ),
        ("git_sha".into(), Meta::Str(git_sha())),
        ("nproc".into(), Meta::Num(nproc as f64)),
        ("tmerge_threads".into(), Meta::Num(threads as f64)),
        ("simd".into(), Meta::Str(simd_features())),
        (
            "profile".into(),
            Meta::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ];
    meta.append(&mut r.meta);
    r.meta = meta;
    for msg in &r.check_failures {
        eprintln!("perfbench: check failed: {msg}");
    }
    let line = r.result_line(if args.trace { PER_LAYER } else { END_TO_END })?;
    println!("{}", r.meta_line());
    println!("{line}");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
