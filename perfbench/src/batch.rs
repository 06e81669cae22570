//! `batch_mot17`: offline batch ingestion of the MOT-17-like suite.
//!
//! Per video: detections → `track_video` → `run_pipeline` (TMerge at the
//! paper defaults, τ_max = 10k, one window per video) with the oracle
//! verifier → `evaluate(Count)`. Every video is one window of about a
//! thousand arms, so the Thompson loop is nearly all of the wall: this is
//! the mechanism workload for selector work, and it never touches
//! streaming, checkpoints, admission, global resolution or gating.

use crate::probe::{timed, ProbeBackend, ReidProbe, SelectProbe};
use crate::report::Report;
use crate::videos::{generate, Video};
use crate::{
    another_pass, overhead_pct, repeat_setup, set_decisions, set_select, Args, SETUP_REPEATS,
};
use std::time::Instant;
use tm_core::{
    build_window_pairs, merge_mapping, run_pipeline, run_pipeline_with_backend, CandidateSelector,
    PipelineConfig, PipelineReport, RobustnessConfig, SelectionInput, SelectorKind, TMerge,
    TMergeConfig,
};
use tm_datasets::mot17;
use tm_metrics::{identity_metrics, recall, Correspondence};
use tm_query::{count_recall, evaluate, Query, QueryAnswer};
use tm_reid::{InferenceBackend, ReidSession};
use tm_track::{track_video, TrackerKind};
use tm_types::{TrackPair, TrackSet};

const COUNT_MIN_FRAMES: u64 = 200;
/// Decisions (videos) a run needs before its median is reportable.
const MIN_DECISIONS: usize = 20;
/// Suite instances per run: 21 videos, one pass ≈ one run.
const SUITES: usize = 3;
/// Worker threads the videos fan out over: a pass of 21 videos takes
/// about 50 s on one core, 30 s on two.
pub const THREADS: usize = 2;
const QUERY: Query = Query::Count {
    min_frames: COUNT_MIN_FRAMES,
};

fn setup(seed: u64) -> (Vec<Video>, u64) {
    let spec = mot17();
    (generate(&spec, seed, SUITES), spec.window_len)
}

fn tmerge_config() -> TMergeConfig {
    TMergeConfig {
        tau_max: 10_000,
        ..TMergeConfig::default()
    }
}

fn pipeline_config(window_len: u64) -> PipelineConfig {
    PipelineConfig {
        window_len,
        selector: SelectorKind::TMerge(tmerge_config()),
        ..PipelineConfig::default()
    }
}

/// What one video produced.
struct Output {
    tracks: TrackSet,
    oracle: Correspondence,
    report: PipelineReport,
    answer: QueryAnswer,
}

/// Host times of one video, ms.
#[derive(Default, Clone, Copy)]
struct Times {
    track: f64,
    pipeline: f64,
    answer: f64,
}

impl Times {
    fn total(&self) -> f64 {
        self.track + self.pipeline + self.answer
    }
}

/// One video end to end; `backend` routes ReID through a probe.
fn op(
    v: &Video,
    cfg: &PipelineConfig,
    backend: Option<&dyn InferenceBackend>,
) -> Result<(Output, Times), String> {
    let mut t = Times::default();
    let tracks = timed(&mut t.track, || {
        let mut tracker = TrackerKind::Tracktor.build(&v.model);
        track_video(tracker.as_mut(), &v.detections)
    });
    // The oracle stands in for the paper's human inspection; building it
    // is not the program's work.
    let oracle = Correspondence::from_tracks(&tracks, 0.5);
    let verifier = |p: &TrackPair| oracle.is_polyonymous(p);
    let report = timed(&mut t.pipeline, || match backend {
        None => run_pipeline(&tracks, v.n_frames, &v.model, cfg, Some(&verifier)),
        Some(b) => run_pipeline_with_backend(
            &tracks,
            v.n_frames,
            &v.model,
            cfg,
            Some(&verifier),
            b,
            &RobustnessConfig::default(),
        ),
    })
    .map_err(|e| format!("run_pipeline: {e}"))?;
    let answer = timed(&mut t.answer, || evaluate(&report.merged, QUERY));
    Ok((
        Output {
            tracks,
            oracle,
            report,
            answer,
        },
        t,
    ))
}

fn box_multiset(tracks: &TrackSet) -> Vec<(u64, [u64; 4])> {
    let mut boxes: Vec<(u64, [u64; 4])> = tracks
        .iter()
        .flat_map(|t| t.boxes.iter())
        .map(|b| {
            let r = b.bbox;
            (b.frame.get(), [r.x, r.y, r.w, r.h].map(f64::to_bits))
        })
        .collect();
    boxes.sort_unstable();
    boxes
}

/// The workload's correctness checks for one video, plus agreement with
/// the first pass's decisions for it.
fn check(i: usize, out: &Output, first: Option<&Output>) -> Vec<String> {
    let mut failures = Vec::new();
    let r = &out.report;
    if let Some(p) = r.accepted.iter().find(|p| !out.oracle.is_polyonymous(p)) {
        failures.push(format!("video {i}: merged pair {p:?} fails the oracle"));
    }
    if r.merged != out.tracks.relabeled(&merge_mapping(&r.accepted))
        || box_multiset(&r.merged) != box_multiset(&out.tracks)
    {
        failures.push(format!(
            "video {i}: merged tracks are not the tracker's boxes relabeled"
        ));
    }
    if let Some(f) = first {
        if f.report.accepted != r.accepted || f.answer != out.answer {
            failures.push(format!("video {i}: decisions differ from the first pass"));
        }
    }
    failures
}

pub fn run(args: &Args) -> Result<Report, String> {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let ((videos, window_len), setup_times) = repeat_setup(repeats, || setup(args.seed));
    let cfg = pipeline_config(window_len);
    let mut r = Report::default();
    if args.trace {
        traced(args, &videos, &cfg, &mut r)?;
    } else {
        r.set("setup_s", crate::report::median(&setup_times));
        untraced(args, &videos, &cfg, &mut r)?;
    }
    Ok(r)
}

fn untraced(
    args: &Args,
    videos: &[Video],
    cfg: &PipelineConfig,
    r: &mut Report,
) -> Result<(), String> {
    let mut first: Vec<Output> = Vec::new();
    let (mut frames, mut wall_s) = (0u64, 0.0);
    let (mut decisions, mut answers) = (Vec::new(), Vec::new());
    let (start, mut passes) = (Instant::now(), 0);
    // Whole passes over the suite, videos fanned out over the pinned
    // worker threads, while another fits in the run or the decisions are
    // too few for a median.
    while decisions.len() < MIN_DECISIONS
        || another_pass(start.elapsed().as_secs_f64(), passes, args.seconds)
    {
        passes += 1;
        let pass = Instant::now();
        let outs = tm_par::par_map(videos, |v| op(v, cfg, None));
        wall_s += pass.elapsed().as_secs_f64();
        for (i, (v, res)) in videos.iter().zip(outs).enumerate() {
            let (out, t) = match res {
                Ok(x) => x,
                Err(e) => {
                    r.op(vec![e]);
                    continue;
                }
            };
            r.op(check(i, &out, first.get(i)));
            frames += v.n_frames;
            decisions.push(t.track + t.pipeline);
            answers.push(t.total() / 1e3);
            if first.len() == i {
                first.push(out);
            }
        }
        if first.len() != videos.len() {
            return Err("a video failed on the first pass".into());
        }
    }
    r.set("frames_per_s", frames as f64 / wall_s);
    set_decisions(r, decisions)?;
    r.set("answer_s", crate::report::median(&answers));
    // Quality and the simulated clock are deterministic: one pass.
    let n = videos.len() as f64;
    let (mut idf1, mut qrec, mut sim_ms) = (0.0, 0.0, 0.0);
    let mut recs = Vec::new();
    for (v, out) in videos.iter().zip(&first) {
        let merged = &out.report.merged;
        idf1 += identity_metrics(&v.gt, merged, 0.5).idf1;
        let merged_oracle = Correspondence::from_tracks(merged, 0.5);
        qrec += count_recall(merged, &v.gt, COUNT_MIN_FRAMES, merged_oracle.as_map());
        let all: Vec<&tm_types::Track> = out.tracks.iter().collect();
        let truth = out.oracle.all_polyonymous(&all);
        if !truth.is_empty() {
            recs.push(recall(out.report.candidates.iter(), &truth));
        }
        sim_ms += out.report.elapsed_ms;
    }
    let total_frames: u64 = videos.iter().map(|v| v.n_frames).sum();
    r.set("sim_fps", total_frames as f64 / (sim_ms / 1e3));
    r.set("idf1", idf1 / n);
    r.set(
        "candidate_recall",
        recs.iter().sum::<f64>() / recs.len().max(1) as f64,
    );
    r.set("query_recall", qrec / n);
    Ok(())
}

/// Per-pass totals of the layers the replay calls directly.
#[derive(Default)]
struct Layers {
    track_ms: f64,
    tracks_out: u64,
    pairs_ms: f64,
    pairs: u64,
    windows: u64,
    merge_ms: f64,
    accepted: u64,
    candidates: u64,
    query_ms: f64,
    inferences: u64,
    cache_hits: u64,
    faults: u64,
    retries: u64,
    degraded: u64,
    reverified: u64,
}

/// Replays one video's `run_pipeline` layer by layer — pair building,
/// one `TMerge::select` per window over one session, verification,
/// `merge_mapping` — timing each call, and checks the replay decides
/// exactly what the pipeline did.
fn replay(
    v: &Video,
    cfg: &PipelineConfig,
    out: &Output,
    select: &SelectProbe,
    reid: &ReidProbe,
    l: &mut Layers,
) -> Result<Vec<String>, String> {
    let tracks = &out.tracks;
    let windows = timed(&mut l.pairs_ms, || {
        build_window_pairs(tracks, v.n_frames, cfg.window_len)
    })
    .map_err(|e| format!("build_window_pairs: {e}"))?;
    let backend = ProbeBackend::new(&v.model, reid);
    let mut session = ReidSession::new(&v.model, cfg.cost, cfg.device)
        .with_backend(&backend)
        .with_gate(cfg.gate);
    session.gate_update_plan(tracks);
    let selector = TMerge::new(tmerge_config());
    let mut candidates = Vec::new();
    for wp in windows.iter().filter(|w| !w.pairs.is_empty()) {
        l.windows += 1;
        l.pairs += wp.pairs.len() as u64;
        session.set_epoch(wp.window.index as u64);
        let input = SelectionInput {
            pairs: &wp.pairs,
            tracks,
            k: cfg.k,
            voi: None,
        };
        let res = select
            .time(wp.pairs.len(), || selector.select(&input, &mut session))
            .map_err(|e| format!("select: {e}"))?;
        candidates.extend(res.candidates);
    }
    let accepted: Vec<TrackPair> = candidates
        .iter()
        .filter(|p| out.oracle.is_polyonymous(p))
        .copied()
        .collect();
    let merged = timed(&mut l.merge_ms, || {
        tracks.relabeled(&merge_mapping(&accepted))
    });
    l.candidates += candidates.len() as u64;
    l.accepted += accepted.len() as u64;
    let mut failures = Vec::new();
    if candidates != out.report.candidates || merged != out.report.merged {
        failures.push("replayed layers decide differently from run_pipeline".to_string());
    }
    Ok(failures)
}

fn traced(
    args: &Args,
    videos: &[Video],
    cfg: &PipelineConfig,
    r: &mut Report,
) -> Result<(), String> {
    let op_reid = ReidProbe::default();
    let replay_reid = ReidProbe::default();
    let select = SelectProbe::default();
    let mut l = Layers::default();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    // One pass over one suite instance, an untraced and a traced run of
    // each video: the traced decisions must equal the untraced ones bit
    // for bit, and the two walls give the tracing overhead.
    let videos = &videos[..videos.len() / SUITES];
    let outs = tm_par::par_map(videos, |v| {
        let probe = ProbeBackend::new(&v.model, &op_reid);
        (op(v, cfg, None), op(v, cfg, Some(&probe)))
    });
    let mut traced_outs = Vec::new();
    for (i, pair) in outs.into_iter().enumerate() {
        let ((u, ut), (t, tt)) = match pair {
            (Ok(u), Ok(t)) => (u, t),
            (Err(e), _) | (_, Err(e)) => {
                r.op(vec![e]);
                continue;
            }
        };
        r.op(check(i, &t, Some(&u)));
        untraced_ms += ut.total();
        traced_ms += tt.total();
        l.track_ms += tt.track;
        l.tracks_out += t.tracks.len() as u64;
        l.query_ms += tt.answer;
        let s = &t.report.stats;
        l.inferences += s.inferences;
        l.cache_hits += s.cache_hits;
        l.faults += s.backend_faults;
        l.retries += s.retries;
        l.degraded += t.report.robustness.degraded_windows;
        l.reverified += t.report.robustness.reverified_windows;
        traced_outs.push((i, t));
    }
    if traced_outs.len() != videos.len() {
        return Err("a video failed on the traced pass".into());
    }
    // The layer-by-layer replay of each traced run, repeated until the
    // run is long enough and the select layer has calls enough for its
    // percentiles.
    let start = Instant::now();
    let mut replay_passes = 0u64;
    while select.log().calls < MIN_DECISIONS as u64
        || another_pass(start.elapsed().as_secs_f64(), replay_passes, args.seconds)
    {
        let replays = tm_par::par_map(&traced_outs, |(i, out)| {
            let mut layers = Layers::default();
            replay(&videos[*i], cfg, out, &select, &replay_reid, &mut layers)
                .map(|failures| (layers, failures))
        });
        for res in replays {
            match res {
                Ok((layers, failures)) => {
                    l.pairs_ms += layers.pairs_ms;
                    l.pairs += layers.pairs;
                    l.windows += layers.windows;
                    l.merge_ms += layers.merge_ms;
                    l.accepted += layers.accepted;
                    l.candidates += layers.candidates;
                    r.op(failures);
                }
                Err(e) => r.op(vec![e]),
            }
        }
        replay_passes += 1;
    }
    // Track, ReID and query figures come from the single traced pass;
    // pair, select and merge figures are per replay pass.
    let rp = replay_passes as f64;
    r.set("track.ms", l.track_ms);
    r.set("track.tracks_out", l.tracks_out as f64);
    r.set("pairs.ms", l.pairs_ms / rp);
    r.set("pairs.count", l.pairs as f64 / rp);
    r.set("pairs.windows", l.windows as f64 / rp);
    let precision = l.accepted as f64 / l.candidates.max(1) as f64;
    set_select(r, &select.log(), rp, precision)?;
    r.set("reid.observe_calls", op_reid.calls() as f64);
    r.set("reid.observe_ms", op_reid.ms());
    r.set("reid.inferences", l.inferences as f64);
    r.set("reid.cache_hits", l.cache_hits as f64);
    r.set(
        "reid.hit_rate",
        l.cache_hits as f64 / (l.cache_hits + l.inferences).max(1) as f64,
    );
    r.set("reid.backend_faults", l.faults as f64);
    r.set("reid.retries", l.retries as f64);
    r.set("merge.ms", l.merge_ms / rp);
    r.set("merge.accepted", l.accepted as f64 / rp);
    r.set("window.degraded", l.degraded as f64);
    r.set("window.reverified", l.reverified as f64);
    r.set("query.self_ms", l.query_ms);
    r.set("trace.overhead_pct", overhead_pct(traced_ms, untraced_ms));
    r.not_exercised(&[
        "reid.gate.",
        "reid.batch.",
        "global.",
        "checkpoint.",
        "serve.",
        "query.spent",
        "query.early_stops",
        "query.deferred",
        "query.interval_width",
    ]);
    Ok(())
}
