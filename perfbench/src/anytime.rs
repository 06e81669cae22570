//! `anytime_pathtrack`: query-driven batch over the PathTrack-like suite.
//!
//! Per video: detections → `track_video` → a Count and a Co-occurrence
//! query through `AnytimeQuery::run` at half budget, with VoI reweighting
//! and `GatePolicy::On`. The work is many mid-size windows whose features
//! are reused across them; it exercises VoI-biased selection, early
//! termination, interval bounds and the ReID gate (which no other
//! workload turns on), and bypasses serve, checkpoint and global.

use crate::probe::{timed, ProbeBackend, ReidProbe, SelectProbe};
use crate::report::{median, Report};
use crate::videos::{generate, Video};
use crate::{
    another_pass, overhead_pct, repeat_setup, set_decisions, set_select, Args, SETUP_REPEATS,
};
use std::time::Instant;
use tm_core::{
    build_window_pairs, merge_mapping, PipelineConfig, SelectionInput, SelectorKind, TMergeConfig,
    VoiMode,
};
use tm_datasets::pathtrack;
use tm_metrics::{identity_metrics, recall, Correspondence};
use tm_query::{
    co_occurrence_recall, count_recall, voi_hints, AnytimeAnswer, AnytimeConfig, AnytimeQuery,
    Query,
};
use tm_reid::{GateConfig, GatePolicy, ReidSession};
use tm_track::{track_video, TrackerKind};
use tm_types::{TrackPair, TrackSet};

const QUERIES: [Query; 2] = [
    Query::Count { min_frames: 200 },
    Query::CoOccurrence {
        group_size: 3,
        min_frames: 50,
    },
];
/// Per-window budget. The paper's 10k would make one run take seconds;
/// 2k keeps ≥ 20 answers inside a run. The half budget is half of
/// `TAU_MAX` per non-empty window.
const TAU_MAX: u64 = 2_000;
/// Answers a run needs before its median is reportable.
const MIN_ANSWERS: usize = 20;
/// Suite instances per run: 27 videos, 54 answers a pass. Fewer let
/// how much work one seed's scenes happen to hold swing the host times.
const SUITES: usize = 3;

fn setup(seed: u64) -> (Vec<Video>, u64) {
    let spec = pathtrack();
    (generate(&spec, seed, SUITES), spec.window_len)
}

fn pipeline_config(window_len: u64) -> PipelineConfig {
    PipelineConfig {
        window_len,
        selector: SelectorKind::TMerge(TMergeConfig {
            tau_max: TAU_MAX,
            ..TMergeConfig::default()
        }),
        gate: GatePolicy::On(GateConfig::default()),
        voi: VoiMode::Reweight,
        ..PipelineConfig::default()
    }
}

/// One video's tracks and both answers.
struct Output {
    /// The video's index in the run's input.
    index: usize,
    tracks: TrackSet,
    budget: u64,
    answers: Vec<AnytimeAnswer>,
}

/// Host times of one video, ms.
struct Times {
    track: f64,
    runs: Vec<f64>,
}

fn op(index: usize, v: &Video, cfg: &PipelineConfig) -> Result<(Output, Times), String> {
    let mut track = 0.0;
    let tracks = timed(&mut track, || {
        let mut tracker = TrackerKind::Tracktor.build(&v.model);
        track_video(tracker.as_mut(), &v.detections)
    });
    // Half budget: half of τ_max per window that has pairs (the caller
    // states the budget; working it out is not the program's work).
    let windows = build_window_pairs(&tracks, v.n_frames, cfg.window_len)
        .map_err(|e| format!("build_window_pairs: {e}"))?;
    let budget = windows.iter().filter(|w| !w.pairs.is_empty()).count() as u64 * TAU_MAX / 2;
    let anytime = AnytimeQuery::new(
        *cfg,
        AnytimeConfig {
            budget: Some(budget),
            stop_on_convergence: true,
            reweight_arms: true,
        },
    );
    let mut runs = Vec::new();
    let mut answers = Vec::new();
    for q in QUERIES {
        let mut ms = 0.0;
        let ans = timed(&mut ms, || anytime.run(&tracks, v.n_frames, &v.model, q))
            .map_err(|e| format!("AnytimeQuery::run: {e}"))?;
        runs.push(ms);
        answers.push(ans);
    }
    Ok((
        Output {
            index,
            tracks,
            budget,
            answers,
        },
        Times { track, runs },
    ))
}

/// The interval checks for every answer, plus agreement with the first
/// pass.
fn check(i: usize, out: &Output, first: Option<&Output>) -> Vec<String> {
    let mut failures = Vec::new();
    for (q, a) in out.answers.iter().enumerate() {
        let est = a.estimate as f64;
        if !(a.lo <= est && est <= a.hi) {
            failures.push(format!("video {i} query {q}: estimate outside [lo, hi]"));
        }
        if a.trajectory
            .windows(2)
            .any(|w| w[1].lo < w[0].lo || w[1].hi > w[0].hi)
        {
            failures.push(format!("video {i} query {q}: the interval widened"));
        }
        if a.converged && !(a.lo == a.hi && a.lo == est) {
            failures.push(format!(
                "video {i} query {q}: converged but lo, hi, estimate differ"
            ));
        }
    }
    if let Some(f) = first {
        if f.answers != out.answers {
            failures.push(format!("video {i}: answers differ from the first pass"));
        }
    }
    failures
}

/// Per-pass layer totals from the replay.
#[derive(Default)]
struct Layers {
    pairs_ms: f64,
    pairs: u64,
    windows: u64,
    merge_ms: f64,
    accepted: u64,
    true_accepted: u64,
    inferences: u64,
    cache_hits: u64,
    extract: u64,
    reuse: u64,
    saved: u64,
    sim_ms: f64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.pairs_ms += o.pairs_ms;
        self.pairs += o.pairs;
        self.windows += o.windows;
        self.merge_ms += o.merge_ms;
        self.accepted += o.accepted;
        self.true_accepted += o.true_accepted;
        self.inferences += o.inferences;
        self.cache_hits += o.cache_hits;
        self.extract += o.extract;
        self.reuse += o.reuse;
        self.saved += o.saved;
        self.sim_ms += o.sim_ms;
    }
}

/// Replays the selections one `AnytimeQuery::run` made — pair building,
/// VoI hints, windows in descending-VoI order at the same budget shares,
/// one session — timing each layer call, and checks the replay accepts
/// and spends exactly what the run did. Returns the replay's wall in the
/// pair and select layers, ms.
#[allow(clippy::too_many_arguments)]
fn replay(
    v: &Video,
    cfg: &PipelineConfig,
    out: &Output,
    q: usize,
    select: &SelectProbe,
    reid: &ReidProbe,
    l: &mut Layers,
    failures: &mut Vec<String>,
) -> Result<f64, String> {
    let tracks = &out.tracks;
    let ans = &out.answers[q];
    let query = QUERIES[q];
    let mut layer_ms = 0.0;
    let windows = timed(&mut layer_ms, || {
        build_window_pairs(tracks, v.n_frames, cfg.window_len)
    })
    .map_err(|e| format!("build_window_pairs: {e}"))?;
    l.pairs_ms += layer_ms;
    let universe: Vec<TrackPair> = windows.iter().flat_map(|w| w.pairs.clone()).collect();
    let hints = voi_hints(tracks, query, &universe);
    let total_w = |wi: usize| {
        windows[wi]
            .pairs
            .iter()
            .map(|p| hints.weight(p))
            .sum::<f64>()
    };
    let mut order: Vec<usize> = (0..windows.len())
        .filter(|&wi| !windows[wi].pairs.is_empty())
        .collect();
    order.sort_by(|&a, &b| total_w(b).total_cmp(&total_w(a)).then(a.cmp(&b)));

    let backend = ProbeBackend::new(&v.model, reid);
    let mut session = ReidSession::new(&v.model, cfg.cost, cfg.device)
        .with_gate(cfg.gate)
        .with_backend(&backend);
    session.gate_update_plan(tracks);
    let processed = ans.trajectory.len().saturating_sub(1);
    let mut spent = 0u64;
    let mut accepted = Vec::new();
    let select_start = Instant::now();
    for (pos, &wi) in order.iter().enumerate().take(processed) {
        let here = windows[wi].pairs.len() as u64;
        let left: u64 = order[pos..]
            .iter()
            .map(|&w| windows[w].pairs.len() as u64)
            .sum();
        let share = (out.budget.saturating_sub(spent) * here).div_ceil(left.max(1));
        let selector = cfg.selector.with_tau_at_most(share.max(1)).build();
        session.set_epoch(windows[wi].window.index as u64);
        let input = SelectionInput {
            pairs: &windows[wi].pairs,
            tracks,
            k: cfg.k,
            voi: Some(&hints),
        };
        let res = select
            .time(windows[wi].pairs.len(), || {
                selector.select(&input, &mut session)
            })
            .map_err(|e| format!("select: {e}"))?;
        spent += res.distance_evals;
        accepted.extend(res.candidates);
        l.windows += 1;
        l.pairs += here;
    }
    layer_ms += select_start.elapsed().as_secs_f64() * 1e3;
    timed(&mut l.merge_ms, || {
        tracks.relabeled(&merge_mapping(&accepted))
    });
    if accepted != ans.accepted || spent != ans.inferences_spent {
        failures.push(format!(
            "query {q}: replayed selections differ from the run"
        ));
    }
    let oracle = Correspondence::from_tracks(tracks, 0.5);
    l.accepted += accepted.len() as u64;
    l.true_accepted += accepted.iter().filter(|p| oracle.is_polyonymous(p)).count() as u64;
    let s = session.stats();
    l.inferences += s.inferences;
    l.cache_hits += s.cache_hits;
    let g = session.gate_stats();
    l.extract += g.extracts;
    l.reuse += g.reuses;
    l.saved += g.saved_charges();
    l.sim_ms += session.elapsed_ms();
    Ok(layer_ms)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let ((videos, window_len), setup_times) = repeat_setup(repeats, || setup(args.seed));
    let cfg = pipeline_config(window_len);
    let mut r = Report::default();
    if args.trace {
        traced(args, &videos, &cfg, &mut r)?;
    } else {
        r.set("setup_s", median(&setup_times));
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
    let mut runs_ms = Vec::new();
    let (start, mut passes) = (Instant::now(), 0);
    // Whole passes over the suite, videos fanned out over the pinned
    // worker threads, while another fits in the run or the answers are
    // too few for a median.
    while runs_ms.len() < MIN_ANSWERS
        || another_pass(start.elapsed().as_secs_f64(), passes, args.seconds)
    {
        passes += 1;
        let pass = Instant::now();
        let indexed: Vec<(usize, &Video)> = videos.iter().enumerate().collect();
        let outs = tm_par::par_map(&indexed, |&(i, v)| op(i, v, cfg));
        wall_s += pass.elapsed().as_secs_f64();
        for (i, (v, res)) in videos.iter().zip(outs).enumerate() {
            let (out, t) = match res {
                Ok(x) => x,
                Err(e) => {
                    r.op(vec![e]);
                    continue;
                }
            };
            for _ in 1..out.answers.len() {
                r.op(Vec::new());
            }
            r.op(check(i, &out, first.get(i)));
            frames += v.n_frames;
            runs_ms.extend(&t.runs);
            if first.len() == i {
                first.push(out);
            }
        }
        if first.len() != videos.len() {
            return Err("a video failed on the first pass".into());
        }
    }
    r.set("frames_per_s", frames as f64 / wall_s);
    r.set("answer_s", median(&runs_ms) / 1e3);
    set_decisions(r, runs_ms)?;
    // Quality and the simulated clock are deterministic: one pass. The
    // simulated clock is read off a replay of the first suite instance's
    // runs (the replay's probes go unused here).
    let replayed = videos.len() / SUITES;
    let scored = tm_par::par_map(&first, |out| {
        let v = &videos[out.index];
        let (select, reid) = (SelectProbe::default(), ReidProbe::default());
        let mut l = Layers::default();
        let mut failures = Vec::new();
        let oracle = Correspondence::from_tracks(&out.tracks, 0.5);
        let all: Vec<&tm_types::Track> = out.tracks.iter().collect();
        let truth = oracle.all_polyonymous(&all);
        let (mut idf1, mut qrec, mut recs) = (0.0, 0.0, Vec::new());
        for (q, a) in out.answers.iter().enumerate() {
            if out.index < replayed {
                replay(v, cfg, out, q, &select, &reid, &mut l, &mut failures)?;
            }
            let merged = out.tracks.relabeled(&merge_mapping(&a.accepted));
            idf1 += identity_metrics(&v.gt, &merged, 0.5).idf1;
            if !truth.is_empty() {
                recs.push(recall(a.accepted.iter(), &truth));
            }
            // Fig. 13 scoring: answers on the oracle-verified merges.
            let verified: Vec<TrackPair> = a
                .accepted
                .iter()
                .filter(|p| oracle.is_polyonymous(p))
                .copied()
                .collect();
            let merged = out.tracks.relabeled(&merge_mapping(&verified));
            let attribution = Correspondence::from_tracks(&merged, 0.5);
            qrec += match QUERIES[q] {
                Query::Count { min_frames } => {
                    count_recall(&merged, &v.gt, min_frames, attribution.as_map())
                }
                Query::CoOccurrence {
                    group_size,
                    min_frames,
                } => co_occurrence_recall(
                    &merged,
                    &v.gt,
                    group_size,
                    min_frames,
                    attribution.as_map(),
                ),
                Query::RegionTransit { .. } => unreachable!("not part of this workload"),
            };
        }
        Ok::<_, String>((l.sim_ms, idf1, qrec, recs, failures))
    });
    let (mut sim_ms, mut idf1, mut qrec, mut sim_frames) = (0.0, 0.0, 0.0, 0u64);
    let mut recs = Vec::new();
    let mut failures = Vec::new();
    for (out, res) in first.iter().zip(scored) {
        let (s, i, q, rs, fs) = res?;
        sim_ms += s;
        idf1 += i;
        qrec += q;
        recs.extend(rs);
        failures.extend(fs);
        if out.index < replayed {
            sim_frames += videos[out.index].n_frames * out.answers.len() as u64;
        }
    }
    r.op(failures);
    let n = (videos.len() * QUERIES.len()) as f64;
    r.set("sim_fps", sim_frames as f64 / (sim_ms / 1e3));
    r.set("idf1", idf1 / n);
    r.set(
        "candidate_recall",
        recs.iter().sum::<f64>() / recs.len().max(1) as f64,
    );
    r.set("query_recall", qrec / n);
    Ok(())
}

/// What one video contributes to a traced pass.
#[derive(Default)]
struct TracedVideo {
    layers: Layers,
    failures: Vec<String>,
    untraced_ms: f64,
    traced_ms: f64,
    track_ms: f64,
    query_ms: f64,
    tracks_out: u64,
    spent: u64,
    budget: u64,
    early: u64,
    deferred: u64,
    width: f64,
    points: u64,
}

fn traced_video(
    i: usize,
    v: &Video,
    cfg: &PipelineConfig,
    select: &SelectProbe,
    reid: &ReidProbe,
) -> Result<TracedVideo, String> {
    let (u, ut) = op(i, v, cfg)?;
    let (t, tt) = op(i, v, cfg)?;
    let mut tv = TracedVideo {
        failures: check(i, &t, Some(&u)),
        untraced_ms: ut.track + ut.runs.iter().sum::<f64>(),
        traced_ms: tt.track + tt.runs.iter().sum::<f64>(),
        track_ms: tt.track,
        tracks_out: t.tracks.len() as u64,
        ..TracedVideo::default()
    };
    for (q, a) in t.answers.iter().enumerate() {
        let layer_ms = replay(
            v,
            cfg,
            &t,
            q,
            select,
            reid,
            &mut tv.layers,
            &mut tv.failures,
        )?;
        tv.query_ms += (tt.runs[q] - layer_ms).max(0.0);
        tv.spent += a.inferences_spent;
        tv.budget += t.budget;
        tv.early += u64::from(a.terminated_early);
        tv.deferred += a.deferred;
        tv.width += a.trajectory.iter().map(|p| p.hi - p.lo).sum::<f64>();
        tv.points += a.trajectory.len() as u64;
    }
    Ok(tv)
}

fn traced(
    args: &Args,
    videos: &[Video],
    cfg: &PipelineConfig,
    r: &mut Report,
) -> Result<(), String> {
    let (select, reid) = (SelectProbe::default(), ReidProbe::default());
    let mut all = TracedVideo::default();
    let mut passes = 0u64;
    let start = Instant::now();
    // The run takes no trait a probe could wrap, so the traced op is the
    // same call as the untraced one, and each traced answer is then
    // replayed layer by layer.
    while another_pass(start.elapsed().as_secs_f64(), passes, args.seconds) {
        let indexed: Vec<(usize, &Video)> = videos.iter().enumerate().collect();
        let outs = tm_par::par_map(&indexed, |&(i, v)| traced_video(i, v, cfg, &select, &reid));
        for res in outs {
            let tv = match res {
                Ok(tv) => tv,
                Err(e) => {
                    r.op(vec![e]);
                    continue;
                }
            };
            all.layers.add(&tv.layers);
            all.untraced_ms += tv.untraced_ms;
            all.traced_ms += tv.traced_ms;
            all.track_ms += tv.track_ms;
            all.query_ms += tv.query_ms;
            all.tracks_out += tv.tracks_out;
            all.spent += tv.spent;
            all.budget += tv.budget;
            all.early += tv.early;
            all.deferred += tv.deferred;
            all.width += tv.width;
            all.points += tv.points;
            r.op(tv.failures);
        }
        passes += 1;
    }
    let TracedVideo {
        layers: l,
        untraced_ms,
        traced_ms,
        track_ms,
        query_ms,
        tracks_out,
        spent,
        budget,
        early,
        deferred,
        width,
        points,
        ..
    } = all;
    let p = passes as f64;
    r.set("track.ms", track_ms / p);
    r.set("track.tracks_out", tracks_out as f64 / p);
    r.set("pairs.ms", l.pairs_ms / p);
    r.set("pairs.count", l.pairs as f64 / p);
    r.set("pairs.windows", l.windows as f64 / p);
    set_select(
        r,
        &select.log(),
        p,
        l.true_accepted as f64 / l.accepted.max(1) as f64,
    )?;
    r.set("reid.observe_calls", reid.calls() as f64 / p);
    r.set("reid.observe_ms", reid.ms() / p);
    r.set("reid.inferences", l.inferences as f64 / p);
    r.set("reid.cache_hits", l.cache_hits as f64 / p);
    r.set(
        "reid.hit_rate",
        l.cache_hits as f64 / (l.cache_hits + l.inferences).max(1) as f64,
    );
    r.set("reid.gate.extract", l.extract as f64 / p);
    r.set("reid.gate.reuse", l.reuse as f64 / p);
    r.set("reid.gate.saved_charges", l.saved as f64 / p);
    r.set("merge.ms", l.merge_ms / p);
    r.set("merge.accepted", l.accepted as f64 / p);
    r.set("query.self_ms", query_ms / p);
    r.set("query.spent", spent as f64 / p);
    r.set("query.spent_ratio", spent as f64 / budget.max(1) as f64);
    r.set("query.early_stops", early as f64 / p);
    r.set("query.deferred", deferred as f64 / p);
    r.set("query.interval_width", width / points.max(1) as f64);
    r.set("trace.overhead_pct", overhead_pct(traced_ms, untraced_ms));
    r.not_exercised(&[
        "reid.batch.",
        "reid.backend_faults",
        "reid.retries",
        "window.",
        "global.",
        "checkpoint.",
        "serve.",
    ]);
    Ok(())
}
