//! `live_city`: a live multi-tenant `TmServe` under open-loop load.
//!
//! Each tenant is a `MultiCameraWorld` city (one stream per camera) with
//! global resolution enabled; one tenant's cameras sit behind a
//! deterministic `tm-chaos` outage. Every camera's next `camera_tracks`
//! snapshot is due on a fixed host-time schedule that never waits for a
//! slow cycle; the benchmark submits, calls `run_once`, queries every few
//! cycles and checkpoints → resumes the daemon every few cycles. Windows
//! are small, so the work sits in ReID batching, the stream window walk
//! with degrade and re-verify, few-arm shard and global selects, the TMSV
//! codec and admission — and this is the one workload that writes
//! (checkpoints, retention compaction) beside reading (queries).

use crate::probe::{timed, ProbeBackend, ProbeSelector, ReidProbe, SelectProbe};
use crate::report::{median, summarize, Meta, Report};
use crate::{
    another_pass, mix, overhead_pct, repeat_setup, set_decisions, set_select, Args, SETUP_REPEATS,
};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use tm_chaos::{FaultPlan, FaultyModel};
use tm_core::global::{GlobalConfig, GlobalDecision};
use tm_core::{
    merge_mapping, CandidateSelector, StreamConfig, TMerge, TMergeConfig, VoiMode, WindowDecision,
};
use tm_metrics::{global_identity_metrics, Correspondence};
use tm_query::{count_query, count_recall, Query, QueryAnswer};
use tm_reid::{
    AppearanceConfig, AppearanceModel, BatchConfig, BatchScheduler, CostModel, Device, GatePolicy,
    InferenceBackend, SplitBackend,
};
use tm_serve::{Admission, AdmissionConfig, ServeConfig, TenantSpec, TenantStats, TmServe};
use tm_synth::{MultiCameraWorld, WorldConfig};
use tm_types::{TrackId, TrackPair, TrackSet};

const TENANTS: u64 = 6;
const CAMERAS: usize = 6;
const WINDOW: u64 = 200;
/// Frames per snapshot: half a window, so every cycle decides one new
/// window per stream.
const STEP_FRAMES: u64 = WINDOW / 2;
/// The stated load: each camera's next snapshot is due every `STEP_MS`
/// of host time (4 snapshots/s per camera), the tenants' due times
/// staggered evenly across the step. One tenant's cycle takes about a
/// third of its slot on a quiet 2-core machine, so a host running a
/// third slower still leaves slack.
const STEP_MS: f64 = 250.0;
const QUERY_EVERY: u64 = 2;
const CHECKPOINT_EVERY: u64 = 8;
/// The schedule leaves a maintenance slot of this length after every
/// checkpoint step, so the checkpoint → resume pause (about 50 ms on a
/// quiet 2-core machine) has time of its own: snapshots due after it are
/// late only when the pause overruns the slot. Without it the pause made
/// the first cycle after each checkpoint late, and those few cycles,
/// about 2% of the decisions, put the p99 on a handful of samples.
const CHECKPOINT_SLOT_MS: f64 = STEP_MS / 2.0;
const OUTAGE_TENANT: u64 = 1;
/// Outage epochs (window indices) of the outage tenant's cameras.
const OUTAGE: (u64, u64) = (5, 9);
/// Shard and global selection budget: fixed, independent of city size.
const TAU_MAX: u64 = 300;
/// Longer than one 60-frame fragment, shorter than two merged ones: the
/// answer depends on the shard having merged a visit's fragments.
const COUNT_MIN_FRAMES: u64 = 120;
const CAMERA_QUERY: Query = Query::Count {
    min_frames: COUNT_MIN_FRAMES,
};

struct TenantInput {
    world: MultiCameraWorld,
    /// `snapshots[k][c]`: camera `c`'s tracker state after `k + 1` steps.
    snapshots: Vec<Vec<TrackSet>>,
}

struct City {
    model: AppearanceModel,
    tenants: Vec<TenantInput>,
    steps: u64,
}

/// Builds each tenant's world from the workload seed and renders every
/// snapshot the schedule will submit.
fn setup(seed: u64) -> City {
    let worlds: Vec<MultiCameraWorld> = (0..TENANTS)
        .map(|t| {
            MultiCameraWorld::new(WorldConfig {
                cameras: CAMERAS as u64,
                actors: 8,
                hops: 5,
                fragment_frames: 60,
                gap_frames: 20,
                seed: mix(seed, 100 + t),
                ..WorldConfig::default()
            })
        })
        .collect();
    let horizon = worlds
        .iter()
        .map(MultiCameraWorld::horizon)
        .max()
        .unwrap_or(0);
    let steps = horizon.div_ceil(STEP_FRAMES).max(2);
    let tenants = worlds
        .into_iter()
        .map(|world| TenantInput {
            snapshots: (1..=steps)
                .map(|k| {
                    (0..CAMERAS as u64)
                        .map(|c| world.camera_tracks(c, k * STEP_FRAMES))
                        .collect()
                })
                .collect(),
            world,
        })
        .collect();
    City {
        model: AppearanceModel::new(AppearanceConfig {
            seed: mix(seed, 99),
            ..AppearanceConfig::default()
        }),
        tenants,
        steps,
    }
}

/// Schedule time of tenant `t`'s slot in step `k` (from 1), in ms from
/// the start of the episode: the same for every episode, paced or not,
/// so the daemon's clock never depends on the host.
fn due_ms(k: u64, t: u64) -> f64 {
    let slot = (k - 1) * TENANTS + t;
    let pauses = (k - 1) / CHECKPOINT_EVERY;
    slot as f64 * STEP_MS / TENANTS as f64 + pauses as f64 * CHECKPOINT_SLOT_MS
}

fn tmerge() -> TMerge {
    TMerge::new(TMergeConfig {
        tau_max: TAU_MAX,
        seed: 4,
        ..TMergeConfig::default()
    })
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        stream: StreamConfig {
            window_len: WINDOW,
            k: 0.05,
            gate: GatePolicy::Off,
            voi: VoiMode::Off,
        },
        slo_window_ms: f64::INFINITY,
        shed_cooldown: 2,
        retention_horizon_windows: Some(6),
    }
}

fn global_config() -> GlobalConfig {
    GlobalConfig {
        prior_max_dt: 150,
        accept_threshold: Some(0.25),
        ..GlobalConfig::default()
    }
}

fn tenant_spec(id: u64) -> TenantSpec {
    let n = CAMERAS as f64;
    TenantSpec {
        id,
        streams: CAMERAS,
        admission: AdmissionConfig {
            max_queue: 4 * CAMERAS,
            bytes_per_window: u64::MAX / 4,
            quota_window_ms: 1_000.0,
            rate_capacity: 4.0 * n,
            rate_per_ms: 2.0 * n / STEP_MS,
            retry_hint_ms: 10,
        },
    }
}

/// What one tenant ended an episode with; an interrupted (checkpointed
/// and resumed) daemon must end with exactly this.
#[derive(Debug, PartialEq)]
struct TenantFinal {
    decisions: Vec<Vec<WindowDecision>>,
    accepted: Vec<Vec<TrackPair>>,
    global_decisions: Vec<GlobalDecision>,
    global_accepted: Vec<TrackPair>,
    mapping: Vec<(TrackId, TrackId)>,
    stats: TenantStats,
}

#[derive(Debug, PartialEq)]
struct Final {
    tenants: Vec<TenantFinal>,
    answers: Vec<QueryAnswer>,
}

/// Host-side measurements and layer counters of one or more episodes.
#[derive(Default)]
struct Measure {
    episodes: u64,
    latencies_ms: Vec<f64>,
    cycles_ms: Vec<f64>,
    queries_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    bytes: Vec<f64>,
    late_ms: Vec<f64>,
    busy_ms: f64,
    frames: u64,
    admitted: u64,
    rejected: u64,
    merge_ms: f64,
    sim_ms: f64,
    inferences: u64,
    cache_hits: u64,
    faults: u64,
    retries: u64,
    degraded: u64,
    reverified: u64,
    batch_requests: u64,
    batch_computed: u64,
    global_rounds: u64,
    global_pairs: u64,
    global_admitted: u64,
    global_merges: u64,
    shard_merges: u64,
    pairs: u64,
    windows: u64,
    shed_entries: u64,
    resident_windows: u64,
}

/// Runs one episode: a fresh daemon driven through every snapshot step.
/// `pace` holds the open-loop schedule (off for the reference run);
/// `resume` checkpoints and resumes the daemon every
/// `CHECKPOINT_EVERY` cycles.
fn episode<S, F>(
    city: &City,
    make: &F,
    reid: Option<&ReidProbe>,
    pace: bool,
    resume: bool,
    r: &mut Report,
    m: &mut Measure,
) -> Result<Final, String>
where
    S: CandidateSelector + Send,
    F: Fn(u64, usize) -> S,
{
    let model = &city.model;
    // Fresh batching lanes per episode: their shared feature cache is
    // derived data, and a warm one would make later episodes cheaper.
    let schedulers: Vec<BatchScheduler<'_>> = (0..TENANTS)
        .map(|_| BatchScheduler::for_tenant(model, BatchConfig::default(), CAMERAS))
        .collect();
    let faulty: Vec<FaultyModel<'_>> = (0..CAMERAS)
        .map(|_| FaultyModel::new(model, FaultPlan::none().with_hard_down(OUTAGE.0, OUTAGE.1)))
        .collect();
    let lanes: Vec<Vec<_>> = (0..TENANTS as usize)
        .map(|t| {
            (0..CAMERAS)
                .map(|c| {
                    let inner: &dyn SplitBackend = if t as u64 == OUTAGE_TENANT {
                        &faulty[c]
                    } else {
                        model
                    };
                    schedulers[t].backend(inner)
                })
                .collect()
        })
        .collect();
    let probes: Vec<Vec<ProbeBackend<'_>>> = match reid {
        Some(p) => lanes
            .iter()
            .map(|ls| ls.iter().map(|l| ProbeBackend::new(l, p)).collect())
            .collect(),
        None => Vec::new(),
    };
    let backends: Vec<Vec<&dyn InferenceBackend>> = (0..TENANTS as usize)
        .map(|t| {
            (0..CAMERAS)
                .map(|c| match probes.get(t) {
                    Some(ps) => &ps[c] as &dyn InferenceBackend,
                    None => &lanes[t][c] as &dyn InferenceBackend,
                })
                .collect()
        })
        .collect();
    let cost = CostModel::calibrated();
    let mut serve = TmServe::new(model, cost, Device::Cpu, serve_config(), make);
    for t in 0..TENANTS {
        serve
            .register(tenant_spec(t), &backends[t as usize])
            .map_err(|e| format!("register: {e}"))?;
        serve
            .enable_global(t, global_config())
            .map_err(|e| format!("enable_global: {e}"))?;
    }
    let windows_decided = |serve: &TmServe<'_, S>| -> usize {
        (0..TENANTS)
            .filter_map(|t| serve.fleet(t))
            .map(|f| {
                (0..f.len())
                    .map(|s| f.shard(s).next_window_index())
                    .sum::<usize>()
            })
            .sum()
    };
    let mut answers = Vec::new();
    let t0 = Instant::now();
    for k in 1..=city.steps {
        let frames = k * STEP_FRAMES;
        // Tenants are staggered across the step, each cycle applying one
        // tenant's fresh snapshots, so a run holds many cycles and the
        // latency tail is not one slow cycle.
        for t in 0..TENANTS {
            let slot_ms = due_ms(k, t);
            let mut due = t0 + Duration::from_secs_f64(slot_ms / 1e3);
            if pace {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                m.late_ms
                    .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            } else {
                due = Instant::now();
            }
            let busy = Instant::now();
            for c in 0..CAMERAS {
                let tracks = city.tenants[t as usize].snapshots[k as usize - 1][c].clone();
                // The daemon's clock is the schedule, so admission is the
                // same however late the host runs.
                match serve.submit(slot_ms, t, c, tracks, frames) {
                    Admission::Admitted => {
                        m.admitted += 1;
                        r.op(Vec::new());
                    }
                    Admission::Rejected(rej) => {
                        m.rejected += 1;
                        r.op(vec![format!(
                            "tenant {t} camera {c} step {k}: refused {rej:?}"
                        )]);
                    }
                }
            }
            let before = windows_decided(&serve);
            let cycle = Instant::now();
            let ran = serve.run_once(slot_ms);
            let done = Instant::now();
            m.cycles_ms
                .push(done.duration_since(cycle).as_secs_f64() * 1e3);
            if let Err(e) = ran {
                r.op(vec![format!("run_once at step {k}: {e}")]);
                return Err(format!("run_once at step {k}: {e}"));
            }
            r.op(Vec::new());
            let latency = done.duration_since(due).as_secs_f64() * 1e3;
            let decided = windows_decided(&serve) - before;
            m.latencies_ms.extend(std::iter::repeat_n(latency, decided));
            m.busy_ms += busy.elapsed().as_secs_f64() * 1e3;
        }
        let busy = Instant::now();
        if k % QUERY_EVERY == 0 {
            // Every camera of every tenant: a few hundred answers per run
            // keep their median steady.
            for t in 0..TENANTS {
                for stream in 0..CAMERAS {
                    let start = Instant::now();
                    let ans = serve.query(t, stream, CAMERA_QUERY);
                    m.queries_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    match ans {
                        Ok(a) => {
                            answers.push(a);
                            r.op(Vec::new());
                        }
                        Err(e) => r.op(vec![format!(
                            "query tenant {t} camera {stream} step {k}: {e}"
                        )]),
                    }
                }
            }
        }
        if resume && k % CHECKPOINT_EVERY == 0 && k < city.steps {
            let start = Instant::now();
            let bytes = serve.checkpoint();
            m.encode_ms.push(start.elapsed().as_secs_f64() * 1e3);
            m.bytes.push(bytes.len() as f64);
            r.op(if bytes.is_empty() {
                vec!["empty checkpoint".to_string()]
            } else {
                Vec::new()
            });
            let start = Instant::now();
            let resumed = TmServe::resume(
                model,
                cost,
                Device::Cpu,
                serve_config(),
                make,
                |t, n| (n == CAMERAS).then(|| backends[t as usize].clone()),
                &bytes,
            );
            m.decode_ms.push(start.elapsed().as_secs_f64() * 1e3);
            match resumed {
                Ok((next, dropped)) if dropped.is_empty() => {
                    serve = next;
                    r.op(Vec::new());
                }
                Ok((_, dropped)) => {
                    r.op(vec![format!("resume dropped tenants {dropped:?}")]);
                    return Err("resume dropped tenants".into());
                }
                Err(e) => {
                    r.op(vec![format!("resume at step {k}: {e}")]);
                    return Err(format!("resume at step {k}: {e}"));
                }
            }
        }
        m.busy_ms += busy.elapsed().as_secs_f64() * 1e3;
        m.frames += TENANTS * CAMERAS as u64 * STEP_FRAMES;
    }
    m.episodes += 1;

    let mut tenants = Vec::new();
    for t in 0..TENANTS {
        let mapping = timed(&mut m.merge_ms, || serve.global_mapping(t))
            .ok_or("global resolution is not enabled")?;
        let mut mapping: Vec<(TrackId, TrackId)> = mapping.into_iter().collect();
        mapping.sort_unstable();
        let fleet = serve.fleet(t).ok_or("tenant vanished")?;
        let global = serve.global(t).ok_or("global merger vanished")?;
        let stats = serve.stats(t).ok_or("tenant vanished")?;
        let retention = serve.retention(t).ok_or("tenant vanished")?;
        let foot = serve.footprint(t).ok_or("tenant vanished")?;
        let shards: Vec<_> = (0..fleet.len()).map(|s| fleet.shard(s)).collect();
        for sh in &shards {
            let rs = sh.reid_stats();
            let rb = sh.robustness();
            m.sim_ms += sh.elapsed_ms();
            m.inferences += rs.inferences;
            m.cache_hits += rs.cache_hits;
            m.faults += rs.backend_faults;
            m.retries += rs.retries;
            m.degraded += rb.degraded_windows;
            m.reverified += rb.reverified_windows;
            m.shard_merges += sh.accepted().len() as u64;
            m.pairs += sh.decisions().iter().map(|d| d.n_pairs as u64).sum::<u64>();
        }
        m.pairs += retention.compacted_pairs;
        m.windows += stats.windows;
        m.shed_entries += stats.shed_entries;
        m.resident_windows += (foot.decision_entries + foot.stash_windows) as u64;
        m.sim_ms += global.elapsed_ms();
        let (total, admitted) = global.pair_counts();
        m.global_rounds += global.decisions().len() as u64;
        m.global_pairs += total;
        m.global_admitted += admitted;
        m.global_merges += global.accepted().len() as u64;
        let b = schedulers[t as usize].stats();
        m.batch_requests += b.requests;
        m.batch_computed += b.computed;
        tenants.push(TenantFinal {
            decisions: shards.iter().map(|s| s.decisions().to_vec()).collect(),
            accepted: shards.iter().map(|s| s.accepted().to_vec()).collect(),
            global_decisions: global.decisions().to_vec(),
            global_accepted: global.accepted().to_vec(),
            mapping,
            stats,
        });
    }
    Ok(Final { tenants, answers })
}

/// Quality of the reference run's final state, against the worlds' truth.
struct Quality {
    idf1: f64,
    candidate_recall: f64,
    precision: f64,
    query_recall: f64,
}

/// Pooled over tenants and cameras (sums before ratios), so a small
/// camera weighs no more than its share of the city.
fn quality(city: &City, fin: &Final) -> Quality {
    let frames = city.steps * STEP_FRAMES;
    let (mut idtp, mut id_total) = (0u64, 0u64);
    let (mut answered, mut answerable) = (0.0, 0usize);
    let (mut hits, mut truths, mut true_merges, mut merges) = (0usize, 0usize, 0usize, 0usize);
    for (input, tf) in city.tenants.iter().zip(&fin.tenants) {
        let feeds = input.world.all_camera_tracks(frames);
        let mapping = tf.mapping.iter().copied().collect();
        let id = global_identity_metrics(&input.world.global_gt(frames), &feeds, &mapping, 0.5);
        idtp += id.idtp;
        id_total += 2 * id.idtp + id.idfp + id.idfn;
        for (feed, accepted) in feeds.iter().zip(&tf.accepted) {
            let oracle = Correspondence::from_tracks(feed, 0.5);
            let all: Vec<&tm_types::Track> = feed.iter().collect();
            let truth: BTreeSet<TrackPair> = oracle.all_polyonymous(&all);
            hits += accepted.iter().filter(|p| truth.contains(p)).count();
            truths += truth.len();
            true_merges += accepted.iter().filter(|p| oracle.is_polyonymous(p)).count();
            merges += accepted.len();
            // Per-camera truth: one track per actor visit.
            let gt = feed.relabeled(
                &oracle
                    .as_map()
                    .iter()
                    .map(|(&t, &g)| (t, TrackId(g.get())))
                    .collect(),
            );
            let n = count_query(&gt, COUNT_MIN_FRAMES).len();
            let merged = feed.relabeled(&merge_mapping(accepted));
            let merged_oracle = Correspondence::from_tracks(&merged, 0.5);
            answered +=
                n as f64 * count_recall(&merged, &gt, COUNT_MIN_FRAMES, merged_oracle.as_map());
            answerable += n;
        }
    }
    Quality {
        idf1: 2.0 * idtp as f64 / id_total.max(1) as f64,
        candidate_recall: hits as f64 / truths.max(1) as f64,
        precision: true_merges as f64 / merges.max(1) as f64,
        query_recall: answered / answerable.max(1) as f64,
    }
}

fn check(fin: &Final, reference: &Final) -> Vec<String> {
    if fin == reference {
        return Vec::new();
    }
    let which = fin
        .tenants
        .iter()
        .zip(&reference.tenants)
        .position(|(a, b)| a != b);
    vec![format!(
        "resumed daemon differs from the uninterrupted one (tenant {which:?}, answers equal: {})",
        fin.answers == reference.answers
    )]
}

pub fn run(args: &Args) -> Result<Report, String> {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let (city, setup_times) = repeat_setup(repeats, || setup(args.seed));
    let mut r = Report::default();
    r.meta(
        "live_city_rate_snapshots_per_s_per_camera",
        Meta::Num(1e3 / STEP_MS),
    );
    r.meta(
        "live_city_checkpoint_slot_ms",
        Meta::Num(CHECKPOINT_SLOT_MS),
    );
    r.meta(
        "live_city_streams",
        Meta::Num((TENANTS * CAMERAS as u64) as f64),
    );
    // The correctness oracle: one uninterrupted, unpaced daemon.
    let plain = |_: u64, _: usize| tmerge();
    let mut scratch = Report::default();
    let mut ref_m = Measure::default();
    let reference = episode(&city, &plain, None, false, false, &mut scratch, &mut ref_m)?;
    if scratch.failed > 0 {
        return Err(format!(
            "reference run failed: {:?}",
            scratch.check_failures
        ));
    }
    let q = quality(&city, &reference);
    if args.trace {
        traced(args, &city, &reference, &q, &mut r)?;
    } else {
        r.set("setup_s", median(&setup_times));
        let mut m = Measure::default();
        let start = Instant::now();
        while another_pass(start.elapsed().as_secs_f64(), m.episodes, args.seconds) {
            let fin = episode(&city, &plain, None, true, true, &mut r, &mut m)?;
            r.op(check(&fin, &reference));
        }
        r.set("frames_per_s", m.frames as f64 / (m.busy_ms / 1e3));
        r.set("sim_fps", ref_m.frames as f64 / (ref_m.sim_ms / 1e3));
        set_decisions(&mut r, m.latencies_ms)?;
        r.set("answer_s", median(&m.queries_ms) / 1e3);
        r.set("idf1", q.idf1);
        r.set("candidate_recall", q.candidate_recall);
        r.set("query_recall", q.query_recall);
        r.meta(
            "generator_late_ms_max",
            Meta::Num(m.late_ms.iter().copied().fold(0.0, f64::max)),
        );
    }
    Ok(r)
}

fn traced(
    args: &Args,
    city: &City,
    reference: &Final,
    q: &Quality,
    r: &mut Report,
) -> Result<(), String> {
    let select = SelectProbe::default();
    let global = SelectProbe::default();
    let reid = ReidProbe::default();
    let plain = |_: u64, _: usize| tmerge();
    let probed = |_: u64, s: usize| {
        ProbeSelector::new(tmerge(), if s == CAMERAS { &global } else { &select })
    };
    let (mut untraced, mut m) = (Measure::default(), Measure::default());
    let start = Instant::now();
    // Alternating untraced and traced episodes: equal counts of each give
    // the tracing overhead, and each must end in the reference state.
    while another_pass(start.elapsed().as_secs_f64(), m.episodes, args.seconds) {
        let fin = episode(city, &plain, None, true, true, r, &mut untraced)?;
        r.op(check(&fin, reference));
        let fin = episode(city, &probed, Some(&reid), true, true, r, &mut m)?;
        r.op(check(&fin, reference));
    }
    let p = m.episodes as f64;
    r.set("pairs.count", m.pairs as f64 / p);
    r.set("pairs.windows", m.windows as f64 / p);
    set_select(r, &select.log(), p, q.precision)?;
    r.set("reid.observe_calls", reid.calls() as f64 / p);
    r.set("reid.observe_ms", reid.ms() / p);
    r.set("reid.inferences", m.inferences as f64 / p);
    r.set("reid.cache_hits", m.cache_hits as f64 / p);
    r.set(
        "reid.hit_rate",
        m.cache_hits as f64 / (m.cache_hits + m.inferences).max(1) as f64,
    );
    r.set("reid.batch.requests", m.batch_requests as f64 / p);
    r.set("reid.batch.computed", m.batch_computed as f64 / p);
    r.set(
        "reid.batch.saved_ratio",
        m.batch_requests.saturating_sub(m.batch_computed) as f64 / m.batch_requests.max(1) as f64,
    );
    r.set("reid.backend_faults", m.faults as f64 / p);
    r.set("reid.retries", m.retries as f64 / p);
    r.set("merge.ms", m.merge_ms / p);
    r.set(
        "merge.accepted",
        (m.shard_merges + m.global_merges) as f64 / p,
    );
    r.set("window.degraded", m.degraded as f64 / p);
    r.set("window.reverified", m.reverified as f64 / p);
    r.set("global.rounds", m.global_rounds as f64 / p);
    r.set("global.pairs", m.global_pairs as f64 / p);
    r.set(
        "global.admit_ratio",
        m.global_admitted as f64 / m.global_pairs.max(1) as f64,
    );
    r.set("global.merges", m.global_merges as f64 / p);
    r.set("global.select_ms", global.log().ns as f64 / 1e6 / p);
    r.set("checkpoint.encode_ms", median(&m.encode_ms));
    r.set("checkpoint.decode_ms", median(&m.decode_ms));
    r.set("checkpoint.bytes", median(&m.bytes));
    let cycles = summarize("serve cycle", m.cycles_ms.clone(), 99)?;
    r.set("serve.cycle_p50_ms", cycles.p50);
    r.set("serve.cycle_p99_ms", cycles.tail);
    r.meta("serve_cycle_tail_pct", Meta::Num(cycles.tail_pct as f64));
    r.set("serve.submit.admitted", m.admitted as f64 / p);
    r.set("serve.submit.rejected", m.rejected as f64 / p);
    let queries = summarize(
        "serve query",
        m.queries_ms.iter().map(|ms| ms * 1e3).collect(),
        50,
    )?;
    r.set("serve.query_p50_us", queries.p50);
    r.set("serve.shed.entries", m.shed_entries as f64 / p);
    r.set("serve.resident_windows", m.resident_windows as f64 / p);
    r.set(
        "serve.generator_late_ms",
        m.late_ms.iter().sum::<f64>() / m.late_ms.len().max(1) as f64,
    );
    r.set("query.self_ms", m.queries_ms.iter().sum::<f64>() / p);
    r.set(
        "trace.overhead_pct",
        overhead_pct(m.busy_ms, untraced.busy_ms),
    );
    r.not_exercised(&[
        "track.",
        "pairs.ms",
        "reid.gate.",
        "query.spent",
        "query.early_stops",
        "query.deferred",
        "query.interval_width",
    ]);
    Ok(())
}
