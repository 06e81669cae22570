//! REC–FPS sweeps: Fig. 5 (CPU algorithms), Fig. 6 (batched algorithms)
//! and Table II (FPS at fixed REC targets).

use crate::experiments::ExpConfig;
use crate::harness::{fps_at_rec, run_selector, CurvePoint, DatasetRun, RunOutcome};
use std::collections::BTreeMap;
use tm_core::{
    Baseline, CandidateSelector, LcbConfig, LowerConfidenceBound, ProportionalSampling, PsConfig,
    TMerge, TMergeConfig,
};
use tm_datasets::{kitti, mot17, pathtrack};
use tm_reid::{CostModel, Device};
use tm_track::TrackerKind;

/// The paper's default candidate budget (§V-A).
pub const K: f64 = 0.05;

crate::json_struct! {
    /// REC–FPS curves of every algorithm on one dataset/device.
    #[derive(Debug, Clone)]
    pub struct AlgoCurves {
        /// Dataset name.
        pub dataset: String,
        /// Device label (`CPU`, `GPU B=10`, ...).
        pub device: String,
        /// Algorithm name → sweep points.
        pub curves: BTreeMap<String, Vec<CurvePoint>>,
    }
}

/// Averages an outcome over `trials` differently-seeded selector builds.
///
/// Trials fan out over worker threads and are folded in trial order, so the
/// average is bit-identical to a serial loop for any `TMERGE_THREADS`.
pub fn averaged_outcome(
    ds: &DatasetRun,
    cost: CostModel,
    device: Device,
    trials: u64,
    base_seed: u64,
    build: &(dyn Fn(u64) -> Box<dyn CandidateSelector> + Sync),
) -> RunOutcome {
    let seeds: Vec<u64> = (0..trials.max(1)).map(|t| base_seed + 1000 * t).collect();
    let outcomes = tm_par::par_map(&seeds, |&seed| {
        let selector = build(seed);
        run_selector(&ds.runs, selector.as_ref(), K, cost, device)
    });
    let mut acc: Option<RunOutcome> = None;
    for out in outcomes {
        acc = Some(match acc {
            None => out,
            Some(a) => RunOutcome {
                rec: a.rec + out.rec,
                fps: a.fps + out.fps,
                runtime_s: a.runtime_s + out.runtime_s,
                distance_evals: a.distance_evals + out.distance_evals,
                n_candidates: a.n_candidates + out.n_candidates,
                inferences: a.inferences + out.inferences,
                cache_hits: a.cache_hits + out.cache_hits,
            },
        });
    }
    let mut a = acc.expect("trials ≥ 1");
    let n = trials.max(1) as f64;
    a.rec /= n;
    a.fps /= n;
    a.runtime_s /= n;
    a.distance_evals = (a.distance_evals as f64 / n) as u64;
    a.n_candidates = (a.n_candidates as f64 / n) as usize;
    a
}

/// Builds the four algorithms' REC–FPS curves on one dataset/device.
///
/// Sweep points within each algorithm's grid fan out over worker threads;
/// points are collected in grid order, so curve JSON is identical to a
/// serial sweep.
pub fn rec_fps_curves(ds: &DatasetRun, device: Device, cfg: &ExpConfig) -> AlgoCurves {
    let cost = CostModel::calibrated();
    let mut curves: BTreeMap<String, Vec<CurvePoint>> = BTreeMap::new();

    // BL: exact — a single point.
    let bl = run_selector(&ds.runs, &Baseline, K, cost, device);
    curves.insert(
        "BL".into(),
        vec![CurvePoint {
            param: "exact".into(),
            outcome: bl,
        }],
    );

    // PS: sweep η.
    let etas = cfg.eta_grid();
    let ps_points = tm_par::par_map(&etas, |&eta| {
        let out = averaged_outcome(ds, cost, device, cfg.trials, cfg.seed, &|seed| {
            Box::new(ProportionalSampling::new(PsConfig { eta, seed }))
        });
        CurvePoint {
            param: format!("eta={eta}"),
            outcome: out,
        }
    });
    curves.insert("PS".into(), ps_points);

    // LCB: sweep τ_max.
    let taus = cfg.tau_grid();
    let lcb_points = tm_par::par_map(&taus, |&tau| {
        let out = averaged_outcome(ds, cost, device, cfg.trials, cfg.seed, &|seed| {
            Box::new(LowerConfidenceBound::new(LcbConfig {
                tau_max: tau,
                seed,
                record_history: false,
            }))
        });
        CurvePoint {
            param: format!("tau={tau}"),
            outcome: out,
        }
    });
    curves.insert("LCB".into(), lcb_points);

    // TMerge: sweep τ_max.
    let tm_points = tm_par::par_map(&taus, |&tau| {
        let out = averaged_outcome(ds, cost, device, cfg.trials, cfg.seed, &|seed| {
            Box::new(TMerge::new(TMergeConfig {
                tau_max: tau,
                seed,
                ..TMergeConfig::default()
            }))
        });
        CurvePoint {
            param: format!("tau={tau}"),
            outcome: out,
        }
    });
    curves.insert("TMerge".into(), tm_points);

    AlgoCurves {
        dataset: ds.name.to_string(),
        device: match device {
            Device::Cpu => "CPU".into(),
            Device::Gpu { batch } => format!("GPU B={batch}"),
        },
        curves,
    }
}

/// Fig. 5: CPU REC–FPS curves on the three datasets.
pub fn fig05(cfg: &ExpConfig) -> Vec<AlgoCurves> {
    let datasets = [
        cfg.limit(mot17(), 7),
        cfg.limit(kitti(), 8),
        cfg.limit(pathtrack(), if cfg.quick { 2 } else { 5 }),
    ];
    tm_par::par_map(&datasets, |spec| {
        let ds = DatasetRun::prepare(spec, TrackerKind::Tracktor, None);
        rec_fps_curves(&ds, Device::Cpu, cfg)
    })
}

/// Fig. 6: batched (`-B`) REC–FPS curves, `B ∈ {10, 100}`, on the three
/// datasets.
pub fn fig06(cfg: &ExpConfig) -> Vec<AlgoCurves> {
    let datasets = [
        cfg.limit(mot17(), 7),
        cfg.limit(kitti(), 8),
        cfg.limit(pathtrack(), if cfg.quick { 2 } else { 5 }),
    ];
    tm_par::par_map(&datasets, |spec| {
        let ds = DatasetRun::prepare(spec, TrackerKind::Tracktor, None);
        [10usize, 100]
            .iter()
            .map(|&batch| rec_fps_curves(&ds, Device::Gpu { batch }, cfg))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

crate::json_struct! {
    /// One Table II row: an algorithm's FPS at the two REC targets.
    #[derive(Debug, Clone)]
    pub struct Table2Row {
        /// Method name (BL, PS, LCB, TMerge, and `-B` variants).
        pub method: String,
        /// FPS at REC = 0.80 (`None` → the method never reaches it, printed
        /// as `-` like the paper's BL row).
        pub fps_at_080: Option<f64>,
        /// FPS at REC = 0.93.
        pub fps_at_093: Option<f64>,
    }

    /// Table II: FPS at REC ∈ {0.80, 0.93} on MOT-17, CPU and GPU (B = 10,
    /// 100).
    #[derive(Debug, Clone)]
    pub struct Table2 {
        /// CPU methods.
        pub cpu: Vec<Table2Row>,
        /// GPU methods per batch size.
        pub gpu: BTreeMap<String, Vec<Table2Row>>,
    }
}

fn rows_from_curves(curves: &AlgoCurves, suffix: &str) -> Vec<Table2Row> {
    ["BL", "PS", "LCB", "TMerge"]
        .iter()
        .map(|name| -> Table2Row {
            let pts = &curves.curves[*name];
            // BL is exact and cannot trade accuracy for speed: it has a
            // single operating point, reported only at the highest REC
            // target it clears (the paper prints "-" for BL at 0.80).
            if *name == "BL" {
                let bl = &pts[0].outcome;
                return Table2Row {
                    method: format!("{name}{suffix}"),
                    fps_at_080: None,
                    fps_at_093: (bl.rec >= 0.93).then_some(bl.fps),
                };
            }
            Table2Row {
                method: format!("{name}{suffix}"),
                fps_at_080: fps_at_rec(pts, 0.80),
                fps_at_093: fps_at_rec(pts, 0.93),
            }
        })
        .collect()
}

/// Computes Table II. The three device configurations (CPU, GPU B=10,
/// GPU B=100) run concurrently against one prepared dataset.
pub fn table2(cfg: &ExpConfig) -> Table2 {
    let spec = cfg.limit(mot17(), 7);
    let ds = DatasetRun::prepare(&spec, TrackerKind::Tracktor, None);
    let devices = [
        Device::Cpu,
        Device::Gpu { batch: 10 },
        Device::Gpu { batch: 100 },
    ];
    let all = tm_par::par_map(&devices, |&device| rec_fps_curves(&ds, device, cfg));
    let cpu = rows_from_curves(&all[0], "");
    let mut gpu = BTreeMap::new();
    for (curves, batch) in all[1..].iter().zip([10usize, 100]) {
        gpu.insert(format!("B={batch}"), rows_from_curves(curves, "-B"));
    }
    Table2 { cpu, gpu }
}
