//! # tm-bench
//!
//! The experiment harness: reproduces **every table and figure** of the
//! paper's evaluation (§V). Each experiment lives in [`experiments`] as a
//! function returning a result that writes itself as JSON ([`json`]), with
//! a thin binary per table/figure in `src/bin/` that prints the
//! paper-format rows and writes JSON to `results/`.
//!
//! | Paper exhibit | Binary |
//! |---|---|
//! | Fig. 3 (REC–K of BL) | `fig03_rec_k` |
//! | Fig. 4 (BL scaling with video length) | `fig04_bl_scaling` |
//! | Fig. 5 (REC–FPS, 4 algorithms × 3 datasets) | `fig05_rec_fps` |
//! | Fig. 6 (REC–FPS batched, B ∈ {10, 100}) | `fig06_rec_fps_batched` |
//! | Table II (FPS at REC = 0.80 / 0.93) | `table2_fps` |
//! | Fig. 7 (TMerge-B runtime & REC vs τ_max) | `fig07_tau_sweep` |
//! | Fig. 8 (ablation: BetaInit / ULB) | `fig08_ablation` |
//! | Fig. 9 (REC vs window length L) | `fig09_window_len` |
//! | Fig. 10 (REC–FPS vs thr_S) | `fig10_thr_s` |
//! | Fig. 11 (polyonymous rate ± TMerge) | `fig11_poly_rate` |
//! | Fig. 12 (IDF1/IDP/IDR ± TMerge) | `fig12_id_metrics` |
//! | Fig. 13 (query recall ± TMerge) | `fig13_query_recall` |
//! | §IV-E regret bound (extension) | `regret_curve` |
//!
//! Run everything: `cargo run --release -p tm-bench --bin run_all`.
//!
//! *Runtime* and *FPS* come from the deterministic simulated cost model
//! (`tm_reid::CostModel`, DESIGN.md §6); Criterion benches in `benches/`
//! measure real wall-clock for the algorithmic kernels.

pub mod experiments;
pub mod harness;
pub mod json;
pub mod perf;
pub mod report;

pub use harness::{CurvePoint, DatasetRun, RunOutcome, VideoRun};
