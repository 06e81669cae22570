//! One module per paper exhibit. Every function takes an [`ExpConfig`] and
//! returns a [`ToJson`](crate::json::ToJson) result (so the binaries can
//! print and persist it and the integration tests can assert on the
//! shapes).

pub mod corr;
pub mod fig03;
pub mod fig04;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod quality;
pub mod regret;
pub mod sweep;

use tm_datasets::DatasetSpec;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpConfig {
    /// Quick mode: fewer videos and coarser parameter grids. Used by the
    /// integration tests; the result *shapes* are the same.
    pub quick: bool,
    /// Base seed for algorithm randomness (trials average over seeds
    /// derived from it).
    pub seed: u64,
    /// Number of independent trials averaged per stochastic algorithm
    /// (the paper averages 10; quick mode uses 1).
    pub trials: u64,
}

impl ExpConfig {
    /// Full scale (used by `run_all` and the per-figure binaries).
    pub fn full() -> Self {
        Self {
            quick: false,
            seed: 7,
            trials: 2,
        }
    }

    /// Quick scale for tests.
    pub fn quick() -> Self {
        Self {
            quick: true,
            seed: 7,
            trials: 1,
        }
    }

    /// Parses `--quick` from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Self::quick()
        } else {
            Self::full()
        }
    }

    /// Limits a dataset to the number of videos this scale uses.
    pub fn limit(&self, mut spec: DatasetSpec, full: usize) -> DatasetSpec {
        let n = if self.quick { 2.min(full) } else { full };
        spec.videos.truncate(n);
        spec
    }

    /// The τ_max grid for bandit sweeps.
    pub fn tau_grid(&self) -> Vec<u64> {
        if self.quick {
            vec![1_000, 5_000, 20_000]
        } else {
            vec![500, 1_000, 2_000, 5_000, 10_000, 20_000, 35_000, 50_000]
        }
    }

    /// The η grid for PS sweeps.
    pub fn eta_grid(&self) -> Vec<f64> {
        if self.quick {
            vec![0.0005, 0.01, 0.1]
        } else {
            vec![0.00005, 0.0002, 0.0005, 0.002, 0.01, 0.05, 0.25]
        }
    }
}
