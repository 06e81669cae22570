//! The window protocol, in one place.
//!
//! Deciding a window means: set the fault epoch, re-verify stashed windows
//! if the backend came back, select (or degrade behind the breaker), flush
//! the gate counters, and emit the window's counters, event and span.
//!
//! * Every offline loop walks its windows through [`WindowWalk`]: the
//!   fault-tolerant pipeline (`crate::run_pipeline_with_backend`), the
//!   anytime query (`tm_query::AnytimeQuery::run`) and the experiment
//!   harness (`tm-bench`).
//! * The online [`crate::StreamingMerger`] (and through it the fleet) and
//!   the cross-camera [`crate::GlobalMerger`] keep their own state machines
//!   (checkpointed, fed incrementally) but decide each window through the
//!   same step, [`select_guarded`].
//!
//! `crates/core/tests/path_equivalence.rs` pins the offline, streaming and
//! fleet-of-one paths equal on a fixture video.
//!
//! Every helper preserves the exact counter/event emission order of the
//! code it replaced — the recorder's aggregates are commutative, but the
//! per-stream clocks and decisions those emissions bracket are compared
//! bit-for-bit across paths, so nothing here may charge or reorder work.

use crate::pairs::WindowPairs;
use crate::resilience::{degraded_candidates, Breaker, RobustnessConfig, RobustnessReport};
use crate::selector::{check_k, CandidateSelector, SelectionInput, SelectionResult};
use crate::voi::VoiHints;
use tm_obs::{Obs, Value};
use tm_reid::{
    AppearanceModel, CostModel, Device, GatePolicy, InferenceBackend, ReidSession, RetryPolicy,
};
use tm_types::{Result, TrackPair, TrackSet};

/// Builds the one true per-video/per-stream [`ReidSession`]: optional
/// fallible backend, optional retry override, extraction gate — the
/// construction every execution path shares, so all of them run one
/// [`GatePolicy`].
pub(crate) fn window_session<'m>(
    model: &'m AppearanceModel,
    cost: CostModel,
    device: Device,
    backend: Option<&'m dyn InferenceBackend>,
    retry: Option<RetryPolicy>,
    gate: GatePolicy,
) -> ReidSession<'m> {
    let mut session = ReidSession::new(model, cost, device);
    if let Some(backend) = backend {
        session = session.with_backend(backend);
    }
    if let Some(retry) = retry {
        session = session.with_retry_policy(retry);
    }
    session.with_gate(gate)
}

/// The offline window walk: one video, one [`ReidSession`], its windows
/// decided one [`WindowWalk::decide`] at a time and closed by
/// [`WindowWalk::finish`].
///
/// The walk owns the session (backend: the model unless
/// [`WindowWalk::with_backend`] installs another; the gate plans the whole
/// video once, up front), the circuit breaker with its
/// [`RobustnessReport`], and one candidate slot per window. When a window
/// fails on the backend it is decided on spatio-temporal evidence and
/// stashed; once the backend answers again the stash is re-scored with
/// real ReID — selectors are stateless and seeded per window, so this
/// reproduces exactly what a healthy run would have chosen — and each
/// re-verified window replaces its provisional candidates in its own slot,
/// so candidate order never depends on the outage.
///
/// Windows may be decided in any order (the anytime query visits them by
/// value of information); each is decided at most once.
pub struct WindowWalk<'m, 'w> {
    tracks: &'w TrackSet,
    windows: &'w [WindowPairs],
    k: f64,
    robustness: RobustnessConfig,
    session: ReidSession<'m>,
    breaker: Breaker,
    report: RobustnessReport,
    /// One candidate slot per window, indexed like `windows`.
    slots: Vec<Vec<TrackPair>>,
    /// Degraded windows awaiting re-verification, in decision order.
    stash: Vec<usize>,
    n_pairs: usize,
    distance_evals: u64,
    obs: Obs,
}

impl<'m, 'w> WindowWalk<'m, 'w> {
    /// A walk over `windows` (the pair sets of `tracks`) with candidate
    /// budget `k`, on a session with the model itself as its (never
    /// failing) backend.
    ///
    /// # Errors
    ///
    /// [`tm_types::TmError::InvalidConfig`] when `k` is not finite.
    pub fn new(
        model: &'m AppearanceModel,
        cost: CostModel,
        device: Device,
        gate: GatePolicy,
        tracks: &'w TrackSet,
        windows: &'w [WindowPairs],
        k: f64,
    ) -> Result<Self> {
        check_k(k)?;
        let robustness = RobustnessConfig::default();
        let mut session = window_session(model, cost, device, None, None, gate);
        // The whole video is known up front, so the gate plans every box
        // once (free: planning charges nothing).
        session.gate_update_plan(tracks);
        Ok(Self {
            tracks,
            windows,
            k,
            robustness,
            session,
            breaker: Breaker::new(robustness.breaker_threshold),
            report: RobustnessReport::default(),
            slots: vec![Vec::new(); windows.len()],
            stash: Vec::new(),
            n_pairs: 0,
            distance_evals: 0,
            obs: tm_obs::current(),
        })
    }

    /// Routes feature extraction through a fallible `backend` (e.g. a
    /// `tm-chaos` fault injector) under `robustness`' retry policy and
    /// breaker threshold.
    pub fn with_backend(
        mut self,
        backend: &'m dyn InferenceBackend,
        robustness: &RobustnessConfig,
    ) -> Self {
        self.session = self
            .session
            .with_backend(backend)
            .with_retry_policy(robustness.retry);
        self.breaker = Breaker::new(robustness.breaker_threshold);
        self.robustness = *robustness;
        self
    }

    /// Decides window `wi` with `selector` (and, for the bandit selectors,
    /// optional VoI hints) and returns its candidates — provisional when
    /// the window degraded. Empty windows are skipped: no epoch, no
    /// counters, no candidates.
    ///
    /// The window index is the session's fault epoch, so deterministic
    /// fault plans address outages to specific windows. Stashed windows
    /// that the backend's return lets this call re-verify are re-scored
    /// with the same `selector`, hint-free.
    ///
    /// # Errors
    ///
    /// Whatever the selector reports other than a backend failure (which
    /// degrades the window instead).
    pub fn decide(
        &mut self,
        wi: usize,
        selector: &dyn CandidateSelector,
        voi: Option<&VoiHints>,
    ) -> Result<&[TrackPair]> {
        let windows = self.windows;
        let wp = &windows[wi];
        if wp.pairs.is_empty() {
            return Ok(&[]);
        }
        let index = wp.window.index as u64;
        let span = self.obs.span("pipeline.window", self.session.elapsed_ms());
        self.n_pairs += wp.pairs.len();
        self.session.set_epoch(index);
        if self.breaker.is_open() && self.session.backend_available() {
            self.breaker.close();
            emit_breaker_recovery(&self.obs, index);
            self.reverify(selector)?;
        }
        let input = SelectionInput {
            pairs: &wp.pairs,
            tracks: self.tracks,
            k: self.k,
            voi,
        };
        let degraded = match select_guarded(
            selector,
            &input,
            &mut self.session,
            &mut self.breaker,
            &mut self.report,
            &self.obs,
            index,
        )? {
            Some(r) => {
                self.distance_evals += r.distance_evals;
                self.slots[wi] = r.candidates;
                false
            }
            None => {
                self.slots[wi] =
                    degrade_window(&input, &mut self.report, &self.robustness, &self.obs)?;
                self.stash.push(wi);
                true
            }
        };
        emit_window_obs(&self.obs, index, wp.pairs.len(), &self.slots[wi], degraded);
        span.finish(self.session.elapsed_ms());
        Ok(&self.slots[wi])
    }

    /// Closes the walk: one last recovery attempt (at the end-of-video
    /// epoch, one past the last window) for whatever is still provisional,
    /// then every decided window's candidates in window order. Windows the
    /// backend never came back for keep their degraded candidates
    /// (counted as `degraded_windows - reverified_windows`).
    ///
    /// # Errors
    ///
    /// As for [`WindowWalk::decide`].
    pub fn finish(&mut self, selector: &dyn CandidateSelector) -> Result<Vec<TrackPair>> {
        if !self.stash.is_empty() {
            let end = self.windows.len() as u64;
            self.session.set_epoch(end);
            if self.session.backend_available() {
                if self.breaker.is_open() {
                    emit_breaker_recovery(&self.obs, end);
                }
                self.breaker.close();
                self.reverify(selector)?;
            }
        }
        Ok(self.slots.iter().flatten().copied().collect())
    }

    /// Re-scores the stash with the (recovered) backend, in the order the
    /// windows were decided, at the session's current epoch. A window that fails again — along
    /// with every window after it — stays provisional in the stash.
    fn reverify(&mut self, selector: &dyn CandidateSelector) -> Result<()> {
        let windows = self.windows;
        let pending: Vec<ReverifyItem<'_>> = std::mem::take(&mut self.stash)
            .into_iter()
            .map(|wi| ReverifyItem {
                slot: wi,
                window_index: windows[wi].window.index as u64,
                pairs: &windows[wi].pairs,
            })
            .collect();
        let (slots, distance_evals) = (&mut self.slots, &mut self.distance_evals);
        let committed = reverify_windows(
            &pending,
            self.tracks,
            self.k,
            selector,
            &mut self.session,
            &mut self.breaker,
            &mut self.report,
            &self.obs,
            |slot, r| {
                *distance_evals += r.distance_evals;
                slots[slot] = r.candidates;
            },
        )?;
        self.stash
            .extend(pending[committed..].iter().map(|item| item.slot));
        Ok(())
    }

    /// The walk's ReID session (simulated clock, work and gate counters).
    pub fn session(&self) -> &ReidSession<'m> {
        &self.session
    }

    /// Pairs in the windows decided so far (`Σ_c |P_c|`).
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Distance evaluations of every committed selection, re-verifications
    /// included.
    pub fn distance_evals(&self) -> u64 {
        self.distance_evals
    }

    /// Fault-handling counters, with the session's retry and fault counts.
    pub fn robustness(&self) -> RobustnessReport {
        let stats = self.session.stats();
        RobustnessReport {
            retries: stats.retries,
            backend_faults: stats.backend_faults,
            ..self.report
        }
    }
}

/// Flushes the session's gate decision counters (once per decided window,
/// the `AssignStats` cadence) and attributes the saved charges to the
/// selector that ran (`reid.gate.saved_charges.<slug>`). No-op — no
/// counters, no allocation — for ungated sessions.
fn flush_gate_obs(session: &mut ReidSession<'_>, obs: &Obs, selector_slug: &str) {
    let delta = session.flush_gate_obs();
    if obs.enabled() && delta.saved_charges() > 0 {
        obs.counter(
            &format!("reid.gate.saved_charges.{selector_slug}"),
            delta.saved_charges(),
        );
    }
}

/// The window step: breaker open → `None` without touching the backend;
/// otherwise select, flush the gate counters (a failed selection still
/// made — and charged — its gate decisions), and record the outcome on the
/// breaker: success → `Some`, backend failure → count a possible trip,
/// then `None`. Any other error propagates. On `None` the caller degrades
/// the window its own way — [`degrade_window`] and a stash, or (global
/// rounds) a rollback — so the trip is always counted before the
/// degradation.
pub(crate) fn select_guarded(
    selector: &dyn CandidateSelector,
    input: &SelectionInput<'_>,
    session: &mut ReidSession<'_>,
    breaker: &mut Breaker,
    report: &mut RobustnessReport,
    obs: &Obs,
    window_index: u64,
) -> Result<Option<SelectionResult>> {
    if breaker.is_open() {
        return Ok(None);
    }
    let outcome = selector.select(input, session);
    flush_gate_obs(session, obs, selector.obs_slug());
    match outcome {
        Ok(result) => {
            breaker.record_success();
            Ok(Some(result))
        }
        Err(e) if e.is_backend() => {
            note_breaker_failure(breaker, report, obs, window_index);
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Decides one window on spatio-temporal evidence only, counting it as
/// degraded: the offline walk's and the streaming merger's answer to a
/// `None` from [`select_guarded`], and the streaming merger's serve-level
/// shed-load mode, which forces this path without consulting the breaker
/// at all.
pub(crate) fn degrade_window(
    input: &SelectionInput<'_>,
    report: &mut RobustnessReport,
    robustness: &RobustnessConfig,
    obs: &Obs,
) -> Result<Vec<TrackPair>> {
    let provisional =
        degraded_candidates(input.pairs, input.tracks, input.m(), &robustness.degraded)?;
    report.degraded_windows += 1;
    obs.counter("pipeline.windows_degraded", 1);
    Ok(provisional)
}

/// Records a window's backend failure on the breaker, counting the trip if
/// this one opened it.
fn note_breaker_failure(
    breaker: &mut Breaker,
    report: &mut RobustnessReport,
    obs: &Obs,
    window_index: u64,
) {
    if breaker.record_failure() {
        report.breaker_trips += 1;
        obs.counter("pipeline.breaker_trips", 1);
        obs.event("breaker_trip", &[("window", Value::U64(window_index))]);
    }
}

/// Records one stashed window successfully re-scored with real ReID.
fn note_reverified(report: &mut RobustnessReport, obs: &Obs) {
    report.reverified_windows += 1;
    obs.counter("pipeline.windows_reverified", 1);
}

/// Announces a breaker recovery observed at `epoch`.
pub(crate) fn emit_breaker_recovery(obs: &Obs, epoch: u64) {
    obs.counter("pipeline.breaker_recoveries", 1);
    obs.event("breaker_recovery", &[("window", Value::U64(epoch))]);
}

/// Emits one decided window's lifecycle counters and event.
pub(crate) fn emit_window_obs(
    obs: &Obs,
    window_index: u64,
    n_pairs: usize,
    candidates: &[TrackPair],
    degraded: bool,
) {
    if !obs.enabled() {
        return;
    }
    obs.counter("pipeline.windows", 1);
    obs.counter("pipeline.pairs", n_pairs as u64);
    obs.counter("pipeline.candidates", candidates.len() as u64);
    obs.event(
        "window",
        &[
            ("id", Value::U64(window_index)),
            ("pairs", Value::U64(n_pairs as u64)),
            ("candidates", Value::U64(candidates.len() as u64)),
            (
                "mode",
                Value::Str(if degraded { "degraded" } else { "normal" }),
            ),
        ],
    );
}

/// One stashed window queued for re-verification.
#[derive(Clone, Copy)]
pub(crate) struct ReverifyItem<'w> {
    /// Caller-side handle handed back to `commit` (the offline walk's slot
    /// position; the streaming merger ignores it).
    pub(crate) slot: usize,
    /// The window's index, used for the `breaker_trip` event on renewed
    /// failure.
    pub(crate) window_index: u64,
    /// The window's full pair set.
    pub(crate) pairs: &'w [TrackPair],
}

/// Re-scores degraded windows with the (recovered) backend, in window
/// order. `commit` receives each successfully re-scored window's slot and
/// result (emission order: commit, then the reverified counter — as both
/// historical walks did). Returns how many windows were committed: on a
/// renewed backend failure the caller re-stashes `pending[committed..]`;
/// other errors propagate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reverify_windows(
    pending: &[ReverifyItem<'_>],
    tracks: &TrackSet,
    k: f64,
    selector: &dyn CandidateSelector,
    session: &mut ReidSession<'_>,
    breaker: &mut Breaker,
    report: &mut RobustnessReport,
    obs: &Obs,
    mut commit: impl FnMut(usize, SelectionResult),
) -> Result<usize> {
    for (i, item) in pending.iter().enumerate() {
        let input = SelectionInput {
            pairs: item.pairs,
            tracks,
            k,
            voi: None,
        };
        let outcome = selector.select(&input, session);
        flush_gate_obs(session, obs, selector.obs_slug());
        match outcome {
            Ok(result) => {
                commit(item.slot, result);
                note_reverified(report, obs);
            }
            Err(e) if e.is_backend() => {
                note_breaker_failure(breaker, report, obs, item.window_index);
                return Ok(i);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(pending.len())
}
