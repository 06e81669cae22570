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
//!   the cross-camera [`crate::GlobalMerger`] keep their own window loops
//!   (checkpointed, fed incrementally).
//!
//! All three own one [`Recovery`]: the circuit breaker, the stash of
//! degraded windows, the robustness counters and the one recovery rule.
//! What differs between them is what a stashed item holds and what
//! re-verifying it commits, and both of those stay with the caller.
//!
//! `crates/core/tests/path_equivalence.rs` pins the offline, streaming and
//! fleet-of-one paths equal on a fixture video.
//!
//! Every helper preserves the exact counter/event emission order of the
//! code it replaced — the recorder's aggregates are commutative, but the
//! per-stream clocks and decisions those emissions bracket are compared
//! bit-for-bit across paths, so nothing here may charge or reorder work.

use crate::pairs::WindowPairs;
use crate::resilience::{degraded_candidates, RobustnessConfig, RobustnessReport};
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
/// video once, up front), a `Recovery` over window positions, and one
/// candidate slot per window. When a window fails on the backend it is
/// decided on spatio-temporal evidence and stashed; once the backend
/// answers again the stash is re-scored with real ReID — selectors are
/// stateless and seeded per window, so this reproduces exactly what a
/// healthy run would have chosen — and each re-verified window replaces
/// its provisional candidates in its own slot, so candidate order never
/// depends on the outage.
///
/// Windows may be decided in any order (the anytime query visits them by
/// value of information); each is decided at most once.
pub struct WindowWalk<'m, 'w> {
    tracks: &'w TrackSet,
    windows: &'w [WindowPairs],
    k: f64,
    session: ReidSession<'m>,
    /// Stashes positions in `windows`.
    recovery: Recovery<usize>,
    /// One candidate slot per window, indexed like `windows`.
    slots: Vec<Vec<TrackPair>>,
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
        let mut session = window_session(model, cost, device, None, None, gate);
        // The whole video is known up front, so the gate plans every box
        // once (free: planning charges nothing).
        session.gate_update_plan(tracks);
        Ok(Self {
            tracks,
            windows,
            k,
            session,
            recovery: Recovery::new(RobustnessConfig::default()),
            slots: vec![Vec::new(); windows.len()],
            n_pairs: 0,
            distance_evals: 0,
            obs: tm_obs::current(),
        })
    }

    /// Routes feature extraction through a fallible `backend` (e.g. a
    /// `tm-chaos` fault injector) under `robustness`' retry policy and
    /// degraded gating.
    pub fn with_backend(
        mut self,
        backend: &'m dyn InferenceBackend,
        robustness: &RobustnessConfig,
    ) -> Self {
        self.session = self
            .session
            .with_backend(backend)
            .with_retry_policy(robustness.retry);
        self.recovery.config = *robustness;
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
        self.recover(selector, None)?;
        let input = SelectionInput {
            pairs: &wp.pairs,
            tracks: self.tracks,
            k: self.k,
            voi,
        };
        let selected =
            self.recovery
                .select(selector, &input, &mut self.session, &self.obs, index)?;
        let degraded = match selected {
            Some(r) => {
                self.distance_evals += r.distance_evals;
                self.slots[wi] = r.candidates;
                false
            }
            None => {
                self.slots[wi] = self.recovery.degrade_window(&input, &self.obs, |_| wi)?;
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
        self.recover(selector, Some(self.windows.len() as u64))?;
        Ok(self.slots.iter().flatten().copied().collect())
    }

    /// Runs the recovery rule (see [`Recovery::recover`]): a stashed window
    /// is re-scored hint-free with `selector` and its candidates replace the
    /// provisional ones in its own slot.
    fn recover(&mut self, selector: &dyn CandidateSelector, end: Option<u64>) -> Result<()> {
        let (windows, tracks, k, obs) = (self.windows, self.tracks, self.k, &self.obs);
        let (slots, distance_evals) = (&mut self.slots, &mut self.distance_evals);
        self.recovery
            .recover(false, end, &mut self.session, obs, |rec, session, &wi| {
                let wp = &windows[wi];
                let input = SelectionInput {
                    pairs: &wp.pairs,
                    tracks,
                    k,
                    voi: None,
                };
                let index = wp.window.index as u64;
                let Some(r) = rec.select(selector, &input, session, obs, index)? else {
                    return Ok(false);
                };
                *distance_evals += r.distance_evals;
                slots[wi] = r.candidates;
                Ok(true)
            })
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
        self.recovery.report(&self.session)
    }
}

/// The robustness unit every walk owns: the circuit breaker, the stash of
/// degraded windows awaiting re-verification (items of type `T`, in
/// decision order) and the window-level [`RobustnessReport`] counters.
///
/// The breaker is one bit. It opens on the first window that still fails
/// after the session's retries, and while it is open windows degrade
/// without touching the backend. It closes when a probe finds the backend
/// back, and that same recovery re-verifies the stash.
#[derive(Debug)]
pub(crate) struct Recovery<T> {
    pub(crate) config: RobustnessConfig,
    pub(crate) open: bool,
    /// Degraded/re-verified/trip counters; retry and fault counts live on
    /// the session.
    pub(crate) report: RobustnessReport,
    pub(crate) stash: Vec<T>,
}

impl<T> Recovery<T> {
    pub(crate) fn new(config: RobustnessConfig) -> Self {
        Self {
            config,
            open: false,
            report: RobustnessReport::default(),
            stash: Vec::new(),
        }
    }

    /// The window step: breaker open → `None` without touching the
    /// backend; otherwise select and flush the gate counters (a failed
    /// selection still made — and charged — its gate decisions). A backend
    /// failure trips the breaker and returns `None`; any other error
    /// propagates. On `None` the caller degrades the window, so the trip is
    /// always counted before the degradation.
    pub(crate) fn select(
        &mut self,
        selector: &dyn CandidateSelector,
        input: &SelectionInput<'_>,
        session: &mut ReidSession<'_>,
        obs: &Obs,
        window_index: u64,
    ) -> Result<Option<SelectionResult>> {
        if self.open {
            return Ok(None);
        }
        let outcome = selector.select(input, session);
        flush_gate_obs(session, obs, selector.obs_slug());
        match outcome {
            Ok(result) => Ok(Some(result)),
            Err(e) if e.is_backend() => {
                self.open = true;
                self.report.breaker_trips += 1;
                obs.counter("pipeline.breaker_trips", 1);
                obs.event("breaker_trip", &[("window", Value::U64(window_index))]);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Decides one window on spatio-temporal evidence only, counts it as
    /// degraded and stashes `item(&provisional)`: the offline walk's and
    /// the streaming merger's answer to a `None` from [`Recovery::select`],
    /// and the streaming merger's shed-load path.
    pub(crate) fn degrade_window(
        &mut self,
        input: &SelectionInput<'_>,
        obs: &Obs,
        item: impl FnOnce(&[TrackPair]) -> T,
    ) -> Result<Vec<TrackPair>> {
        let provisional =
            degraded_candidates(input.pairs, input.tracks, input.m(), &self.config.degraded)?;
        self.degrade(obs, "pipeline.windows_degraded", item(&provisional));
        Ok(provisional)
    }

    /// Counts a degraded window under `counter` and stashes `item`.
    pub(crate) fn degrade(&mut self, obs: &Obs, counter: &str, item: T) {
        self.report.degraded_windows += 1;
        obs.counter(counter, 1);
        self.stash.push(item);
    }

    /// The one recovery rule, applied at the start of every decided window
    /// (`end` = `None`, at the session's current epoch) and once at finish
    /// (`end` = the end epoch, set only when the stash is non-empty).
    ///
    /// It runs when the walk is not shedding load, the breaker is open or
    /// the stash is non-empty, and the backend answers a probe. It emits
    /// `breaker_recovery` if the breaker was open, closes it, and hands
    /// each stashed item to `reverify` in order. `reverify` re-selects the
    /// item through [`Recovery::select`] and commits the result, returning
    /// whether it did; on a renewed backend failure (the breaker re-opens)
    /// it returns `false` and that item and every later one stay stashed.
    pub(crate) fn recover(
        &mut self,
        shed: bool,
        end: Option<u64>,
        session: &mut ReidSession<'_>,
        obs: &Obs,
        mut reverify: impl FnMut(&mut Self, &mut ReidSession<'_>, &T) -> Result<bool>,
    ) -> Result<()> {
        if let Some(end) = end {
            if self.stash.is_empty() {
                return Ok(());
            }
            session.set_epoch(end);
        }
        let due = self.open || !self.stash.is_empty();
        if shed || !due || !session.backend_available() {
            return Ok(());
        }
        if std::mem::take(&mut self.open) {
            obs.counter("pipeline.breaker_recoveries", 1);
            obs.event(
                "breaker_recovery",
                &[("window", Value::U64(session.epoch()))],
            );
        }
        let mut pending = std::mem::take(&mut self.stash);
        let mut done = 0;
        for item in &pending {
            if !reverify(self, session, item)? {
                break;
            }
            self.report.reverified_windows += 1;
            obs.counter("pipeline.windows_reverified", 1);
            done += 1;
        }
        pending.drain(..done);
        self.stash = pending;
        Ok(())
    }

    /// The counters, with the session's retry and fault counts.
    pub(crate) fn report(&self, session: &ReidSession<'_>) -> RobustnessReport {
        let stats = session.stats();
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
