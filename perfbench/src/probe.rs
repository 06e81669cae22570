//! Outside probes: wrappers around the public traits the program's APIs
//! accept, timing each call from the benchmark's side of the seam. The
//! program itself carries no span.
//!
//! ReID time is also kept per thread, so a selector probe can subtract
//! the ReID time spent inside its own call (select self time) even when
//! the fleet fans shards out over worker threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;
use tm_core::{CandidateSelector, SelectionInput, SelectionResult};
use tm_reid::{Attempt, BackendReply, InferenceBackend, ReidSession};
use tm_types::{Result, TrackBox};

thread_local! {
    /// Nanoseconds this thread has spent inside probed ReID backends.
    static REID_NS: Cell<u64> = const { Cell::new(0) };
}

fn thread_reid_ns() -> u64 {
    REID_NS.with(Cell::get)
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Totals of the ReID backend calls made through [`ProbeBackend`]s that
/// share this probe.
#[derive(Debug, Default)]
pub struct ReidProbe {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl ReidProbe {
    /// `try_observe` calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Milliseconds inside the backend (observe and prefetch).
    pub fn ms(&self) -> f64 {
        self.ns.load(Relaxed) as f64 / 1e6
    }

    fn record(&self, start: Instant) {
        let ns = elapsed_ns(start);
        self.ns.fetch_add(ns, Relaxed);
        REID_NS.with(|c| c.set(c.get() + ns));
    }
}

/// An [`InferenceBackend`] that forwards to `inner` and times every call.
#[derive(Debug)]
pub struct ProbeBackend<'a> {
    inner: &'a dyn InferenceBackend,
    probe: &'a ReidProbe,
}

impl<'a> ProbeBackend<'a> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: &'a dyn InferenceBackend, probe: &'a ReidProbe) -> Self {
        Self { inner, probe }
    }
}

impl InferenceBackend for ProbeBackend<'_> {
    fn try_observe(&self, tb: &TrackBox, at: &Attempt) -> BackendReply {
        let start = Instant::now();
        let reply = self.inner.try_observe(tb, at);
        self.probe.calls.fetch_add(1, Relaxed);
        self.probe.record(start);
        reply
    }

    fn available(&self, epoch: u64) -> bool {
        self.inner.available(epoch)
    }

    fn prefetch(&self, requests: &[(&TrackBox, Attempt)]) {
        let start = Instant::now();
        self.inner.prefetch(requests);
        self.probe.record(start);
    }
}

/// What the selections timed by one [`SelectProbe`] did.
#[derive(Debug, Default, Clone)]
pub struct SelectLog {
    /// Selections run.
    pub calls: u64,
    /// Wall time inside `select`, nanoseconds.
    pub ns: u64,
    /// Of which inside probed ReID backends.
    pub reid_ns: u64,
    /// Arms (pairs) offered, summed.
    pub arms: u64,
    /// Distance evaluations, summed.
    pub pulls: u64,
    /// Candidates returned, summed.
    pub candidates: u64,
    /// Per-call wall times, nanoseconds.
    pub samples_ns: Vec<u64>,
}

/// Times selections, whether the benchmark calls `select` itself or the
/// program calls it through a [`ProbeSelector`].
#[derive(Debug, Default)]
pub struct SelectProbe {
    log: Mutex<SelectLog>,
}

impl SelectProbe {
    /// Runs one selection over `arms` pairs and records it.
    pub fn time(
        &self,
        arms: usize,
        select: impl FnOnce() -> Result<SelectionResult>,
    ) -> Result<SelectionResult> {
        let reid0 = thread_reid_ns();
        let start = Instant::now();
        let out = select();
        let ns = elapsed_ns(start);
        let reid_ns = thread_reid_ns() - reid0;
        let mut log = self.log.lock().expect("a probe holder panicked");
        log.calls += 1;
        log.ns += ns;
        log.reid_ns += reid_ns;
        log.arms += arms as u64;
        if let Ok(r) = &out {
            log.pulls += r.distance_evals;
            log.candidates += r.candidates.len() as u64;
        }
        log.samples_ns.push(ns);
        out
    }

    /// A copy of everything recorded so far.
    pub fn log(&self) -> SelectLog {
        self.log.lock().expect("a probe holder panicked").clone()
    }
}

/// A [`CandidateSelector`] that forwards to `inner` through a
/// [`SelectProbe`].
pub struct ProbeSelector<'a, S> {
    inner: S,
    probe: &'a SelectProbe,
}

impl<'a, S> ProbeSelector<'a, S> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: S, probe: &'a SelectProbe) -> Self {
        Self { inner, probe }
    }
}

impl<S: CandidateSelector> CandidateSelector for ProbeSelector<'_, S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn obs_slug(&self) -> &'static str {
        self.inner.obs_slug()
    }

    fn select(
        &self,
        input: &SelectionInput<'_>,
        session: &mut ReidSession<'_>,
    ) -> Result<SelectionResult> {
        self.probe
            .time(input.pairs.len(), || self.inner.select(input, session))
    }
}

/// Milliseconds `f` took, added to `acc`.
pub fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64() * 1e3;
    out
}
