//! The benchmark's own spans, recorded around the calls it makes into
//! the program's public API, plus the `PtcProblem`/`Preconditioner`
//! wrapper that times the solver's calls into the application.
//!
//! Spans are off unless [`enable`] was called (only in a `--trace 1`
//! run). They stay in memory and are written out once, at the end.

use fun3d_core::Fun3dApp;
use fun3d_solver::precond::Preconditioner;
use fun3d_solver::ptc::PtcProblem;
use fun3d_solver::ExecMode;
use fun3d_threads::{TeamMember, TeamSlice, ThreadPool};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One timed call: `parent` is the id of the span that caused it (0 for
/// a root), `req` the request or solve it belongs to.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh span id, so a parent can be named before it ends.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Records a finished span under a pre-allocated `id` (no-op when off).
pub fn record_as(id: u64, name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let span = Span {
        id,
        parent,
        req,
        name,
        start_ns: ns(start),
        end_ns: ns(end),
    };
    SPANS.lock().expect("span buffer poisoned").push(span);
}

/// Records a finished span and returns its id (0 when off).
pub fn record(name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = next_id();
    record_as(id, name, parent, req, start, end);
    id
}

/// Times `f` as a span; returns its result and duration in seconds.
pub fn timed<T>(name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    record(name, parent, req, t0, t1);
    (out, (t1 - t0).as_secs_f64())
}

/// Writes every recorded span as one JSON object per line.
pub fn write(path: &std::path::Path, workload: &str) -> std::io::Result<usize> {
    let spans = SPANS.lock().expect("span buffer poisoned");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

/// Accumulated time and call count of one layer boundary.
#[derive(Default)]
pub struct LayerClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl LayerClock {
    fn add(&self, start: Instant, end: Instant) {
        self.ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Times every call `ptc::solve` makes into the application: residual
/// evaluations (outer ones and the matrix-free matvecs), preconditioner
/// builds, and preconditioner applies. Every other trait method is
/// forwarded unchanged; in particular `apply_team` is forwarded, because
/// the trait's default would move the whole triangular solve onto the
/// team leader and change what is measured.
pub struct TracedApp<'a> {
    /// Held as a trait object, so every forwarded call is the same
    /// dynamic call `ptc::solve` makes on the bare app; a static call
    /// could be inlined into the wrapper and compiled differently.
    app: &'a mut dyn PtcProblem,
    parent: u64,
    req: u64,
    pub residual: LayerClock,
    pub precond_build: LayerClock,
    pub precond_apply: LayerClock,
}

impl<'a> TracedApp<'a> {
    /// `parent` is the span id of the enclosing solve.
    pub fn new(app: &'a mut Fun3dApp, parent: u64, req: u64) -> TracedApp<'a> {
        let app: &'a mut dyn PtcProblem = app;
        TracedApp {
            app,
            parent,
            req,
            residual: LayerClock::default(),
            precond_build: LayerClock::default(),
            precond_apply: LayerClock::default(),
        }
    }

    fn done(&self, clock: &LayerClock, name: &'static str, start: Instant) {
        let end = Instant::now();
        clock.add(start, end);
        record(name, self.parent, self.req, start, end);
    }
}

impl PtcProblem for TracedApp<'_> {
    fn dim(&self) -> usize {
        self.app.dim()
    }

    fn residual(&mut self, u: &[f64], r: &mut [f64]) {
        let t = Instant::now();
        self.app.residual(u, r);
        self.done(&self.residual, "core.residual", t);
    }

    fn time_diag(&self, dt: f64, out: &mut [f64]) {
        self.app.time_diag(dt, out);
    }

    fn build_preconditioner(&mut self, u: &[f64], time_diag: &[f64]) {
        let t = Instant::now();
        self.app.build_preconditioner(u, time_diag);
        self.done(&self.precond_build, "core.precond_build", t);
    }

    fn preconditioner(&self) -> &dyn Preconditioner {
        self
    }

    fn on_step(&mut self, step: usize, res_norm: f64, dt: f64) {
        self.app.on_step(step, res_norm, dt);
    }

    fn solver_pool(&self) -> Option<Arc<ThreadPool>> {
        self.app.solver_pool()
    }

    fn exec_mode(&self) -> ExecMode {
        self.app.exec_mode()
    }
}

impl Preconditioner for TracedApp<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let t = Instant::now();
        self.app.preconditioner().apply(r, z);
        self.done(&self.precond_apply, "sparse.precond_apply", t);
    }

    fn dim(&self) -> usize {
        self.app.preconditioner().dim()
    }

    /// Forwards to the application's team apply. Only the leader times:
    /// the inner apply ends with a barrier, so when the leader returns
    /// every thread's share is done.
    unsafe fn apply_team(&self, tm: &TeamMember, r: TeamSlice, z: TeamSlice) {
        let t = (tm.tid() == 0).then(Instant::now);
        // SAFETY: forwarded unchanged under the caller's contract; the
        // wrapper itself touches only atomics, and only on the leader.
        unsafe { self.app.preconditioner().apply_team(tm, r, z) };
        if let Some(t) = t {
            self.done(&self.precond_apply, "sparse.precond_apply", t);
        }
    }
}
