//! `solve-medium`: one converged ΨTC solve on the `medium` preset under
//! `OptConfig::optimized(2)` — the paper's measurement, time to a
//! converged solution at the optimized configuration.

use crate::report::{Checks, Metrics, Tally};
use crate::trace::{self, TracedApp};
use crate::{stats, Fault, Run};
use fun3d_core::{counts, FlowConditions, Fun3dApp, OptConfig};
use fun3d_mesh::generator::MeshPreset;
use fun3d_solver::ptc::{self, PtcConfig, PtcProblem, PtcStats};
use fun3d_sparse::ilu;
use fun3d_threads::SyncCosts;
use fun3d_util::telemetry::KernelCounts;
use fun3d_util::PhaseTimers;
use std::time::Instant;

const PRESET: MeshPreset = MeshPreset::Medium;
const THREADS: usize = 2;
const RTOL: f64 = 1e-8;
const DT0: f64 = 2.0;
/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 3;
/// About how long one solve takes on a 2-vCPU host: a run makes
/// `seconds / NOMINAL_SOLVE_S` solves, at least 3, so the count depends
/// only on `--seconds` and `solve_s` is a median over the same number of
/// solves in every run.
const NOMINAL_SOLVE_S: f64 = 10.0;
/// Largest allowed `max |u_2t - u_1t| / max |u_1t|`: the two thread
/// counts sum in different orders, so their converged states differ by
/// rounding, far below the solve's own tolerance.
pub const BASELINE_TOL: f64 = 1e-6;

fn ptc_config(run: &Run) -> PtcConfig {
    PtcConfig {
        dt0: DT0,
        rtol: RTOL,
        // Two steps cannot reach rtol: the convergence check must fire.
        max_steps: if run.fault == Some(Fault::Unconverged) {
            2
        } else {
            200
        },
        ..Default::default()
    }
}

/// Mesh build + RCM + `Fun3dApp::new`, each timed as a span.
fn set_up(nthreads: usize, parent: u64) -> (Fun3dApp, [f64; 3]) {
    let (mut mesh, build_s) = trace::timed("mesh.build", parent, 0, || PRESET.build());
    let ((), rcm_s) = trace::timed("mesh.rcm", parent, 0, || Fun3dApp::rcm_reorder(&mut mesh));
    let (app, app_s) = trace::timed("core.app_build", parent, 0, || {
        Fun3dApp::new(
            mesh,
            FlowConditions::default(),
            OptConfig::optimized(nthreads),
        )
    });
    (app, [build_s, rcm_s, app_s])
}

/// FNV-64 over the exact bit pattern of a state vector.
pub fn state_hash(u: &[f64]) -> u64 {
    u.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        x.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

pub struct Solved {
    pub wall_s: f64,
    pub u: Vec<f64>,
    pub stats: PtcStats,
    pub regions: u64,
    pub barriers: u64,
}

/// One solve from `u0` through `problem` (the app itself, or the traced
/// wrapper around it), with the pool's region and barrier deltas.
pub fn solve_from(problem: &mut dyn PtcProblem, u0: Vec<f64>, cfg: &PtcConfig) -> Solved {
    let mut u = u0;
    let pool = problem.solver_pool();
    let regions0 = pool.as_ref().map_or(0, |p| p.regions_launched());
    let barriers0 = fun3d_threads::barrier::total_crossings();
    let t = Instant::now();
    let stats = ptc::solve(problem, &mut u, cfg);
    let wall_s = t.elapsed().as_secs_f64();
    Solved {
        wall_s,
        u,
        stats,
        regions: pool.as_ref().map_or(0, |p| p.regions_launched()) - regions0,
        barriers: fun3d_threads::barrier::total_crossings() - barriers0,
    }
}

/// One solve of `app` from free stream, as `Fun3dApp::run` does it.
pub fn solve_with(app: &mut Fun3dApp, cfg: &PtcConfig) -> Solved {
    let u0 = app.initial_state();
    solve_from(app, u0, cfg)
}

fn solve(run: &Run, app: &mut Fun3dApp) -> Solved {
    app.reset_for_reuse();
    solve_with(app, &ptc_config(run))
}

fn check_converged(checks: &mut Checks, tally: &mut Tally, what: &str, s: &Solved) {
    let h = &s.stats.res_history;
    let ratio = h.last().copied().unwrap_or(f64::NAN) / h[0];
    let ok = s.stats.converged && ratio <= RTOL;
    if s.stats.anomaly.is_some() {
        tally.anomaly += 1;
    } else if !ok {
        tally.not_converged += 1;
    }
    checks.require(ok && s.stats.anomaly.is_none(), || {
        format!(
            "{what}: not converged (converged={}, |f|/|f0|={ratio:e} > {RTOL:e}, anomaly={:?})",
            s.stats.converged, s.stats.anomaly
        )
    });
}

fn write_atomically(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// The 1-thread baseline of the same problem; checks that the 2-thread
/// state agrees with it within [`BASELINE_TOL`].
fn baseline(run: &Run, checks: &mut Checks, tally: &mut Tally, u2: &[f64]) -> Solved {
    let (mut app, _) = set_up(1, 0);
    let mut s = solve(run, &mut app);
    tally.attempted += 1;
    check_converged(checks, tally, "1-thread baseline", &s);
    let scale = s.u.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if run.fault == Some(Fault::PerturbState) {
        s.u[0] += 1e3 * BASELINE_TOL * scale;
    }
    let diff =
        s.u.iter()
            .zip(u2)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    run.provenance("baseline_rel_diff", &crate::report::num(diff / scale));
    checks.require(diff <= BASELINE_TOL * scale, || {
        format!(
            "2-thread state differs from the 1-thread baseline by {:e} (relative), more than {BASELINE_TOL:e}",
            diff / scale
        )
    });
    s
}

pub fn run(run: &Run, checks: &mut Checks, tally: &mut Tally, out: &mut Metrics) {
    if run.trace {
        return traced(run, checks, tally, out);
    }
    let mut setups = Vec::new();
    let mut app = None;
    for _ in 0..SETUPS {
        drop(app.take());
        let t = Instant::now();
        app = Some(set_up(THREADS, 0).0);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut app = app.expect("at least one set-up");

    let count = ((run.seconds / NOMINAL_SOLVE_S).round() as usize).max(3);
    let mut solves: Vec<Solved> = Vec::new();
    let mut walls = Vec::new();
    while solves.len() < count {
        let s = solve(run, &mut app);
        tally.attempted += 1;
        check_converged(checks, tally, "solve", &s);
        walls.push(s.wall_s);
        solves.push(s);
    }
    if run.fault == Some(Fault::PerturbHash) {
        solves[1].u[0] = f64::from_bits(solves[1].u[0].to_bits() ^ 1);
    }
    let first = &solves[0];
    let h0 = state_hash(&first.u);
    for (i, s) in solves.iter().enumerate().skip(1) {
        checks.require(state_hash(&s.u) == h0, || {
            format!(
                "solve {i}: state hash {:016x} != {h0:016x} of solve 0",
                state_hash(&s.u)
            )
        });
        checks.require(s.stats.linear_iters == first.stats.linear_iters, || {
            format!(
                "solve {i}: {} linear iterations != {} of solve 0",
                s.stats.linear_iters, first.stats.linear_iters
            )
        });
    }
    let u2 = solves[0].u.clone();
    let first_stats = (
        first.stats.time_steps,
        first.stats.linear_iters,
        first.stats.exec,
    );
    let regions: Vec<u64> = solves.iter().map(|s| s.regions).collect();
    drop(solves);
    drop(app);
    // The first run of a build checks the state against the 1-thread
    // baseline and records it; later runs of the same build must
    // reproduce that state bit for bit.
    let path = run.state_file("solve-medium.ref");
    let stored = path.as_ref().and_then(|p| std::fs::read_to_string(p).ok());
    match stored {
        Some(line) if run.fault != Some(Fault::PerturbState) => {
            let expect = format!("state_hash={h0:016x} linear_iters={}", first_stats.1);
            checks.require(line.trim() == expect, || {
                format!(
                    "this build's first run recorded `{}`, this run `{expect}`",
                    line.trim()
                )
            });
        }
        _ => {
            baseline(run, checks, tally, &u2);
            if let (Some(p), true) = (&path, checks.passed()) {
                let line = format!("state_hash={h0:016x} linear_iters={}\n", first_stats.1);
                if let Err(e) = write_atomically(p, &line) {
                    checks.require(false, || format!("writing {}: {e}", p.display()));
                }
            }
        }
    }

    println!(
        "solve-medium: unknowns={} steps={} linear_iters={} exec={} solves={} solve_s={:?} regions={:?} setups={:?}",
        PRESET.unknowns(),
        first_stats.0,
        first_stats.1,
        first_stats.2,
        walls.len(),
        walls,
        regions,
        setups
    );
    run.provenance("unknowns", &PRESET.unknowns().to_string());
    // A request here is one converged solve: its latency is the solve's
    // wall, and with a handful of solves per run the tail is the slowest.
    out.put("solve_s", stats::median(&walls), "s");
    out.put("setup_s", stats::median(&setups), "s");
    out.put("latency_p50_ms", stats::median(&walls) * 1e3, "ms");
    out.put("latency_tail_ms", stats::max(&walls) * 1e3, "ms");
    out.put(
        "throughput_rps",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    out.put("ok_frac", 1.0 - tally.failed_frac(), "ratio");
}

/// Time, modeled bytes and modeled flops of each kernel, summed over
/// the solves whose profiles are added. Bytes and flops come from
/// `fun3d_core::counts` (computed from mesh and factor sizes, not
/// measured); the times are the program's own `Fun3dApp::profile()`.
#[derive(Default)]
pub struct KernelTotals {
    totals: [(f64, f64, f64); 5],
}

const KERNELS: [&str; 5] = ["flux", "gradient", "jacobian", "ilu", "trsv"];

impl KernelTotals {
    /// Adds `profile`, timers of solves of `app`. The byte model needs
    /// one factorization, so call this outside any timed stretch.
    pub fn add(&mut self, app: &Fun3dApp, profile: &PhaseTimers) {
        let ne = app.geom.nedges();
        let nv = app.mesh.nvertices();
        let factors = ilu::factor(
            app.jacobian_matrix(),
            app.ilu_pattern(),
            ilu::TempBuffer::Compressed,
        );
        let (flux, gradient) = match app.tiling() {
            Some(tl) if !app.cfg.use_lsq_gradients => (
                counts::flux_tiled(ne, tl.vertex_slots()),
                counts::gradient_tiled(ne, nv, tl.vertex_slots()),
            ),
            Some(tl) => (
                counts::flux_tiled(ne, tl.vertex_slots()),
                counts::gradient(ne, nv),
            ),
            None => (counts::flux(ne), counts::gradient(ne, nv)),
        };
        let models: [KernelCounts; 5] = [
            flux,
            gradient,
            counts::jacobian(ne, nv),
            counts::ilu_factor(&factors),
            counts::trsv(&factors),
        ];
        for ((name, model), total) in KERNELS.iter().zip(models).zip(self.totals.iter_mut()) {
            let calls = profile.calls(name) as f64;
            total.0 += profile.seconds(name);
            total.1 += (model.bytes_read + model.bytes_written) as f64 * calls;
            total.2 += model.flops as f64 * calls;
        }
    }

    /// Puts `kernel.<k>_s` (scaled by `per`), `_gbps` and `_flop_per_byte`.
    pub fn put(&self, out: &mut Metrics, per: f64) {
        for (name, &(secs, bytes, flops)) in KERNELS.iter().zip(&self.totals) {
            out.put(format!("kernel.{name}_s"), secs * per, "s");
            out.put(
                format!("kernel.{name}_gbps"),
                if secs > 0.0 { bytes / secs / 1e9 } else { 0.0 },
                "GB/s",
            );
            out.put(
                format!("kernel.{name}_flop_per_byte"),
                if bytes > 0.0 { flops / bytes } else { 0.0 },
                "flop/B",
            );
        }
    }
}

/// The traced run: the measured solve again with every layer call timed,
/// then the kernel, thread and 1-thread context around it.
fn traced(run: &Run, checks: &mut Checks, tally: &mut Tally, out: &mut Metrics) {
    let setup_span = trace::next_id();
    let t = Instant::now();
    let (mut app, [build_s, rcm_s, app_s]) = set_up(THREADS, setup_span);
    trace::record_as(setup_span, "setup", 0, 0, t, Instant::now());
    let mut measured_slot = None;

    // The first solve on a pool also runs the execution policy's
    // sync-cost probe (its regions count in that solve), so the traced
    // solve is compared with the second, untraced one.
    for what in ["first solve", "measured solve"] {
        let s = solve(run, &mut app);
        tally.attempted += 1;
        check_converged(checks, tally, what, &s);
        measured_slot = Some(s);
    }
    let measured = measured_slot.expect("two untraced solves ran");

    app.reset_for_reuse();
    let u0 = app.initial_state();
    let solve_span = trace::next_id();
    let t = Instant::now();
    let mut wrapper = TracedApp::new(&mut app, solve_span, 1);
    let traced = solve_from(&mut wrapper, u0, &ptc_config(run));
    trace::record_as(solve_span, "solver.ptc_solve", 0, 1, t, Instant::now());
    tally.attempted += 1;
    check_converged(checks, tally, "traced solve", &traced);
    let residual_s = wrapper.residual.seconds();
    let residual_calls = wrapper.residual.calls();
    let build_pc_s = wrapper.precond_build.seconds();
    let build_pc_calls = wrapper.precond_build.calls();
    let apply_s = wrapper.precond_apply.seconds();
    let apply_calls = wrapper.precond_apply.calls();
    let krylov_self_s = traced.wall_s - residual_s - build_pc_s - apply_s;
    checks.require(krylov_self_s >= 0.0, || {
        format!(
            "traced children ({:.6} s) exceed the traced solve wall ({:.6} s)",
            traced.wall_s - krylov_self_s,
            traced.wall_s
        )
    });
    let mut traced_hash = state_hash(&traced.u);
    if run.fault == Some(Fault::PerturbHash) {
        traced_hash ^= 1;
    }
    checks.require(traced_hash == state_hash(&measured.u), || {
        "traced state hash differs from the measured solve's".to_string()
    });
    checks.require(
        traced.stats.linear_iters == measured.stats.linear_iters,
        || {
            format!(
                "traced solve ran {} linear iterations, measured {}",
                traced.stats.linear_iters, measured.stats.linear_iters
            )
        },
    );
    checks.require(traced.regions == measured.regions, || {
        format!(
            "traced solve launched {} regions, measured {}",
            traced.regions, measured.regions
        )
    });

    let mut kernels = KernelTotals::default();
    kernels.add(&app, &app.profile());
    kernels.put(out, 1.0);

    let iters = measured.stats.linear_iters.max(1) as f64;
    let sync = app.solver_pool().map(|p| SyncCosts::measure(&p));
    let measured_u = measured.u.clone();
    drop(app);
    let serial = baseline(run, checks, tally, &measured_u);

    out.put("mesh.build_s", build_s, "s");
    out.put("mesh.rcm_s", rcm_s, "s");
    out.put("core.app_build_s", app_s, "s");
    out.put("core.residual_s", residual_s, "s");
    out.put("core.residual_calls", residual_calls as f64, "count");
    out.put("core.precond_build_s", build_pc_s, "s");
    out.put("core.precond_build_calls", build_pc_calls as f64, "count");
    out.put("sparse.precond_apply_s", apply_s, "s");
    out.put("sparse.precond_apply_calls", apply_calls as f64, "count");
    out.put("solver.traced_solve_s", traced.wall_s, "s");
    out.put("solver.krylov_self_s", krylov_self_s, "s");
    out.put(
        "solver.time_steps",
        measured.stats.time_steps as f64,
        "count",
    );
    out.put(
        "solver.linear_iters",
        measured.stats.linear_iters as f64,
        "count",
    );
    out.put("solver.serial_solve_s", serial.wall_s, "s");
    out.put(
        "solver.speedup_2t",
        serial.wall_s / measured.wall_s,
        "ratio",
    );
    out.put(
        "threads.regions_per_iter",
        measured.regions as f64 / iters,
        "count",
    );
    out.put(
        "threads.barriers_per_iter",
        measured.barriers as f64 / iters,
        "count",
    );
    out.put(
        "threads.region_launch_us",
        sync.map_or(0.0, |c| c.region_launch_s * 1e6),
        "us",
    );
    out.put(
        "threads.barrier_us",
        sync.map_or(0.0, |c| c.barrier_phase_s * 1e6),
        "us",
    );
    out.put(
        "trace.overhead_frac",
        traced.wall_s / measured.wall_s - 1.0,
        "ratio",
    );
    println!(
        "solve-medium traced: measured {:.4} s, traced {:.4} s = residual {residual_s:.4} + precond build {build_pc_s:.4} + precond apply {apply_s:.4} + krylov self {krylov_self_s:.4}; exec={}",
        measured.wall_s, traced.wall_s, measured.stats.exec
    );
    run.provenance("unknowns", &PRESET.unknowns().to_string());
}
