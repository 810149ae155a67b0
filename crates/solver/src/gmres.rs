//! Left-preconditioned restarted GMRES with classical Gram-Schmidt.
//!
//! This mirrors PETSc's default KSP configuration for PETSc-FUN3D:
//! GMRES(30), left preconditioning, classical Gram-Schmidt
//! orthogonalization (the `VecMDot`/`VecMAXPY`-heavy variant whose vector
//! primitives show up in the paper's profile), and a Givens-rotation
//! least-squares update so the residual norm is available every iteration
//! without forming the solution.
//!
//! The restart loop, the Givens rotations, the back-substitution and the
//! stopping rules are written once (`drive`). An executor supplies only
//! the vector work of three steps (`Step`): the cycle-start residual,
//! one Arnoldi step, and the solution update. Three executors
//! ([`GmresExec`]):
//!
//! * **Serial** — stock single-threaded vector ops (the baseline).
//! * **PerOp** — region-per-op threading: every vector op, SpMV, and
//!   triangular sweep launches its own pool region (how "parallelize the
//!   kernels one by one" naturally composes, and what the paper's
//!   fork-join overhead measurements are about).
//! * **Team** — persistent SPMD regions: each Arnoldi iteration (SpMV →
//!   preconditioner → orthogonalization → basis update) runs inside
//!   **one** region, with [`SpinBarrier`](fun3d_threads::SpinBarrier)
//!   phases instead of region boundaries and tree reductions instead of
//!   per-op rendezvous.
//!
//! Serial and PerOp share one step, whose every inner product is a local
//! partial made global by a [`GlobalSum`] hook. In one address space the
//! hook is the identity ([`LocalSum`]). On a rank of a distributed solve
//! it is the allreduce ([`Gmres::solve_global`]): the distributed solver
//! is this one with another hook, single-reduction mode included, and
//! [`GmresResult::reductions`] counts its allreduces.
//!
//! PerOp and Team share identical chunking and thread-order reductions,
//! so at a fixed thread count they produce bitwise-identical iterates and
//! residual histories — the persistent-region restructuring changes only
//! synchronization cost, not numerics.

use crate::op::LinearOperator;
use crate::precond::Preconditioner;
use crate::team as team_ops;
use crate::vecops::{self, GlobalSum, LocalSum};
use fun3d_threads::{Team, TeamSlice, ThreadPool};

/// GMRES parameters.
#[derive(Clone, Copy, Debug)]
pub struct GmresConfig {
    /// Restart length (PETSc default 30).
    pub restart: usize,
    /// Relative tolerance on the preconditioned residual.
    pub rtol: f64,
    /// Absolute tolerance on the preconditioned residual.
    pub atol: f64,
    /// Iteration cap across restarts.
    pub max_iters: usize,
    /// Fuse the Gram-Schmidt coefficients and the new basis vector's norm
    /// into a single reduction per iteration ("l1-GMRES", the direction of
    /// Ghysels et al. [28] the paper lists as future work): `‖w⊥‖² =
    /// ‖w‖² − Σᵢ hᵢ²` by Pythagoras, so the separate norm reduction
    /// disappears. Halves the allreduce count at a small numerical-
    /// robustness cost (guarded by a re-normalization fallback).
    pub single_reduction: bool,
}

impl Default for GmresConfig {
    fn default() -> Self {
        GmresConfig {
            restart: 30,
            rtol: 1e-6,
            atol: 1e-50,
            max_iters: 1000,
            single_reduction: false,
        }
    }
}

/// How the solve is executed (see module docs).
#[derive(Clone, Copy)]
pub enum GmresExec<'p> {
    /// Single-threaded vector ops.
    Serial,
    /// Region-per-op threading on the given pool.
    PerOp(&'p ThreadPool),
    /// Persistent SPMD regions on the given pool: one region per Arnoldi
    /// iteration.
    Team(&'p ThreadPool),
    /// Pick Serial / PerOp / Team per solve from the machine model plus
    /// the measured sync costs of this pool
    /// ([`AutoPolicy`](crate::policy::AutoPolicy)): serial below the
    /// size where the pool's threads can amortize region-launch and
    /// barrier cost, the cheapest parallel scheme above it.
    Auto(&'p ThreadPool),
}

/// Why GMRES stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GmresOutcome {
    /// Hit the relative tolerance.
    ConvergedRtol,
    /// Hit the absolute tolerance.
    ConvergedAtol,
    /// Ran out of iterations.
    MaxIterations,
    /// Arnoldi produced a zero vector: solution is exact in the subspace.
    Breakdown,
}

/// Result of a solve.
#[derive(Clone, Debug)]
pub struct GmresResult {
    /// Why iteration stopped.
    pub outcome: GmresOutcome,
    /// Iterations performed (matrix applications).
    pub iterations: usize,
    /// Final preconditioned residual norm.
    pub residual: f64,
    /// Initial preconditioned residual norm.
    pub residual0: f64,
    /// Global reductions performed: dot-product/norm rounds, each one
    /// [`GlobalSum::global_sum`] call. On a rank
    /// ([`Gmres::solve_global`]) that is the measured number of
    /// allreduces. Standard CGS-GMRES performs 2 per iteration;
    /// single-reduction mode 1.
    pub reductions: usize,
    /// Per-iteration Givens residual norms, in iteration order across
    /// restarts. Execution-path equivalence is asserted on this.
    pub history: Vec<f64>,
    /// The concrete execution scheme that ran (`"serial"`, `"per-op"`,
    /// `"team"`) — for [`GmresExec::Auto`], whichever the policy chose.
    pub exec: &'static str,
}

impl GmresResult {
    /// True unless the solve ran out of iterations.
    pub fn converged(&self) -> bool {
        self.outcome != GmresOutcome::MaxIterations
    }
}

/// Shared-reference wrapper asserting team-call safety for trait objects
/// captured by a region closure.
///
/// SAFETY: inside regions the wrapped reference is only used through the
/// `apply_team` methods, whose trait contracts require data-race freedom
/// under concurrent calls from one team (the default `Preconditioner`
/// implementation confines `self` to the barrier-ordered leader, so even
/// non-`Sync` preconditioners are sound). Operators are dereferenced
/// in-region only when `team_capable()` holds.
struct AssertTeamSafe<'a, T: ?Sized>(&'a T);
unsafe impl<T: ?Sized> Sync for AssertTeamSafe<'_, T> {}
unsafe impl<T: ?Sized> Send for AssertTeamSafe<'_, T> {}

impl<T: ?Sized> AssertTeamSafe<'_, T> {
    /// Accessor (rather than field access) so region closures capture the
    /// wrapper — 2021-edition closures capture individual fields, which
    /// would reintroduce the raw non-`Sync` reference.
    fn get(&self) -> &T {
        self.0
    }
}

/// Workspace-owning GMRES solver (buffers reused across calls).
pub struct Gmres {
    /// Configuration.
    pub config: GmresConfig,
    basis: Vec<Vec<f64>>,
    h: Vec<f64>, // Hessenberg, column-major (restart+1) x restart
    work: Vec<f64>,
    work2: Vec<f64>,
}

impl Gmres {
    /// Creates a solver for vectors of length `n`.
    pub fn new(n: usize, config: GmresConfig) -> Self {
        Gmres {
            config,
            basis: (0..config.restart + 1).map(|_| vec![0.0; n]).collect(),
            h: vec![0.0; (config.restart + 1) * config.restart],
            work: vec![0.0; n],
            work2: vec![0.0; n],
        }
    }

    /// Solves `A x = b` with left preconditioning, starting from the
    /// current contents of `x` (use zeros for a fresh solve). Serial
    /// execution; see [`Gmres::solve_with`] for the threaded modes.
    pub fn solve(
        &mut self,
        a: &dyn LinearOperator,
        m: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
    ) -> GmresResult {
        self.solve_with(a, m, b, x, GmresExec::Serial)
    }

    /// Solves one rank's share of a distributed system with serial vector
    /// ops. `a`, `m`, `b` and `x` cover this rank's owned entries (the
    /// operator does its own halo exchange), and `sum` makes each local
    /// partial inner product global. With [`LocalSum`] this is
    /// [`Gmres::solve`].
    pub fn solve_global(
        &mut self,
        a: &dyn LinearOperator,
        m: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        sum: &dyn GlobalSum,
    ) -> GmresResult {
        self.solve_seq(a, m, b, x, None, sum)
    }

    /// Solves `A x = b` under the chosen execution mode.
    pub fn solve_with(
        &mut self,
        a: &dyn LinearOperator,
        m: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        exec: GmresExec,
    ) -> GmresResult {
        match exec {
            GmresExec::Serial => self.solve_seq(a, m, b, x, None, &LocalSum),
            GmresExec::PerOp(pool) => self.solve_seq(a, m, b, x, Some(pool), &LocalSum),
            GmresExec::Team(pool) => self.solve_team(a, m, b, x, pool),
            GmresExec::Auto(pool) => {
                let decision =
                    crate::policy::AutoPolicy::for_pool(pool).decision(b.len(), pool.size());
                decision.record(b.len(), pool.size());
                let exec = match decision.mode {
                    crate::policy::ExecMode::Serial => GmresExec::Serial,
                    crate::policy::ExecMode::PerOp => GmresExec::PerOp(pool),
                    _ => GmresExec::Team(pool),
                };
                self.solve_with(a, m, b, x, exec)
            }
        }
    }

    /// Serial (`pool: None`) and region-per-op solves.
    fn solve_seq(
        &mut self,
        a: &dyn LinearOperator,
        m: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        pool: Option<&ThreadPool>,
        sum: &dyn GlobalSum,
    ) -> GmresResult {
        check_dims(a, b, x);
        let step = SeqStep {
            a,
            m,
            b,
            x,
            basis: &mut self.basis,
            work: &mut self.work,
            work2: &mut self.work2,
            ops: Ops(pool),
            sum,
            single: self.config.single_reduction,
        };
        let exec = if pool.is_some() { "per-op" } else { "serial" };
        drive(&self.config, &mut self.h, step, exec)
    }

    /// Persistent-SPMD solve (see `TeamStep`).
    fn solve_team(
        &mut self,
        a: &dyn LinearOperator,
        m: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        pool: &ThreadPool,
    ) -> GmresResult {
        check_dims(a, b, x);
        let restart = self.config.restart;
        let step = TeamStep {
            pool,
            team: Team::new(pool.size(), restart + 2),
            hybrid: !a.team_capable(),
            a: AssertTeamSafe(a),
            m: AssertTeamSafe(m),
            single: self.config.single_reduction,
            // Borrow-erased views shared with the region closures. From
            // here on, these buffers are touched only through the views:
            // by the team inside regions, by the main thread between them.
            x: TeamSlice::new(x),
            b: TeamSlice::from_raw(b.as_ptr() as *mut f64, b.len()),
            work: TeamSlice::new(&mut self.work),
            work2: TeamSlice::new(&mut self.work2),
            basis: self.basis.iter_mut().map(|v| TeamSlice::new(v)).collect(),
            mailbox: vec![0.0; restart + 3],
        };
        drive(&self.config, &mut self.h, step, "team")
    }
}

fn check_dims(a: &dyn LinearOperator, b: &[f64], x: &[f64]) {
    let n = b.len();
    assert_eq!(a.dim(), n);
    assert_eq!(x.len(), n);
}

/// The executor-specific vector work of one solve; [`drive`] does the
/// rest. Every method runs its reductions to completion and returns
/// globally agreed scalars.
trait Step {
    /// `r = M⁻¹(b − A x)`; returns `β = ‖r‖` (one reduction) and, unless
    /// `stop(β)`, sets `v₀ = r/β`.
    fn cycle_start(&mut self, stop: impl Fn(f64) -> bool + Sync) -> f64;

    /// `w = M⁻¹ A v_k`, orthogonalized against `v₀..=v_k` by classical
    /// Gram-Schmidt. Writes the coefficients to `col[..=k]` and `‖w⊥‖` to
    /// `col[k + 1]`, sets `v_{k+1} = w⊥/‖w⊥‖` unless `‖w⊥‖ ≤ breakdown`,
    /// and returns the reductions it performed.
    fn arnoldi(&mut self, k: usize, breakdown: f64, col: &mut [f64]) -> usize;

    /// `x += V y` over the first `y.len()` basis vectors.
    fn update(&mut self, y: &[f64]);
}

/// Restarted GMRES(m) over any [`Step`]: restart control, Givens least
/// squares, back-substitution and the stopping rules.
fn drive(
    config: &GmresConfig,
    h: &mut [f64],
    mut step: impl Step,
    exec: &'static str,
) -> GmresResult {
    let restart = config.restart;
    let (atol, rtol) = (config.atol, config.rtol);
    let converged = |res: f64, res0: f64| {
        if res <= atol {
            Some(GmresOutcome::ConvergedAtol)
        } else if res <= rtol * res0 {
            Some(GmresOutcome::ConvergedRtol)
        } else {
            None
        }
    };
    let mut out = GmresResult {
        outcome: GmresOutcome::MaxIterations,
        iterations: 0,
        residual: f64::NAN,
        residual0: f64::NAN,
        reductions: 0,
        history: Vec::new(),
        exec,
    };

    loop {
        // Cycle start: r = M⁻¹(b − A x), β = ‖r‖, v₀ = r/β.
        let r0 = out.residual0;
        let beta =
            step.cycle_start(|beta| converged(beta, if r0.is_nan() { beta } else { r0 }).is_some());
        out.reductions += 1;
        if out.residual0.is_nan() {
            out.residual0 = beta;
        }
        out.residual = beta;
        if let Some(outcome) = converged(beta, out.residual0) {
            out.outcome = outcome;
            return out;
        }
        let mut g = vec![0.0; restart + 1];
        g[0] = beta;
        let mut cs = vec![0.0; restart];
        let mut sn = vec![0.0; restart];
        let mut k_done = 0usize;
        let mut finished: Option<GmresOutcome> = None;

        for k in 0..restart {
            if out.iterations >= config.max_iters {
                finished = Some(GmresOutcome::MaxIterations);
                break;
            }
            out.iterations += 1;
            let col = &mut h[k * (restart + 1)..(k + 1) * (restart + 1)];
            let breakdown = 1e-14 * out.residual.max(1.0);
            out.reductions += step.arnoldi(k, breakdown, col);
            k_done = k + 1;
            if col[k + 1] <= breakdown {
                finished = Some(GmresOutcome::Breakdown);
            }
            // apply existing Givens rotations to column k
            for i in 0..k {
                let t = cs[i] * col[i] + sn[i] * col[i + 1];
                col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1];
                col[i] = t;
            }
            // new rotation to kill col[k+1]
            let (c, s) = givens(col[k], col[k + 1]);
            cs[k] = c;
            sn[k] = s;
            col[k] = c * col[k] + s * col[k + 1];
            col[k + 1] = 0.0;
            let t = c * g[k] + s * g[k + 1];
            g[k + 1] = -s * g[k] + c * g[k + 1];
            g[k] = t;
            out.residual = g[k + 1].abs();
            out.history.push(out.residual);

            if let Some(outcome) = converged(out.residual, out.residual0) {
                finished = Some(outcome);
            }
            if finished.is_some() {
                break;
            }
        }

        // back-substitute y from the triangularized Hessenberg
        let kk = k_done;
        let mut y = vec![0.0; kk];
        for i in (0..kk).rev() {
            let mut acc = g[i];
            for j in i + 1..kk {
                acc -= h[j * (restart + 1) + i] * y[j];
            }
            y[i] = acc / h[i * (restart + 1) + i];
        }
        step.update(&y);

        if let Some(outcome) = finished {
            out.outcome = outcome;
            return out;
        }
        if out.iterations >= config.max_iters {
            out.outcome = GmresOutcome::MaxIterations;
            return out;
        }
        // restart
    }
}

fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else {
        let r = (a * a + b * b).sqrt();
        (a / r, b / r)
    }
}

/// Vector ops dispatched per call: serial (`None`) or one pool region
/// per op.
#[derive(Clone, Copy)]
struct Ops<'p>(Option<&'p ThreadPool>);

impl Ops<'_> {
    fn apply(self, a: &dyn LinearOperator, x: &[f64], y: &mut [f64]) {
        match self.0 {
            None => a.apply(x, y),
            Some(p) => a.apply_parallel(p, x, y),
        }
    }

    fn bsub(self, w: &mut [f64], b: &[f64]) {
        match self.0 {
            None => vecops::bsub(w, b),
            Some(p) => vecops::par::bsub(p, w, b),
        }
    }

    fn dot(self, x: &[f64], y: &[f64]) -> f64 {
        match self.0 {
            None => vecops::dot(x, y),
            Some(p) => vecops::par::dot(p, x, y),
        }
    }

    fn mdot(self, x: &[f64], ys: &[&[f64]], out: &mut [f64]) {
        match self.0 {
            None => vecops::mdot(x, ys, out),
            Some(p) => vecops::par::mdot(p, x, ys, out),
        }
    }

    fn maxpy(self, y: &mut [f64], alpha: &[f64], xs: &[&[f64]]) {
        match self.0 {
            None => vecops::maxpy(y, alpha, xs),
            Some(p) => vecops::par::maxpy(p, y, alpha, xs),
        }
    }

    fn div_into(self, dst: &mut [f64], src: &[f64], s: f64) {
        match self.0 {
            None => vecops::div_into(dst, src, s),
            Some(p) => vecops::par::div_into(p, dst, src, s),
        }
    }
}

/// Serial and region-per-op step: each op dispatched per call site, each
/// inner product a local partial made global by `sum`.
struct SeqStep<'a> {
    a: &'a dyn LinearOperator,
    m: &'a dyn Preconditioner,
    b: &'a [f64],
    x: &'a mut [f64],
    basis: &'a mut [Vec<f64>],
    work: &'a mut [f64],
    work2: &'a mut [f64],
    ops: Ops<'a>,
    sum: &'a dyn GlobalSum,
    single: bool,
}

impl SeqStep<'_> {
    /// Global `<x, y>`: one reduction.
    fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        let mut s = [self.ops.dot(x, y)];
        self.sum.global_sum(&mut s);
        s[0]
    }
}

impl Step for SeqStep<'_> {
    fn cycle_start(&mut self, stop: impl Fn(f64) -> bool + Sync) -> f64 {
        let ops = self.ops;
        ops.apply(self.a, self.x, self.work);
        ops.bsub(self.work, self.b);
        self.m.apply(self.work, self.work2);
        let beta = self.dot(self.work2, self.work2).sqrt();
        if !stop(beta) {
            ops.div_into(&mut self.basis[0], self.work2, beta);
        }
        beta
    }

    fn arnoldi(&mut self, k: usize, breakdown: f64, col: &mut [f64]) -> usize {
        let ops = self.ops;
        // w = M^{-1} A v_k
        ops.apply(self.a, &self.basis[k], self.work);
        self.m.apply(self.work, self.work2);
        // classical Gram-Schmidt: h[0..=k] = V^T w, w -= V h. In
        // single-reduction mode, <w,w> joins the same fused mdot and the
        // new norm comes from Pythagoras.
        let refs: Vec<&[f64]> = self.basis[..=k].iter().map(|v| v.as_slice()).collect();
        let (hkk, reductions) = if self.single {
            let mut fused = refs.clone();
            fused.push(self.work2);
            let mut out = vec![0.0; k + 2];
            ops.mdot(self.work2, &fused, &mut out);
            self.sum.global_sum(&mut out);
            let ww = out.pop().unwrap();
            let neg: Vec<f64> = out.iter().map(|c| -c).collect();
            ops.maxpy(self.work2, &neg, &refs);
            col[..=k].copy_from_slice(&out);
            let h2: f64 = out.iter().map(|c| c * c).sum();
            // Pythagoras holds only as far as the basis is orthonormal;
            // one-pass CGS loses orthogonality exactly when the update
            // cancels strongly, so fall back to a direct norm whenever
            // less than 1% of ‖w‖² survives (one extra reduction on those
            // iterations — still fewer on net).
            let hkk2 = ww - h2;
            if hkk2 < 1e-2 * ww {
                (self.dot(self.work2, self.work2).max(0.0).sqrt(), 2)
            } else {
                (hkk2.max(0.0).sqrt(), 1)
            }
        } else {
            let coeffs = &mut col[..=k];
            ops.mdot(self.work2, &refs, coeffs);
            self.sum.global_sum(coeffs);
            let neg: Vec<f64> = coeffs.iter().map(|c| -c).collect();
            ops.maxpy(self.work2, &neg, &refs);
            (self.dot(self.work2, self.work2).sqrt(), 2)
        };
        col[k + 1] = hkk;
        // NaN is not a breakdown: `drive`'s test fails for it too.
        if hkk > breakdown || hkk.is_nan() {
            ops.div_into(&mut self.basis[k + 1], self.work2, hkk);
        }
        reductions
    }

    fn update(&mut self, y: &[f64]) {
        let refs: Vec<&[f64]> = self.basis[..y.len()].iter().map(|v| v.as_slice()).collect();
        self.ops.maxpy(self.x, y, &refs);
    }
}

/// Persistent-SPMD step: one pool region per call (cycle start, each
/// Arnoldi iteration, solution update), barrier phases inside. Operators
/// that are not `team_capable` are applied by the main thread *before*
/// the region (hybrid mode — matrix-free operators launch their own
/// regions).
///
/// The scalar recurrences stay on the main thread in [`drive`]; regions
/// hand back the reduced scalars through `mailbox`.
struct TeamStep<'a> {
    pool: &'a ThreadPool,
    team: Team,
    hybrid: bool,
    a: AssertTeamSafe<'a, dyn LinearOperator + 'a>,
    m: AssertTeamSafe<'a, dyn Preconditioner + 'a>,
    single: bool,
    x: TeamSlice,
    b: TeamSlice,
    work: TeamSlice,
    work2: TeamSlice,
    basis: Vec<TeamSlice>,
    /// Region → main-thread mailbox, leader-written and read between
    /// regions: β at [0] after a cycle start; after Arnoldi step `k`, the
    /// coefficients at [0..=k], `‖w⊥‖` at [k+1] and the extra-reduction
    /// flag at [k+2].
    mailbox: Vec<f64>,
}

impl Step for TeamStep<'_> {
    fn cycle_start(&mut self, stop: impl Fn(f64) -> bool + Sync) -> f64 {
        let (x, b, work, work2, v0) = (self.x, self.b, self.work, self.work2, self.basis[0]);
        let hybrid = self.hybrid;
        if hybrid {
            // SAFETY: no region is active; main thread owns the views.
            unsafe {
                self.a
                    .get()
                    .apply(x.slice(0..x.len()), work.slice_mut(0..work.len()))
            };
        }
        let (a, m, team) = (&self.a, &self.m, &self.team);
        let mailbox = TeamSlice::new(&mut self.mailbox);
        self.pool.run(|tid| {
            // SAFETY: one member per tid per region.
            let tm = unsafe { team.member(tid) };
            if !hybrid {
                // SAFETY: trait contract — team_capable() holds.
                unsafe { a.get().apply_team(&tm, x, work) };
                tm.barrier();
            }
            team_ops::bsub(&tm, work, b);
            tm.barrier();
            // SAFETY: r (work) published by the barrier above.
            unsafe { m.get().apply_team(&tm, work, work2) };
            let beta = team_ops::norm2(&tm, work2);
            if tid == 0 {
                // SAFETY: leader-only write, read after the region.
                unsafe { mailbox.set(0, beta) };
            }
            // Every thread holds identical beta (deterministic tree
            // reduce), so the branch is uniform across the team.
            if !stop(beta) {
                team_ops::div_into(&tm, v0, work2, beta);
            }
        });
        self.mailbox[0]
    }

    fn arnoldi(&mut self, k: usize, breakdown: f64, col: &mut [f64]) -> usize {
        let (work, work2, single, hybrid) = (self.work, self.work2, self.single, self.hybrid);
        if hybrid {
            // SAFETY: no region active.
            unsafe {
                let vk = self.basis[k];
                self.a
                    .get()
                    .apply(vk.slice(0..vk.len()), work.slice_mut(0..work.len()));
            }
        }
        let (a, m, team) = (&self.a, &self.m, &self.team);
        let prefix = &self.basis[..=k];
        let next = self.basis[k + 1];
        let mailbox = TeamSlice::new(&mut self.mailbox);
        // One region: w = M⁻¹ A v_k, CGS orthogonalization, new basis
        // vector. Reduced scalars are identical on every thread, so all
        // branches are uniform across the team.
        self.pool.run(|tid| {
            // SAFETY: one member per tid per region.
            let tm = unsafe { team.member(tid) };
            if !hybrid {
                // SAFETY: v_k published at the previous region's close;
                // trait contract for concurrency.
                unsafe { a.get().apply_team(&tm, prefix[k], work) };
                tm.barrier();
            }
            // SAFETY: work published (barrier above or region entry in
            // hybrid mode).
            unsafe { m.get().apply_team(&tm, work, work2) };
            let mut out = vec![0.0; k + 2];
            let (hkk, extra) = if single {
                let mut list: Vec<TeamSlice> = prefix.to_vec();
                list.push(work2);
                team_ops::mdot(&tm, work2, &list, &mut out);
                let ww = out[k + 1];
                let coeffs = &out[..=k];
                let neg: Vec<f64> = coeffs.iter().map(|c| -c).collect();
                team_ops::maxpy(&tm, work2, &neg, prefix);
                let h2: f64 = coeffs.iter().map(|c| c * c).sum();
                let hkk2 = ww - h2;
                if hkk2 < 1e-2 * ww {
                    (team_ops::dot(&tm, work2, work2).max(0.0).sqrt(), 1.0)
                } else {
                    (hkk2.max(0.0).sqrt(), 0.0)
                }
            } else {
                team_ops::mdot(&tm, work2, prefix, &mut out[..=k]);
                let neg: Vec<f64> = out[..=k].iter().map(|c| -c).collect();
                team_ops::maxpy(&tm, work2, &neg, prefix);
                (team_ops::norm2(&tm, work2), 0.0)
            };
            if tid == 0 {
                // SAFETY: leader-only mailbox writes, read after the region.
                unsafe {
                    for (i, c) in out[..=k].iter().enumerate() {
                        mailbox.set(i, *c);
                    }
                    mailbox.set(k + 1, hkk);
                    mailbox.set(k + 2, extra);
                }
            }
            if hkk > breakdown || hkk.is_nan() {
                team_ops::div_into(&tm, next, work2, hkk);
            }
        });
        col[..k + 2].copy_from_slice(&self.mailbox[..k + 2]);
        if single {
            1 + self.mailbox[k + 2] as usize
        } else {
            2
        }
    }

    fn update(&mut self, y: &[f64]) {
        if y.is_empty() {
            return;
        }
        let (team, x, used) = (&self.team, self.x, &self.basis[..y.len()]);
        self.pool.run(|tid| {
            // SAFETY: one member per tid per region.
            let tm = unsafe { team.member(tid) };
            team_ops::maxpy(&tm, x, y, used);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, SerialIlu};
    use fun3d_sparse::Bcsr4;

    fn mesh_matrix(seed: u64) -> Bcsr4 {
        let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(seed);
        a
    }

    fn check_solution(a: &Bcsr4, b: &[f64], x: &[f64], tol: f64) {
        let n = a.dim();
        let mut ax = vec![0.0; n];
        a.spmv(x, &mut ax);
        let res: f64 = ax
            .iter()
            .zip(b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(res < tol * bnorm, "true residual {res} vs bnorm {bnorm}");
    }

    #[test]
    fn solves_spd_like_system_unpreconditioned() {
        let a = mesh_matrix(71);
        let n = a.dim();
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        let mut x = vec![0.0; n];
        let mut solver = Gmres::new(
            n,
            GmresConfig {
                rtol: 1e-10,
                max_iters: 2000,
                ..Default::default()
            },
        );
        let res = solver.solve(&a, &IdentityPrecond(n), &b, &mut x);
        assert!(matches!(
            res.outcome,
            GmresOutcome::ConvergedRtol | GmresOutcome::ConvergedAtol | GmresOutcome::Breakdown
        ));
        check_solution(&a, &b, &x, 1e-7);
        assert_eq!(res.history.len(), res.iterations);
    }

    #[test]
    fn ilu_preconditioning_cuts_iterations() {
        let a = mesh_matrix(72);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 500,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let r1 = Gmres::new(n, cfg).solve(&a, &IdentityPrecond(n), &b, &mut x1);
        let mut x2 = vec![0.0; n];
        let ilu = SerialIlu::new(&a, 0);
        let r2 = Gmres::new(n, cfg).solve(&a, &ilu, &b, &mut x2);
        assert!(
            r2.iterations * 2 < r1.iterations.max(2),
            "ILU {} vs none {}",
            r2.iterations,
            r1.iterations
        );
        check_solution(&a, &b, &x2, 1e-6);
    }

    #[test]
    fn restart_path_exercised() {
        let a = mesh_matrix(73);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos()).collect();
        let cfg = GmresConfig {
            restart: 5, // force many restarts
            rtol: 1e-8,
            max_iters: 3000,
            ..Default::default()
        };
        let mut x = vec![0.0; n];
        let res = Gmres::new(n, cfg).solve(&a, &IdentityPrecond(n), &b, &mut x);
        assert!(res.iterations > 5, "must restart at least once");
        check_solution(&a, &b, &x, 1e-6);
    }

    #[test]
    fn warm_start_converges_immediately() {
        let a = mesh_matrix(74);
        let n = a.dim();
        let xref: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        let mut x = xref.clone(); // exact initial guess
        let res = Gmres::new(n, GmresConfig::default()).solve(
            &a,
            &IdentityPrecond(n),
            &b,
            &mut x,
        );
        assert!(res.iterations <= 1);
        assert!(res.residual <= 1e-8 * res.residual0.max(1.0));
    }

    #[test]
    fn identity_system_converges_in_one() {
        // A = I via a diagonal BCSR with identity blocks.
        let mut a = Bcsr4::from_pattern(&[vec![0], vec![1]]);
        for r in 0..2 {
            let k = a.find(r, r as u32).unwrap();
            for i in 0..4 {
                a.blocks[k * 16 + i * 4 + i] = 1.0;
            }
        }
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let mut x = vec![0.0; n];
        let res = Gmres::new(n, GmresConfig::default()).solve(
            &a,
            &IdentityPrecond(n),
            &b,
            &mut x,
        );
        assert!(res.iterations <= 2);
        for i in 0..n {
            assert!((x[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn single_reduction_matches_standard() {
        let a = mesh_matrix(76);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
        let cfg = GmresConfig {
            rtol: 1e-9,
            max_iters: 800,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let ilu = SerialIlu::new(&a, 0);
        let r1 = Gmres::new(n, cfg).solve(&a, &ilu, &b, &mut x1);
        let mut cfg2 = cfg;
        cfg2.single_reduction = true;
        let mut x2 = vec![0.0; n];
        let r2 = Gmres::new(n, cfg2).solve(&a, &ilu, &b, &mut x2);
        // identical mathematics, different rounding: iterations within 1.
        assert!(
            (r1.iterations as i64 - r2.iterations as i64).abs() <= 1,
            "{} vs {}",
            r1.iterations,
            r2.iterations
        );
        check_solution(&a, &b, &x2, 1e-6);
    }

    #[test]
    fn single_reduction_reduces_reductions_when_convergence_is_slow() {
        // The fused reduction pays off when the Arnoldi update does not
        // cancel severely — i.e. in the slowly-converging regime where
        // collectives dominate in the first place; with a strong
        // preconditioner the robustness guard falls back to a direct
        // norm (correctness over savings). Use the unpreconditioned
        // system to exercise the winning regime.
        let a = mesh_matrix(77);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let cfg = GmresConfig {
            rtol: 1e-6,
            max_iters: 600,
            ..Default::default()
        };
        let r_std = Gmres::new(n, cfg).solve(&a, &IdentityPrecond(n), &b, &mut vec![0.0; n]);
        let mut cfg1 = cfg;
        cfg1.single_reduction = true;
        let r_one =
            Gmres::new(n, cfg1).solve(&a, &IdentityPrecond(n), &b, &mut vec![0.0; n]);
        let per_std = r_std.reductions as f64 / r_std.iterations.max(1) as f64;
        let per_one = r_one.reductions as f64 / r_one.iterations.max(1) as f64;
        assert!(per_std > 1.8, "standard CGS should do ~2/iter: {per_std}");
        assert!(
            per_one < 1.35,
            "single-reduction should do ~1/iter here: {per_one}"
        );
    }

    #[test]
    fn residual_monotone_triangle() {
        // within a cycle the Givens residual is non-increasing; test via
        // two solves at different tolerances.
        let a = mesh_matrix(75);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let loose = Gmres::new(
            n,
            GmresConfig {
                rtol: 1e-2,
                ..Default::default()
            },
        )
        .solve(&a, &IdentityPrecond(n), &b, &mut vec![0.0; n]);
        let tight = Gmres::new(
            n,
            GmresConfig {
                rtol: 1e-8,
                max_iters: 2000,
                ..Default::default()
            },
        )
        .solve(&a, &IdentityPrecond(n), &b, &mut vec![0.0; n]);
        assert!(tight.iterations >= loose.iterations);
        assert!(tight.residual <= loose.residual);
    }

    // ---- persistent-region (team) execution ----

    use fun3d_threads::ThreadPool;

    fn solve_mode(
        a: &Bcsr4,
        m: &dyn Preconditioner,
        b: &[f64],
        cfg: GmresConfig,
        exec: GmresExec,
    ) -> (GmresResult, Vec<f64>) {
        let n = a.dim();
        let mut x = vec![0.0; n];
        let r = Gmres::new(n, cfg).solve_with(a, m, b, &mut x, exec);
        (r, x)
    }

    #[test]
    fn team_matches_per_op_bitwise_identity_precond() {
        let a = mesh_matrix(81);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 400,
            ..Default::default()
        };
        for nt in [1usize, 2, 4] {
            let pool = ThreadPool::new(nt);
            let m = IdentityPrecond(n);
            let (rp, xp) = solve_mode(&a, &m, &b, cfg, GmresExec::PerOp(&pool));
            let (rt, xt) = solve_mode(&a, &m, &b, cfg, GmresExec::Team(&pool));
            assert_eq!(rp.iterations, rt.iterations, "nt={nt}");
            assert_eq!(rp.history, rt.history, "nt={nt}: residual history must be identical");
            assert_eq!(xp, xt, "nt={nt}: iterates must be bitwise identical");
            assert_eq!(rp.reductions, rt.reductions, "nt={nt}");
        }
    }

    #[test]
    fn team_matches_per_op_bitwise_ilu_levels_and_p2p() {
        let a = mesh_matrix(82);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) - 5.0).collect();
        let cfg = GmresConfig {
            rtol: 1e-9,
            max_iters: 300,
            ..Default::default()
        };
        for nt in [2usize, 4] {
            let pool = std::sync::Arc::new(ThreadPool::new(nt));
            for mode in ["levels", "p2p"] {
                let ilu = match mode {
                    "levels" => SerialIlu::new(&a, 0).with_levels(pool.clone()),
                    _ => SerialIlu::new(&a, 0).with_p2p(pool.clone()),
                };
                let (rp, xp) = solve_mode(&a, &ilu, &b, cfg, GmresExec::PerOp(&pool));
                let (rt, xt) = solve_mode(&a, &ilu, &b, cfg, GmresExec::Team(&pool));
                assert_eq!(rp.history, rt.history, "nt={nt} {mode}");
                assert_eq!(xp, xt, "nt={nt} {mode}");
            }
        }
    }

    #[test]
    fn team_single_reduction_matches_per_op() {
        let a = mesh_matrix(83);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 400,
            single_reduction: true,
            ..Default::default()
        };
        let pool = ThreadPool::new(3);
        let m = IdentityPrecond(n);
        let (rp, xp) = solve_mode(&a, &m, &b, cfg, GmresExec::PerOp(&pool));
        let (rt, xt) = solve_mode(&a, &m, &b, cfg, GmresExec::Team(&pool));
        assert_eq!(rp.history, rt.history);
        assert_eq!(xp, xt);
        assert_eq!(rp.reductions, rt.reductions);
    }

    #[test]
    fn team_one_region_per_iteration() {
        // Single restart cycle: regions = 1 (cycle start) + iterations
        // (one per Arnoldi step) + 1 (x += V y).
        let a = mesh_matrix(84);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
        let cfg = GmresConfig {
            rtol: 1e-6,
            max_iters: 200,
            ..Default::default()
        };
        let pool = std::sync::Arc::new(ThreadPool::new(2));
        let ilu = SerialIlu::new(&a, 0).with_levels(pool.clone());
        let before = pool.regions_launched();
        let (rt, _) = solve_mode(&a, &ilu, &b, cfg, GmresExec::Team(&pool));
        let regions = pool.regions_launched() - before;
        assert!(
            rt.iterations < cfg.restart,
            "test premise: one cycle ({} iters)",
            rt.iterations
        );
        assert_eq!(regions, rt.iterations as u64 + 2);
    }

    #[test]
    fn team_hybrid_mode_for_non_team_operators() {
        // A matrix-free FD Jacobian is not team-capable (it launches its
        // own regions / holds RefCell scratch): the team path must apply
        // it between regions and still converge to the same solution.
        let a = mesh_matrix(85);
        let n = a.dim();
        let residual = |u: &[f64], r: &mut [f64]| a.spmv(u, r);
        let u = vec![0.0; n];
        let mut r0 = vec![0.0; n];
        residual(&u, &mut r0);
        let jac = crate::op::FdJacobian::new(residual, &u, &r0, &[]);
        assert!(!jac.team_capable());
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).sin()).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 600,
            ..Default::default()
        };
        let pool = ThreadPool::new(2);
        let mut x = vec![0.0; n];
        let r = Gmres::new(n, cfg).solve_with(&jac, &IdentityPrecond(n), &b, &mut x, GmresExec::Team(&pool));
        assert!(matches!(
            r.outcome,
            GmresOutcome::ConvergedRtol | GmresOutcome::ConvergedAtol | GmresOutcome::Breakdown
        ));
        check_solution(&a, &b, &x, 1e-6);
    }

    #[test]
    fn result_reports_executed_mode() {
        let a = mesh_matrix(87);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let cfg = GmresConfig {
            rtol: 1e-6,
            max_iters: 200,
            ..Default::default()
        };
        let pool = ThreadPool::new(2);
        let m = IdentityPrecond(n);
        let (r, _) = solve_mode(&a, &m, &b, cfg, GmresExec::Serial);
        assert_eq!(r.exec, "serial");
        let (r, _) = solve_mode(&a, &m, &b, cfg, GmresExec::PerOp(&pool));
        assert_eq!(r.exec, "per-op");
        let (r, _) = solve_mode(&a, &m, &b, cfg, GmresExec::Team(&pool));
        assert_eq!(r.exec, "team");
    }

    #[test]
    fn auto_matches_its_selected_mode_bitwise() {
        // Whatever concrete scheme the policy picks on this machine,
        // Auto must be indistinguishable from running that scheme
        // directly: same residual history, bitwise-identical iterates.
        let a = mesh_matrix(88);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 300,
            ..Default::default()
        };
        for nt in [1usize, 2] {
            let pool = ThreadPool::new(nt);
            let m = IdentityPrecond(n);
            let (ra, xa) = solve_mode(&a, &m, &b, cfg, GmresExec::Auto(&pool));
            let concrete = match ra.exec {
                "serial" => GmresExec::Serial,
                "per-op" => GmresExec::PerOp(&pool),
                "team" => GmresExec::Team(&pool),
                other => panic!("Auto reported unknown exec {other:?}"),
            };
            let (rc, xc) = solve_mode(&a, &m, &b, cfg, concrete);
            assert_eq!(rc.exec, ra.exec, "nt={nt}");
            assert_eq!(ra.history, rc.history, "nt={nt}");
            assert_eq!(xa, xc, "nt={nt}");
            assert_eq!(ra.reductions, rc.reductions, "nt={nt}");
        }
    }

    #[test]
    fn auto_on_single_worker_pool_is_serial() {
        // An nt=1 pool can never amortize sync cost: the policy must
        // resolve Auto to the serial path regardless of problem size.
        let a = mesh_matrix(89);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let cfg = GmresConfig {
            rtol: 1e-6,
            max_iters: 200,
            ..Default::default()
        };
        let pool = ThreadPool::new(1);
        let (r, _) = solve_mode(&a, &IdentityPrecond(n), &b, cfg, GmresExec::Auto(&pool));
        assert_eq!(r.exec, "serial");
    }

    #[test]
    fn serial_path_unchanged_by_refactor() {
        // solve() must still be the stock serial path: same outcome and
        // history as an explicit GmresExec::Serial.
        let a = mesh_matrix(86);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).cos()).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 300,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let r1 = Gmres::new(n, cfg).solve(&a, &IdentityPrecond(n), &b, &mut x1);
        let mut x2 = vec![0.0; n];
        let r2 = Gmres::new(n, cfg).solve_with(&a, &IdentityPrecond(n), &b, &mut x2, GmresExec::Serial);
        assert_eq!(r1.history, r2.history);
        assert_eq!(x1, x2);
    }
}
