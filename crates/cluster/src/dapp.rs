//! The distributed nonlinear application: rank-parallel PETSc-FUN3D.
//!
//! Each rank owns a subdomain of the mesh and runs the full ΨNKS stack
//! through real message passing, on the same kernels as the serial
//! application:
//!
//! * residual: halo-exchange state → `fun3d_core`'s Green-Gauss gradient
//!   → halo-exchange gradients → its second-order Roe flux and boundary
//!   fluxes, all over the owned + ghost vertices of the subdomain. Every
//!   edge touching an owned vertex is local, so the owned entries are
//!   exact; the ghost entries are partial and are overwritten (gradients,
//!   by the exchange) or ignored (residual);
//! * Jacobian: `fun3d_core`'s first-order assembly over the local edges
//!   (the owned rows are complete), pseudo-time shift, per-rank ILU of
//!   the owned-owned block (zero-overlap additive Schwarz);
//! * linear solve: `fun3d_solver`'s [`Gmres`] on a matrix-free
//!   [`FdJacobian`] of the distributed residual, with [`Comm`] as the
//!   hook that allreduces every inner product;
//! * pseudo-transient continuation with SER time-step growth, with the
//!   residual norm agreed by allreduce so every rank steps identically.
//!
//! This is the execution model of the paper's multi-node experiments
//! (Section VI.B): MPI-only when every rank is one core, "Hybrid" when a
//! rank spans a socket. In-process, ranks are threads.

use crate::comm::Comm;
use crate::decompose::{Decomposition, Subdomain};
use crate::dsolve::{halo_exchange, halo_exchange_stride, local_ilu};
use fun3d_core::bc::{self, BcData};
use fun3d_core::euler::FlowConditions;
use fun3d_core::geom::{EdgeGeom, NodeAos};
use fun3d_core::{flux, gradient, jacobian};
use fun3d_mesh::{DualMesh, Mesh};
use fun3d_solver::precond::SerialIlu;
use fun3d_solver::vecops::{self, global_norm2};
use fun3d_solver::{FdJacobian, Gmres, GmresConfig};
use fun3d_sparse::Bcsr4;
use std::cell::RefCell;

/// Immutable global inputs shared (read-only) by all ranks.
pub struct GlobalSetup {
    /// The mesh.
    pub mesh: Mesh,
    /// Dual metrics.
    pub dual: DualMesh,
    /// Global edge geometry.
    pub geom: EdgeGeom,
    /// Global boundary table.
    pub bc: BcData,
    /// Flow conditions.
    pub cond: FlowConditions,
    /// The decomposition.
    pub decomp: Decomposition,
}

impl GlobalSetup {
    /// Decomposes a mesh over `nranks`.
    pub fn new(mesh: Mesh, cond: FlowConditions, nranks: usize) -> GlobalSetup {
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let bc = BcData::build(&dual);
        let decomp = Decomposition::build(mesh.nvertices(), &geom.edges, nranks);
        GlobalSetup {
            mesh,
            dual,
            geom,
            bc,
            cond,
            decomp,
        }
    }
}

/// One rank's local problem data.
pub struct RankApp<'a> {
    /// Shared read-only globals.
    pub setup: &'a GlobalSetup,
    /// This rank's subdomain.
    pub sub: Subdomain,
    /// Geometry of the subdomain's edges, in local vertex ids.
    geom: EdgeGeom,
    /// Boundary entries of the owned vertices, in local vertex ids.
    bc: BcData,
    /// Dual volumes of the local (owned + ghost) vertices.
    vol: Vec<f64>,
    /// First-order Jacobian on the local edge pattern; only the owned
    /// rows are complete and used.
    jac: Bcsr4,
    precond: Option<SerialIlu>,
}

impl<'a> RankApp<'a> {
    /// Builds rank `rank`'s local problem.
    pub fn new(setup: &'a GlobalSetup, rank: usize) -> RankApp<'a> {
        let sub = setup.decomp.subdomains[rank].clone();
        let pick = |field: &[f64]| sub.edge_gids.iter().map(|&e| field[e as usize]).collect();
        let g = &setup.geom;
        let geom = EdgeGeom {
            edges: sub.edges.clone(),
            nx: pick(&g.nx),
            ny: pick(&g.ny),
            nz: pick(&g.nz),
            rx: pick(&g.rx),
            ry: pick(&g.ry),
            rz: pick(&g.rz),
        };
        let g2l: std::collections::HashMap<u32, u32> = sub
            .owned
            .iter()
            .enumerate()
            .map(|(l, &g)| (g, l as u32))
            .collect();
        let mut bc = BcData {
            vertex: Vec::new(),
            nx: Vec::new(),
            ny: Vec::new(),
            nz: Vec::new(),
            tag: Vec::new(),
        };
        for i in 0..setup.bc.len() {
            if let Some(&l) = g2l.get(&setup.bc.vertex[i]) {
                bc.vertex.push(l);
                bc.nx.push(setup.bc.nx[i]);
                bc.ny.push(setup.bc.ny[i]);
                bc.nz.push(setup.bc.nz[i]);
                bc.tag.push(setup.bc.tag[i]);
            }
        }
        let vol = sub
            .owned
            .iter()
            .chain(&sub.ghosts)
            .map(|&g| setup.dual.vol[g as usize])
            .collect();
        let jac = Bcsr4::from_edges(sub.nlocal(), &sub.edges);
        RankApp {
            setup,
            sub,
            geom,
            bc,
            vol,
            jac,
            precond: None,
        }
    }

    /// Owned scalar unknowns.
    pub fn nowned4(&self) -> usize {
        self.sub.nowned() * 4
    }

    /// Local scalar unknowns (owned + ghost).
    pub fn nlocal4(&self) -> usize {
        self.sub.nlocal() * 4
    }

    /// Free-stream local state.
    pub fn initial_state(&self) -> NodeAos {
        let mut node = NodeAos::zeros(self.sub.nlocal());
        node.set_freestream(&self.setup.cond.qinf);
        node
    }

    /// Distributed residual. `node` holds the local state (owned part
    /// significant on entry; ghosts, then gradients, refreshed here);
    /// `r` (`nlocal4` long) receives the residual, significant on the
    /// owned entries.
    pub fn residual(&self, comm: &Comm, node: &mut NodeAos, r: &mut [f64]) {
        halo_exchange(comm, &self.sub, &mut node.q);
        gradient::green_gauss(&self.geom, &self.bc, &self.vol, node);
        halo_exchange_stride(comm, &self.sub, &mut node.grad, 12);
        r.iter_mut().for_each(|x| *x = 0.0);
        flux::serial_aos(&self.geom, node, self.setup.cond.beta, r);
        bc::residual(&self.bc, node, &self.setup.cond, r);
    }

    /// The pseudo-time diagonal `V/Δt` per local unknown (over `β` on
    /// the pressure equation).
    fn time_shift(&self, dt: f64) -> Vec<f64> {
        let beta = self.setup.cond.beta;
        self.vol
            .iter()
            .flat_map(|&v| {
                let vdt = v / dt;
                [vdt / beta, vdt, vdt, vdt]
            })
            .collect()
    }

    /// Assembles the first-order Jacobian, adds the pseudo-time shift,
    /// and refreshes the per-rank ILU factors. `node` must have current
    /// ghost values.
    pub fn build_preconditioner(&mut self, node: &NodeAos, dt: f64, fill: usize) {
        let shift = self.time_shift(dt);
        jacobian::assemble(&self.geom, &self.bc, node, &self.setup.cond, &mut self.jac);
        jacobian::add_time_diagonal(&mut self.jac, &shift);
        self.precond = Some(local_ilu(&self.jac, &self.sub, fill));
    }
}

/// Per-rank outcome of a distributed pseudo-transient solve.
#[derive(Clone, Debug)]
pub struct DistPtcStats {
    /// Pseudo-time steps.
    pub time_steps: usize,
    /// Total linear iterations.
    pub linear_iters: usize,
    /// Global residual norms per step.
    pub res_history: Vec<f64>,
    /// Converged?
    pub converged: bool,
}

/// Runs the distributed ΨNKS solve on one rank (call from every rank of
/// a [`crate::comm::Universe`]). Returns the owned state and statistics
/// (identical stats on every rank).
pub fn solve(
    comm: &Comm,
    app: &mut RankApp<'_>,
    dt0: f64,
    rtol: f64,
    max_steps: usize,
    fill: usize,
) -> (Vec<f64>, DistPtcStats) {
    let n = app.nowned4();
    let mut node = app.initial_state();
    let mut r = vec![0.0; app.nlocal4()];
    app.residual(comm, &mut node, &mut r);
    let res0 = global_norm2(comm, &r[..n]);
    let mut res = res0;
    let mut stats = DistPtcStats {
        time_steps: 0,
        linear_iters: 0,
        res_history: vec![res0],
        converged: false,
    };
    let mut gmres = Gmres::new(
        n,
        GmresConfig {
            restart: 30,
            rtol: 1e-3,
            max_iters: 200,
            ..Default::default()
        },
    );
    // Perturbed state and residual of the matrix-free operator.
    let scratch = RefCell::new((app.initial_state(), vec![0.0; app.nlocal4()]));

    for step in 0..max_steps {
        let dt = (dt0 * res0 / res).min(1e12);
        app.build_preconditioner(&node, dt, fill);

        // matrix-free distributed GMRES on (V/Δt + J) δ = −r
        let shift = app.time_shift(dt);
        let rhs: Vec<f64> = r[..n].iter().map(|x| -x).collect();
        let mut delta = vec![0.0; n];
        let app: &RankApp = app;
        let residual = |u: &[f64], ru: &mut [f64]| {
            let (unode, rl) = &mut *scratch.borrow_mut();
            unode.q[..n].copy_from_slice(u);
            app.residual(comm, unode, rl);
            ru.copy_from_slice(&rl[..n]);
        };
        let jac = FdJacobian::new(residual, &node.q[..n], &r[..n], &shift[..n]).with_sum(comm);
        let precond = app.precond.as_ref().expect("preconditioner built");
        let lin = gmres.solve_global(&jac, precond, &rhs, &mut delta, comm);
        stats.linear_iters += lin.iterations;
        vecops::axpy(&mut node.q[..n], 1.0, &delta);
        app.residual(comm, &mut node, &mut r);
        res = global_norm2(comm, &r[..n]);
        stats.time_steps = step + 1;
        stats.res_history.push(res);
        if res <= rtol * res0 {
            stats.converged = true;
            break;
        }
        if !res.is_finite() {
            break;
        }
    }
    (node.q[..n].to_vec(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Universe;
    use fun3d_core::{Fun3dApp, OptConfig};
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_solver::ptc::PtcConfig;

    fn serial_reference() -> (Mesh, Vec<f64>) {
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        let mut app = Fun3dApp::new(mesh.clone(), FlowConditions::default(), OptConfig::baseline());
        let (u, stats) = app.run(&PtcConfig {
            dt0: 2.0,
            rtol: 1e-8,
            max_steps: 80,
            ..Default::default()
        });
        assert!(stats.converged);
        (mesh, u)
    }

    fn distributed_solution(mesh: &Mesh, nranks: usize) -> Vec<f64> {
        let setup = GlobalSetup::new(mesh.clone(), FlowConditions::default(), nranks);
        let setup_ref = &setup;
        let results = Universe::run(nranks, move |comm| {
            let mut app = RankApp::new(setup_ref, comm.rank());
            let (u, stats) = solve(&comm, &mut app, 2.0, 1e-8, 80, 1);
            assert!(stats.converged, "rank {} diverged", comm.rank());
            (app.sub.owned.clone(), u)
        });
        let n = mesh.nvertices() * 4;
        let mut ug = vec![0.0; n];
        for (owned, u) in results {
            for (l, &g) in owned.iter().enumerate() {
                ug[g as usize * 4..g as usize * 4 + 4].copy_from_slice(&u[l * 4..l * 4 + 4]);
            }
        }
        ug
    }

    #[test]
    fn distributed_residual_matches_serial_residual() {
        // The masked distributed residual, stitched over ranks, must equal
        // the serial residual of the same state bit-for-bit in structure
        // (same discretization; FP order differs only in gradient halo
        // rounding — expect agreement to tight tolerance).
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        let cond = FlowConditions::default();

        // serial residual at a randomized state
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let bc = BcData::build(&dual);
        let mut node = fun3d_core::NodeAos::zeros(mesh.nvertices());
        node.set_freestream(&cond.qinf);
        let mut rng = fun3d_util::Rng64::new(77);
        for x in node.q.iter_mut() {
            *x += rng.range_f64(-0.05, 0.05);
        }
        let ug = node.q.clone();
        fun3d_core::gradient::green_gauss(&geom, &bc, &dual.vol, &mut node);
        let mut r_serial = vec![0.0; mesh.nvertices() * 4];
        fun3d_core::flux::serial_aos(&geom, &node, cond.beta, &mut r_serial);
        fun3d_core::bc::residual(&bc, &node, &cond, &mut r_serial);

        // distributed residual at the same state
        let nranks = 3;
        let setup = GlobalSetup::new(mesh.clone(), cond, nranks);
        let setup_ref = &setup;
        let ug_ref = &ug;
        let results = Universe::run(nranks, move |comm| {
            let app = RankApp::new(setup_ref, comm.rank());
            let mut node = fun3d_core::NodeAos::zeros(app.sub.nlocal());
            for (l, &g) in app.sub.owned.iter().enumerate() {
                node.q[l * 4..l * 4 + 4]
                    .copy_from_slice(&ug_ref[g as usize * 4..g as usize * 4 + 4]);
            }
            let mut r = vec![0.0; app.nlocal4()];
            app.residual(&comm, &mut node, &mut r);
            (app.sub.owned.clone(), r)
        });
        let mut r_dist = vec![0.0; mesh.nvertices() * 4];
        for (owned, r) in results {
            for (l, &g) in owned.iter().enumerate() {
                r_dist[g as usize * 4..g as usize * 4 + 4]
                    .copy_from_slice(&r[l * 4..l * 4 + 4]);
            }
        }
        let scale = r_serial.iter().map(|x| x.abs()).fold(0.0, f64::max);
        for i in 0..r_serial.len() {
            assert!(
                (r_serial[i] - r_dist[i]).abs() < 1e-11 * scale.max(1.0),
                "entry {i}: serial {} vs dist {}",
                r_serial[i],
                r_dist[i]
            );
        }
    }

    #[test]
    fn distributed_nonlinear_solve_matches_serial() {
        let (mesh, u_serial) = serial_reference();
        for nranks in [1usize, 3] {
            let u_dist = distributed_solution(&mesh, nranks);
            let diff: f64 = u_serial
                .iter()
                .zip(&u_dist)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let norm: f64 = u_serial.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(
                diff < 1e-4 * norm,
                "nranks={nranks}: states differ by {diff} (norm {norm})"
            );
        }
    }
}
