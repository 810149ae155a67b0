//! Cross-crate integration: the distributed (rank-parallel) solve path
//! must agree with the serial solver stack on the same system.

use fun3d_cluster::dsolve::DistSystem;
use fun3d_cluster::{Decomposition, Universe};
use fun3d_mesh::generator::MeshPreset;
use fun3d_solver::gmres::{Gmres, GmresConfig};
use fun3d_solver::precond::{IdentityPrecond, SerialIlu};
use fun3d_sparse::Bcsr4;

fn system() -> (usize, Vec<[u32; 2]>, Bcsr4, Vec<f64>) {
    let mesh = MeshPreset::Tiny.build();
    let edges = mesh.edges();
    let nv = mesh.nvertices();
    let mut a = Bcsr4::from_edges(nv, &edges);
    a.fill_diag_dominant(99);
    let n = a.dim();
    let xref: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) * 0.2).collect();
    let mut b = vec![0.0; n];
    a.spmv(&xref, &mut b);
    (nv, edges, a, b)
}

/// GMRES(30) to `rtol` within `max_iters`.
fn config(rtol: f64, max_iters: usize) -> GmresConfig {
    GmresConfig {
        restart: 30,
        rtol,
        max_iters,
        ..Default::default()
    }
}

#[test]
fn distributed_gmres_agrees_with_serial_gmres() {
    let (nv, edges, a, b) = system();
    let n = a.dim();

    // serial reference (global ILU preconditioner)
    let mut x_serial = vec![0.0; n];
    let ilu = SerialIlu::new(&a, 0);
    let res = Gmres::new(
        n,
        GmresConfig {
            rtol: 1e-10,
            max_iters: 500,
            ..Default::default()
        },
    )
    .solve(&a, &ilu, &b, &mut x_serial);
    assert!(res.residual <= 1e-9 * res.residual0.max(1.0) || res.iterations < 500);

    // distributed (4 ranks, block-Jacobi ILU)
    let decomp = Decomposition::build(nv, &edges, 4);
    let subs = decomp.subdomains.clone();
    let a_ref = &a;
    let b_ref = &b;
    let results = Universe::run(4, move |comm| {
        let sub = subs[comm.rank()].clone();
        let sys = DistSystem::new(&comm, a_ref, sub, 0);
        let blocal: Vec<f64> = sys
            .sub
            .owned
            .iter()
            .flat_map(|&g| b_ref[g as usize * 4..g as usize * 4 + 4].to_vec())
            .collect();
        let mut x = vec![0.0; sys.nowned()];
        let r = Gmres::new(sys.nowned(), config(1e-10, 500)).solve_global(
            &sys,
            &sys.precond,
            &blocal,
            &mut x,
            &comm,
        );
        assert!(r.converged());
        (sys.sub.owned.clone(), x)
    });
    let mut x_dist = vec![0.0; n];
    for (owned, x) in results {
        for (l, &g) in owned.iter().enumerate() {
            x_dist[g as usize * 4..g as usize * 4 + 4].copy_from_slice(&x[l * 4..l * 4 + 4]);
        }
    }

    let diff: f64 = x_serial
        .iter()
        .zip(&x_dist)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt();
    let norm: f64 = x_serial.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(diff < 1e-6 * norm, "diff {diff} vs norm {norm}");
}

#[test]
fn distributed_results_independent_of_rank_count() {
    let (nv, edges, a, b) = system();
    let n = a.dim();
    let mut solutions: Vec<Vec<f64>> = Vec::new();
    for nranks in [1usize, 2, 3] {
        let decomp = Decomposition::build(nv, &edges, nranks);
        let subs = decomp.subdomains.clone();
        let a_ref = &a;
        let b_ref = &b;
        let results = Universe::run(nranks, move |comm| {
            let sub = subs[comm.rank()].clone();
            let sys = DistSystem::new(&comm, a_ref, sub, 0);
            let blocal: Vec<f64> = sys
                .sub
                .owned
                .iter()
                .flat_map(|&g| b_ref[g as usize * 4..g as usize * 4 + 4].to_vec())
                .collect();
            let mut x = vec![0.0; sys.nowned()];
            Gmres::new(sys.nowned(), config(1e-11, 800)).solve_global(
                &sys,
                &sys.precond,
                &blocal,
                &mut x,
                &comm,
            );
            (sys.sub.owned.clone(), x)
        });
        let mut xg = vec![0.0; n];
        for (owned, x) in results {
            for (l, &g) in owned.iter().enumerate() {
                xg[g as usize * 4..g as usize * 4 + 4].copy_from_slice(&x[l * 4..l * 4 + 4]);
            }
        }
        solutions.push(xg);
    }
    for k in 1..solutions.len() {
        let diff: f64 = solutions[0]
            .iter()
            .zip(&solutions[k])
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = solutions[0].iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(diff < 1e-6 * norm, "rank-count variant {k}: {diff}");
    }
}

#[test]
fn one_rank_distributed_solve_is_the_local_solve_bit_for_bit() {
    // One GMRES serves both paths: on a single rank the allreduce hook is
    // the identity and the halo exchange moves nothing, so the
    // distributed solve must replay the local one exactly.
    let (nv, edges, a, b) = system();
    let n = a.dim();
    let cfg = config(1e-10, 500);
    let mut x_local = vec![0.0; n];
    let local = Gmres::new(n, cfg).solve(&a, &SerialIlu::new(&a, 0), &b, &mut x_local);

    let sub = Decomposition::build(nv, &edges, 1).subdomains[0].clone();
    let a_ref = &a;
    let b_ref = &b;
    let (dist, x_dist) = Universe::run(1, move |comm| {
        let sys = DistSystem::new(&comm, a_ref, sub.clone(), 0);
        // The single rank owns every vertex in global order, so its local
        // matrix (and hence its block-Jacobi ILU) is the global one.
        assert_eq!(sys.sub.owned, (0..nv as u32).collect::<Vec<_>>());
        assert_eq!(sys.a.row_ptr, a_ref.row_ptr);
        assert_eq!(sys.a.col_idx, a_ref.col_idx);
        assert_eq!(sys.a.blocks, a_ref.blocks);
        let mut x = vec![0.0; n];
        let r = Gmres::new(n, cfg).solve_global(&sys, &sys.precond, b_ref, &mut x, &comm);
        (r, x)
    })
    .pop()
    .unwrap();

    assert_eq!(dist.outcome, local.outcome);
    assert_eq!(dist.iterations, local.iterations);
    assert_eq!(dist.reductions, local.reductions);
    assert_eq!(dist.history, local.history, "residual histories differ");
    assert_eq!(x_dist, x_local, "iterates differ");
}

#[test]
fn distributed_reductions_are_the_measured_allreduces() {
    // GmresResult::reductions counts hook calls; on ranks each one is an
    // allreduce. The operator's halo exchange is point-to-point and the
    // preconditioner is rank-local, so the solver's reductions are the
    // only collectives. Unpreconditioned, the system converges slowly,
    // which is where single-reduction mode pays off (with a strong
    // preconditioner its robustness guard falls back to a second norm).
    let (nv, edges, a, b) = system();
    let subs = Decomposition::build(nv, &edges, 2).subdomains;
    let reductions_in = |single_reduction: bool| {
        let subs = &subs;
        let a_ref = &a;
        let b_ref = &b;
        let per_rank = Universe::run(2, move |comm| {
            let sys = DistSystem::new(&comm, a_ref, subs[comm.rank()].clone(), 0);
            let blocal: Vec<f64> = sys
                .sub
                .owned
                .iter()
                .flat_map(|&g| b_ref[g as usize * 4..g as usize * 4 + 4].to_vec())
                .collect();
            let cfg = GmresConfig {
                single_reduction,
                ..config(1e-6, 600)
            };
            let mut x = vec![0.0; sys.nowned()];
            comm.barrier();
            let before = comm.stat_collectives();
            comm.barrier();
            let r = Gmres::new(sys.nowned(), cfg).solve_global(
                &sys,
                &IdentityPrecond(sys.nowned()),
                &blocal,
                &mut x,
                &comm,
            );
            comm.barrier();
            let collectives = comm.stat_collectives() - before;
            assert!(r.converged(), "single_reduction={single_reduction}");
            // The counter is shared by the ranks and counts every
            // participant, so one allreduce adds `size` to it.
            assert_eq!(
                collectives,
                (r.reductions * comm.size()) as u64,
                "single_reduction={single_reduction}: reported {} reductions",
                r.reductions
            );
            r.reductions
        });
        assert_eq!(per_rank[0], per_rank[1]);
        per_rank[0]
    };
    let classical = reductions_in(false);
    let single = reductions_in(true);
    assert!(
        single < classical,
        "single-reduction {single} vs classical {classical} allreduces"
    );
}
