//! Multi-node substrate: an in-process message-passing runtime, domain
//! decomposition, a genuinely distributed Krylov solve, and the
//! strong-scaling simulator behind Figs. 9–11.
//!
//! There is no InfiniBand cluster here (nor even a second core), so the
//! multi-node experiments are reproduced in two cooperating layers:
//!
//! 1. **Correctness layer** — [`comm`] runs R "ranks" as OS threads with
//!    MPI-like semantics (send/recv, allreduce, barrier); [`decompose`]
//!    performs the Schwarz domain decomposition (owned + ghost vertices,
//!    halo exchange lists); [`dsolve`] is one rank's linear system (a
//!    halo-exchanging operator plus block-Jacobi ILU) and [`dapp`] the
//!    full nonlinear application on the `fun3d_core` kernels. Both are
//!    solved by `fun3d_solver`'s own GMRES, whose inner products
//!    allreduce through [`Comm`]; they are tested to agree with the
//!    serial solver.
//! 2. **Performance layer** — [`scaling`] extracts each rank's real
//!    workload (edges incl. replication, factor rows, halo sizes,
//!    neighbor counts) from the same decomposition and charges hardware
//!    costs from [`fun3d_machine`]: Stampede node kernels plus the FDR
//!    fat-tree network model, with the Krylov allreduce count taken from
//!    the solver's actual algorithm (one `VecMDot` + one `VecNorm` per
//!    iteration).

pub mod comm;
pub mod dapp;
pub mod decompose;
pub mod dsolve;
pub mod scaling;

pub use comm::{Comm, Universe};
pub use decompose::{Decomposition, Subdomain};
pub use scaling::{ScalingConfig, ScalingPoint};
