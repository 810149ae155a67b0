//! PETSc-named vector primitives, serial and threaded.
//!
//! The paper finds that after optimizing the main kernels, the PETSc
//! native vector primitives (`VecMAXPY`, `VecWAXPY`, `VecMDOT`, `VecNorm`)
//! and `VecScatter` become a significant fraction of runtime and are not
//! thread-parallel in stock PETSc; it replaces them with threaded,
//! vectorized implementations. Both forms live here so the application
//! can run in "stock" and "optimized" configurations.

use fun3d_threads::ThreadPool;

/// Makes rank-local partial inner products global: the `MPI_Allreduce`
/// behind every distributed dot product and norm.
pub trait GlobalSum {
    /// Replaces each entry of `partial` by its sum over all ranks.
    fn global_sum(&self, partial: &mut [f64]);
}

/// One address space: a local partial already is the global value.
pub struct LocalSum;

impl GlobalSum for LocalSum {
    fn global_sum(&self, _partial: &mut [f64]) {}
}

/// Global 2-norm of a rank's owned entries: one reduction.
pub fn global_norm2(sum: &dyn GlobalSum, x: &[f64]) -> f64 {
    let mut s = [dot(x, x)];
    sum.global_sum(&mut s);
    s[0].sqrt()
}

/// `w = a*x + y` (PETSc `VecWAXPY`).
pub fn waxpy(w: &mut [f64], a: f64, x: &[f64], y: &[f64]) {
    assert!(w.len() == x.len() && x.len() == y.len());
    for i in 0..w.len() {
        w[i] = a * x[i] + y[i];
    }
}

/// `y += a*x` (PETSc `VecAXPY`).
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len());
    for i in 0..y.len() {
        y[i] += a * x[i];
    }
}

/// `y += Σ_k alpha[k] * xs[k]` (PETSc `VecMAXPY`), cache-blocked over the
/// vectors so `y` is traversed once.
pub fn maxpy(y: &mut [f64], alpha: &[f64], xs: &[&[f64]]) {
    assert_eq!(alpha.len(), xs.len());
    for x in xs {
        assert_eq!(x.len(), y.len());
    }
    for i in 0..y.len() {
        let mut acc = y[i];
        for (a, x) in alpha.iter().zip(xs) {
            acc += a * x[i];
        }
        y[i] = acc;
    }
}

/// `out[k] = <x, ys[k]>` (PETSc `VecMDot`), single pass over `x`.
pub fn mdot(x: &[f64], ys: &[&[f64]], out: &mut [f64]) {
    assert_eq!(ys.len(), out.len());
    out.iter_mut().for_each(|o| *o = 0.0);
    for (k, y) in ys.iter().enumerate() {
        assert_eq!(y.len(), x.len());
        let mut acc = 0.0;
        for i in 0..x.len() {
            acc += x[i] * y[i];
        }
        out[k] = acc;
    }
}

/// `w = b - w` in place (residual formation step).
pub fn bsub(w: &mut [f64], b: &[f64]) {
    assert_eq!(w.len(), b.len());
    for i in 0..w.len() {
        w[i] = b[i] - w[i];
    }
}

/// `dst = src / s` elementwise (basis normalization; kept as a division
/// so all execution paths round identically).
pub fn div_into(dst: &mut [f64], src: &[f64], s: f64) {
    assert_eq!(dst.len(), src.len());
    for i in 0..dst.len() {
        dst[i] = src[i] / s;
    }
}

/// `<x, y>` (PETSc `VecDot`).
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// 2-norm (PETSc `VecNorm` with `NORM_2`).
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `x *= a` (PETSc `VecScale`).
pub fn scale(x: &mut [f64], a: f64) {
    for v in x {
        *v *= a;
    }
}

/// Gather: `dst[k] = src[idx[k]]` (one half of PETSc `VecScatter`).
pub fn gather(src: &[f64], idx: &[u32], dst: &mut [f64]) {
    assert_eq!(idx.len(), dst.len());
    for (d, &i) in dst.iter_mut().zip(idx) {
        *d = src[i as usize];
    }
}

/// Scatter-add: `dst[idx[k]] += src[k]` (the other half of `VecScatter`).
pub fn scatter_add(dst: &mut [f64], idx: &[u32], src: &[f64]) {
    assert_eq!(idx.len(), src.len());
    for (&i, &s) in idx.iter().zip(src) {
        dst[i as usize] += s;
    }
}

/// Threaded variants (the paper's optimized replacements). Each splits the
/// index space statically across the pool.
pub mod par {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct SendPtr(*mut f64);
    unsafe impl Send for SendPtr {}
    unsafe impl Sync for SendPtr {}

    /// Threaded `w = a*x + y`.
    pub fn waxpy(pool: &ThreadPool, w: &mut [f64], a: f64, x: &[f64], y: &[f64]) {
        assert!(w.len() == x.len() && x.len() == y.len());
        let wp = SendPtr(w.as_mut_ptr());
        pool.parallel_for(x.len(), |_tid, r| {
            let wp = &wp;
            for i in r {
                // SAFETY: ranges are disjoint per thread.
                unsafe { *wp.0.add(i) = a * x[i] + y[i] };
            }
        });
    }

    /// Threaded `y += a*x`.
    pub fn axpy(pool: &ThreadPool, y: &mut [f64], a: f64, x: &[f64]) {
        assert_eq!(y.len(), x.len());
        let yp = SendPtr(y.as_mut_ptr());
        pool.parallel_for(x.len(), |_tid, r| {
            let yp = &yp;
            for i in r {
                // SAFETY: disjoint ranges.
                unsafe { *yp.0.add(i) += a * x[i] };
            }
        });
    }

    /// Threaded `y += Σ alpha[k] xs[k]`.
    pub fn maxpy(pool: &ThreadPool, y: &mut [f64], alpha: &[f64], xs: &[&[f64]]) {
        assert_eq!(alpha.len(), xs.len());
        let yp = SendPtr(y.as_mut_ptr());
        pool.parallel_for(y.len(), |_tid, r| {
            let yp = &yp;
            for i in r {
                let mut acc = unsafe { *yp.0.add(i) };
                for (a, x) in alpha.iter().zip(xs) {
                    acc += a * x[i];
                }
                // SAFETY: disjoint ranges.
                unsafe { *yp.0.add(i) = acc };
            }
        });
    }

    /// Threaded `w = b - w` in place.
    pub fn bsub(pool: &ThreadPool, w: &mut [f64], b: &[f64]) {
        assert_eq!(w.len(), b.len());
        let wp = SendPtr(w.as_mut_ptr());
        pool.parallel_for(w.len(), |_tid, r| {
            let wp = &wp;
            for i in r {
                // SAFETY: disjoint ranges.
                unsafe { *wp.0.add(i) = b[i] - *wp.0.add(i) };
            }
        });
    }

    /// Threaded `dst = src / s` elementwise.
    pub fn div_into(pool: &ThreadPool, dst: &mut [f64], src: &[f64], s: f64) {
        assert_eq!(dst.len(), src.len());
        let dp = SendPtr(dst.as_mut_ptr());
        pool.parallel_for(src.len(), |_tid, r| {
            let dp = &dp;
            for i in r {
                // SAFETY: disjoint ranges.
                unsafe { *dp.0.add(i) = src[i] / s };
            }
        });
    }

    /// Threaded dot product with deterministic per-thread partials
    /// combined in thread order.
    pub fn dot(pool: &ThreadPool, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len());
        let nt = pool.size();
        let partials: Vec<AtomicU64> = (0..nt).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(x.len(), |tid, r| {
            let mut acc = 0.0;
            for i in r {
                acc += x[i] * y[i];
            }
            partials[tid].store(acc.to_bits(), Ordering::Relaxed);
        });
        partials
            .iter()
            .map(|p| f64::from_bits(p.load(Ordering::Relaxed)))
            .sum()
    }

    /// Threaded 2-norm.
    pub fn norm2(pool: &ThreadPool, x: &[f64]) -> f64 {
        dot(pool, x, x).sqrt()
    }

    /// Threaded multi-dot: ONE region for all `ys.len()` products (not one
    /// region per vector). Each thread makes a single pass over its chunk
    /// of `x`, accumulating all K partials; partials are combined in
    /// thread order, so each component is bitwise identical to a
    /// per-vector [`dot`] call at the same thread count.
    pub fn mdot(pool: &ThreadPool, x: &[f64], ys: &[&[f64]], out: &mut [f64]) {
        assert_eq!(ys.len(), out.len());
        let k = ys.len();
        if k == 0 {
            return;
        }
        for y in ys {
            assert_eq!(y.len(), x.len());
        }
        let nt = pool.size();
        let partials: Vec<AtomicU64> = (0..nt * k).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(x.len(), |tid, r| {
            let mut accs = vec![0.0f64; k];
            for i in r {
                let xi = x[i];
                for (acc, y) in accs.iter_mut().zip(ys) {
                    *acc += xi * y[i];
                }
            }
            for (kk, acc) in accs.iter().enumerate() {
                partials[tid * k + kk].store(acc.to_bits(), Ordering::Relaxed);
            }
        });
        for (kk, o) in out.iter_mut().enumerate() {
            *o = (0..nt)
                .map(|t| f64::from_bits(partials[t * k + kk].load(Ordering::Relaxed)))
                .sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos()).collect();
        (x, y)
    }

    #[test]
    fn waxpy_formula() {
        let (x, y) = vecs(17);
        let mut w = vec![0.0; 17];
        waxpy(&mut w, 2.0, &x, &y);
        for i in 0..17 {
            assert!((w[i] - (2.0 * x[i] + y[i])).abs() < 1e-15);
        }
    }

    #[test]
    fn axpy_and_scale() {
        let (x, _) = vecs(9);
        let mut y = vec![1.0; 9];
        axpy(&mut y, 3.0, &x);
        for i in 0..9 {
            assert!((y[i] - (1.0 + 3.0 * x[i])).abs() < 1e-15);
        }
        scale(&mut y, 0.0);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn maxpy_matches_sequential_axpys() {
        let (x, y) = vecs(23);
        let z: Vec<f64> = (0..23).map(|i| i as f64).collect();
        let mut a = z.clone();
        maxpy(&mut a, &[0.5, -1.5], &[&x, &y]);
        let mut b = z;
        axpy(&mut b, 0.5, &x);
        axpy(&mut b, -1.5, &y);
        for i in 0..23 {
            assert!((a[i] - b[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn mdot_and_norm() {
        let (x, y) = vecs(11);
        let mut out = [0.0; 2];
        mdot(&x, &[&x, &y], &mut out);
        assert!((out[0] - dot(&x, &x)).abs() < 1e-14);
        assert!((out[1] - dot(&x, &y)).abs() < 1e-14);
        assert!((norm2(&x) - out[0].sqrt()).abs() < 1e-14);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let src = vec![10.0, 20.0, 30.0, 40.0];
        let idx = vec![3u32, 0, 2];
        let mut buf = vec![0.0; 3];
        gather(&src, &idx, &mut buf);
        assert_eq!(buf, vec![40.0, 10.0, 30.0]);
        let mut dst = vec![0.0; 4];
        scatter_add(&mut dst, &idx, &buf);
        assert_eq!(dst, vec![10.0, 0.0, 30.0, 40.0]);
    }

    #[test]
    fn parallel_variants_match_serial() {
        let pool = ThreadPool::new(4);
        let (x, y) = vecs(1001);
        // waxpy
        let mut ws = vec![0.0; x.len()];
        waxpy(&mut ws, 1.7, &x, &y);
        let mut wp = vec![0.0; x.len()];
        par::waxpy(&pool, &mut wp, 1.7, &x, &y);
        assert_eq!(ws, wp);
        // axpy
        let mut ys = y.clone();
        axpy(&mut ys, -0.3, &x);
        let mut yp = y.clone();
        par::axpy(&pool, &mut yp, -0.3, &x);
        assert_eq!(ys, yp);
        // dot / norm: deterministic partials summed in fixed order;
        // may differ from serial by rounding only.
        let ds = dot(&x, &y);
        let dp = par::dot(&pool, &x, &y);
        assert!((ds - dp).abs() < 1e-12 * x.len() as f64);
        // maxpy
        let mut ms = y.clone();
        maxpy(&mut ms, &[0.2, 0.4], &[&x, &y.clone()]);
        let mut mp = y.clone();
        par::maxpy(&pool, &mut mp, &[0.2, 0.4], &[&x, &y.clone()]);
        for i in 0..x.len() {
            assert!((ms[i] - mp[i]).abs() < 1e-14);
        }
        // mdot
        let mut outs = [0.0; 2];
        mdot(&x, &[&x, &y], &mut outs);
        let mut outp = [0.0; 2];
        par::mdot(&pool, &x, &[&x, &y], &mut outp);
        for k in 0..2 {
            assert!((outs[k] - outp[k]).abs() < 1e-11);
        }
    }

    #[test]
    fn parallel_mdot_single_region_matches_per_vector_dot_bitwise() {
        // The fused mdot must produce, component by component, exactly
        // the bits of a per-vector par::dot at the same thread count …
        let pool = ThreadPool::new(4);
        let n = 1003;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let ys: Vec<Vec<f64>> = (0..5)
            .map(|k| (0..n).map(|i| (i as f64 * 0.11 + k as f64).cos()).collect())
            .collect();
        let refs: Vec<&[f64]> = ys.iter().map(|v| v.as_slice()).collect();
        let mut fused = vec![0.0; refs.len()];
        let before = pool.regions_launched();
        par::mdot(&pool, &x, &refs, &mut fused);
        // … and do it in ONE region, not one per vector.
        assert_eq!(pool.regions_launched() - before, 1);
        for (k, y) in refs.iter().enumerate() {
            let d = par::dot(&pool, &x, y);
            assert_eq!(fused[k].to_bits(), d.to_bits(), "component {k}");
        }
    }

    #[test]
    fn parallel_mdot_exact_on_integer_data() {
        // Integer-valued doubles with small products: every partial sum is
        // exact, so the fused parallel mdot must equal the serial mdot
        // exactly regardless of association.
        let pool = ThreadPool::new(3);
        let n = 512;
        let x: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let ys: Vec<Vec<f64>> = (0..4)
            .map(|k| (0..n).map(|i| ((i + k) % 5) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = ys.iter().map(|v| v.as_slice()).collect();
        let mut serial = vec![0.0; refs.len()];
        mdot(&x, &refs, &mut serial);
        let mut par_out = vec![0.0; refs.len()];
        par::mdot(&pool, &x, &refs, &mut par_out);
        assert_eq!(serial, par_out);
    }

    #[test]
    fn parallel_dot_deterministic_across_runs() {
        let pool = ThreadPool::new(3);
        let (x, y) = vecs(997);
        let a = par::dot(&pool, &x, &y);
        let b = par::dot(&pool, &x, &y);
        assert_eq!(a, b, "fixed-order reduction must be deterministic");
    }
}
