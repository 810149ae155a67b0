//! `serve-cold`: a closed loop with two outstanding requests, driven
//! through `fun3d_serve::Service` in-process, that cycles through
//! [`cold_shapes`], more shapes than either cache layer holds, so every
//! request misses both and every insert past capacity evicts.
//!
//! The client threads (one per outstanding request) wait on their own
//! `JobHandle::wait_timeout`; none is spawned per request.

use crate::report::{Checks, Metrics, Tally};
use crate::solve::{solve_from, solve_with};
use crate::trace::{self, TracedApp};
use crate::{stats, Fault, Run};
use fun3d_core::{FlowConditions, Fun3dApp};
use fun3d_mesh::generator::MeshPreset;
use fun3d_serve::service::{hash_state, CacheOutcome};
use fun3d_serve::{CacheSnapshot, JobHandle, ServeConfig, Service, SolveReply, SolveRequest};
use fun3d_util::telemetry::metrics;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Outstanding requests (one per team on a 2-core host).
pub const CLIENTS: usize = 2;
/// Nominal completion rate, used only to fix which tail percentile a
/// run of a given length reports.
pub const NOMINAL_RPS: f64 = 12.0;
/// A request not answered within this long counts as timed out; its
/// handle is dropped, never waited on again.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);
const TENANTS: [&str; 3] = ["t0", "t1", "t2"];
/// `Service::start` calls per run; `setup_s` is their median.
const STARTS: usize = 51;
/// How long a client waits after its request was shed.
const REJECT_BACKOFF: Duration = Duration::from_millis(10);
/// `latency_tail_ms` is the median of the tail over this many equal
/// windows of the run.
const TAIL_WINDOWS: usize = 3;

/// One request shape: everything of a request but its tenant.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    ilu_fill: usize,
    ilu_lag: usize,
    limiter: bool,
    lsq: bool,
}

impl Shape {
    /// The short request of `load_gen`'s repeated mix: one pseudo-time
    /// step of at most 4 Krylov iterations. That step cuts the residual
    /// to 0.24–0.30 of its start on every shape, so rtol is 0.5 (not
    /// `load_gen`'s 0.1, which no one-step request meets): the work is
    /// the same and every correct reply is converged.
    fn request(self, tenant: &str) -> SolveRequest {
        let mut r = SolveRequest::new(tenant, MeshPreset::Small);
        r.ilu_fill = self.ilu_fill;
        r.ilu_lag = self.ilu_lag;
        r.use_limiter = self.limiter;
        r.use_lsq_gradients = self.lsq;
        r.max_steps = 1;
        r.rtol = 0.5;
        r.max_linear_iters = 4;
        r
    }
}

/// ILU fill {0,1,2} × limiter × LSQ gradients × ILU lag {1..4} = 48
/// prep keys and 48 factor keys, against 4 prepared apps per team and
/// 32 shared factor entries. With one pseudo-time step the lag never
/// takes effect, so it varies the keys without the cost.
pub fn cold_shapes() -> Vec<Shape> {
    let mut v = Vec::new();
    for ilu_fill in 0..3 {
        for limiter in [false, true] {
            for lsq in [false, true] {
                for ilu_lag in 1..=4 {
                    v.push(Shape {
                        ilu_fill,
                        ilu_lag,
                        limiter,
                        lsq,
                    });
                }
            }
        }
    }
    v
}

/// One answered request of the timed phase.
struct Done {
    shape: usize,
    /// When `submit` was called and when it returned.
    sent: Instant,
    submitted: Instant,
    /// When the reply was taken from the handle.
    taken: Instant,
    reply: SolveReply,
}

struct Phase {
    start: Instant,
    done: Vec<Done>,
    /// Seconds from the phase's start to its last reply taken.
    wall_s: f64,
    submit_us: Vec<f64>,
}

/// Waits on `h` for up to `d`; a dispatcher that died with the job is
/// reported as `Err(None)`.
fn poll(h: JobHandle, d: Duration) -> Result<SolveReply, Option<JobHandle>> {
    match catch_unwind(AssertUnwindSafe(|| h.wait_timeout(d))) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(h)) => Err(Some(h)),
        Err(_) => Err(None),
    }
}

/// Closed loop: `CLIENTS` threads, each sending its next request when
/// its previous one is answered, until `seconds` have passed.
fn closed_loop(
    svc: &Service,
    next_request: &(dyn Fn(usize) -> (usize, SolveRequest) + Sync),
    seconds: f64,
    timeout: Duration,
    tally: &mut Tally,
) -> Phase {
    let counter = AtomicUsize::new(0);
    let start = Instant::now();
    let results: Vec<(Tally, Vec<Done>, Vec<f64>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut t = Tally::default();
                    let mut done = Vec::new();
                    let mut submit_us = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        let (shape, req) = next_request(i);
                        t.attempted += 1;
                        let sent = Instant::now();
                        let admitted = svc.submit(req);
                        let submitted = Instant::now();
                        trace::record("serve.submit", 0, i as u64, sent, submitted);
                        submit_us.push((submitted - sent).as_secs_f64() * 1e6);
                        let h = match admitted {
                            Ok(h) => h,
                            Err(rej) => {
                                t.reject(rej.reason);
                                // Shed: back off rather than spin on a full queue.
                                std::thread::sleep(REJECT_BACKOFF);
                                continue;
                            }
                        };
                        match poll(h, timeout) {
                            Ok(reply) => done.push(Done {
                                shape,
                                sent,
                                submitted,
                                taken: Instant::now(),
                                reply,
                            }),
                            Err(Some(h)) => {
                                drop(h);
                                t.timed_out += 1;
                            }
                            Err(None) => t.dispatcher_lost += 1,
                        }
                    }
                    (t, done, submit_us)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        start,
        done: Vec::new(),
        wall_s: 0.0,
        submit_us: Vec::new(),
    };
    for (t, done, submit_us) in results {
        tally.absorb(&t);
        phase.done.extend(done);
        phase.submit_us.extend(submit_us);
    }
    phase.done.sort_by_key(|d| d.sent);
    phase.wall_s = phase
        .done
        .iter()
        .map(|d| d.taken.duration_since(start).as_secs_f64())
        .fold(0.0, f64::max);
    phase
}

/// Every reply `ok` and converged, with the cache outcome the workload
/// intends; a non-finite residual counts as an anomaly.
fn check_replies(phase: &Phase, expect: CacheOutcome, checks: &mut Checks, tally: &mut Tally) {
    let mut wrong_cache = 0usize;
    for d in &phase.done {
        let r = &d.reply;
        if !r.res.is_finite() {
            tally.anomaly += 1;
        } else if !r.converged {
            tally.not_converged += 1;
        }
        if r.cache != expect {
            wrong_cache += 1;
        }
    }
    checks.require(tally.failed() == 0, || {
        format!("failed requests: {}", tally.json())
    });
    checks.require(wrong_cache == 0, || {
        format!(
            "{wrong_cache} of {} replies were not cache \"{}\"",
            phase.done.len(),
            expect.slug()
        )
    });
}

/// Every reply of one shape must carry the state hash of that shape's
/// first reply: each is a cold solve of the same problem.
fn check_hashes(phase: &Phase, checks: &mut Checks) -> BTreeMap<usize, u64> {
    let mut first = BTreeMap::new();
    for d in &phase.done {
        let h = *first.entry(d.shape).or_insert(d.reply.state_fnv);
        checks.require(d.reply.state_fnv == h, || {
            format!(
                "shape {}: state hash {:016x} != {h:016x} of its first cold solve",
                d.shape, d.reply.state_fnv
            )
        });
    }
    first
}

fn cache_delta(before: &CacheSnapshot, after: &CacheSnapshot) -> (f64, u64) {
    let hits = (after.app.hits - before.app.hits) + (after.factor.hits - before.factor.hits);
    let misses =
        (after.app.misses - before.app.misses) + (after.factor.misses - before.factor.misses);
    let evictions = (after.app.evictions - before.app.evictions)
        + (after.factor.evictions - before.factor.evictions);
    (hits as f64 / (hits + misses).max(1) as f64, evictions)
}

/// End-to-end metrics of the timed phase and the serve layer's own split
/// of it (printed only by a traced run).
fn report_phase(
    run: &Run,
    phase: &Phase,
    stage_before: &metrics::MetricsSnapshot,
    cache: (f64, u64),
    out: &mut Metrics,
) {
    let latency: Vec<f64> = phase
        .done
        .iter()
        .map(|d| (d.taken - d.sent).as_secs_f64() * 1e3)
        .collect();
    // The tail is taken per window of the run (by send time) and the
    // median over windows is reported, so one host stall in one window
    // does not decide the run's tail.
    let expected = (NOMINAL_RPS * run.seconds).round() as usize;
    let q = stats::tail_quantile(expected / TAIL_WINDOWS);
    let width = run.seconds / TAIL_WINDOWS as f64;
    let mut windows = vec![Vec::new(); TAIL_WINDOWS];
    for (d, &l) in phase.done.iter().zip(&latency) {
        let w = (d.sent.saturating_duration_since(phase.start).as_secs_f64() / width) as usize;
        windows[w.min(TAIL_WINDOWS - 1)].push(l);
    }
    let tails: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stats::quantile(w, q))
        .collect();
    let tail = stats::median(&tails);
    let exec: Vec<f64> = phase.done.iter().map(|d| d.reply.wall_ms / 1e3).collect();
    out.put("solve_s", stats::median(&exec), "s");
    out.put("latency_p50_ms", stats::median(&latency), "ms");
    out.put("latency_tail_ms", tail, "ms");
    out.put(
        "throughput_rps",
        phase.done.len() as f64 / phase.wall_s,
        "1/s",
    );
    run.provenance("latency_tail_percentile", &report_pct(q));
    run.provenance("latency_tail_windows", &format!("{tails:?}"));
    run.provenance("latency_samples", &latency.len().to_string());
    run.provenance("timed_wall_s", &crate::report::num(phase.wall_s));
    println!(
        "{}: {} replies in {:.3} s; latency p50 {:.3} ms, p{} {:.3} ms (median of {TAIL_WINDOWS} windows)",
        run.workload,
        latency.len(),
        phase.wall_s,
        stats::median(&latency),
        report_pct(q),
        tail
    );

    let queue: Vec<f64> = phase.done.iter().map(|d| d.reply.queue_ms).collect();
    let residue: Vec<f64> = phase
        .done
        .iter()
        .map(|d| {
            let after_submit = (d.taken - d.submitted).as_secs_f64() * 1e3;
            after_submit - d.reply.queue_ms - d.reply.wall_ms
        })
        .collect();
    let now = metrics::snapshot();
    let stage = |name: &str| -> f64 {
        let empty = metrics::HistSnapshot::empty(name);
        let cur = now.hist(name).unwrap_or(&empty);
        let delta = match stage_before.hist(name) {
            Some(b) => cur.delta_from(b),
            None => cur.clone(),
        };
        if delta.count == 0 {
            0.0
        } else {
            delta.quantile(0.5) / 1e6
        }
    };
    out.put("serve.submit_us", stats::median(&phase.submit_us), "us");
    out.put("serve.queue_ms", stats::median(&queue), "ms");
    out.put("serve.queue_tail_ms", stats::quantile(&queue, q), "ms");
    out.put("serve.prep_ms", stage("serve.prep_ns"), "ms");
    out.put("serve.solve_ms", stage("serve.solve_ns"), "ms");
    out.put("serve.reply_ms", stats::median(&residue), "ms");
    out.put("serve.cache_hit_frac", cache.0, "ratio");
    out.put("serve.cache_evictions", cache.1 as f64, "count");
}

fn report_pct(q: f64) -> String {
    let p = format!("{:.1}", q * 100.0);
    p.trim_end_matches(".0").to_string()
}

pub fn run(run: &Run, checks: &mut Checks, tally: &mut Tally, out: &mut Metrics) {
    let shapes = cold_shapes();
    let cfg = ServeConfig::host_default();
    let mut starts = Vec::new();
    for _ in 0..STARTS - 1 {
        let t = Instant::now();
        let svc = Service::start(cfg.clone());
        starts.push(t.elapsed().as_secs_f64());
        svc.shutdown();
    }
    let t = Instant::now();
    let svc = Service::start(cfg.clone());
    starts.push(t.elapsed().as_secs_f64());

    // One seeded order of every shape, cycled, so a shape recurs only
    // after all 47 others; tenants are drawn per request.
    let mut g = stats::SplitMix::new(run.seed);
    let order = g.permutation(shapes.len());
    let tenants: Vec<usize> = (0..4096).map(|_| g.below(TENANTS.len())).collect();
    let fault = run.fault;
    let next = |i: usize| {
        let shape = order[i % order.len()];
        let mut req = shapes[shape].request(TENANTS[tenants[i % tenants.len()]]);
        if i == 0 && fault == Some(Fault::Unconverged) {
            req.rtol = 1e-14;
        }
        (shape, req)
    };
    let timeout = if fault == Some(Fault::Timeout) {
        Duration::ZERO
    } else {
        REQUEST_TIMEOUT
    };

    let cache_before = svc.stats().cache;
    let stage_before = metrics::snapshot();
    let mut phase = closed_loop(&svc, &next, run.seconds, timeout, tally);
    let after = svc.stats().cache;
    let cache = cache_delta(&cache_before, &after);
    if fault == Some(Fault::PerturbHash) {
        // The last reply whose shape an earlier reply already answered.
        let n = phase.done.len();
        if let Some(k) = (0..n).rev().find(|&k| {
            phase.done[..k]
                .iter()
                .any(|d| d.shape == phase.done[k].shape)
        }) {
            phase.done[k].reply.state_fnv ^= 1;
        }
    }
    let expect = if fault == Some(Fault::WrongCache) {
        CacheOutcome::AppAndFactor
    } else {
        CacheOutcome::Cold
    };
    check_replies(&phase, expect, checks, tally);
    let first_hash = check_hashes(&phase, checks);
    checks.require(cache.0 == 0.0, || {
        format!("cache hit fraction {} != 0", cache.0)
    });
    // Every insert past a cache's capacity must evict.
    let inserts = (after.app.insertions - cache_before.app.insertions) as usize;
    let factor_inserts = (after.factor.insertions - cache_before.factor.insertions) as usize;
    let min_evictions = inserts.saturating_sub(cfg.teams * cfg.app_cache_per_team)
        + factor_inserts.saturating_sub(cfg.factor_cache_cap);
    checks.require(cache.1 as usize >= min_evictions, || {
        format!(
            "evicted {} entries, fewer than the {min_evictions} its inserts force",
            cache.1
        )
    });
    let stats = svc.shutdown();
    checks.require(stats.pool_high_water <= stats.worker_budget, || {
        "pool high water exceeded the worker budget".into()
    });

    run.provenance(
        "serve",
        &format!(
            "{{\"teams\":{},\"team_threads\":{},\"queue_cap\":{},\"tenant_queue_cap\":{},\"app_cache_per_team\":{},\"factor_cache_cap\":{}}}",
            cfg.teams, cfg.team_threads, cfg.queue_cap, cfg.tenant_queue_cap, cfg.app_cache_per_team, cfg.factor_cache_cap
        ),
    );
    run.provenance("unknowns", &MeshPreset::Small.unknowns().to_string());
    run.provenance("clients", &CLIENTS.to_string());
    report_phase(run, &phase, &stage_before, cache, out);
    out.put("setup_s", stats::median(&starts), "s");
    out.put("ok_frac", 1.0 - tally.failed_frac(), "ratio");
    if run.trace {
        replay(run, &shapes, &first_hash, checks, out);
    }
}

/// Per-layer split of a request: every shape replayed in-process through
/// the calls a dispatcher makes for a cold request (mesh build, RCM,
/// `Fun3dApp::new`, solve), solved once plain and once through
/// [`TracedApp`], each on a freshly built app. Each replay must
/// reproduce the service's state hash for its shape.
fn replay(
    run: &Run,
    shapes: &[Shape],
    service_hash: &BTreeMap<usize, u64>,
    checks: &mut Checks,
    out: &mut Metrics,
) {
    let nt = ServeConfig::host_default().team_threads;
    let mut sum = BTreeMap::<&'static str, f64>::new();
    let mut add = |k: &'static str, v: f64| *sum.entry(k).or_insert(0.0) += v;
    let mut kernels = crate::solve::KernelTotals::default();
    let (mut plain_s, mut regions, mut barriers) = (0.0, 0, 0);
    for (i, shape) in shapes.iter().enumerate() {
        let req = shape.request("replay");
        let ptc = req.ptc_config();
        let build = || {
            let mut mesh = req.mesh.build();
            Fun3dApp::rcm_reorder(&mut mesh);
            Fun3dApp::new(mesh, FlowConditions::default(), req.opt_config(nt))
        };
        let parent = trace::next_id();
        let t = Instant::now();
        let (mut mesh, build_s) = trace::timed("mesh.build", parent, i as u64, || req.mesh.build());
        let ((), rcm_s) = trace::timed("mesh.rcm", parent, i as u64, || {
            Fun3dApp::rcm_reorder(&mut mesh)
        });
        let (app, app_s) = trace::timed("core.app_build", parent, i as u64, || {
            Fun3dApp::new(mesh, FlowConditions::default(), req.opt_config(nt))
        });
        add("mesh.build_s", build_s);
        add("mesh.rcm_s", rcm_s);
        add("core.app_build_s", app_s);

        // Alternate which of the pair runs first, so any effect of order
        // cancels out of `trace.overhead_frac`.
        let (mut plain_app, mut traced_app) = if i % 2 == 0 {
            (app, build())
        } else {
            (build(), app)
        };
        let traced_first = i % 2 == 1;
        let plain_run = |app: &mut Fun3dApp| solve_with(app, &ptc);
        let plain = (!traced_first).then(|| plain_run(&mut plain_app));
        let u0 = traced_app.initial_state();
        let solve_span = trace::next_id();
        let ts = Instant::now();
        let mut wrapper = TracedApp::new(&mut traced_app, solve_span, i as u64);
        let traced = solve_from(&mut wrapper, u0, &ptc);
        trace::record_as(
            solve_span,
            "solver.ptc_solve",
            parent,
            i as u64,
            ts,
            Instant::now(),
        );
        let layers = [
            wrapper.residual.seconds(),
            wrapper.precond_build.seconds(),
            wrapper.precond_apply.seconds(),
        ];
        add("core.residual_calls", wrapper.residual.calls() as f64);
        add(
            "core.precond_build_calls",
            wrapper.precond_build.calls() as f64,
        );
        add(
            "sparse.precond_apply_calls",
            wrapper.precond_apply.calls() as f64,
        );
        let plain = plain.unwrap_or_else(|| plain_run(&mut plain_app));
        trace::record_as(parent, "serve.replay", 0, i as u64, t, Instant::now());
        add("core.residual_s", layers[0]);
        add("core.precond_build_s", layers[1]);
        add("sparse.precond_apply_s", layers[2]);
        add("solver.traced_solve_s", traced.wall_s);
        add(
            "solver.krylov_self_s",
            traced.wall_s - layers.iter().sum::<f64>(),
        );
        add("solver.time_steps", traced.stats.time_steps as f64);
        add("solver.linear_iters", traced.stats.linear_iters as f64);
        plain_s += plain.wall_s;
        regions += traced.regions;
        barriers += traced.barriers;
        kernels.add(&traced_app, &traced_app.profile());

        let h = hash_state(&traced.u);
        checks.require(
            h == hash_state(&plain.u) && traced.stats.linear_iters == plain.stats.linear_iters,
            || format!("replay of shape {i}: traced solve differs from the plain one"),
        );
        if let Some(&expect) = service_hash.get(&i) {
            checks.require(h == expect, || {
                format!(
                    "replay of shape {i}: state hash {h:016x} != {expect:016x} from the service"
                )
            });
        }
    }
    // Means per request over the shapes.
    let per = 1.0 / shapes.len() as f64;
    for (k, v) in &sum {
        out.put(*k, v * per, if k.ends_with("_s") { "s" } else { "count" });
    }
    let iters = sum
        .get("solver.linear_iters")
        .copied()
        .unwrap_or(0.0)
        .max(1.0);
    out.put("threads.regions_per_iter", regions as f64 / iters, "count");
    out.put(
        "threads.barriers_per_iter",
        barriers as f64 / iters,
        "count",
    );
    let traced_s = sum.get("solver.traced_solve_s").copied().unwrap_or(0.0);
    out.put("trace.overhead_frac", traced_s / plain_s - 1.0, "ratio");
    kernels.put(out, per);
    println!(
        "{} replay: {} shapes; per request: traced solve {:.3} ms, plain solve {:.3} ms",
        run.workload,
        shapes.len(),
        traced_s * per * 1e3,
        plain_s * per * 1e3
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_shapes_outnumber_both_caches() {
        let cfg = ServeConfig::host_default();
        let shapes = cold_shapes();
        let prep: std::collections::BTreeSet<u64> = shapes
            .iter()
            .map(|s| s.request("t").prep_key(cfg.team_threads))
            .collect();
        let factor: std::collections::BTreeSet<u64> =
            shapes.iter().map(|s| s.request("t").factor_key()).collect();
        assert_eq!(prep.len(), shapes.len());
        assert_eq!(factor.len(), shapes.len());
        // A shape recurs only after every other one, more than any one
        // team's app cache or the shared factor cache can hold.
        assert!(shapes.len() - 1 > 4 * cfg.app_cache_per_team);
        assert!(shapes.len() - 1 > cfg.factor_cache_cap);
    }
}
