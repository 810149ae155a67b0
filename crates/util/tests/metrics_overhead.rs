//! Overhead guard for the always-on metrics plane.
//!
//! The metrics contract mirrors the flight recorder's: on by default
//! and free. An enabled histogram record is one bucket index
//! computation plus four uncontended atomic RMWs on this thread's own
//! shard; a disabled one is a single relaxed load of the env gate and
//! nothing else — no allocation, no shard registration, no stores.
//! This test measures a streaming kernel that records one histogram
//! sample per invocation — a far higher record rate than the real
//! per-request / per-step sources — with metrics disabled and enabled,
//! and fails if the enabled median leaves the disabled run's noise
//! band. The allocation half of the claim is checked exactly with a
//! counting allocator. The matching CSV rows come from the `metrics`
//! group in `crates/bench/benches/kernels.rs`.

use fun3d_util::microbench::{Bench, SampleConfig};
use fun3d_util::telemetry::metrics;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Duration;

/// Both tests flip the process-wide metrics gate; serialize them so
/// the parallel test runner cannot interleave the flips.
static GATE_LOCK: Mutex<()> = Mutex::new(());

/// Counts each thread's heap allocations so the "zero-alloc when
/// disabled" claim is exact rather than inferred from timing. Per
/// thread, because the test harness's own thread allocates while it
/// reports the other test finishing.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A memory-bound stand-in for a solver kernel (the util crate cannot
/// see the flux kernels): one fused triad pass over `x`/`y`.
fn triad(x: &mut [f64], y: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (xi, yi) in x.iter_mut().zip(y) {
        *xi = 0.999 * *xi + 0.5 * *yi;
        acc += *xi;
    }
    acc
}

fn measure(enabled: bool) -> (f64, f64) {
    metrics::set_enabled(enabled);
    let n = 16_384;
    let mut x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.02).cos()).collect();
    let h = metrics::histogram("metrics_overhead.triad_ns");
    let mut bench = Bench::with_config(SampleConfig {
        warmup: Duration::from_millis(10),
        min_sample_time: Duration::from_millis(2),
        sample_size: 15,
    });
    let mut g = bench.group("metrics_overhead");
    let id = if enabled { "on" } else { "off" };
    g.bench_function(id, |b| {
        b.iter(|| {
            h.record(1_234);
            std::hint::black_box(triad(&mut x, &y))
        })
    });
    g.finish();
    let rec = &bench.records()[0];
    (rec.median_s, rec.mad_s)
}

#[test]
fn always_on_recording_stays_within_kernel_noise() {
    let _gate = GATE_LOCK.lock().unwrap();
    // Interleave-free A/B on the same process and data. Alternating the
    // order (off first) gives the enabled run the warmer cache — the
    // conservative direction for this guard.
    let (med_off, mad_off) = measure(false);
    let (med_on, mad_on) = measure(true);
    metrics::set_enabled(true); // restore the default for other tests

    // Noise band: 25% of the disabled median plus a generous multiple of
    // both runs' MADs. One record is four uncontended RMWs against a
    // 16k-element streaming pass, far below 1% in practice; the band is
    // wide only to keep a shared, single-core CI container from flaking.
    let bound = med_off * 1.25 + 12.0 * (mad_off + mad_on);
    assert!(
        med_on <= bound,
        "enabled metrics recording left the noise band: off {:.3e}s (mad {:.1e}), \
         on {:.3e}s (mad {:.1e}), bound {:.3e}s",
        med_off,
        mad_off,
        med_on,
        mad_on,
        bound
    );
}

#[test]
fn disabled_record_is_one_relaxed_load_and_zero_alloc() {
    let _gate = GATE_LOCK.lock().unwrap();
    // FUN3D_METRICS=off must make every record path a single relaxed
    // gate load: nothing lands in any shard, no counter moves, and —
    // checked exactly via the counting allocator — not one heap
    // allocation happens on the record path.
    let h = metrics::histogram("metrics_overhead.disabled_probe_ns");
    let c = metrics::counter("metrics_overhead.disabled_probe_count");
    let g = metrics::gauge("metrics_overhead.disabled_probe_gauge");
    // Warm both thread-local caches while enabled so the disabled loop
    // below measures the steady state, not first-touch registration.
    metrics::record_ns("metrics_overhead.disabled_named_ns", 1);
    h.record(1);
    let warm = h.snapshot("probe").count;

    metrics::set_enabled(false);
    let before = ALLOCS.with(Cell::get);
    for i in 0..10_000u64 {
        h.record(i);
        c.incr();
        g.set(i);
        metrics::record_ns("metrics_overhead.disabled_named_ns", i);
    }
    let grew = ALLOCS.with(Cell::get) - before;
    metrics::set_enabled(true);

    assert_eq!(grew, 0, "disabled record path allocated {grew} times");
    assert_eq!(
        h.snapshot("probe").count,
        warm,
        "disabled histogram record landed a sample"
    );
    assert_eq!(c.value(), 0, "disabled counter moved");
    assert_eq!(g.value(), 0, "disabled gauge moved");
}
