//! fun3d-rs benchmark: one converged solve and one cold-cache serve
//! traffic mix, measured end to end, and in a separate traced run split
//! across the program's layers by timing the calls into their public
//! functions.
//!
//! ```text
//! fun3d-perfbench --workload solve-medium|serve-cold
//!                 --seed N --seconds S --trace 0|1
//!                 [--commit C] [--source-digest D] [--cpu-model M]
//!                 [--build-id B --state-dir DIR] [--inject FAULT]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed output check prints its
//! reason on standard error, reports no metrics and exits with code 1.
//! `--inject` plants one fault for the benchmark's own tests of those
//! checks. See `perfbench/README.md` for the metrics and workloads.

mod report;
mod serve;
mod solve;
mod stats;
mod trace;

use report::{Checks, Metrics, Tally};
use std::cell::RefCell;

/// A fault planted on purpose, to show that an output check catches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Flip one bit of a state (or its hash) that must repeat exactly.
    PerturbHash,
    /// Move the 1-thread baseline state beyond the stated tolerance.
    PerturbState,
    /// Expect the wrong cache outcome for the workload.
    WrongCache,
    /// Ask one serve request for a tolerance one step cannot reach.
    Unconverged,
    /// Give every serve request a timeout it cannot meet.
    Timeout,
}

impl Fault {
    fn parse(s: &str) -> Option<Fault> {
        Some(match s {
            "perturb-hash" => Fault::PerturbHash,
            "perturb-state" => Fault::PerturbState,
            "wrong-cache" => Fault::WrongCache,
            "unconverged" => Fault::Unconverged,
            "timeout" => Fault::Timeout,
            _ => return None,
        })
    }
}

pub const WORKLOADS: [&str; 2] = ["solve-medium", "serve-cold"];

/// Every per-layer metric a traced run prints, on every workload; a
/// layer a workload never reaches reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("serve.submit_us", "us"),
    ("serve.queue_ms", "ms"),
    ("serve.queue_tail_ms", "ms"),
    ("serve.prep_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.reply_ms", "ms"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.cache_evictions", "count"),
    ("mesh.build_s", "s"),
    ("mesh.rcm_s", "s"),
    ("core.app_build_s", "s"),
    ("core.residual_s", "s"),
    ("core.residual_calls", "count"),
    ("core.precond_build_s", "s"),
    ("core.precond_build_calls", "count"),
    ("sparse.precond_apply_s", "s"),
    ("sparse.precond_apply_calls", "count"),
    ("kernel.flux_s", "s"),
    ("kernel.flux_gbps", "GB/s"),
    ("kernel.flux_flop_per_byte", "flop/B"),
    ("kernel.gradient_s", "s"),
    ("kernel.gradient_gbps", "GB/s"),
    ("kernel.gradient_flop_per_byte", "flop/B"),
    ("kernel.jacobian_s", "s"),
    ("kernel.jacobian_gbps", "GB/s"),
    ("kernel.jacobian_flop_per_byte", "flop/B"),
    ("kernel.ilu_s", "s"),
    ("kernel.ilu_gbps", "GB/s"),
    ("kernel.ilu_flop_per_byte", "flop/B"),
    ("kernel.trsv_s", "s"),
    ("kernel.trsv_gbps", "GB/s"),
    ("kernel.trsv_flop_per_byte", "flop/B"),
    ("solver.traced_solve_s", "s"),
    ("solver.krylov_self_s", "s"),
    ("solver.time_steps", "count"),
    ("solver.linear_iters", "count"),
    ("solver.serial_solve_s", "s"),
    ("solver.speedup_2t", "ratio"),
    ("threads.regions_per_iter", "count"),
    ("threads.barriers_per_iter", "count"),
    ("threads.region_launch_us", "us"),
    ("threads.barrier_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Every end-to-end metric; every workload reports each of them (for
/// solve-medium a request is one converged solve).
const END_TO_END: [(&str, &str); 7] = [
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// One invocation's settings plus the provenance it accumulates.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub fault: Option<Fault>,
    /// Where one build keeps what its later runs compare against.
    state_dir: Option<std::path::PathBuf>,
    /// Identifies the build (a digest of the binary).
    build_id: Option<String>,
    provenance: RefCell<Vec<(String, String)>>,
}

impl Run {
    /// `<state dir>/<build id>-<name>`, when both were given.
    pub fn state_file(&self, name: &str) -> Option<std::path::PathBuf> {
        let id = self.build_id.as_ref()?;
        Some(self.state_dir.as_ref()?.join(format!("{id}-{name}")))
    }

    /// Records `key = value` (a JSON value) in the provenance line.
    pub fn provenance(&self, key: &str, json_value: &str) {
        self.provenance
            .borrow_mut()
            .push((key.to_string(), json_value.to_string()));
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("fun3d-perfbench: {msg}");
    eprintln!(
        "usage: fun3d-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    // Every workload runs the program's defaults: drop any inherited
    // FUN3D_* override before the program can read one.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("FUN3D_") {
            std::env::remove_var(&k);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        Some(
            args.get(i + 1)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .clone(),
        )
    };
    let workload = get("--workload").unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload '{workload}'"));
    }
    let seed: u64 = get("--seed")
        .map_or(Ok(1), |s| s.parse())
        .unwrap_or_else(|_| usage("--seed takes an integer"));
    let seconds: f64 = get("--seconds")
        .map_or(Ok(10.0), |s| s.parse())
        .unwrap_or_else(|_| usage("--seconds takes a number"));
    if !(seconds > 0.0 && seconds <= 120.0) {
        usage("--seconds must be in (0, 120]");
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage("--trace takes 0 or 1"),
    };
    let fault = get("--inject")
        .map(|f| Fault::parse(&f).unwrap_or_else(|| usage(&format!("unknown fault '{f}'"))));
    let run = Run {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        fault,
        state_dir: get("--state-dir").map(Into::into),
        build_id: get("--build-id"),
        provenance: RefCell::new(Vec::new()),
    };
    let host = fun3d_machine::MachineSpec::host();
    for (key, flag) in [
        ("commit", "--commit"),
        ("source_digest", "--source-digest"),
        ("build_id", "--build-id"),
        ("cpu_model", "--cpu-model"),
    ] {
        run.provenance(
            key,
            &report::string(&get(flag).unwrap_or_else(|| "unknown".into())),
        );
    }
    run.provenance("workload", &report::string(&workload));
    run.provenance("seed", &seed.to_string());
    run.provenance("seconds", &report::num(seconds));
    run.provenance("trace", &trace.to_string());
    run.provenance("nproc", &fun3d_threads::available_cores().to_string());
    run.provenance("l3_bytes", &host.llc_bytes.to_string());
    if let Some(f) = fault {
        run.provenance("injected_fault", &report::string(&format!("{f:?}")));
    }
    if trace {
        trace::enable();
    }

    let mut checks = Checks::default();
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    match workload.as_str() {
        "solve-medium" => solve::run(&run, &mut checks, &mut tally, &mut metrics),
        _ => serve::run(&run, &mut checks, &mut tally, &mut metrics),
    }

    let mut printed = Metrics::default();
    if trace {
        let path = std::path::Path::new("perfbench/out")
            .join(format!("trace-{workload}-seed{seed}.jsonl"));
        match trace::write(&path, &workload) {
            Ok(n) => {
                run.provenance("spans", &n.to_string());
                run.provenance("spans_file", &report::string(&path.display().to_string()));
            }
            Err(e) => checks.require(false, || format!("writing {}: {e}", path.display())),
        }
        for (name, unit) in PER_LAYER {
            printed.put(name, metrics.get(name).unwrap_or(0.0), unit);
        }
    } else {
        metrics.put(
            "peak_rss_mb",
            report::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        );
        for (name, unit) in END_TO_END {
            let value = metrics.get(name);
            checks.require(value.is_some_and(f64::is_finite), || {
                format!("metric {name} was not measured")
            });
            printed.put(name, value.unwrap_or(f64::NAN), unit);
        }
    }
    run.provenance("failures", &tally.json());
    run.provenance("checks_failed", &checks.failures.len().to_string());
    let prov: Vec<String> = run
        .provenance
        .borrow()
        .iter()
        .map(|(k, v)| format!("{}:{v}", report::string(k)))
        .collect();
    println!("provenance: {{{}}}", prov.join(","));
    for f in &checks.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = checks.passed();
    println!(
        "{}",
        report::result_line(correct, tally.attempted.max(1), tally.failed(), &printed)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
