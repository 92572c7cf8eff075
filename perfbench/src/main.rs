//! Benchmark harness for the lacr planner.
//!
//! ```text
//! lacr-perfbench --workload <table1_lac|scale_wd|serve_mix> --seed N
//!     --seconds S --trace <0|1> [--lacr path/to/lacr] [--tiny]
//!     [--corrupt-expected]
//! ```
//!
//! Drives the planner's layers from outside by timing calls into their
//! public functions (and, for `serve_mix`, the `lacr serve` socket
//! protocol), checks every result, and prints a report followed by one
//! JSON result line. `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` installs the obs collector and reports the
//! per-layer metrics. `perfbench/run.py` builds the binaries and calls
//! this harness; see `perfbench/README.md`.

mod expected;
mod json;
mod layers;
mod scale;
mod serve;
mod table1;

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_mb", "MiB"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace.timed_share", "ratio"),
    ("mem.allocs", "count"),
    ("netlist.generate_ms", "ms"),
    ("netlist.write_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.throughput_rps", "1/s"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.queue_p99_ms", "ms"),
    ("serve.plan_p50_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.overhead_p99_ms", "ms"),
    ("serve.cache_evictions", "count"),
    ("serve.shed_total", "count"),
    ("serve.degraded", "count"),
    ("serve.mem_bytes", "B"),
    ("core.build_plan_s", "s"),
    ("partition.self_s", "s"),
    ("floorplan.anneal_s", "s"),
    ("floorplan.accept_ratio", "ratio"),
    ("route.global_s", "s"),
    ("repeater.plan_s", "s"),
    ("core.expand_s", "s"),
    ("retime.min_period_s", "s"),
    ("retime.feas_probes", "count"),
    ("retime.wd_build_s", "s"),
    ("retime.constraints_s", "s"),
    ("retime.period_pairs", "count"),
    ("retime.constraints", "count"),
    ("retime.prune_ratio", "ratio"),
    ("par.region_s", "s"),
    ("par.tasks", "count"),
    ("retime.minarea_s", "s"),
    ("mcmf.warm_solve_s", "s"),
    ("mcmf.solves", "count"),
    ("mcmf.ssp_iterations", "count"),
    ("core.lac_s", "s"),
    ("core.lac_self_s", "s"),
    ("core.lac_rounds", "count"),
    ("core.lac_rounds_min", "count"),
    ("core.lac_allocs", "count"),
    ("mem.allocs_build_plan", "count"),
    ("mem.allocs_min_period", "count"),
    ("mem.allocs_constraints", "count"),
    ("mem.allocs_minarea", "count"),
    ("mem.allocs_lac", "count"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `lacr` binary (serve_mix spawns its daemon).
    pub lacr: String,
    /// Tiny inputs, for the self-test.
    pub tiny: bool,
    /// Perturb every expected value, so that the checks must fail.
    pub corrupt_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        lacr: "target/release/lacr".to_string(),
        tiny: false,
        corrupt_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--lacr" => args.lacr = value()?,
            "--tiny" => args.tiny = true,
            "--corrupt-expected" => args.corrupt_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds <= 0.0 || !args.seconds.is_finite() {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (plans, retimings, requests).
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Every failed check, printed before the result line.
    pub failures: Vec<String>,
    /// Metric values by name; metrics of the mode that are absent are 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Report lines printed before the result (facts that are not
    /// metrics: sample counts, per-circuit quality, seed coverage).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one operation and the checks that failed on it.
    pub fn op(&mut self, what: &str, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.failures
                .extend(errors.into_iter().map(|e| format!("{what}: {e}")));
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Quantile `q` of `values` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size (VmHWM) of this process, MiB.
pub fn peak_mb() -> f64 {
    lacr_obs::mem::peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64
}

/// Allocation events since process start (the obs counting allocator).
pub fn allocs() -> u64 {
    lacr_obs::mem::stats().allocs
}

/// Runs passes over a fixed set of operations until `seconds` are used
/// up, at least one: another pass starts only if the slowest pass so far
/// would still finish in time. Returns the pass count.
pub fn run_passes(seconds: f64, mut pass: impl FnMut() -> f64) -> usize {
    let mut used = 0.0f64;
    let mut slowest = 0.0f64;
    let mut n = 0;
    while n == 0 || used + slowest <= seconds {
        let t = pass();
        used += t;
        slowest = slowest.max(t);
        n += 1;
    }
    n
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // The harness's own messages stay on stdout; the planner's
    // diagnostics would only interleave with them.
    lacr_obs::set_diag_level(lacr_obs::DiagLevel::Silent);
    let outcome = match args.workload.as_str() {
        "table1_lac" => table1::run(&args),
        "scale_wd" => scale::run(&args),
        "serve_mix" => serve::run(&args),
        other => {
            eprintln!("error: unknown workload {other} (table1_lac|scale_wd|serve_mix)");
            std::process::exit(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    print_result(&args, &outcome);
}

fn print_result(args: &Args, o: &Outcome) {
    println!(
        "workload {} seed {} trace {}",
        args.workload, args.seed, args.trace as u8
    );
    for line in &o.notes {
        println!("  {line}");
    }
    // Passes repeat the same failures: print each distinct one once.
    let mut distinct: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &o.failures {
        *distinct.entry(f).or_default() += 1;
    }
    for (f, n) in distinct {
        println!("  FAIL {f} (x{n})");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = o.metrics.get(name).copied().unwrap_or(0.0);
        // `+ 0.0` turns an empty sum's -0.0 into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        println!("  {name:<24} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "  {:<24} {:>16.6} ratio ({} of {} operations failed)",
        "fail_frac",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        o.failed,
        fields.join(", ")
    );
}
