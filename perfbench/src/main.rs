//! End-to-end and per-layer benchmark of the protected FEIR/AFEIR solves.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sm_clean --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times protected and plain solves of the workload and prints
//! the end-to-end metrics; `--trace 1` is the separate traced run that
//! breaks the numbers down by layer. Both print human-readable lines, a
//! provenance line and, last, one JSON result line. See `README.md`.

mod common;
mod dist;
mod e2e;
mod fleet;
mod host;
mod layers;
mod report;
mod sm;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sm_clean", "sm_due", "dist_due", "proc_lossy"];

/// One invocation's settings.
pub struct Run {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measurement window in seconds.
    pub seconds: f64,
    /// The traced run instead of the end-to-end run.
    pub trace: bool,
    /// This executable, re-executed as the rank workers of a fleet.
    pub worker: PathBuf,
    /// Directory (inside the checkout) for rendezvous sockets and spans.
    pub dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        worker: std::env::current_exe()
            .map_err(|e| format!("cannot locate own executable: {e}"))?,
        dir: PathBuf::from(".bench_build").join("perfbench"),
    })
}

fn main() -> ExitCode {
    // Fleets re-execute this binary as their rank workers.
    if feir_dist::spawned_as_worker() {
        return feir_dist::worker_main();
    }
    let args: Vec<String> = std::env::args().collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.dir) {
        eprintln!("perfbench: cannot create {}: {e}", run.dir.display());
        return ExitCode::FAILURE;
    }
    if run.trace {
        traced(&run)
    } else {
        untraced(&run)
    }
}

fn untraced(run: &Run) -> ExitCode {
    // The end-to-end numbers are always measured untraced, whatever
    // FEIR_TRACE the caller set (worker processes inherit the variable).
    feir_trace::set_level(feir_trace::TraceLevel::Off);
    std::env::set_var("FEIR_TRACE", "off");
    let before = host::CpuTicks::now();
    let out = e2e::measure(run);
    let cpu = (before, host::CpuTicks::now());
    print!("{}", e2e::failure_lines(&out));
    let Some(metrics) = e2e::metrics(&out) else {
        eprintln!("perfbench: no protected solve completed; no result");
        return ExitCode::FAILURE;
    };
    print!("{}", metrics.lines());
    let samples = [
        ("solve_s", out.solve.len()),
        ("setup_cpu_s", out.setup.len()),
        ("plain_solve_s", out.plain.len()),
        ("solves_checked", out.tally.attempted as usize),
    ];
    println!(
        "{}",
        host::provenance(&run.workload, run.seed, run.seconds, false, cpu, &samples)
    );
    finish(&metrics, out.tally.attempted, out.tally.failed())
}

fn traced(run: &Run) -> ExitCode {
    let before = host::CpuTicks::now();
    let (t, spans) = layers::measure(run);
    let cpu = (before, host::CpuTicks::now());
    for f in &t.tally.failures {
        println!("FAILED {f}");
    }
    print!("{}", t.metrics.lines());
    let spans_file = run
        .dir
        .join(format!("spans-{}-seed{}.json", run.workload, run.seed));
    match std::fs::write(&spans_file, spans.to_json()) {
        Ok(()) => println!(
            "spans: {} benchmark spans written to {}",
            spans.len(),
            spans_file.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", spans_file.display()),
    }
    let samples = [
        ("solves_checked", t.tally.attempted as usize),
        ("benchmark_spans", spans.len()),
    ];
    println!(
        "{}",
        host::provenance(&run.workload, run.seed, run.seconds, true, cpu, &samples)
    );
    finish(&t.metrics, t.tally.attempted, t.tally.failed())
}

/// Prints the result line if every declared metric is present and finite.
fn finish(metrics: &report::Metrics, attempted: u64, failed: u64) -> ExitCode {
    let missing = metrics.missing();
    if !missing.is_empty() {
        eprintln!("perfbench: metrics never measured: {missing:?}; no result");
        return ExitCode::FAILURE;
    }
    println!("{}", metrics.result_json(failed == 0, attempted, failed));
    ExitCode::SUCCESS
}
