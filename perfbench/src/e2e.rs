//! The untraced run (`--trace 0`): a closed loop with one client. Each
//! round runs one protected job and one plain solve of the same system
//! (alternating which goes first), checks both, and the end-to-end metrics
//! are order statistics over the rounds.

use std::time::Duration;

use feir_recovery::RecoveryPolicy;

use crate::common::{residual_problems, same_bits, Budget, Rng, Samples, Tally};
use crate::report::{ratio_note, Metrics};
use crate::spans::Spans;
use crate::stats;
use crate::{dist, fleet, sm, Run};

/// Samples of one end-to-end run.
#[derive(Default)]
pub struct Outcome {
    /// Protected solve wall seconds.
    pub solve: Samples,
    /// Protected solve CPU seconds.
    pub solve_cpu: Samples,
    /// Per-job set-up CPU seconds.
    pub setup: Samples,
    /// Plain solve wall seconds.
    pub plain: Samples,
    /// Plain solve CPU seconds.
    pub plain_cpu: Samples,
    /// Iterations of each protected solve.
    pub iterations: Samples,
    /// Which of the run's inputs each protected solve used.
    pub inputs: Vec<usize>,
    /// Correctness tally over every solve.
    pub tally: Tally,
}

/// Rounds always run, even when the window is shorter.
const MIN_ROUNDS: usize = 3;

/// Runs `run.workload` for `run.seconds` and returns its samples.
pub fn measure(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let spans = Spans::new(false);
    match run.workload.as_str() {
        "sm_clean" | "sm_due" => shared_memory(run, run.workload == "sm_due", &spans, &mut out),
        "dist_due" => distributed(run, &spans, &mut out),
        "proc_lossy" => processes(run, &spans, &mut out),
        other => unreachable!("workload {other} was validated"),
    }
    out
}

fn shared_memory(run: &Run, dues: bool, spans: &Spans, out: &mut Outcome) {
    let (a, b) = sm::system(run.seed);
    // Warm-up: pool threads, page caches and the τ of the DUE schedule
    // (the median plain solve, the paper's normalised-rate model).
    let mut warm_plain = Samples::default();
    for _ in 0..3 {
        let job = sm::run(&a, &b, RecoveryPolicy::Ideal, None, spans, "sm.plain");
        out.tally
            .record("warm-up plain", sm::problems(&a, &b, &job));
        warm_plain.push(job.solve.wall);
    }
    let tau = Duration::from_secs_f64(warm_plain.median());
    let mut rng = Rng::new(run.seed, 0x5EED_0005);
    let job = sm::run(&a, &b, RecoveryPolicy::Afeir, None, spans, "sm.afeir");
    out.tally
        .record("warm-up protected", sm::problems(&a, &b, &job));

    let mut budget = Budget::new(run.seconds, MIN_ROUNDS);
    let mut round = 0;
    while budget.another() {
        for step in 0..2 {
            if (step + round) % 2 == 0 {
                let schedule = dues.then_some((&mut rng, tau));
                let job = sm::run(&a, &b, RecoveryPolicy::Afeir, schedule, spans, "sm.afeir");
                out.tally.record("protected", sm::problems(&a, &b, &job));
                out.solve.push(job.solve.wall);
                out.solve_cpu.push(job.solve.cpu);
                out.setup.push(job.setup.cpu);
                out.iterations.push(job.report.iterations as f64);
                out.inputs.push(0);
            } else {
                let job = sm::run(&a, &b, RecoveryPolicy::Ideal, None, spans, "sm.plain");
                out.tally.record("plain", sm::problems(&a, &b, &job));
                out.plain.push(job.solve.wall);
                out.plain_cpu.push(job.solve.cpu);
            }
        }
        round += 1;
    }
}

fn distributed(run: &Run, spans: &Spans, out: &mut Outcome) {
    let (a, b) = dist::system(run.seed);
    let script = dist::fault_script(run.seed);
    // Contracts checked once per run: the fault-free resilient solve is
    // bitwise the plain distributed CG; then every faulted job of this seed
    // must repeat the first one's bits.
    let (plain0, _) = dist::plain(&a, &b, spans);
    out.tally
        .record("warm-up plain", residual_problems(&a, &b, &plain0.x));
    let clean = dist::run(&a, &b, &[], spans);
    out.tally.record(
        "fault-free identity",
        dist::problems(&a, &b, &clean, Some(&plain0.x)),
    );
    let first = dist::run(&a, &b, &script, spans);
    out.tally
        .record("warm-up protected", dist::problems(&a, &b, &first, None));
    let reference = first.report.x;

    let mut budget = Budget::new(run.seconds, MIN_ROUNDS);
    let mut round = 0;
    while budget.another() {
        for step in 0..2 {
            if (step + round) % 2 == 0 {
                let job = dist::run(&a, &b, &script, spans);
                out.tally
                    .record("protected", dist::problems(&a, &b, &job, Some(&reference)));
                out.solve.push(job.solve.wall);
                out.solve_cpu.push(job.solve.cpu);
                out.setup.push(job.setup.cpu);
                out.iterations.push(job.report.iterations as f64);
                out.inputs.push(0);
            } else {
                let (plain, took) = dist::plain(&a, &b, spans);
                let mut problems = residual_problems(&a, &b, &plain.x);
                if !same_bits(&plain.x, &plain0.x) {
                    problems.push("plain distributed CG is not deterministic".into());
                }
                out.tally.record("plain", problems);
                out.plain.push(took.wall);
                out.plain_cpu.push(took.cpu);
            }
        }
        round += 1;
    }
}

fn processes(run: &Run, spans: &Spans, out: &mut Outcome) {
    let specs = fleet::specs(run.seed);
    let a = fleet::matrix();
    let rhs: Vec<Vec<f64>> = specs.iter().map(|spec| fleet::rhs(&a, spec)).collect();
    // The clean-wire AFEIR fleet of each right-hand side fixes the bits
    // every lossy job on it must match.
    let mut references = Vec::new();
    for (spec, b) in specs.iter().zip(&rhs) {
        let job = fleet::run(
            &run.worker,
            &run.dir,
            spec,
            fleet::Kind::CleanAfeir,
            0,
            spans,
        );
        match record_fleet(
            &mut out.tally,
            "clean-wire reference",
            &a,
            b,
            job.as_ref(),
            None,
        ) {
            Some(job) => references.push(job.result.x.clone()),
            None => return,
        }
    }
    // Each lossy job draws its own chaos seed from the run seed, so a run
    // samples the loss process instead of a single schedule.
    let mut chaos = Rng::new(run.seed, 0x5EED_0006);
    let mut budget = Budget::new(run.seconds, MIN_ROUNDS);
    let mut round = 0;
    while budget.another() {
        let i = round % specs.len();
        let (spec, b) = (&specs[i], &rhs[i]);
        for step in 0..2 {
            if (step + round) % 2 == 0 {
                let seed = chaos.next_u64();
                let job = fleet::run(&run.worker, &run.dir, spec, fleet::Kind::Lossy, seed, spans);
                let checked = record_fleet(
                    &mut out.tally,
                    "lossy",
                    &a,
                    b,
                    job.as_ref(),
                    Some(&references[i]),
                );
                if let Some(job) = checked {
                    out.solve.push(job.total().wall);
                    out.solve_cpu.push(job.total().cpu);
                    out.setup.push(job.spawn.cpu);
                    out.iterations.push(job.result.iterations as f64);
                    out.inputs.push(i);
                }
            } else {
                let job = fleet::run(&run.worker, &run.dir, spec, fleet::Kind::Plain, 0, spans);
                if let Some(job) = record_fleet(&mut out.tally, "plain", &a, b, job.as_ref(), None)
                {
                    out.plain.push(job.total().wall);
                    out.plain_cpu.push(job.total().cpu);
                }
            }
        }
        round += 1;
    }
}

/// Checks one fleet job into the tally; returns it when it produced a result.
fn record_fleet<'a>(
    tally: &mut Tally,
    what: &str,
    a: &feir_sparse::CsrMatrix,
    b: &[f64],
    job: Result<&'a fleet::Job, &String>,
    reference: Option<&[f64]>,
) -> Option<&'a fleet::Job> {
    match job {
        Ok(job) => {
            tally.record(what, fleet::problems(a, b, job, reference));
            Some(job)
        }
        Err(e) => {
            tally.record(what, vec![e.clone()]);
            None
        }
    }
}

/// The end-to-end metrics of an outcome. `None` when a timing set is empty
/// (every job failed), in which case no result may be printed.
///
/// The gated solve metrics are ratios of CPU seconds: the protected solve
/// over the plain solve of the same system, timed in alternation in the
/// same run, so a slower or busier host moves both sides. The absolute CPU
/// and wall seconds behind every ratio are printed in its note (see the
/// README, "What the gate measures").
pub fn metrics(out: &Outcome) -> Option<Metrics> {
    if out.setup.len() == 0 || out.plain_cpu.len() == 0 {
        return None;
    }
    let tail = stats::tail(&out.solve_cpu.0)?;
    let wall_tail = stats::tail(&out.solve.0)?;
    let quantiles = |s: &Samples| {
        let q = stats::quartiles(&s.0).unwrap_or([0.0; 3]);
        format!(
            "p50 {:.6} (min {:.6} p10 {:.6} q1 {:.6} q3 {:.6})",
            q[1],
            stats::percentile(&s.0, 1).unwrap_or(0.0),
            stats::percentile(&s.0, 10).unwrap_or(0.0),
            q[0],
            q[2]
        )
    };
    let (solve, plain) = (out.solve_cpu.median(), out.plain_cpu.median());
    let mut m = Metrics::new("end_to_end");
    m.set(
        "protect_cpu_ratio",
        solve / plain,
        Some(out.solve_cpu.len()),
        format!(
            "{}; cpu s: protected {}, plain {}; wall s: protected {}, plain {}, protected / plain {:.4}",
            ratio_note(("protected cpu p50", solve), ("plain cpu p50", plain)),
            quantiles(&out.solve_cpu),
            quantiles(&out.plain_cpu),
            quantiles(&out.solve),
            quantiles(&out.plain),
            out.solve.median() / out.plain.median()
        ),
    );
    m.set(
        "protect_cpu_tail_ratio",
        tail.value / plain,
        Some(tail.samples),
        format!(
            "{} ({} samples beyond); wall s: protected p{} {:.6}",
            ratio_note(
                (&format!("protected cpu p{}", tail.percentile), tail.value),
                ("plain cpu p50", plain)
            ),
            tail.beyond,
            wall_tail.percentile,
            wall_tail.value
        ),
    );
    m.set(
        "setup_s",
        out.setup.median(),
        Some(out.setup.len()),
        format!("cpu s {}", quantiles(&out.setup)),
    );
    m.set(
        "iterations",
        out.iterations.median(),
        Some(out.iterations.len()),
        iteration_note(&out.iterations.0, &out.inputs),
    );
    let failed = out.tally.failed() as f64;
    let attempted = out.tally.attempted as f64;
    m.set(
        "ok_frac",
        1.0 - failed / attempted,
        Some(out.tally.attempted as usize),
        format!(
            "failed_frac = {} / {} = {}",
            failed,
            attempted,
            failed / attempted
        ),
    );
    Some(m)
}

/// Whether every protected solve of one input took the same number of
/// iterations (a count that must repeat exactly), or the ranges if not.
fn iteration_note(iterations: &[f64], inputs: &[usize]) -> String {
    let count = inputs.iter().max().map_or(0, |m| m + 1);
    let mut ranges = Vec::new();
    for input in 0..count {
        let mine = iterations
            .iter()
            .zip(inputs)
            .filter(|(_, &k)| k == input)
            .map(|(&v, _)| v);
        let (lo, hi) = mine.fold((f64::MAX, f64::MIN), |(l, h), v| (l.min(v), h.max(v)));
        if lo < hi {
            ranges.push(format!("input {input}: {lo}..{hi}"));
        }
    }
    if ranges.is_empty() {
        format!("repeats exactly on each of {count} inputs")
    } else {
        format!("does NOT repeat: {}", ranges.join(", "))
    }
}

/// Lines for the human-readable part of the output: every failure.
pub fn failure_lines(out: &Outcome) -> String {
    out.tally
        .failures
        .iter()
        .map(|f| format!("FAILED {f}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{iteration_note, metrics, Outcome};
    use crate::common::Samples;

    #[test]
    fn every_declared_end_to_end_metric_is_set() {
        let mut out = Outcome::default();
        for i in 0..20 {
            let k = i as f64 * 1e-3;
            out.solve.push(0.3 + k);
            out.solve_cpu.push(0.2 + k);
            out.plain.push(0.1);
            out.plain_cpu.push(0.1);
            out.setup.push(1e-3);
            out.iterations.push(300.0);
            out.inputs.push(0);
            out.tally.record("protected", Vec::new());
        }
        let m = metrics(&out).expect("every sample set is filled");
        assert!(m.missing().is_empty(), "{:?}", m.missing());
        // Ratios are printed with their bases.
        let lines = m.lines();
        assert!(lines.contains("protected cpu p50 (0.2095"), "{lines}");
        assert!(lines.contains("plain cpu p50 (0.1)"), "{lines}");
        out.plain_cpu = Samples::default();
        assert!(metrics(&out).is_none());
    }

    #[test]
    fn iteration_counts_are_compared_per_input() {
        assert_eq!(
            iteration_note(&[300.0, 310.0, 300.0, 310.0], &[0, 1, 0, 1]),
            "repeats exactly on each of 2 inputs"
        );
        assert_eq!(
            iteration_note(&[300.0, 301.0, 310.0], &[0, 0, 1]),
            "does NOT repeat: input 0: 300..301"
        );
    }
}
