//! Shared-memory workloads (`sm_clean`, `sm_due`): `ResilientCg` on the
//! `thermal2` proxy with 256-double pages, AFEIR against the Ideal policy.

use std::time::Duration;

use feir_pagemem::{FaultInjector, InjectionPlan};
use feir_recovery::report::RecoveryAction;
use feir_recovery::{RecoveryPolicy, ResilienceConfig, ResilientCg, RunReport};
use feir_solvers::SolveOptions;
use feir_sparse::generators::manufactured_rhs;
use feir_sparse::proxies::PaperMatrix;
use feir_sparse::CsrMatrix;

use crate::common::{residual_problems, timed, Rng, Took, TOLERANCE};
use crate::spans::Spans;

/// Page size in doubles (144 pages per vector at n = 36,864).
pub const PAGE_DOUBLES: usize = 256;
/// Scale of the `thermal2` proxy (n = 36,864, nnz = 183,552).
pub const SCALE: f64 = 4.0;
/// DUEs injected into every `sm_due` solve.
pub const DUES_PER_SOLVE: usize = 8;

/// The linear system of both shared-memory workloads for a seed.
pub fn system(seed: u64) -> (CsrMatrix, Vec<f64>) {
    let a = PaperMatrix::Thermal2.build(SCALE);
    let (_, b) = manufactured_rhs(&a, Rng::new(seed, 0x5EED_0001).next_u64());
    (a, b)
}

/// Solver options: the Table 2 harness settings with the 1e-8 target.
pub fn options() -> SolveOptions {
    SolveOptions::default()
        .with_tolerance(TOLERANCE)
        .with_max_iterations(50_000)
}

fn config(policy: RecoveryPolicy) -> ResilienceConfig {
    ResilienceConfig {
        policy,
        page_doubles: PAGE_DOUBLES,
        preconditioned: false,
        checkpoint_on_disk: false,
        threads: None,
    }
}

/// One solve: its set-up (`ResilientCg::new`) and solve times and report.
pub struct Job {
    /// Time in `ResilientCg::new`.
    pub setup: Took,
    /// Time in `ResilientCg::solve`.
    pub solve: Took,
    /// The solver's report.
    pub report: RunReport,
    /// Injections that landed (sm_due only).
    pub injected: usize,
    /// Scheduled injections that had not fired when the solve returned.
    pub missed: usize,
}

/// The DUE schedule of one `sm_due` solve, as flat registry indices: at
/// 10%, 20%, … 80% of `tau`, a random protected vector loses a page, and
/// the `DUES_PER_SOLVE` pages have distinct page indices.
///
/// Distinct indices keep every loss inside what exact forward recovery
/// promises: each relation that rebuilds page `i` reads other vectors only
/// at index `i` or through pages it can rebuild first. Pages of related
/// vectors at one index lost together (e.g. `x` and `g`) are the paper's
/// unrecoverable "simultaneous related errors"; the wall-clock injector
/// fires overdue DUEs back to back when its thread is descheduled, so with
/// unrestricted pages a loaded host produces them (see the README, "Known
/// limits").
pub fn due_schedule(
    rng: &mut Rng,
    tau: Duration,
    vectors: usize,
    pages_per_vector: usize,
) -> Vec<(Duration, usize)> {
    rng.distinct(DUES_PER_SOLVE, pages_per_vector)
        .into_iter()
        .enumerate()
        .map(|(k, page)| {
            let flat = rng.range(0, vectors) * pages_per_vector + page;
            (tau.mul_f64((k + 1) as f64 / 10.0), flat)
        })
        .collect()
}

/// Runs one solve under `policy`; with `dues`, the injector fires the
/// schedule drawn from `rng` against `tau`.
pub fn run(
    a: &CsrMatrix,
    b: &[f64],
    policy: RecoveryPolicy,
    dues: Option<(&mut Rng, Duration)>,
    spans: &Spans,
    label: &str,
) -> Job {
    let (solver, setup) = spans.span(&format!("{label}.new"), || {
        timed(|| ResilientCg::new(a, b, config(policy)))
    });
    let opts = options();
    match dues {
        None => {
            let (report, solve) =
                spans.span(&format!("{label}.solve"), || timed(|| solver.solve(&opts)));
            Job {
                setup,
                solve,
                report,
                injected: 0,
                missed: 0,
            }
        }
        Some((rng, tau)) => {
            let registry = solver.registry();
            let pages = solver.partition().num_blocks();
            let schedule = due_schedule(rng, tau, registry.num_vectors(), pages);
            let scheduled = schedule.len();
            let injector = FaultInjector::start(registry, InjectionPlan::Scheduled(schedule));
            let (report, solve) =
                spans.span(&format!("{label}.solve"), || timed(|| solver.solve(&opts)));
            let landed = injector.stop();
            Job {
                setup,
                solve,
                report,
                injected: landed.effective_count(),
                missed: scheduled - landed.records.len(),
            }
        }
    }
}

/// Every broken promise of a shared-memory solve: the residual, and for the
/// forward-recovery policies, no page left unrecovered.
pub fn problems(a: &CsrMatrix, b: &[f64], job: &Job) -> Vec<String> {
    let mut out = residual_problems(a, b, &job.report.x);
    let ignored = ignored_pages(&job.report);
    let exact = matches!(
        job.report.policy,
        RecoveryPolicy::Feir | RecoveryPolicy::Afeir
    );
    if exact && ignored > 0 {
        out.push(format!("{ignored} pages ignored under exact recovery"));
    }
    out
}

/// Pages the solve blank-accepted because no relation could rebuild them.
pub fn ignored_pages(report: &RunReport) -> usize {
    report
        .events
        .iter()
        .filter(|e| e.action == RecoveryAction::Ignored)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dues_hit_distinct_page_indices_in_time_order() {
        let mut rng = Rng::new(4, 0);
        for _ in 0..50 {
            let tau = Duration::from_millis(100);
            let schedule = due_schedule(&mut rng, tau, 5, 144);
            assert_eq!(schedule.len(), DUES_PER_SOLVE);
            let mut indices: Vec<usize> = schedule.iter().map(|&(_, f)| f % 144).collect();
            indices.sort_unstable();
            indices.dedup();
            assert_eq!(indices.len(), DUES_PER_SOLVE);
            assert!(schedule.iter().all(|&(_, f)| f < 5 * 144));
            assert!(schedule.windows(2).all(|w| w[0].0 < w[1].0));
            assert_eq!(schedule[0].0, Duration::from_millis(10));
        }
    }
}
