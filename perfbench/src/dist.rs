//! `dist_due`: in-process distributed AFEIR CG on two rank threads over
//! channels, with seeded scripted DUEs including cross-boundary pairs.

use feir_dist::{
    distributed_cg, DistResilienceConfig, DistResilientReport, DistResilientSolver,
    DistSolveResult, ProtectedVector, ScriptedFault,
};
use feir_recovery::RecoveryPolicy;
use feir_sparse::generators::poisson_2d;
use feir_sparse::CsrMatrix;

use crate::common::{residual_problems, timed, Rng, Took, TOLERANCE};
use crate::spans::Spans;

/// Poisson grid side (n = 16,384).
pub const GRID: usize = 128;
/// Rank threads.
pub const RANKS: usize = 2;
/// Page size in doubles: 32 pages per rank.
pub const PAGE_DOUBLES: usize = 256;
/// Iteration cap.
pub const MAX_ITERATIONS: usize = 20_000;
/// Single-page scripted faults per solve.
pub const SINGLE_FAULTS: usize = 16;
/// Stencil-adjacent pairs across the rank boundary per solve.
pub const BOUNDARY_PAIRS: usize = 3;
/// Width, in iterations, of the slot each fault event is drawn from.
const SLOT: usize = 14;
/// First iteration a fault may land in.
const FIRST_ITERATION: usize = 3;

/// The linear system for a seed. The right-hand side is white noise: CG's
/// iteration count on it varies by about 1% between seeds, against about
/// 10% for a manufactured `b = A·x` (whose low-mode content is a handful
/// of random coefficients), so run-to-run differences measure the program
/// rather than the draw.
pub fn system(seed: u64) -> (CsrMatrix, Vec<f64>) {
    let a = poisson_2d(GRID);
    let mut rng = Rng::new(seed, 0x5EED_0002);
    let b = (0..a.rows()).map(|_| rng.symmetric()).collect();
    (a, b)
}

/// The seeded fault script: 19 events, one per 14-iteration slot so no two
/// share an iteration. Three random slots hold a boundary pair (the last
/// page of rank 0 and the first page of rank 1 of `x`); the other sixteen
/// lose one page each, four of every vector `x`, `g`, `d`, `q` and eight on
/// each rank, in seeded order at seeded pages. Fixing the mix keeps the
/// recovery work of a solve the same from seed to seed, since reconstructing
/// a page costs differently per vector.
pub fn fault_script(seed: u64) -> Vec<ScriptedFault> {
    let mut rng = Rng::new(seed, 0x5EED_0003);
    let events = SINGLE_FAULTS + BOUNDARY_PAIRS;
    let pair_slots = rng.distinct(BOUNDARY_PAIRS, events);
    let pages_per_rank = GRID * GRID / RANKS / PAGE_DOUBLES;
    let vectors = [
        ProtectedVector::X,
        ProtectedVector::G,
        ProtectedVector::D,
        ProtectedVector::Q,
    ];
    // Single k targets vector k % 4 and rank (k / 4) % 2, taken in a
    // seeded order: every (vector, rank) pair occurs exactly twice.
    let mut singles = rng.distinct(SINGLE_FAULTS, SINGLE_FAULTS).into_iter();
    let mut script = Vec::new();
    for slot in 0..events {
        let iteration = FIRST_ITERATION + slot * SLOT + rng.range(0, SLOT);
        if pair_slots.contains(&slot) {
            for (rank, page) in [(0, pages_per_rank - 1), (1, 0)] {
                script.push(ScriptedFault {
                    iteration,
                    rank,
                    vector: ProtectedVector::X,
                    page,
                });
            }
        } else {
            let k = singles.next().expect("one single fault per remaining slot");
            script.push(ScriptedFault {
                iteration,
                rank: (k / vectors.len()) % RANKS,
                vector: vectors[k % vectors.len()],
                page: rng.range(0, pages_per_rank),
            });
        }
    }
    script
}

fn config(policy: RecoveryPolicy, faults: Vec<ScriptedFault>) -> DistResilienceConfig {
    DistResilienceConfig::for_policy(policy)
        .with_page_doubles(PAGE_DOUBLES)
        .with_tolerance(TOLERANCE)
        .with_max_iterations(MAX_ITERATIONS)
        .with_scripted_faults(faults)
}

/// One protected solve: set-up (`DistResilientSolver::cg`), solve, report.
pub struct Job {
    /// Time in `DistResilientSolver::cg`.
    pub setup: Took,
    /// Time in `solve` (CPU time of both rank threads).
    pub solve: Took,
    /// The solver's report.
    pub report: DistResilientReport,
}

/// Runs one AFEIR solve with `faults` (empty for the fault-free identity).
pub fn run(a: &CsrMatrix, b: &[f64], faults: &[ScriptedFault], spans: &Spans) -> Job {
    let cfg = config(RecoveryPolicy::Afeir, faults.to_vec());
    let (solver, setup) = spans.span("dist.new", || {
        timed(|| DistResilientSolver::cg(a, b, RANKS, cfg))
    });
    let (report, solve) = spans.span("dist.solve", || timed(|| solver.solve()));
    Job {
        setup,
        solve,
        report,
    }
}

/// The unprotected reference: `distributed_cg` at the same rank count.
pub fn plain(a: &CsrMatrix, b: &[f64], spans: &Spans) -> (DistSolveResult, Took) {
    spans.span("dist.plain", || {
        timed(|| distributed_cg(a, b, RANKS, TOLERANCE, MAX_ITERATIONS))
    })
}

/// Every broken promise of a protected solve: residual, no ignored page,
/// and — when a reference is given — the same bits as the reference.
pub fn problems(a: &CsrMatrix, b: &[f64], job: &Job, reference: Option<&[f64]>) -> Vec<String> {
    let mut out = residual_problems(a, b, &job.report.x);
    if job.report.pages_ignored > 0 {
        out.push(format!(
            "{} pages ignored under exact recovery",
            job.report.pages_ignored
        ));
    }
    if let Some(x) = reference {
        if !crate::common::same_bits(x, &job.report.x) {
            out.push("solution bits differ from the reference".into());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fault_script_has_a_fixed_mix() {
        for seed in [1, 2, 99] {
            let script = fault_script(seed);
            assert_eq!(script.len(), SINGLE_FAULTS + 2 * BOUNDARY_PAIRS);
            let mut iterations: Vec<usize> = script.iter().map(|f| f.iteration).collect();
            iterations.dedup();
            assert_eq!(iterations.len(), SINGLE_FAULTS + BOUNDARY_PAIRS);
            for vector in [ProtectedVector::G, ProtectedVector::D, ProtectedVector::Q] {
                for rank in 0..RANKS {
                    let n = script
                        .iter()
                        .filter(|f| f.vector == vector && f.rank == rank)
                        .count();
                    assert_eq!(n, 2, "seed {seed}: {vector:?} on rank {rank}");
                }
            }
            let x = script
                .iter()
                .filter(|f| f.vector == ProtectedVector::X)
                .count();
            assert_eq!(x, 4 + 2 * BOUNDARY_PAIRS);
        }
        assert_ne!(fault_script(1), fault_script(2));
    }
}
