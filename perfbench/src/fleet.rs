//! `proc_lossy`: AFEIR CG on two worker processes over Unix sockets, with
//! light seeded chaos on every link. One job is spawn → handshake → solve →
//! teardown.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use feir_dist::{
    spawn_workers_with, ChaosConfig, DistSolveResult, ProcessSpec, Transport, WorkerOptions,
    WorkerSolver,
};
use feir_recovery::RecoveryPolicy;
use feir_sparse::generators::poisson_2d;
use feir_sparse::CsrMatrix;

use crate::common::{residual_problems, same_bits, timed, Rng, Took, TOLERANCE};
use crate::spans::Spans;

/// Poisson grid side (n = 16,384).
pub const GRID: usize = 128;
/// Worker processes.
pub const RANKS: usize = 2;
/// Page size in doubles of the workers' fault domains.
pub const PAGE_DOUBLES: usize = 256;
/// Frame-fault rates of the lossy wire.
pub const CHAOS_RATES: &str = "drop=0.002,dup=0.001,corrupt=0.001";

/// Which fleet a job launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// AFEIR over the lossy wire: the protected job.
    Lossy,
    /// AFEIR over a clean wire: the bitwise and loss-wait reference.
    CleanAfeir,
    /// `WorkerOptions::default()`: unprotected, clean wire.
    Plain,
}

/// Right-hand sides one run cycles through.
pub const RHS_PER_RUN: usize = 6;

/// The problem specs of a run; workers rebuild each system from its spec.
/// Workers only know manufactured right-hand sides `b = A·x`, whose CG
/// iteration count varies by about 10% between draws, so a run cycles
/// through [`RHS_PER_RUN`] of them and its medians average over the draws.
pub fn specs(seed: u64) -> Vec<ProcessSpec> {
    let mut rng = Rng::new(seed, 0x5EED_0004);
    (0..RHS_PER_RUN)
        .map(|_| ProcessSpec {
            solver: WorkerSolver::Cg,
            grid: GRID,
            rhs_seed: rng.next_u64(),
            ranks: RANKS,
            page_doubles: PAGE_DOUBLES,
            tolerance: TOLERANCE,
            max_iterations: 20_000,
        })
        .collect()
}

/// The matrix every fleet solves, rebuilt here for the residual check.
pub fn matrix() -> CsrMatrix {
    poisson_2d(GRID)
}

/// The right-hand side the workers of `spec` build.
pub fn rhs(a: &CsrMatrix, spec: &ProcessSpec) -> Vec<f64> {
    feir_sparse::generators::manufactured_rhs(a, spec.rhs_seed).1
}

fn options(kind: Kind, chaos_seed: u64) -> WorkerOptions {
    match kind {
        Kind::Lossy => WorkerOptions {
            policy: Some(RecoveryPolicy::Afeir),
            chaos: Some(
                ChaosConfig::parse(&format!("seed={chaos_seed},{CHAOS_RATES}"))
                    .expect("the chaos schedule is well formed"),
            ),
            ..WorkerOptions::default()
        },
        Kind::CleanAfeir => WorkerOptions {
            policy: Some(RecoveryPolicy::Afeir),
            ..WorkerOptions::default()
        },
        Kind::Plain => WorkerOptions::default(),
    }
}

/// A fresh rendezvous directory under the run directory. The path is kept
/// relative (and short) because a Unix socket path is limited to ~100 bytes.
fn mesh_dir(run_dir: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    run_dir.join(format!(
        "m{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One fleet job with its phase times.
pub struct Job {
    /// Time in `spawn_workers_with` (CPU time of the launcher).
    pub spawn: Took,
    /// Time in `WorkerHandles::join` (CPU time of the launcher and of both
    /// workers, which the join reaps).
    pub join: Took,
    /// Unix nanoseconds when the spawn began (for the handshake span).
    pub spawn_unix_ns: u128,
    /// The assembled result.
    pub result: DistSolveResult,
}

/// Spawns, runs and joins one fleet.
pub fn run(
    worker: &Path,
    run_dir: &Path,
    spec: &ProcessSpec,
    kind: Kind,
    chaos_seed: u64,
    spans: &Spans,
) -> Result<Job, String> {
    let transport = Transport::Uds {
        dir: mesh_dir(run_dir),
    };
    let opts = options(kind, chaos_seed);
    let spawn_unix_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let (spawned, spawn) = spans.span("fleet.spawn_workers_with", || {
        timed(|| spawn_workers_with(worker, spec, &transport, &opts))
    });
    let handles = spawned.map_err(|e| format!("spawn failed: {e}"))?;
    let (joined, join) = spans.span("fleet.join", || timed(|| handles.join()));
    let result = joined.map_err(|e| format!("fleet failed: {e}"))?;
    Ok(Job {
        spawn,
        join,
        spawn_unix_ns,
        result,
    })
}

impl Job {
    /// Spawn to joined result.
    pub fn total(&self) -> Took {
        Took {
            wall: self.spawn.wall + self.join.wall,
            cpu: self.spawn.cpu + self.join.cpu,
        }
    }
}

/// Every broken promise of a fleet job: the residual, and — when a
/// reference is given — the same bits as the clean-wire fleet.
pub fn problems(a: &CsrMatrix, b: &[f64], job: &Job, reference: Option<&[f64]>) -> Vec<String> {
    let mut out = residual_problems(a, b, &job.result.x);
    if let Some(x) = reference {
        if !same_bits(x, &job.result.x) {
            out.push("solution bits differ from the clean-wire fleet".into());
        }
    }
    out
}

/// Seconds from the spawn to rank 0's first `Iteration` span, from the
/// merged worker trace (tracing must have been on in the workers).
pub fn handshake_s(job: &Job) -> Option<f64> {
    let trace = job.result.trace.as_ref()?;
    let rank0 = trace.ranks.iter().find(|r| r.rank == 0)?;
    let first = rank0
        .events
        .iter()
        .filter(|e| e.phase == feir_trace::Phase::Iteration)
        .map(|e| e.start_ns)
        .min()?;
    let at_ns = rank0.origin_micros as u128 * 1000 + first as u128;
    Some((at_ns as f64 - job.spawn_unix_ns as f64) / 1e9)
}
