//! Reproducible benchmark snapshot: times the solver kernels (serial,
//! parallel and fused), the `rayon::join` overlap primitive, the classic and
//! merged-reduction solves and the allreduce batching, then emits one JSON
//! object on stdout. The committed `BENCH_PR<N>.json` files embed runs of
//! this tool; regenerate with
//!
//! ```text
//! cargo run --release -p feir-bench --bin bench_snapshot > snapshot.json
//! ```
//!
//! Pass `--smoke` for a seconds-scale run on tiny sizes (used by CI to keep
//! the tool from bit-rotting). `FEIR_NUM_THREADS` sizes the pool as usual.
//!
//! `--compare <baseline.json>` additionally diffs the fresh run against a
//! committed snapshot: every scenario present in both runs gets a delta
//! line, and the process exits non-zero if any shared scenario regressed by
//! more than the threshold (default 25%, override with `--threshold <pct>`
//! — CI's smoke leg uses a loose threshold because microsecond-scale
//! timings on shared runners are noisy).

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use feir_dist::{
    distributed_resilient_cg, distributed_resilient_cg_merged, distributed_resilient_pcg,
    distributed_resilient_pcg_merged, solve_with_processes, spawn_workers_with, spawned_as_worker,
    worker_main, ChaosConfig, DistResilienceConfig, HaloPlan, ProcessSpec, ProtectedVector,
    RankComm, ScriptedFault, Transport, WorkerOptions,
};
use feir_recovery::RecoveryPolicy;
use feir_solvers::{cg, cg_merged, SolveOptions};
use feir_sparse::generators::{anisotropic_2d, manufactured_rhs, poisson_2d};
use feir_sparse::{fused, vecops, CooMatrix, CsrMatrix, SellMatrix, ENV_SPMV_FORMAT};

/// Target measurement time per benchmark.
const TARGET_MEASURE: Duration = Duration::from_millis(250);
const SMOKE_MEASURE: Duration = Duration::from_millis(25);

/// One measured scenario: the bulk mean plus log-bucketed tail percentiles
/// from a separate individually-timed sample pass.
struct BenchRow {
    name: String,
    mean_ns: f64,
    iters: u64,
    p50_ns: u64,
    p99_ns: u64,
}

/// Per-scenario cap on the individually-timed sample pass that feeds the
/// percentile histogram (the bulk mean loop is unbounded by this).
const MAX_SAMPLES: u64 = 512;

/// A tridiagonal matrix with every 64th row widened to `spike` extra
/// entries: high row-length variance, the worst case for SELL padding.
fn spiked_rows(n: usize, spike: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).expect("in bounds");
        if i + 1 < n {
            coo.push(i, i + 1, -1.0).expect("in bounds");
            coo.push(i + 1, i, -1.0).expect("in bounds");
        }
        if i % 64 == 0 {
            for k in 0..spike {
                let j = (i + 2 + k * 97) % n;
                if j != i && j != i + 1 && (j + 1) != i {
                    coo.push(i, j, 0.01).expect("in bounds");
                }
            }
        }
    }
    coo.to_csr()
}

/// CPU model from `/proc/cpuinfo`, so a snapshot names the host it ran on.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

struct Harness {
    budget: Duration,
    results: Vec<BenchRow>,
}

impl Harness {
    /// Times `routine`, recording the mean per-iteration nanoseconds plus
    /// p50/p99 from a bounded sample pass. The mean comes from the same
    /// bulk-timed loop as always — the sampling pass runs afterwards so
    /// per-call `Instant::now()` overhead never leaks into `mean_ns` (the
    /// value the `--compare` regression gate judges).
    fn bench<R>(&mut self, name: &str, mut routine: impl FnMut() -> R) {
        // Calibrate with a single run, then spend the budget.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (self.budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let mean_ns = start.elapsed().as_nanos() as f64 / iters as f64;
        // Tail pass: individually timed runs into a log-bucketed histogram.
        // Percentiles are bucket upper bounds (≤2× overestimate) — good for
        // spotting tail blowups, not for sub-bucket precision.
        let mut hist = feir_trace::Histogram::new();
        for _ in 0..iters.min(MAX_SAMPLES) {
            let start = Instant::now();
            black_box(routine());
            hist.observe(start.elapsed().as_nanos() as u64);
        }
        let (p50_ns, p99_ns) = (hist.p50(), hist.p99());
        eprintln!("{name:<40} {mean_ns:>12.0} ns/iter  ({iters} iters, p50≤{p50_ns} p99≤{p99_ns})");
        self.results.push(BenchRow {
            name: name.to_string(),
            mean_ns,
            iters,
            p50_ns,
            p99_ns,
        });
    }
}

/// Extracts `(name, mean_ns)` pairs from a snapshot emitted by this tool.
/// Hand-rolled (this environment vendors no JSON crate): one bench row per
/// line, `"name": "…"` and `"mean_ns": …` fields in order.
///
/// A line that carries a bench name but no parsable `mean_ns` is a **hard
/// error**: the old behaviour (skip the row) meant a scenario whose timing
/// was serialized in a form the scanner mistokenized — `1.2e+05` truncated
/// at the `+`, `3E5` truncated at the `E` — silently vanished from the
/// `--compare` gate, which then passed vacuously for that scenario.
fn parse_snapshot(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\":") else {
            continue;
        };
        let rest = &line[name_at + 7..];
        let Some(open) = rest.find('"') else { continue };
        let Some(close) = rest[open + 1..].find('"') else {
            continue;
        };
        let name = &rest[open + 1..open + 1 + close];
        let Some(mean_at) = line.find("\"mean_ns\":") else {
            return Err(format!("bench row for {name:?} has no \"mean_ns\" field"));
        };
        let tail = &line[mean_at + 10..];
        // Full float token: digits, '.', both exponent markers and both
        // signs ('+' appears inside exponents like 1.2e+05).
        let token: String = tail
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        match token.parse::<f64>() {
            Ok(mean_ns) => rows.push((name.to_string(), mean_ns)),
            Err(_) => {
                return Err(format!(
                    "bench row for {name:?} has unparsable mean_ns token {token:?}"
                ))
            }
        }
    }
    Ok(rows)
}

/// Prints per-scenario deltas against `baseline` and returns
/// `Err(shared_count)` when nothing could be compared — a gate that finds
/// zero shared scenarios must fail loudly, not pass vacuously (a renamed
/// scenario set, a non-snapshot file or a drifted emitter format would
/// otherwise silently disable the regression check). On success returns the
/// names of shared scenarios that regressed by more than `threshold_pct`.
fn compare_against(
    results: &[BenchRow],
    baseline: &[(String, f64)],
    threshold_pct: f64,
) -> Result<Vec<String>, usize> {
    let mut regressions = Vec::new();
    let mut shared = 0;
    eprintln!(
        "\n{:<44} {:>12} {:>12} {:>8}",
        "scenario", "base ns", "now ns", "delta"
    );
    for BenchRow { name, mean_ns, .. } in results {
        let Some((_, base_ns)) = baseline.iter().find(|(b, _)| b == name) else {
            continue;
        };
        shared += 1;
        let delta_pct = (mean_ns / base_ns - 1.0) * 100.0;
        let flag = if delta_pct > threshold_pct {
            "  << REGRESSION"
        } else {
            ""
        };
        eprintln!("{name:<44} {base_ns:>12.0} {mean_ns:>12.0} {delta_pct:>+7.1}%{flag}");
        if delta_pct > threshold_pct {
            regressions.push(name.clone());
        }
    }
    eprintln!(
        "compared {shared} shared scenarios, threshold {threshold_pct}%: {} regression(s)",
        regressions.len()
    );
    if shared == 0 {
        return Err(shared);
    }
    Ok(regressions)
}

fn main() -> ExitCode {
    // The process-transport scenarios re-execute this binary as the rank
    // workers (same self-exec trick as `examples/dist_process.rs`).
    if spawned_as_worker() {
        return worker_main();
    }
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let compare_path = flag_value("--compare");
    let threshold_pct: f64 = flag_value("--threshold")
        .map(|v| v.parse().expect("--threshold takes a percentage"))
        .unwrap_or(25.0);
    let mut h = Harness {
        budget: if smoke { SMOKE_MEASURE } else { TARGET_MEASURE },
        results: Vec::new(),
    };

    // Warm the pool up front so lazy worker spawning doesn't skew the first
    // benchmark's calibration pass.
    let warm: Vec<f64> = (0..vecops::DOT_CHUNK * 2).map(|i| i as f64).collect();
    black_box(vecops::dot_parallel(&warm, &warm));

    let spmv_sizes: &[usize] = if smoke { &[16] } else { &[32, 64, 96] };
    for &side in spmv_sizes {
        let a = poisson_2d(side);
        let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; a.rows()];
        h.bench(&format!("spmv/serial/{}", a.rows()), || {
            a.spmv(black_box(&x), black_box(&mut y))
        });
        h.bench(&format!("spmv/parallel/{}", a.rows()), || {
            a.spmv_parallel(black_box(&x), black_box(&mut y))
        });
    }

    // PR 9: SELL-C-σ against CSR on three structure classes — the banded
    // Poisson and convection–diffusion operators the sliced format is built
    // for, and a high-row-variance matrix that punishes SELL padding (the
    // case the format analyzer routes back to CSR).
    {
        let side = if smoke { 16 } else { 96 };
        let scenarios: Vec<(String, CsrMatrix)> = vec![
            (format!("poisson_{side}x{side}"), poisson_2d(side)),
            (
                format!("convdiff_{side}x{side}"),
                anisotropic_2d(side, 0.05),
            ),
            (
                format!("spiked_{}", side * side),
                spiked_rows(side * side, 64),
            ),
        ];
        for (name, a) in &scenarios {
            let sell = SellMatrix::from_csr(a).expect("SELL conversion failed");
            let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.13).sin()).collect();
            let mut y = vec![0.0; a.rows()];
            h.bench(&format!("spmv/csr/{name}"), || {
                a.spmv(black_box(&x), black_box(&mut y))
            });
            h.bench(&format!("spmv/sell/{name}"), || {
                sell.spmv(black_box(&x), black_box(&mut y))
            });
            // The fused spmv+dot is the kernel the CG iteration actually
            // runs; SELL's lane-parallel accumulators overlap the dot chain
            // where the CSR fold serializes on it, so this is where the
            // sliced layout pays off on scalar hosts.
            h.bench(&format!("spmv_dot/csr/{name}"), || {
                black_box(fused::spmv_dot(
                    black_box(a),
                    black_box(&x),
                    black_box(&mut y),
                ))
            });
            h.bench(&format!("spmv_dot/sell/{name}"), || {
                black_box(sell.spmv_dot(black_box(&x), black_box(&mut y)))
            });
        }
        // End-to-end: the same CG solve with the storage format forced each
        // way (the results are bitwise-identical; only the matvec engine —
        // and its memory traffic — changes).
        let a = anisotropic_2d(if smoke { 12 } else { 48 }, 0.05);
        let (_, b) = manufactured_rhs(&a, 3);
        let options = SolveOptions::default().with_tolerance(1e-8);
        for format in ["csr", "sell"] {
            std::env::set_var(ENV_SPMV_FORMAT, format);
            h.bench(&format!("cg/{format}/convdiff_{}", a.rows()), || {
                black_box(cg(black_box(&a), black_box(&b), None, black_box(&options)))
            });
        }
        std::env::remove_var(ENV_SPMV_FORMAT);
    }

    let n = if smoke { 1 << 12 } else { 1 << 17 };
    let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.001).collect();
    let z: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let mut y = z.clone();
    h.bench(&format!("dot/serial/{n}"), || {
        black_box(vecops::dot(black_box(&x), black_box(&z)))
    });
    h.bench(&format!("dot/parallel/{n}"), || {
        black_box(vecops::dot_parallel(black_box(&x), black_box(&z)))
    });
    h.bench(&format!("axpy/serial/{n}"), || {
        vecops::axpy(black_box(1.0001), black_box(&x), black_box(&mut y))
    });
    h.bench(&format!("axpy/parallel/{n}"), || {
        vecops::axpy_parallel(black_box(1.0001), black_box(&x), black_box(&mut y))
    });

    // PR 5: the fused hot-path kernels against the unfused compositions
    // they replace (bitwise-identical results, one memory sweep instead of
    // two). The deltas here are the per-iteration traffic the fused CG/PCG
    // paths save.
    h.bench(&format!("axpy_norm2/unfused/{n}"), || {
        vecops::axpy(black_box(1.0001), black_box(&x), black_box(&mut y));
        black_box(vecops::norm2_squared(black_box(&y)))
    });
    h.bench(&format!("axpy_norm2/fused/{n}"), || {
        black_box(fused::axpy_norm2(
            black_box(1.0001),
            black_box(&x),
            black_box(&mut y),
        ))
    });
    h.bench(&format!("dotn/separate/3x{n}"), || {
        let a = vecops::dot(black_box(&x), black_box(&z));
        let b = vecops::dot(black_box(&x), black_box(&x));
        let c = vecops::dot(black_box(&z), black_box(&y));
        black_box([a, b, c])
    });
    h.bench(&format!("dotn/fused/3x{n}"), || {
        black_box(fused::dotn(&[
            (black_box(&x), black_box(&z)),
            (black_box(&x), black_box(&x)),
            (black_box(&z), black_box(&y)),
        ]))
    });
    {
        let a = poisson_2d(if smoke { 16 } else { 48 });
        let xs: Vec<f64> = (0..a.cols()).map(|i| (i as f64).sin()).collect();
        let mut ys = vec![0.0; a.rows()];
        h.bench(&format!("spmv_dot/unfused/{}", a.rows()), || {
            a.spmv(black_box(&xs), black_box(&mut ys));
            black_box(vecops::dot(black_box(&xs), black_box(&ys)))
        });
        h.bench(&format!("spmv_dot/fused/{}", a.rows()), || {
            black_box(fused::spmv_dot(&a, black_box(&xs), black_box(&mut ys)))
        });
    }

    // The AFEIR overlap primitive: a join of two tiny closures measures the
    // fork/sync overhead that used to be a full OS-thread spawn per call.
    h.bench("join/overhead", || {
        let (a, b) = rayon::join(|| black_box(1u64) + 1, || black_box(2u64) + 2);
        black_box(a + b)
    });

    let side = if smoke { 16 } else { 48 };
    let a = poisson_2d(side);
    let (_, b) = manufactured_rhs(&a, 3);
    let options = SolveOptions::default()
        .with_tolerance(1e-8)
        .with_parallel(false);
    h.bench(&format!("cg/serial/poisson_{side}x{side}"), || {
        black_box(cg(black_box(&a), black_box(&b), None, black_box(&options)))
    });
    let options_par = SolveOptions::default()
        .with_tolerance(1e-8)
        .with_parallel(true);
    h.bench(&format!("cg/parallel/poisson_{side}x{side}"), || {
        black_box(cg(
            black_box(&a),
            black_box(&b),
            None,
            black_box(&options_par),
        ))
    });
    // PR 5: the merged-reduction (Chronopoulos–Gear) CG — one fused
    // spmv_dot, one fused update sweep, both scalars from a single
    // reduction pass.
    h.bench(&format!("cg_merged/serial/poisson_{side}x{side}"), || {
        black_box(cg_merged(
            black_box(&a),
            black_box(&b),
            None,
            black_box(&options),
        ))
    });

    // Distributed recovery scenarios (PR 3): the fault-free ideal distributed
    // CG against FEIR and AFEIR absorbing a deterministic burst of DUEs
    // (iterate, direction and residual pages across the ranks, including a
    // boundary page whose recovery fetches values from the neighbour rank).
    // The FEIR-vs-AFEIR gap is the recovery overhead the paper's asynchrony
    // removes from the critical path.
    let side = if smoke { 12 } else { 24 };
    let a = poisson_2d(side);
    let (_, b) = manufactured_rhs(&a, 5);
    for ranks in [2usize, 4] {
        let dist_config = |policy: RecoveryPolicy, faulted: bool| {
            let faults = if faulted {
                vec![
                    ScriptedFault {
                        iteration: 3,
                        rank: ranks - 1,
                        vector: ProtectedVector::X,
                        page: 0,
                    },
                    ScriptedFault {
                        iteration: 5,
                        rank: 0,
                        vector: ProtectedVector::D,
                        page: 1,
                    },
                    ScriptedFault {
                        iteration: 8,
                        rank: ranks / 2,
                        vector: ProtectedVector::G,
                        page: 0,
                    },
                ]
            } else {
                Vec::new()
            };
            DistResilienceConfig::for_policy(policy)
                .with_page_doubles(32)
                .with_tolerance(1e-8)
                .with_max_iterations(20_000)
                .with_scripted_faults(faults)
        };
        h.bench(&format!("dist_cg/ideal/ranks{ranks}"), || {
            black_box(distributed_resilient_cg(
                black_box(&a),
                black_box(&b),
                ranks,
                dist_config(RecoveryPolicy::Ideal, false),
            ))
        });
        for (label, policy) in [
            ("feir", RecoveryPolicy::Feir),
            ("afeir", RecoveryPolicy::Afeir),
        ] {
            h.bench(&format!("dist_recovery/{label}/ranks{ranks}"), || {
                let report = distributed_resilient_cg(
                    black_box(&a),
                    black_box(&b),
                    ranks,
                    dist_config(policy, true),
                );
                assert!(report.converged && report.pages_recovered >= 3);
                black_box(report)
            });
        }
        // PR 4: the PCG instantiation of the same engine — ideal baseline
        // plus FEIR/AFEIR absorbing the same deterministic DUE burst (the
        // preconditioner halves the iteration count, so the per-solve cost
        // of recovery shifts toward the reconstruction itself).
        h.bench(&format!("dist_pcg/ideal/ranks{ranks}"), || {
            black_box(distributed_resilient_pcg(
                black_box(&a),
                black_box(&b),
                ranks,
                dist_config(RecoveryPolicy::Ideal, false),
            ))
        });
        for (label, policy) in [
            ("feir", RecoveryPolicy::Feir),
            ("afeir", RecoveryPolicy::Afeir),
        ] {
            h.bench(&format!("dist_recovery_pcg/{label}/ranks{ranks}"), || {
                let report = distributed_resilient_pcg(
                    black_box(&a),
                    black_box(&b),
                    ranks,
                    dist_config(policy, true),
                );
                assert!(report.converged && report.pages_recovered >= 3);
                black_box(report)
            });
        }
        // PR 5: the merged-reduction hot path — one batched allreduce per
        // iteration (asserted), started split-phase and overlapped with the
        // halo exchange + matvec. Compare against dist_cg/ideal and
        // dist_pcg/ideal above: same engine scaffolding, collapsed
        // collectives.
        h.bench(&format!("dist_cg_merged/ideal/ranks{ranks}"), || {
            let report = distributed_resilient_cg_merged(
                black_box(&a),
                black_box(&b),
                ranks,
                dist_config(RecoveryPolicy::Ideal, false),
            );
            assert!(report.converged);
            assert_eq!(report.allreduces, report.residual_history.len() as u64 + 1);
            black_box(report)
        });
        h.bench(&format!("dist_pcg_merged/ideal/ranks{ranks}"), || {
            let report = distributed_resilient_pcg_merged(
                black_box(&a),
                black_box(&b),
                ranks,
                dist_config(RecoveryPolicy::Ideal, false),
            );
            assert!(report.converged);
            assert_eq!(report.allreduces, report.residual_history.len() as u64 + 1);
            black_box(report)
        });
        for (label, policy) in [
            ("feir", RecoveryPolicy::Feir),
            ("afeir", RecoveryPolicy::Afeir),
        ] {
            h.bench(
                &format!("dist_recovery_merged/{label}/ranks{ranks}"),
                || {
                    let report = distributed_resilient_cg_merged(
                        black_box(&a),
                        black_box(&b),
                        ranks,
                        dist_config(policy, true),
                    );
                    assert!(report.converged && report.pages_recovered + report.pages_ignored >= 3);
                    black_box(report)
                },
            );
        }
    }

    // Exact recovery's kernel: factor and solve the lost rows' principal
    // submatrix, as the engine's coupled solve does. A 256-row page of the
    // 128×128 Poisson grid and the 512-row union across the boundary of a
    // 2-rank split; the envelope Cholesky only works inside the stencil band.
    {
        let a = poisson_2d(128);
        for (name, rows) in [
            ("poisson_page256", 4096..4352),
            ("poisson_pair512", 7936..8448),
        ] {
            let rows: Vec<usize> = rows.collect();
            let block = a.principal_submatrix(&rows);
            let rhs: Vec<f64> = (0..rows.len()).map(|i| (i as f64 * 0.37).sin()).collect();
            h.bench(&format!("recovery/cholesky/{name}"), || {
                let chol = black_box(&block).cholesky().expect("SPD page block");
                black_box(chol.solve(black_box(&rhs)))
            });
        }
    }

    // PR 10: coupled cross-rank recovery — adjacent iterate pages lost on
    // *both* sides of a rank boundary in the same iteration, so neither
    // rank can interpolate alone and the plain request/reply round comes
    // back invalid. The wave collective gathers the union of lost rows and
    // one coupled solve reconstructs both pages exactly (pages_ignored is
    // asserted zero). The delta against dist_recovery/* above prices the
    // impasse detection + gather wave + coupled solve + revalidation round.
    {
        let a = poisson_2d(16); // 256 rows → 16-row pages at page_doubles=16
        let (_, b) = manufactured_rhs(&a, 5);
        for ranks in [2usize, 4] {
            let last_page_r0 = 256 / ranks / 16 - 1;
            for (label, policy) in [
                ("feir", RecoveryPolicy::Feir),
                ("afeir", RecoveryPolicy::Afeir),
            ] {
                h.bench(
                    &format!("dist_recovery/coupled_xrank/{label}/ranks{ranks}"),
                    || {
                        let config = DistResilienceConfig::for_policy(policy)
                            .with_page_doubles(16)
                            .with_tolerance(1e-8)
                            .with_max_iterations(20_000)
                            .with_scripted_faults(vec![
                                ScriptedFault {
                                    iteration: 3,
                                    rank: 0,
                                    vector: ProtectedVector::X,
                                    page: last_page_r0,
                                },
                                ScriptedFault {
                                    iteration: 3,
                                    rank: 1,
                                    vector: ProtectedVector::X,
                                    page: 0,
                                },
                            ]);
                        let report =
                            distributed_resilient_cg(black_box(&a), black_box(&b), ranks, config);
                        assert!(
                            report.converged
                                && report.pages_coupled == 2
                                && report.pages_ignored == 0
                        );
                        black_box(report)
                    },
                );
            }
        }
    }

    // PR 6: the same distributed CG over the *real* multi-process transport
    // — one OS process per rank, Unix-socket mesh, `feir-wire` frames. The
    // result is bitwise-identical to the in-process run (asserted in the
    // transport test suite); the delta against dist_cg/ideal above is the
    // true cost of process spawn + socket collectives, no time-slicing
    // caveat attached.
    {
        let worker = std::env::current_exe().expect("cannot locate own executable");
        let grid = if smoke { 8 } else { 16 };
        for ranks in [2usize, 4] {
            h.bench(&format!("dist_cg/processes/ranks{ranks}"), || {
                let spec = ProcessSpec::cg(grid, ranks);
                let result =
                    solve_with_processes(&worker, &spec).expect("multi-process solve failed");
                assert!(result.converged);
                black_box(result)
            });
        }
    }

    // PR 7: the same multi-process solve under a hostile network. `lossy`
    // runs over a chaos-injected mesh (drops, duplicates, reorders,
    // corruption) that the ack/retransmit sublayer absorbs — the solve is
    // bitwise-identical to the clean run (asserted in the transport suite),
    // so the delta against dist_cg/processes above is the pure cost of
    // sequencing, acknowledgments and retransmission stalls. `rejoin` kills
    // rank 1 mid-solve and respawns it into the elastic mesh: the price of
    // a whole-process loss healed by re-handshake + Krylov restart.
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        static RUN: AtomicU64 = AtomicU64::new(0);
        let fresh_dir = || {
            std::env::temp_dir().join(format!(
                "feir-bench-net-{}-{}",
                std::process::id(),
                RUN.fetch_add(1, Ordering::Relaxed)
            ))
        };
        let worker = std::env::current_exe().expect("cannot locate own executable");
        let grid = if smoke { 8 } else { 16 };
        let ranks = 2;
        h.bench("dist_cg/processes/lossy/ranks2", || {
            let spec = ProcessSpec::cg(grid, ranks);
            let options = WorkerOptions {
                chaos: Some(
                    ChaosConfig::parse("seed=7,drop=0.01,dup=0.005,delay=0.005,corrupt=0.005")
                        .expect("chaos schedule parses"),
                ),
                retransmit_timeout: Some(Duration::from_millis(10)),
                ..WorkerOptions::default()
            };
            let result = spawn_workers_with(
                &worker,
                &spec,
                &Transport::Uds { dir: fresh_dir() },
                &options,
            )
            .expect("lossy spawn failed")
            .join()
            .expect("lossy solve failed");
            assert!(result.converged);
            black_box(result)
        });
        h.bench("dist_cg/processes/rejoin/ranks2", || {
            let spec = ProcessSpec::cg(grid, ranks);
            let options = WorkerOptions {
                policy: Some(RecoveryPolicy::Feir),
                elastic: true,
                // Dilate the iterations so the kill lands mid-solve; the
                // sleep does no floating-point work.
                spin: Some(Duration::from_millis(8)),
                ..WorkerOptions::default()
            };
            let mut handles = spawn_workers_with(
                &worker,
                &spec,
                &Transport::Uds { dir: fresh_dir() },
                &options,
            )
            .expect("elastic spawn failed");
            std::thread::sleep(Duration::from_millis(60));
            handles.kill_rank(1).expect("kill failed");
            std::thread::sleep(Duration::from_millis(30));
            handles.respawn_rank(1).expect("respawn failed");
            let result = handles.join().expect("rejoined solve failed");
            assert!(result.converged);
            black_box(result)
        });
    }

    // PR 4: the split-phase allreduce in isolation. Every rank performs the
    // same local filler work per round; the blocking variant pays
    // work-then-wait serially, the split variant posts its partial first and
    // runs the work inside the collective — the gap is the overlap the
    // AFEIR recovery path gets for free.
    {
        let ranks = 4;
        let rounds = if smoke { 8 } else { 64 };
        let filler = |rank: usize| {
            let mut acc = 0.0;
            for i in 0..400 * (rank + 1) {
                acc += (i as f64).sqrt();
            }
            acc
        };
        for (label, split) in [("blocking", false), ("split", true)] {
            h.bench(
                &format!("split_phase_allreduce/{label}/ranks{ranks}"),
                || {
                    let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
                    let totals: Vec<f64> = std::thread::scope(|scope| {
                        let handles: Vec<_> = comms
                            .into_iter()
                            .map(|comm| {
                                scope.spawn(move || {
                                    let rank = comm.rank();
                                    let mut total = 0.0;
                                    for round in 0..rounds {
                                        let local = rank as f64 + round as f64 * 0.01;
                                        total += if split {
                                            let pending = comm.start_allreduce(local).unwrap();
                                            black_box(filler(rank));
                                            pending.finish().unwrap()
                                        } else {
                                            black_box(filler(rank));
                                            comm.allreduce_sum(local).unwrap()
                                        };
                                    }
                                    total
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().unwrap()).collect()
                    });
                    black_box(totals)
                },
            );
        }
    }

    // PR 5: the collective schedule itself — a classic CG iteration's two
    // scalar allreduces versus the merged iteration's single two-component
    // vector allreduce. The gap is pure synchronization cost: same partials,
    // same rank-ordered arithmetic, half the gather/broadcast round trips.
    {
        let ranks = 4;
        let rounds = if smoke { 8 } else { 64 };
        for (label, merged) in [("classic_2_scalar", false), ("merged_1_vec2", true)] {
            h.bench(
                &format!("allreduce_per_iteration/{label}/ranks{ranks}"),
                || {
                    let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
                    let totals: Vec<f64> = std::thread::scope(|scope| {
                        let handles: Vec<_> = comms
                            .into_iter()
                            .map(|comm| {
                                scope.spawn(move || {
                                    let rank = comm.rank();
                                    let mut total = 0.0;
                                    for round in 0..rounds {
                                        let u = rank as f64 + round as f64 * 0.01;
                                        let v = rank as f64 * 0.5 - round as f64 * 0.02;
                                        total += if merged {
                                            let sums = comm.allreduce_vec(vec![u, v]).unwrap();
                                            sums[0] + sums[1]
                                        } else {
                                            comm.allreduce_sum(u).unwrap()
                                                + comm.allreduce_sum(v).unwrap()
                                        };
                                    }
                                    total
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().unwrap()).collect()
                    });
                    black_box(totals)
                },
            );
        }
    }

    // Emit the snapshot JSON (no external JSON crate in this environment).
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"feir-bench-snapshot/v1\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!(
        "  \"threads\": {},\n",
        rayon::current_num_threads()
    ));
    out.push_str(&format!("  \"cpu_model\": \"{}\",\n", cpu_model()));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    ));
    out.push_str(&format!(
        "  \"feir_num_threads_env\": {},\n",
        match std::env::var("FEIR_NUM_THREADS") {
            Ok(v) => format!("\"{v}\""),
            Err(_) => "null".to_string(),
        }
    ));
    out.push_str("  \"benches\": [\n");
    let rows: Vec<String> = h
        .results
        .iter()
        .map(|row| {
            format!(
                "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"iters\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
                row.name, row.mean_ns, row.iters, row.p50_ns, row.p99_ns
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    print!("{out}");

    // Regression gate: diff against a committed baseline snapshot.
    if let Some(path) = compare_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("--compare {path}: {e}"));
        let baseline = match parse_snapshot(&text) {
            Ok(rows) => rows,
            Err(message) => {
                eprintln!("FAIL: --compare {path}: {message}");
                return ExitCode::FAILURE;
            }
        };
        match compare_against(&h.results, &baseline, threshold_pct) {
            Err(_) => {
                eprintln!(
                    "FAIL: no shared scenarios between this run and {path} — wrong \
                     baseline file, renamed scenarios, or a drifted snapshot format \
                     (the gate refuses to pass vacuously)"
                );
                return ExitCode::FAILURE;
            }
            Ok(regressions) if !regressions.is_empty() => {
                eprintln!("FAIL: scenarios regressed over {threshold_pct}%: {regressions:?}");
                return ExitCode::FAILURE;
            }
            Ok(_) => {}
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_snapshot;

    #[test]
    fn plain_and_negative_floats_parse() {
        let rows = parse_snapshot(
            "{\"name\": \"a\", \"mean_ns\": 123.5, \"iters\": 4}\n\
             {\"name\": \"b\", \"mean_ns\": -1.25, \"iters\": 4}\n",
        )
        .unwrap();
        assert_eq!(
            rows,
            vec![("a".to_string(), 123.5), ("b".to_string(), -1.25)]
        );
    }

    #[test]
    fn scientific_notation_with_plus_sign_parses_fully() {
        // Regression: the old scanner stopped at '+', truncating "1.2e+05"
        // to "1.2e" (unparsable) and silently dropping the row.
        let rows =
            parse_snapshot("{\"name\": \"spmv\", \"mean_ns\": 1.2e+05, \"iters\": 9}").unwrap();
        assert_eq!(rows, vec![("spmv".to_string(), 1.2e5)]);
    }

    #[test]
    fn uppercase_exponent_marker_parses_fully() {
        // Regression: the old scanner only knew lowercase 'e', so "3E5"
        // truncated to "3" — a silently wrong baseline, worse than a skip.
        let rows = parse_snapshot("{\"name\": \"dot\", \"mean_ns\": 3E5, \"iters\": 2}").unwrap();
        assert_eq!(rows, vec![("dot".to_string(), 3e5)]);
    }

    #[test]
    fn negative_exponent_parses() {
        let rows =
            parse_snapshot("{\"name\": \"tiny\", \"mean_ns\": 4.5e-3, \"iters\": 1}").unwrap();
        assert_eq!(rows, vec![("tiny".to_string(), 4.5e-3)]);
    }

    #[test]
    fn unparsable_mean_on_a_named_row_is_a_hard_error() {
        let err = parse_snapshot("{\"name\": \"broken\", \"mean_ns\": oops}").unwrap_err();
        assert!(err.contains("broken"), "error names the scenario: {err}");
    }

    #[test]
    fn missing_mean_field_on_a_named_row_is_a_hard_error() {
        let err = parse_snapshot("{\"name\": \"lonely\", \"iters\": 3}").unwrap_err();
        assert!(err.contains("lonely"), "error names the scenario: {err}");
    }

    #[test]
    fn lines_without_a_name_are_still_skipped() {
        let rows = parse_snapshot("{\n  \"schema\": \"feir-bench-snapshot/v1\",\n}").unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn rows_with_percentile_fields_still_compare_on_mean() {
        // New snapshots append p50_ns/p99_ns after iters; the scanner keys
        // on mean_ns, so old and new formats stay mutually comparable.
        let rows = parse_snapshot(
            "{\"name\": \"x\", \"mean_ns\": 10.5, \"iters\": 3, \"p50_ns\": 7, \"p99_ns\": 63}",
        )
        .unwrap();
        assert_eq!(rows, vec![("x".to_string(), 10.5)]);
    }
}
