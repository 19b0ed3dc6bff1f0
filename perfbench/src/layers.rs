//! The traced run (`--trace 1`): `FEIR_TRACE=spans`, the benchmark's own
//! spans around every layer call, and one number per layer — kernels, pool,
//! page registry, the protected-iteration ladder, recovery under DUEs, the
//! in-process distributed solve, the worker fleet and the wire codec.
//!
//! Every traced run measures every layer, so each one prints every
//! per-layer metric. The workload picks the matrix of the kernel timings
//! and gets twice its usual share of `--seconds` for its own section.
//! Counts come from the program's own reports; times come from timing calls
//! into each crate's public API.

use std::hint::black_box;
use std::time::{Duration, Instant};

use feir_pagemem::registry::PageRegistry;
use feir_recovery::RecoveryPolicy;
use feir_sparse::{vecops, CsrMatrix, SpmvBackend};
use feir_trace::{Phase, TraceLevel};
use feir_wire::{decode_frame_buf, write_message, Message};

use crate::common::{Budget, Rng, Samples, Tally};
use crate::report::{difference_note, ratio_note, Metrics};
use crate::spans::Spans;
use crate::{dist, fleet, sm, Run};

/// Minimum rounds of each traced section, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// The timed sections, named after the workload whose layers they measure,
/// with their usual share of `--seconds` (the kernels take the rest).
const SECTIONS: [(&str, f64); 4] = [
    ("sm_clean", 0.35),
    ("sm_due", 0.15),
    ("dist_due", 0.15),
    ("proc_lossy", 0.3),
];

/// Seconds one section may take: its share, doubled for the section of the
/// chosen workload, with every share scaled so they still add up.
fn section_seconds(run: &Run, section: &str) -> f64 {
    let weight = |name: &str, share: f64| {
        if name == run.workload {
            2.0 * share
        } else {
            share
        }
    };
    let all: f64 = SECTIONS.iter().map(|&(_, s)| s).sum();
    let scaled: f64 = SECTIONS.iter().map(|&(n, s)| weight(n, s)).sum();
    let &(name, share) = SECTIONS
        .iter()
        .find(|(n, _)| *n == section)
        .expect("a declared section");
    run.seconds * weight(name, share) * all / scaled
}

/// Median nanoseconds per call of `op`, over 7 batches of about 20 ms.
fn ns_per_call(mut op: impl FnMut()) -> f64 {
    // Calibrate the batch length.
    let mut reps = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            op();
        }
        if start.elapsed() >= Duration::from_millis(20) || reps >= 1 << 30 {
            break;
        }
        reps *= 2;
    }
    let mut batches = Samples::default();
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..reps {
            op();
        }
        batches.push(start.elapsed().as_nanos() as f64 / reps as f64);
    }
    batches.median()
}

/// Spread (max − min) of a set of counts; 0 when they repeat exactly.
fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo).max(0.0)
}

fn repeat_note(values: &[f64]) -> String {
    if spread(values) == 0.0 {
        format!("repeats exactly over {} solves", values.len())
    } else {
        format!("does NOT repeat: values {values:?}")
    }
}

/// Everything the traced run measured.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// Correctness over every solve the traced run made.
    pub tally: Tally,
    /// Iteration counts of repeated solves of one input, per section.
    iterations: Vec<(&'static str, Vec<f64>)>,
}

/// Runs every traced section; `run.seconds` is shared among them.
pub fn measure(run: &Run) -> (Traced, Spans) {
    feir_trace::set_level(TraceLevel::Spans);
    std::env::set_var("FEIR_TRACE", "spans");
    let mut t = Traced {
        metrics: Metrics::new("per_layer"),
        tally: Tally::default(),
        iterations: Vec::new(),
    };
    let spans = Spans::new(true);
    let (a, _) = if run.workload.starts_with("sm_") {
        sm::system(run.seed)
    } else {
        dist::system(run.seed)
    };
    spans.span("kernels", || kernels(&a, &mut t.metrics));
    let tau = spans.span("ladder", || ladder(run, &mut t, &spans));
    spans.span("sm_due", || shared_memory_dues(run, tau, &mut t, &spans));
    let mut dropped = 0.0;
    spans.span("dist_due", || {
        distributed(run, &mut t, &spans, &mut dropped)
    });
    spans.span("proc_lossy", || {
        processes(run, &mut t, &spans, &mut dropped)
    });
    let worst = t
        .iterations
        .iter()
        .map(|(_, v)| spread(v))
        .fold(0.0, f64::max);
    let notes: Vec<String> = t
        .iterations
        .iter()
        .map(|(name, v)| format!("{name}: {}", repeat_note(v)))
        .collect();
    let n = t.iterations.iter().map(|(_, v)| v.len()).sum();
    t.metrics
        .set("repeat.iterations_spread", worst, Some(n), notes.join("; "));
    t.metrics.set(
        "trace.dropped_events",
        dropped,
        None,
        if dropped == 0.0 {
            "summed over every traced distributed solve and fleet"
        } else {
            "NONZERO: events were lost, the dist.phase.* totals are incomplete"
        },
    );
    (t, spans)
}

fn kernels(a: &CsrMatrix, m: &mut Metrics) {
    let n = a.rows();
    let nnz = a.nnz();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; n];
    let full = SpmvBackend::select(a);
    let format = format!("{:?} backend, n={n}, nnz={nnz}", full.format());
    m.set(
        "sparse.spmv_ns",
        ns_per_call(|| full.spmv(a, black_box(&x), black_box(&mut y))),
        Some(7),
        format.clone(),
    );
    let page = SpmvBackend::select_rows(a, 0..sm::PAGE_DOUBLES.min(n));
    let mut y_page = vec![0.0; page.range().len()];
    m.set(
        "sparse.spmv_page_ns",
        ns_per_call(|| page.spmv(a, black_box(&x), black_box(&mut y_page))),
        Some(7),
        format!("rows 0..{}", page.range().end),
    );
    m.set(
        "sparse.dot_ns",
        ns_per_call(|| {
            black_box(vecops::dot(black_box(&x), black_box(&y)));
        }),
        Some(7),
        format!("vecops::dot, n={n}"),
    );
    m.set(
        "sparse.axpy_ns",
        ns_per_call(|| vecops::axpy(black_box(1.0001), black_box(&x), black_box(&mut y))),
        Some(7),
        format!("vecops::axpy, n={n}"),
    );
    m.set(
        "sparse.spmv_flops",
        (2 * nnz) as f64,
        None,
        "computed: 2 flop per stored entry",
    );
    // CSR compulsory traffic: values and column indices once, row pointers,
    // x read once and y written once. Computed from array sizes; cache
    // misses are not counted.
    let bytes = nnz * (8 + std::mem::size_of::<usize>())
        + (n + 1) * std::mem::size_of::<usize>()
        + 2 * n * 8;
    m.set(
        "sparse.spmv_bytes",
        bytes as f64,
        None,
        "computed from CSR array sizes, not measured",
    );
    m.set(
        "pool.join_ns",
        ns_per_call(|| {
            black_box(rayon::join(|| black_box(1u64), || black_box(2u64)));
        }),
        Some(7),
        "empty rayon::join round trip",
    );
    m.set(
        "pool.workers",
        rayon::current_num_threads() as f64,
        None,
        "default pool width",
    );
    let registry = PageRegistry::new();
    let id = registry.register("v", 144);
    let mut p = 0usize;
    m.set(
        "pagemem.on_access_ns",
        ns_per_call(|| {
            p = (p + 1) % 144;
            black_box(registry.on_access(id, black_box(p)));
        }),
        Some(7),
        "healthy page",
    );
    let halo = Message::Halo {
        values: (0..dist::GRID).map(|i| i as f64 * 0.5).collect(),
    };
    let mut frame = Vec::new();
    let mut scratch = Vec::new();
    m.set(
        "wire.encode_ns",
        ns_per_call(|| {
            frame.clear();
            write_message(&mut frame, black_box(&halo), &mut scratch).expect("Vec write");
        }),
        Some(7),
        format!("halo frame of {} values, {} bytes", dist::GRID, frame.len()),
    );
    m.set(
        "wire.decode_ns",
        ns_per_call(|| {
            black_box(decode_frame_buf(black_box(&frame)).expect("valid frame"));
        }),
        Some(7),
        "decode_frame_buf of the same frame",
    );
}

/// The ROADMAP ladder on the `sm_clean` system; returns τ (the median Ideal
/// solve) for the DUE section.
fn ladder(run: &Run, t: &mut Traced, spans: &Spans) -> Duration {
    let (a, b) = sm::system(run.seed);
    let one_worker = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-worker pool");
    const RUNGS: [(&str, RecoveryPolicy, bool); 5] = [
        ("ideal", RecoveryPolicy::Ideal, false),
        ("trivial_1w", RecoveryPolicy::Trivial, true),
        ("trivial", RecoveryPolicy::Trivial, false),
        ("feir", RecoveryPolicy::Feir, false),
        ("afeir", RecoveryPolicy::Afeir, false),
    ];
    let mut solve: Vec<Samples> = vec![Samples::default(); RUNGS.len()];
    let mut setup: Vec<Samples> = vec![Samples::default(); RUNGS.len()];
    let (mut compute, mut recovery, mut idle) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut iterations = Vec::new();
    let mut budget = Budget::new(section_seconds(run, "sm_clean"), MIN_ROUNDS);
    while budget.another() {
        for (i, &(name, policy, single)) in RUNGS.iter().enumerate() {
            let label = format!("ladder.{name}");
            let job = spans.span(&label, || {
                if single {
                    one_worker.install(|| sm::run(&a, &b, policy, None, spans, &label))
                } else {
                    sm::run(&a, &b, policy, None, spans, &label)
                }
            });
            t.tally.record(&label, sm::problems(&a, &b, &job));
            solve[i].push(job.solve.wall);
            setup[i].push(job.setup.wall);
            if policy == RecoveryPolicy::Afeir {
                compute.push(job.report.time.compute.as_secs_f64());
                recovery.push(job.report.time.recovery.as_secs_f64());
                idle.push(job.report.time.idle.as_secs_f64());
                iterations.push(job.report.iterations as f64);
            }
        }
    }
    let med: Vec<f64> = solve.iter().map(Samples::median).collect();
    let n = solve[0].len();
    for (i, (name, _, _)) in RUNGS.iter().enumerate() {
        t.metrics
            .set(&format!("ladder.{name}_s"), med[i], Some(n), "median solve");
    }
    let diffs = [
        ("layer.protect_s", 1, 0),
        ("layer.dispatch_s", 2, 1),
        ("layer.feir_s", 3, 2),
        ("layer.afeir_s", 4, 3),
    ];
    for (name, hi, lo) in diffs {
        let upper = format!("ladder.{}_s", RUNGS[hi].0);
        let lower = format!("ladder.{}_s", RUNGS[lo].0);
        t.metrics.set(
            name,
            med[hi] - med[lo],
            Some(n),
            difference_note((&upper, med[hi]), (&lower, med[lo])),
        );
    }
    t.metrics.set(
        "protect.overhead_ratio",
        med[4] / med[0],
        Some(n),
        ratio_note(("ladder.afeir_s", med[4]), ("ladder.ideal_s", med[0])),
    );
    t.metrics.set(
        "protect.compute_s",
        compute.median(),
        Some(n),
        "RunReport.time.compute of the AFEIR rung",
    );
    t.metrics.set(
        "protect.recovery_s",
        recovery.median(),
        Some(n),
        "RunReport.time.recovery of the AFEIR rung",
    );
    t.metrics.set(
        "protect.idle_s",
        idle.median(),
        Some(n),
        "RunReport.time.idle of the AFEIR rung",
    );
    let (afeir_new, trivial_new) = (setup[4].median(), setup[2].median());
    t.metrics.set(
        "recovery.setup_s",
        afeir_new - trivial_new,
        Some(n),
        difference_note(("afeir new", afeir_new), ("trivial new", trivial_new)),
    );
    t.iterations.push(("sm_clean AFEIR", iterations));
    Duration::from_secs_f64(med[0])
}

fn shared_memory_dues(run: &Run, tau: Duration, t: &mut Traced, spans: &Spans) {
    let (a, b) = sm::system(run.seed);
    let mut rng = Rng::new(run.seed, 0x5EED_0005);
    let (mut injected, mut missed, mut discovered, mut recovered) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut budget = Budget::new(section_seconds(run, "sm_due"), MIN_ROUNDS);
    while budget.another() {
        let job = sm::run(
            &a,
            &b,
            RecoveryPolicy::Afeir,
            Some((&mut rng, tau)),
            spans,
            "sm_due",
        );
        t.tally.record("sm_due", sm::problems(&a, &b, &job));
        injected.push(job.injected as f64);
        missed.push(job.missed as f64);
        discovered.push(job.report.faults_discovered as f64);
        recovered.push(job.report.pages_recovered as f64);
    }
    let n = Some(injected.len());
    let per_solve = "median per solve";
    t.metrics
        .set("recovery.faults_injected", injected.median(), n, per_solve);
    t.metrics.set(
        "recovery.faults_missed",
        missed.median(),
        n,
        "median per solve: scheduled after the solve had returned",
    );
    t.metrics.set(
        "recovery.faults_discovered",
        discovered.median(),
        n,
        per_solve,
    );
    t.metrics
        .set("recovery.pages_recovered", recovered.median(), n, per_solve);
    let (rec, disc): (f64, f64) = (recovered.0.iter().sum(), discovered.0.iter().sum());
    t.metrics.set(
        "recovery.useful_ratio",
        if disc > 0.0 { rec / disc } else { 1.0 },
        n,
        ratio_note(("recovered", rec), ("discovered", disc)),
    );
}

fn distributed(run: &Run, t: &mut Traced, spans: &Spans, dropped: &mut f64) {
    let (a, b) = dist::system(run.seed);
    let script = dist::fault_script(run.seed);
    let mut reference: Option<Vec<f64>> = None;
    let (mut traced, mut untraced) = (Samples::default(), Samples::default());
    let mut counts: [Vec<f64>; 6] = Default::default();
    let mut phases: Vec<Samples> = vec![Samples::default(); 6];
    const PHASES: [(&str, Phase); 6] = [
        ("dist.phase.spmv_s", Phase::Spmv),
        ("dist.phase.halo_s", Phase::Halo),
        ("dist.phase.allreduce_wait_s", Phase::AllreduceWait),
        ("dist.phase.recovery_plan_s", Phase::RecoveryPlan),
        (
            "dist.phase.recovery_reconstruct_s",
            Phase::RecoveryReconstruct,
        ),
        ("dist.phase.recovery_install_s", Phase::RecoveryInstall),
    ];
    let mut budget = Budget::new(section_seconds(run, "dist_due"), MIN_ROUNDS);
    let mut round = 0;
    while budget.another() {
        for step in 0..2 {
            let on = (step + round) % 2 == 0;
            feir_trace::set_level(if on {
                TraceLevel::Spans
            } else {
                TraceLevel::Off
            });
            let job = dist::run(&a, &b, &script, spans);
            let r = &job.report;
            let mut problems = dist::problems(&a, &b, &job, reference.as_deref());
            if reference.is_none() {
                reference = Some(r.x.clone());
            }
            for (slot, v) in counts.iter_mut().zip([
                r.iterations,
                r.pages_recovered,
                r.pages_coupled,
                r.pages_ignored,
                r.cross_rank_values,
                r.allreduces as usize,
            ]) {
                slot.push(v as f64);
            }
            if on {
                traced.push(job.solve.wall);
                match &r.trace {
                    Some(trace) => {
                        let summary = trace.summary();
                        *dropped += summary.dropped_events as f64;
                        for (s, (_, phase)) in phases.iter_mut().zip(PHASES) {
                            s.push(summary.phase_total_ns(phase) as f64 / 1e9);
                        }
                    }
                    None => problems.push("traced solve returned no trace".into()),
                }
            } else {
                untraced.push(job.solve.wall);
            }
            t.tally.record("dist_due", problems);
        }
        round += 1;
    }
    feir_trace::set_level(TraceLevel::Spans);
    let n = Some(counts[0].len());
    let names = [
        "dist.pages_recovered",
        "dist.pages_coupled",
        "dist.pages_ignored",
        "dist.cross_rank_values",
        "dist.allreduces",
    ];
    for (name, values) in names.iter().zip(&counts[1..]) {
        t.metrics.set(name, values[0], n, repeat_note(values));
    }
    let spreads = [
        ("repeat.dist_pages_recovered_spread", &counts[1]),
        ("repeat.dist_pages_coupled_spread", &counts[2]),
        ("repeat.dist_cross_rank_values_spread", &counts[4]),
    ];
    for (name, values) in spreads {
        t.metrics.set(name, spread(values), n, repeat_note(values));
    }
    t.iterations.push(("dist_due", counts[0].clone()));
    for (s, (name, _)) in phases.iter().zip(PHASES) {
        t.metrics.set(
            name,
            s.median(),
            Some(s.len()),
            "median per traced solve, summed over ranks",
        );
    }
    t.metrics.set(
        "trace.overhead_ratio.dist_due",
        traced.median() / untraced.median(),
        Some(traced.len() + untraced.len()),
        ratio_note(
            ("traced solve", traced.median()),
            ("untraced solve", untraced.median()),
        ),
    );
}

fn processes(run: &Run, t: &mut Traced, spans: &Spans, dropped: &mut f64) {
    let spec = fleet::specs(run.seed).swap_remove(0);
    let a = fleet::matrix();
    let b = fleet::rhs(&a, &spec);
    // Unlike the end-to-end run, every lossy fleet here replays one chaos
    // schedule, so the link counters can be checked for exact repeats.
    let chaos_seed = Rng::new(run.seed, 0x5EED_0006).next_u64();
    let mut reference: Option<Vec<f64>> = None;
    let (mut traced, mut untraced, mut clean) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut spawn, mut join, mut handshake) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut net: [Vec<f64>; 5] = Default::default();
    let mut iterations = Vec::new();
    let mut budget = Budget::new(section_seconds(run, "proc_lossy"), MIN_ROUNDS);
    let mut round = 0;
    while budget.another() {
        // Clean AFEIR fleet (untraced): the bitwise reference and the base
        // of the loss wait; then one traced and one untraced lossy fleet.
        let kinds = [
            (fleet::Kind::CleanAfeir, false),
            (fleet::Kind::Lossy, round % 2 == 0),
            (fleet::Kind::Lossy, round % 2 == 1),
        ];
        for (kind, on) in kinds {
            std::env::set_var("FEIR_TRACE", if on { "spans" } else { "off" });
            let label = match kind {
                fleet::Kind::CleanAfeir => "proc.clean",
                _ => "proc.lossy",
            };
            let job = spans.span(label, || {
                fleet::run(&run.worker, &run.dir, &spec, kind, chaos_seed, spans)
            });
            let job = match job {
                Ok(job) => job,
                Err(e) => {
                    t.tally.record(label, vec![e]);
                    continue;
                }
            };
            let problems = fleet::problems(&a, &b, &job, reference.as_deref());
            t.tally.record(label, problems);
            if kind == fleet::Kind::CleanAfeir {
                reference.get_or_insert_with(|| job.result.x.clone());
                clean.push(job.total().wall);
                continue;
            }
            iterations.push(job.result.iterations as f64);
            let s = job.result.net;
            for (slot, v) in net.iter_mut().zip([
                s.data_frames,
                s.retransmits,
                s.injected_faults,
                s.rejected,
                s.dup_received,
            ]) {
                slot.push(v as f64);
            }
            if on {
                traced.push(job.total().wall);
                if let Some(trace) = &job.result.trace {
                    *dropped += trace.summary().dropped_events as f64;
                }
                match fleet::handshake_s(&job) {
                    Some(h) => handshake.push(h),
                    None => t.tally.record(
                        "proc.lossy trace",
                        vec!["traced fleet returned no iteration span".into()],
                    ),
                }
            } else {
                untraced.push(job.total().wall);
                spawn.push(job.spawn.wall);
                join.push(job.join.wall);
            }
        }
        round += 1;
    }
    std::env::set_var("FEIR_TRACE", "spans");
    let n = Some(untraced.len());
    t.metrics.set(
        "fleet.spawn_s",
        spawn.median(),
        n,
        "spawn_workers_with, untraced lossy",
    );
    t.metrics
        .set("fleet.join_s", join.median(), n, "join, untraced lossy");
    t.metrics.set(
        "fleet.handshake_s",
        handshake.median(),
        Some(handshake.len()),
        "spawn to rank 0's first Iteration span",
    );
    let names = [
        "net.data_frames",
        "net.retransmits",
        "net.injected_faults",
        "net.rejected",
        "net.dup_received",
    ];
    let nn = Some(net[0].len());
    for (name, values) in names.iter().zip(&net) {
        let med = crate::stats::median(values).unwrap_or(0.0);
        t.metrics.set(
            name,
            med,
            nn,
            format!("median per lossy fleet; {}", repeat_note(values)),
        );
    }
    t.metrics.set(
        "repeat.net_data_frames_spread",
        spread(&net[0]),
        nn,
        repeat_note(&net[0]),
    );
    t.metrics.set(
        "repeat.net_retransmits_spread",
        spread(&net[1]),
        nn,
        repeat_note(&net[1]),
    );
    let frames = crate::stats::median(&net[0]).unwrap_or(0.0);
    let retx = crate::stats::median(&net[1]).unwrap_or(0.0);
    t.metrics.set(
        "net.goodput_ratio",
        if frames > 0.0 {
            (frames - retx) / frames
        } else {
            0.0
        },
        nn,
        format!("= (frames {frames} - retransmits {retx}) / frames {frames}"),
    );
    t.metrics.set(
        "net.loss_wait_s",
        untraced.median() - clean.median(),
        n,
        difference_note(
            ("lossy fleet p50", untraced.median()),
            ("clean-wire AFEIR fleet p50", clean.median()),
        ),
    );
    t.metrics.set(
        "trace.overhead_ratio.proc_lossy",
        traced.median() / untraced.median(),
        Some(traced.len() + untraced.len()),
        ratio_note(
            ("traced fleet", traced.median()),
            ("untraced fleet", untraced.median()),
        ),
    );
    t.iterations.push(("proc_lossy", iterations));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str) -> Run {
        Run {
            workload: workload.into(),
            seed: 1,
            seconds: 100.0,
            trace: true,
            worker: "perfbench".into(),
            dir: "out".into(),
        }
    }

    #[test]
    fn the_chosen_workload_gets_twice_its_share() {
        let all: f64 = SECTIONS.iter().map(|&(_, s)| s).sum();
        for &(workload, share) in &SECTIONS {
            let run = run(workload);
            let total: f64 = SECTIONS
                .iter()
                .map(|&(n, _)| section_seconds(&run, n))
                .sum();
            assert!((total - 100.0 * all).abs() < 1e-9, "{workload}");
            let (own, other) = SECTIONS
                .iter()
                .find(|(n, _)| *n != workload)
                .map(|&(n, s)| {
                    (
                        section_seconds(&run, workload) / share,
                        section_seconds(&run, n) / s,
                    )
                })
                .unwrap();
            assert!((own / other - 2.0).abs() < 1e-9, "{workload}");
        }
    }
}
