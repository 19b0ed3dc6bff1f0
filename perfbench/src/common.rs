//! Pieces shared by every workload: the seeded input generator, the
//! correctness gate and the sample sets.

use std::time::{Duration, Instant};

use feir_sparse::{vecops, CsrMatrix};

use crate::stats;

/// Target relative residual of every solve, checked by the benchmark itself.
pub const TOLERANCE: f64 = 1e-8;

/// SplitMix64: the benchmark's own input generator, so a seed gives the same
/// inputs whatever the program's RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in the stream named by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform real in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// `k` distinct integers from `[0, n)`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        assert!(k <= n);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.range(0, n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// `‖b − A·x‖₂ / ‖b‖₂`, computed here with the plain CSR kernel rather than
/// taken from the solver's own report.
pub fn true_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.rows()];
    a.spmv(x, &mut ax);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
    vecops::norm2(&r) / vecops::norm2(b)
}

/// True if two solutions agree bit for bit.
pub fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Attempted and failed solves, with the reason of every failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Solves attempted (protected, plain and reference solves alike).
    pub attempted: u64,
    /// Failure descriptions, one per failed solve.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one solve; `problems` lists every broken check (none = pass).
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }

    /// Number of failed solves.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// The residual check every solve passes through.
pub fn residual_problems(a: &CsrMatrix, b: &[f64], x: &[f64]) -> Vec<String> {
    let r = true_residual(a, b, x);
    if r.is_finite() && r <= TOLERANCE {
        Vec::new()
    } else {
        vec![format!("true residual {r:e} exceeds {TOLERANCE:e}")]
    }
}

/// A named set of samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Median (0 for an empty set, which callers avoid by construction).
    pub fn median(&self) -> f64 {
        stats::median(&self.0).unwrap_or(0.0)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Wall and CPU seconds of one timed call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Took {
    /// Elapsed wall seconds.
    pub wall: f64,
    /// CPU seconds of this process and of the children reaped meanwhile.
    pub cpu: f64,
}

/// Times `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Took) {
    let (start, cpu) = (Instant::now(), cpu_seconds());
    let out = f();
    let took = Took {
        wall: start.elapsed().as_secs_f64(),
        cpu: cpu_seconds() - cpu,
    };
    (out, took)
}

/// CPU seconds used so far by every thread of this process and by the
/// child processes it has waited for (the workers of a joined fleet).
///
/// A thread is charged only for the time it ran. On a virtual machine whose
/// kernel accounts paravirtual steal time, time the hypervisor gave to other
/// guests is left out, so this clock does not follow the host's contention
/// the way wall time does.
pub fn cpu_seconds() -> f64 {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        _rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let mut total = 0.0;
    for who in [RUSAGE_SELF, RUSAGE_CHILDREN] {
        let mut u = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            _rest: [0; 14],
        };
        // SAFETY: `u` has the layout of `struct rusage` and outlives the
        // call, which only writes into it.
        if unsafe { getrusage(who, &mut u) } == 0 {
            total += (u.utime[0] + u.stime[0]) as f64 + (u.utime[1] + u.stime[1]) as f64 * 1e-6;
        }
    }
    total
}

/// A measurement window: loops run until it closes, but always at least
/// `min_rounds` times.
pub struct Budget {
    start: Instant,
    length: Duration,
    min_rounds: usize,
    rounds: usize,
}

impl Budget {
    /// A window of `seconds` seconds, starting now.
    pub fn new(seconds: f64, min_rounds: usize) -> Self {
        Budget {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds.max(0.0)),
            min_rounds,
            rounds: 0,
        }
    }

    /// True while another round should run; counts the round.
    pub fn another(&mut self) -> bool {
        let go = self.rounds < self.min_rounds || self.start.elapsed() < self.length;
        if go {
            self.rounds += 1;
        }
        go
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_reproducible_and_seed_dependent() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(8, 1).next_u64();
        let d = Rng::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        assert_ne!(a[0], d);
    }

    #[test]
    fn distinct_draws_have_no_repeats() {
        let mut r = Rng::new(3, 0);
        let v = r.distinct(8, 10);
        let mut s = v.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 8);
        assert!(v.iter().all(|&x| x < 10));
        let mut r = Rng::new(5, 0);
        assert!((0..1000)
            .map(|_| r.symmetric())
            .all(|x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn residual_gate_rejects_a_wrong_answer() {
        let a = feir_sparse::generators::poisson_2d(6);
        let (x_true, b) = feir_sparse::generators::manufactured_rhs(&a, 1);
        assert!(residual_problems(&a, &b, &x_true).is_empty());
        let mut wrong = x_true.clone();
        wrong[3] += 1e-3;
        assert_eq!(residual_problems(&a, &b, &wrong).len(), 1);
        let mut tally = Tally::default();
        tally.record("ok", Vec::new());
        tally.record("bad", residual_problems(&a, &b, &wrong));
        assert_eq!((tally.attempted, tally.failed()), (2, 1));
        assert!(!same_bits(&x_true, &wrong));
        assert!(same_bits(&x_true, &x_true.clone()));
    }

    #[test]
    fn the_cpu_clock_counts_work_and_not_sleep() {
        // The clock is process-wide and other tests run meanwhile, so the
        // sleep is long against their few tens of milliseconds.
        let (_, slept) = timed(|| std::thread::sleep(Duration::from_millis(300)));
        assert!(slept.wall >= 0.3);
        assert!(slept.cpu < 0.15, "{slept:?}");
        let (_, busy) = timed(|| {
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(60) {
                std::hint::black_box(0);
            }
        });
        assert!(busy.cpu > 0.03, "{busy:?}");
    }

    #[test]
    fn budget_runs_at_least_the_minimum() {
        let mut b = Budget::new(0.0, 3);
        let mut n = 0;
        while b.another() {
            n += 1;
        }
        assert_eq!(n, 3);
    }
}
