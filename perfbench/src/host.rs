//! Host and provenance block printed ahead of the result line.

use crate::report::{json_number, json_string};

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the largest cache level the kernel reports for CPU 0, as text
/// (e.g. `105M`, as sysfs prints it).
fn llc_size() -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, String)> = None;
    for index in 0..8 {
        let dir = format!("{base}/index{index}");
        let level = std::fs::read_to_string(format!("{dir}/level"))
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok());
        let size = std::fs::read_to_string(format!("{dir}/size")).ok();
        if let (Some(level), Some(size)) = (level, size) {
            if best.as_ref().is_none_or(|(l, _)| level > *l) {
                best = Some((level, size.trim().to_string()));
            }
        }
    }
    best.map_or_else(|| "unknown".into(), |(l, s)| format!("L{l} {s}"))
}

/// The commit of the checkout, when it is a git working tree.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unavailable (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Aggregate CPU time counters of the machine (`/proc/stat`, in ticks).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    idle: u64,
    steal: u64,
}

impl CpuTicks {
    /// The counters now; zeros where `/proc/stat` is unreadable.
    pub fn now() -> Self {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        CpuTicks {
            total: fields.iter().sum(),
            idle: at(3),
            steal: at(7),
        }
    }

    /// Shares of CPU time that were idle and stolen by the hypervisor
    /// between `self` and `later`, as JSON fields. Stolen time slows every
    /// thread hand-off, so it is printed with every run.
    pub fn shares_json(&self, later: &CpuTicks) -> String {
        let total = later.total.saturating_sub(self.total).max(1) as f64;
        format!(
            "\"cpu_idle_share\": {}, \"cpu_steal_share\": {}",
            json_number(later.idle.saturating_sub(self.idle) as f64 / total),
            json_number(later.steal.saturating_sub(self.steal) as f64 / total)
        )
    }
}

/// One JSON line describing the machine, the configuration and the samples
/// behind every timing of this run.
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    cpu: (CpuTicks, CpuTicks),
    samples: &[(&str, usize)],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let counts: Vec<String> = samples
        .iter()
        .map(|(name, n)| format!("{}: {n}", json_string(name)))
        .collect();
    format!(
        "{{\"host\": {{\"cpu\": {}, \"nproc\": {nproc}, \"llc\": {}, \"pool_width\": {}, \
         \"feir_num_threads\": {}, {}}}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \
         \"trace\": {trace}, \"commit\": {}, \"samples\": {{{}}}}}",
        json_string(&cpu_model()),
        json_string(&llc_size()),
        rayon::current_num_threads(),
        json_string(&std::env::var("FEIR_NUM_THREADS").unwrap_or_else(|_| "unset".into())),
        cpu.0.shares_json(&cpu.1),
        json_string(workload),
        json_number(seconds),
        json_string(&git_commit()),
        counts.join(", ")
    )
}
