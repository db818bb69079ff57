//! What the benchmark reads about its own process and host: the
//! fingerprint printed with every result, process CPU time, and peak
//! resident memory.

use std::fs;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The CPU model line from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// User plus system CPU seconds this process has used, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) is parenthesised and may hold spaces:
    // count fields from the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    // `rest` starts at field 3, so utime (14) and stime (15) sit at 11, 12.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

fn status_kb(key: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size since the last [`reset_peak_rss`], in KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Reset the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_kb`] reads the peak of what follows.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM (Linux ≥ 4.0).
    fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

/// The CPUs this process may run on, from `Cpus_allowed_list`.
pub fn allowed_cpus() -> Vec<usize> {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")).unwrap_or("");
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi.min(CPU_SET_BITS - 1));
        }
    }
    cpus
}

const CPU_SET_BITS: usize = 1024;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread to `cpus` (Linux `sched_setaffinity`).
/// Returns false, leaving the affinity as it was, if the call fails.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; CPU_SET_BITS / 64];
    for &c in cpus.iter().filter(|&&c| c < CPU_SET_BITS) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live, initialised 128-byte buffer — the size
    // of glibc's `cpu_set_t` — and its length is passed alongside; the
    // call only reads it. pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Runs single-threaded work on each allowed CPU in turn. On a shared
/// host the cores are not equally fast (a busy hyperthread sibling or
/// interrupt load slows one down by 20% or more), and the scheduler
/// keeps a lone thread on whichever core it picked first; rotating
/// makes a run's median cover every core instead of the one it drew.
pub struct CoreRotation {
    cpus: Vec<usize>,
    next: usize,
}

impl CoreRotation {
    pub fn new() -> Self {
        CoreRotation { cpus: allowed_cpus(), next: 0 }
    }

    /// CPUs in the rotation.
    pub fn len(&self) -> usize {
        self.cpus.len().max(1)
    }

    /// Move the calling thread to the next CPU in the rotation; returns
    /// that CPU's slot in the rotation, for [`core_balanced_median`].
    pub fn advance(&mut self) -> usize {
        if self.cpus.is_empty() {
            return 0;
        }
        let slot = self.next % self.cpus.len();
        self.next += 1;
        if set_affinity(&[self.cpus[slot]]) {
            slot
        } else {
            0
        }
    }
}

impl Drop for CoreRotation {
    /// Give the thread every allowed CPU back.
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            set_affinity(&self.cpus);
        }
    }
}

/// The mean over cores of each core's median, for samples tagged with
/// their [`CoreRotation`] slot: a plain median of a sample split evenly
/// between a fast and a slow core would sit in the gap between them.
pub fn core_balanced_median(samples: &[(usize, f64)]) -> f64 {
    let mut by_slot: Vec<Vec<f64>> = Vec::new();
    for &(slot, v) in samples {
        if by_slot.len() <= slot {
            by_slot.resize(slot + 1, Vec::new());
        }
        by_slot[slot].push(v);
    }
    let medians: Vec<f64> = by_slot.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

/// Median of `xs` (which must be non-empty).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile of `xs`, by the
/// exclusive method (the one Python's `statistics.quantiles` uses).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |p: f64| {
        // Position p·(n+1), 1-based, clamped to the sample.
        let pos = (p * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let a = v[lo - 1];
        let b = v[lo.min(v.len() - 1)];
        a + frac * (b - a)
    };
    (at(0.25), at(0.5), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let tagged = [(0, 10.0), (1, 20.0), (0, 12.0), (1, 22.0), (0, 11.0), (1, 21.0)];
        assert_eq!(core_balanced_median(&tagged), 16.0);
    }

    #[test]
    fn proc_readers_return_live_values() {
        reset_peak_rss();
        let before = peak_rss_kb();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_kb() >= before + (60 << 10), "a 64 MiB block raises the peak");
        assert!(cpu_seconds() > 0.0);
    }
}
