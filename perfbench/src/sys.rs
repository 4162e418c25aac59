//! Process and host probes read from `/proc`: peak resident set size, the
//! host's CPU-steal share, and the hardware thread count.

use std::fs;

extern "C" {
    // glibc: return free heap pages to the kernel, so the resident set
    // after input generation holds only what the measured phases use.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Release freed heap memory back to the kernel.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only walks and shrinks the allocator's own free
    // lists; it has no preconditions beyond a live glibc heap.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset the process's `VmHWM` to its current resident set size.
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// The process's `VmHWM` (peak resident set size) in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kib| kib * 1024)
}

/// Aggregate CPU time counters from `/proc/stat`: `(total, steal)` jiffies.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

impl CpuTimes {
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().next() else {
            return Self::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so the first eight sum to
        // the total.
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|x| x.parse().ok())
            .collect();
        Self {
            total: f.iter().sum(),
            steal: f.get(7).copied().unwrap_or(0),
        }
    }

    /// Steal share of all CPU time since `earlier`, in percent.
    pub fn steal_pct_since(&self, earlier: &Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
