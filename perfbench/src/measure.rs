//! Pure measurement helpers: order statistics, the F-measure from confusion
//! counts, and the `/proc` parsers behind the noise accounting. Everything
//! here is a function of its arguments, so the unit tests below pin it.

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`). Linux
/// exports these counters in units of 1/100 s on every architecture.
pub const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Nearest-rank `q`-quantile (`q` in 0..=1) of an ascending slice: the
/// smallest sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// F-measure straight from confusion counts: `2tp / (2tp + fp + fn)`, the
/// harmonic mean of precision and recall, 0 when nothing true is covered.
pub fn f_from_counts(tp: usize, fp: usize, fn_: usize) -> f64 {
    if tp == 0 {
        0.0
    } else {
        (2 * tp) as f64 / (2 * tp + fp + fn_) as f64
    }
}

/// Machine-wide steal ticks: the 8th value of the aggregate `cpu` line of
/// `/proc/stat` (`user nice system idle iowait irq softirq steal ...`).
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// This process's `(utime, stime)` ticks from `/proc/self/stat`, fields 14
/// and 15. The command name (field 2) is parenthesised and may contain
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_self_cpu_ticks(self_stat: &str) -> Option<(u64, u64)> {
    let rest = &self_stat[self_stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11); // field 3 is index 0
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Peak resident set size in kB: the `VmHWM` line of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A thread's CPU time in ms: the `se.sum_exec_runtime` line of
/// `/proc/thread-self/sched`, which the scheduler keeps to the nanosecond
/// and which leaves out time stolen by the hypervisor.
pub fn parse_sum_exec_runtime_ms(sched: &str) -> Option<f64> {
    sched
        .lines()
        .find(|l| l.starts_with("se.sum_exec_runtime"))?
        .split(':')
        .nth(1)?
        .trim()
        .parse()
        .ok()
}

/// CPU seconds the calling thread has run, or `None` where the kernel does
/// not export `/proc/thread-self/sched`.
pub fn thread_cpu_s() -> Option<f64> {
    let sched = std::fs::read_to_string("/proc/thread-self/sched").ok()?;
    parse_sum_exec_runtime_ms(&sched).map(|ms| ms / 1e3)
}

/// One reading of the host and process CPU clocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    /// Machine-wide steal, in ticks.
    pub steal: u64,
    /// Process user time, in ticks.
    pub user: u64,
    /// Process system time, in ticks.
    pub sys: u64,
}

impl CpuSample {
    /// Reads `/proc/stat` and `/proc/self/stat`; zeros where unreadable (a
    /// missing `/proc` makes the noise columns read 0, never fails a run).
    pub fn read() -> Self {
        let steal = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| parse_steal_ticks(&s))
            .unwrap_or(0);
        let (user, sys) = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_self_cpu_ticks(&s))
            .unwrap_or((0, 0));
        Self { steal, user, sys }
    }

    /// Seconds elapsed on each clock since `earlier`: `(steal, user, sys)`.
    pub fn since(&self, earlier: &CpuSample) -> (f64, f64, f64) {
        let secs = |now: u64, then: u64| now.saturating_sub(then) as f64 / CLOCK_TICKS_PER_SEC;
        (
            secs(self.steal, earlier.steal),
            secs(self.user, earlier.user),
            secs(self.sys, earlier.sys),
        )
    }
}

/// Process high-water resident memory in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 10 samples: p99 is the largest, p50 the fifth.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), 10.0);
        assert_eq!(percentile(&w, 0.5), 5.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn f_from_counts_matches_precision_recall_form() {
        assert_eq!(f_from_counts(0, 3, 4), 0.0);
        assert_eq!(f_from_counts(8, 2, 2), 0.8);
        for (tp, fp, fn_) in [(1, 0, 0), (3, 1, 7), (10, 5, 0), (2, 9, 9)] {
            let p = tp as f64 / (tp + fp) as f64;
            let r = tp as f64 / (tp + fn_) as f64;
            let f = 2.0 * p * r / (p + r);
            assert!((f_from_counts(tp, fp, fn_) - f).abs() < 1e-12);
        }
    }

    #[test]
    fn parses_steal_from_proc_stat() {
        let stat = "cpu  4705 356 584 3699 23 0 12 77 0 0\n\
                    cpu0 1393 21 221 1762 11 0 8 40 0 0\nintr 1 2 3\n";
        assert_eq!(parse_steal_ticks(stat), Some(77));
        assert_eq!(parse_steal_ticks("intr 1 2\n"), None);
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn parses_self_cpu_with_awkward_command_names() {
        let tail = "S 1 2 3 4 5 6 7 8 9 10 1234 56 0 0 20 0 3 0 100 200 300";
        for comm in ["perfbench", "a b", "x) (y", ""] {
            let line = format!("4242 ({comm}) {tail}");
            assert_eq!(parse_self_cpu_ticks(&line), Some((1234, 56)), "{comm:?}");
        }
        assert_eq!(parse_self_cpu_ticks("4242 (short) S 1 2"), None);
        assert_eq!(parse_self_cpu_ticks("no parens"), None);
    }

    #[test]
    fn parses_thread_runtime() {
        let sched = "perfbench (4242, #threads: 3)\n\
                     -------------------------------------------------------------------\n\
                     se.exec_start                                :      23395376.088288\n\
                     se.vruntime                                  :             0.263405\n\
                     se.sum_exec_runtime                          :          1234.567891\n";
        assert_eq!(parse_sum_exec_runtime_ms(sched), Some(1234.567891));
        assert_eq!(parse_sum_exec_runtime_ms("se.vruntime : 1.0\n"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t   17408 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(17408));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_sample_differences_are_seconds() {
        let a = CpuSample {
            steal: 10,
            user: 100,
            sys: 5,
        };
        let b = CpuSample {
            steal: 35,
            user: 350,
            sys: 6,
        };
        assert_eq!(b.since(&a), (0.25, 2.5, 0.01));
        assert_eq!(a.since(&b), (0.0, 0.0, 0.0));
    }
}
