//! Clocks, memory readings and order statistics — everything the benchmark
//! reads from the host rather than from the program under test.

/// Process CPU time (all threads) in nanoseconds: the clock behind
/// `cpu_ns_per_tuple`. Unlike wall time it still moves when the *other*
/// thread is the wall-clock bottleneck.
// std exposes no CPU clocks and the workspace is offline (no `libc`), so the
// declaration below mirrors the one `fd_engine::telemetry::thread_cpu_ns`
// uses for the per-thread clock.
#[cfg(target_os = "linux")]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed out-pointer for the
    // duration of the call, `Timespec` matches the 64-bit Linux layout of
    // `struct timespec`, and the clock id exists on every Linux ≥ 2.6.12.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    } else {
        0
    }
}

/// Without a process CPU clock the CPU metrics cannot be measured; report
/// zero rather than a wall-clock stand-in that would look like a reading.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_ns() -> u64 {
    0
}

/// One `Vm*` line of `/proc/self/status`, in KiB (0 when unreadable).
fn status_kib(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Resident set right now, KiB.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS")
}

/// Resident-set high-water mark of the process so far, KiB.
pub fn rss_peak_kib() -> u64 {
    status_kib("VmHWM")
}

/// Resets the high-water mark to the current resident set, so that the
/// next reading is the peak since now. `false` where the kernel refuses
/// (a read-only `/proc`): the mark then keeps its process-lifetime meaning.
pub fn reset_rss_peak() -> bool {
    // "5" resets only the peak-RSS counter; it touches no page.
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mountinfo` — so fsync numbers taken on tmpfs or
/// overlay are labelled as such and not read as disk behaviour.
pub fn fs_type(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> ..."
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (head.split(' ').nth(4), tail.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Interquartile range as a share of the median — the spread the
    /// compare verdicts hold against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the same rule as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method), so the benchmark's own spread check and an outside
/// checker agree on the same ten values. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
            n,
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it in a sample of `n` — reporting p99 of 200 samples
/// would be reporting its two worst values.
pub fn top_percentile(n: usize) -> f64 {
    // (percentile, samples beyond it per thousand) — integers, so that
    // 10 000 samples do have ten beyond p99.9.
    const LADDER: [(f64, usize); 5] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (50.0, 500)];
    LADDER
        .into_iter()
        .find(|&(_, beyond_per_mille)| n * beyond_per_mille >= 10 * 1000)
        .map_or(50.0, |(p, _)| p)
}

/// The `p`-th percentile (nearest rank) of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let q = quartiles(&[90.0, 100.0, 110.0]);
        assert!((q.spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn percentile_selection_needs_ten_samples_beyond() {
        // 980 chunk latencies: 1% = 9.8 samples beyond p99 — not enough.
        assert_eq!(top_percentile(980), 95.0);
        assert_eq!(top_percentile(1_000), 99.0);
        assert_eq!(top_percentile(10_000), 99.9);
        assert_eq!(top_percentile(200), 95.0);
        assert_eq!(top_percentile(100), 90.0);
        assert_eq!(top_percentile(20), 50.0);
        assert_eq!(top_percentile(3), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn process_cpu_clock_advances_under_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }
}
