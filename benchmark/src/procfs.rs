//! `/proc/self` readers: peak resident set, CPU and run-queue time, faults,
//! context switches. Linux only; on another platform every reader returns `None`
//! and the harness reports the run as failed rather than inventing zeros.

/// Kernel clock ticks per second behind the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`sysconf(_SC_CLK_TCK)`; 100 on every Linux ABI the
/// workspace builds for).
pub const USER_HZ: f64 = 100.0;

/// CPU time and fault counters of the process at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcSnapshot {
    /// Seconds on a CPU, nanosecond-grained (`/proc/self/schedstat`; the
    /// tick-grained `utime + stime` on a kernel without scheduler stats).
    pub cpu_s: f64,
    /// Seconds spent runnable but waiting for a CPU — what other work on
    /// the host costs this process (0 without scheduler stats).
    pub runq_wait_s: f64,
    /// User-mode CPU seconds (tick-grained).
    pub user_s: f64,
    /// Kernel-mode CPU seconds (tick-grained).
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

/// The value of a `Key:   123 kB` (or unit-less) line of
/// `/proc/<pid>/status`.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// `(utime ticks, stime ticks, minor faults)` from a `/proc/<pid>/stat`
/// line. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn stat_fields(stat: &str) -> Option<(u64, u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
    let at = |field: usize| fields.get(field - 3)?.parse::<u64>().ok();
    Some((at(14)?, at(15)?, at(10)?))
}

/// `(on-CPU ns, run-queue wait ns)` from a `/proc/<pid>/schedstat` line.
pub fn schedstat_fields(schedstat: &str) -> Option<(u64, u64)> {
    let mut fields = schedstat.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// Peak resident set (`VmHWM`) of this process in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(status_field(&status, "VmHWM")? as f64 * 1024.0 / 1e6)
}

/// CPU time and fault counters of this process now.
pub fn snapshot() -> Option<ProcSnapshot> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let (utime, stime, minor_faults) = stat_fields(&stat)?;
    let (user_s, sys_s) = (utime as f64 / USER_HZ, stime as f64 / USER_HZ);
    let (cpu_s, runq_wait_s) = std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|text| schedstat_fields(&text))
        .map_or((user_s + sys_s, 0.0), |(cpu, wait)| (cpu as f64 / 1e9, wait as f64 / 1e9));
    Some(ProcSnapshot {
        cpu_s,
        runq_wait_s,
        user_s,
        sys_s,
        minor_faults,
        ctx_switches: status_field(&status, "voluntary_ctxt_switches")?
            + status_field(&status, "nonvoluntary_ctxt_switches")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tfedzkt_benchmark\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\n\
                          VmRSS:\t   40000 kB\nThreads:\t1\nvoluntary_ctxt_switches:\t12\n\
                          nonvoluntary_ctxt_switches:\t345\n";

    #[test]
    fn status_fields_parse_with_and_without_units() {
        assert_eq!(status_field(STATUS, "VmHWM"), Some(51234));
        assert_eq!(status_field(STATUS, "Threads"), Some(1));
        assert_eq!(status_field(STATUS, "nonvoluntary_ctxt_switches"), Some(345));
        assert_eq!(status_field(STATUS, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_field(STATUS, "VmSwap"), None);
    }

    #[test]
    fn stat_survives_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 777 0 3 0 1234 56 0 0 20 0 1 0 \
                    100 1000 10 18446744073709551615";
        assert_eq!(stat_fields(stat), Some((1234, 56, 777)));
        assert_eq!(stat_fields("no parenthesis here"), None);
        assert_eq!(stat_fields("1 (x) R 1 2"), None);
    }

    #[test]
    fn schedstat_takes_the_first_two_fields() {
        assert_eq!(schedstat_fields("511920349 3623405 50\n"), Some((511920349, 3623405)));
        assert_eq!(schedstat_fields("12"), None);
        assert_eq!(schedstat_fields("a b c"), None);
    }

    #[test]
    fn live_readers_agree_with_the_kernel_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let rss = peak_rss_mb().expect("VmHWM is present on Linux");
        assert!(rss > 0.1, "peak RSS {rss} MB");
        let snap = snapshot().expect("stat and status parse");
        assert!(snap.cpu_s > 0.0 && snap.user_s >= 0.0 && snap.sys_s >= 0.0);
    }
}
