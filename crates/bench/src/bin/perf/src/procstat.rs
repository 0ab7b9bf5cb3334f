//! What the operating system says about this process and this machine:
//! CPU time, peak memory from `/proc/self/status`, and the fields of the
//! header line that make two result files comparable. Linux only.

use std::fs;

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux: CPU time of all threads of the
/// process, living and ended, in nanoseconds.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User plus system CPU seconds of the whole process so far.
///
/// `/proc/self/stat` gives the same sum in ticks of 10 ms, which is 3 % of
/// the CPU a `wire_hot` round uses; the per-round estimator needs better, and
/// the standard library has no CPU clock, so this asks the C library that
/// `std` already links.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, which writes nothing else; the clock id is a constant that every
    // Linux kernel since 2.6.12 accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size so far, in MiB.
pub fn vm_hwm_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mb(&status).expect("VmHWM in /proc/self/status")
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// in a checkout that is not a repository.
pub fn git_sha() -> String {
    let read = |p: &str| fs::read_to_string(p).ok();
    let sha = read(".git/HEAD").and_then(|head| {
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        read(&format!(".git/{reference}")).map(|s| s.trim().to_string()).or_else(|| {
            let packed = read(".git/packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            Some(line.split_whitespace().next()?.to_string())
        })
    });
    sha.map_or_else(|| "unknown".into(), |s| s.chars().take(12).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_read_in_mib() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tperf\n"), None);
    }

    #[test]
    fn live_readers_work_on_this_machine() {
        let before = cpu_seconds();
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 20 {
            std::hint::black_box(0);
        }
        let used = cpu_seconds() - before;
        assert!((0.005..1.0).contains(&used), "20 ms of spinning read as {used} s of CPU");
        assert!(vm_hwm_mb() > 0.0);
    }
}
