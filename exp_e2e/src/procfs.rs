//! Process and thread CPU time, from the kernel's CPU clocks, and peak
//! memory, from `/proc/self/status`.

/// utime + stime of the whole process (every thread), in seconds.
///
/// Read from `CLOCK_PROCESS_CPUTIME_ID`, which counts the same time as
/// the `utime`/`stime` fields of `/proc/self/stat` to the nanosecond
/// rather than to the 10 ms clock tick, fine enough to time one cycle.
pub fn cpu_s() -> Result<f64, String> {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_s(CLOCK_PROCESS_CPUTIME_ID, "CLOCK_PROCESS_CPUTIME_ID")
}

/// utime + stime of the calling thread, in seconds.
pub fn thread_cpu_s() -> Result<f64, String> {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_s(CLOCK_THREAD_CPUTIME_ID, "CLOCK_THREAD_CPUTIME_ID")
}

fn clock_s(clock: i32, name: &str) -> Result<f64, String> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux) that outlives the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!("clock_gettime({name}) failed"));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Peak resident set size (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
}

/// Reads the `VmHWM:` line of a `/proc/<pid>/status` file, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Result<u64, String> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("status has no VmHWM line")?;
    let mut parts = line.split_whitespace();
    let value = parts
        .next()
        .ok_or("VmHWM has no value")?
        .parse::<u64>()
        .map_err(|e| format!("VmHWM: {e}"))?;
    match parts.next() {
        Some("kB") => Ok(value),
        other => Err(format!("VmHWM unit {other:?}, expected kB")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\texp_e2e\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Ok(20480));
    }

    #[test]
    fn malformed_status_is_an_error() {
        assert!(parse_vm_hwm_kib("").is_err());
        assert!(parse_vm_hwm_kib("VmHWM:\n").is_err());
        assert!(parse_vm_hwm_kib("VmHWM:\t12 MB\n").is_err());
        assert!(parse_vm_hwm_kib("VmHWM:\tlots kB\n").is_err());
    }

    #[test]
    fn reads_this_process() {
        let t0 = cpu_s().unwrap();
        let mut x = 0u64;
        while cpu_s().unwrap() <= t0 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(peak_rss_kib().is_ok_and(|kib| kib > 0));
    }
}
