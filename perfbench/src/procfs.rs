//! Process accounting read from outside the measured code: CPU clocks,
//! `/proc/<pid>/stat` user/system split, and `VmHWM`.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

fn read_clock(clock: i32) -> Option<Duration> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// CPU time (user + system, all threads) this process has used.
pub fn self_cpu() -> Duration {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).expect("the process CPU clock always exists")
}

/// A nanosecond-resolution CPU clock of another process.
#[derive(Clone, Copy, Debug)]
pub struct CpuClock(i32);

impl CpuClock {
    /// The CPU clock of process `pid`, if it still exists.
    pub fn of(pid: u32) -> Option<CpuClock> {
        let mut clock = 0i32;
        // SAFETY: `clock` is a valid, writable clockid_t.
        let rc = unsafe { clock_getcpuclockid(pid as i32, &mut clock) };
        (rc == 0).then_some(CpuClock(clock))
    }

    /// CPU time used so far; `None` once the process is gone.
    pub fn read(self) -> Option<Duration> {
        read_clock(self.0)
    }
}

/// Kernel clock ticks per second (`USER_HZ`).
fn clock_ticks() -> f64 {
    // SAFETY: sysconf has no memory-safety preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// `(utime, stime)` of `pid` in seconds, from `/proc/<pid>/stat`. These
/// are the process's own times — not `cutime`, which folds in children.
pub fn user_sys(pid: u32) -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    let hz = clock_ticks();
    Some((utime / hz, stime / hz))
}

/// Peak resident set (`VmHWM`) of `pid` in MiB; `"self"` for this process.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_clocks_advance_and_agree() {
        let pid = std::process::id();
        let clock = CpuClock::of(pid).expect("own CPU clock");
        let a = clock.read().unwrap();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(clock.read().unwrap() > a);
        assert!(self_cpu() > Duration::ZERO);
        let (u, s) = user_sys(pid).expect("own stat");
        assert!(u >= 0.0 && s >= 0.0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
