//! CPU and memory readings from `/proc`, plus the one reading `/proc` cannot
//! give: the peak resident size of children that have already been reaped.

use std::io;

/// Kernel clock ticks per second for the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI on every mainstream target).
pub const TICKS_PER_SECOND: f64 = 100.0;

/// The CPU-time fields of `/proc/<pid>/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// User time of the process itself (all its threads).
    pub utime: u64,
    /// System time of the process itself.
    pub stime: u64,
    /// User time of waited-for children (and their waited-for descendants).
    pub cutime: u64,
    /// System time of waited-for children.
    pub cstime: u64,
}

impl CpuTicks {
    /// Own user+system time, in seconds.
    pub fn own_seconds(&self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_SECOND
    }

    /// Reaped children's user+system time, in seconds.
    pub fn children_seconds(&self) -> f64 {
        (self.cutime + self.cstime) as f64 / TICKS_PER_SECOND
    }

    /// Own plus reaped children's time, in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.own_seconds() + self.children_seconds()
    }
}

/// Parses the contents of `/proc/<pid>/stat`.  The command name (field 2)
/// is parenthesised and may itself contain spaces or parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name: state(3) ppid(4) ... utime(14) stime(15) cutime(16)
    // cstime(17), i.e. indices 11..=14 of the remaining fields.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some(CpuTicks {
        utime: field(11)?,
        stime: field(12)?,
        cutime: field(13)?,
        cstime: field(14)?,
    })
}

/// Reads the CPU ticks of `pid` (`"self"` for this process).
pub fn read_stat(pid: &str) -> io::Result<CpuTicks> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat(&text).ok_or_else(|| io::Error::other(format!("malformed /proc/{pid}/stat")))
}

/// Parses `VmHWM` (peak resident set size) out of `/proc/<pid>/status`, in
/// KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix("VmHWM:")?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Reads the peak resident set size of `pid` (`"self"` for this process),
/// in KiB.
pub fn read_vm_hwm_kib(pid: &str) -> io::Result<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_vm_hwm_kib(&text)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in /proc/{pid}/status")))
}

/// Ticks of all CPUs since boot from the first line of `/proc/stat`:
/// `(total, steal)`, where steal is time a hypervisor ran someone else while
/// this machine's CPUs had work.
pub fn parse_cpu_line(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]; the
    // guest times are already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

/// Reads `(total, steal)` CPU ticks of the whole machine.
pub fn read_cpu_line() -> io::Result<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat")?;
    parse_cpu_line(&text).ok_or_else(|| io::Error::other("malformed /proc/stat"))
}

/// `struct rusage` of the Linux C ABI on 64-bit targets: two `timeval`s
/// followed by fourteen `long` counters, the first of which is `ru_maxrss`.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// The largest peak resident set size among every child this process has
/// waited for, in KiB.  A reaped process leaves no `/proc` entry, so this is
/// the one reading taken through `getrusage(RUSAGE_CHILDREN)`.
pub fn reaped_children_max_rss_kib() -> io::Result<u64> {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value whose layout matches the C
    // ABI's `struct rusage` on 64-bit Linux (two 16-byte timevals, then
    // fourteen 8-byte longs), so the kernel writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        Ok(u64::try_from(usage.maxrss).unwrap_or(0))
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        // A command name with spaces and a ')' inside, as the kernel allows.
        let line = "4242 (smpq (worker) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    123 45 678 90 20 0 3 0 100 0 0";
        let ticks = parse_stat(line).expect("parses");
        assert_eq!(
            ticks,
            CpuTicks {
                utime: 123,
                stime: 45,
                cutime: 678,
                cstime: 90
            }
        );
        assert!((ticks.own_seconds() - 1.68).abs() < 1e-12);
        assert!((ticks.children_seconds() - 7.68).abs() < 1e-12);
        assert!(parse_stat("12 (truncated) S 1 2").is_none());
    }

    #[test]
    fn machine_steal_is_the_eighth_cpu_field() {
        let stat = "cpu  100 5 20 800 3 0 2 70 9 0\ncpu0 50 2 10 400 1 0 1 35 4 0\n";
        assert_eq!(parse_cpu_line(stat), Some((1000, 70)));
        assert_eq!(parse_cpu_line("intr 1 2 3\n"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tsmpq\nVmPeak:\t  20000 kB\nVmHWM:\t   8124 kB\nVmRSS:\t 7000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(8124));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(read_vm_hwm_kib("self").expect("own status") > 0);
        read_stat("self").expect("own stat");
    }

    #[test]
    fn reaped_children_show_up_in_cutime_and_maxrss() {
        // A child that burns CPU and holds a 32 MiB string, then exits and
        // is waited for: its time must move cutime+cstime and its peak must
        // reach the children's max RSS.
        let before = read_stat("self").expect("own stat");
        let status = std::process::Command::new("sh")
            .arg("-c")
            .arg(
                "i=0; while [ $i -lt 300000 ]; do i=$((i+1)); done; \
                  x=$(head -c 33554432 /dev/zero | tr '\\0' a); echo ${#x} > /dev/null",
            )
            .status()
            .expect("sh runs");
        assert!(status.success());
        let after = read_stat("self").expect("own stat");
        assert!(after.cutime + after.cstime > before.cutime + before.cstime);
        assert!(reaped_children_max_rss_kib().expect("getrusage") > 32 * 1024);
    }
}
