//! The few operating-system facts the benchmark reads: readiness waits
//! (`ppoll`), CPU time of the process and of the calling thread
//! (`getrusage`), peak resident memory and host steal time (`/proc`).
//! Linux only, like the serving stack's reactor.

use std::io;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        mask: *const c_void,
    ) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;
const RUSAGE_SELF: c_int = 0;
const RUSAGE_THREAD: c_int = 1;

/// One descriptor's interest and, after [`wait`], its readiness.
#[derive(Debug, Clone, Copy)]
pub struct Interest {
    /// The socket.
    pub fd: RawFd,
    /// Also wake when the socket can take more bytes.
    pub writable: bool,
    /// Set by [`wait`]: bytes (or EOF, or an error) to read.
    pub readable_now: bool,
}

impl Interest {
    /// Wait for input, and for output room when `writable`.
    pub fn new(fd: RawFd, writable: bool) -> Self {
        Interest {
            fd,
            writable,
            readable_now: false,
        }
    }
}

/// Block until a descriptor is ready or `timeout` passes, so the
/// driver never spins a core while it waits.
pub fn wait(interests: &mut [Interest], timeout: Duration) -> io::Result<()> {
    let mut fds: Vec<PollFd> = interests
        .iter()
        .map(|i| PollFd {
            fd: i.fd,
            events: if i.writable { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let spec = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of
    // `fds.len()` `pollfd` records laid out as the C struct; `spec` is a
    // valid timespec that outlives the call; a null signal mask is
    // allowed and leaves the mask unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &spec,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(());
        }
        return Err(err);
    }
    for (interest, fd) in interests.iter_mut().zip(&fds) {
        interest.readable_now = fd.revents & (POLLIN | POLLERR | POLLHUP) != 0;
    }
    Ok(())
}

/// User and system CPU time, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User-mode time.
    pub user_us: f64,
    /// Kernel-mode time.
    pub sys_us: f64,
}

impl Cpu {
    /// User plus system time.
    pub fn total_us(self) -> f64 {
        self.user_us + self.sys_us
    }

    /// `self + other`, field by field.
    pub fn plus(self, other: Cpu) -> Cpu {
        Cpu {
            user_us: self.user_us + other.user_us,
            sys_us: self.sys_us + other.sys_us,
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
        }
    }
}

fn rusage(who: c_int) -> Cpu {
    let mut usage = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a writable `struct rusage` (two timevals then
    // fourteen longs, the Linux layout) that outlives the call; `who`
    // is one of the two constants Linux defines.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage cannot fail for RUSAGE_SELF/RUSAGE_THREAD");
    let us = |t: &Timeval| t.tv_sec as f64 * 1e6 + t.tv_usec as f64;
    Cpu {
        user_us: us(&usage.utime),
        sys_us: us(&usage.stime),
    }
}

/// CPU time of the whole process so far.
pub fn process_cpu() -> Cpu {
    rusage(RUSAGE_SELF)
}

/// CPU time of the calling thread so far.
pub fn thread_cpu() -> Cpu {
    rusage(RUSAGE_THREAD)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// Host-wide CPU time counters from the first line of `/proc/stat`,
/// in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    /// Read the counters now.
    pub fn read() -> io::Result<HostCpu> {
        let stat = std::fs::read_to_string("/proc/stat")?;
        let line = stat
            .lines()
            .next()
            .filter(|l| l.starts_with("cpu "))
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "no cpu line in /proc/stat")
            })?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already inside user, so only the first eight add up.
        Ok(HostCpu {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        })
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(self, earlier: HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let before = thread_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu().since(before).total_us() > 0.0);
        assert!(process_cpu().total_us() >= thread_cpu().total_us());
    }

    #[test]
    fn proc_readers_parse() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        let host = HostCpu::read().expect("/proc/stat");
        assert!(host.total > 0);
    }
}
