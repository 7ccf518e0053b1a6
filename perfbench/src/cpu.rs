//! The process CPU clock, which the closed-loop workloads are timed on.
//!
//! On a virtual machine that shares its host, a call's wall time also
//! counts the time the hypervisor hands the core to other guests
//! (steal) and the time other processes of the guest hold it. The
//! process CPU clock counts neither: the kernel charges a thread only
//! for the time it ran, with steal taken out under paravirtual time
//! accounting. The closed-loop workloads pin one worker, so no thread
//! of the process runs beside the caller and the CPU time of a call is
//! what its wall time would be on a core of its own. Wall times are
//! printed beside the CPU figures.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used so far by every thread of this process, in ns.
pub fn process_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Times one interval on both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch { wall: Instant::now(), cpu_ns: process_ns() }
    }

    /// Process CPU time since [`start`](Self::start), ms.
    pub fn cpu_ms(&self) -> f64 {
        process_ns().saturating_sub(self.cpu_ns) as f64 / 1e6
    }

    /// Wall time since [`start`](Self::start), ms.
    pub fn wall_ms(&self) -> f64 {
        self.wall.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The clock covers every thread of the process, test threads run
    // in parallel included, so only lower bounds hold here.
    #[test]
    fn cpu_clock_counts_spinning() {
        let before = process_ns();
        let t = Stopwatch::start();
        let mut x = 1u64;
        while t.wall_ms() < 20.0 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(t.cpu_ms() > 5.0, "spinning used only {} ms of CPU", t.cpu_ms());
        assert!(process_ns() > before);
    }
}
