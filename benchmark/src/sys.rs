//! What the benchmark takes from libc (which `std` already links): the
//! process CPU clock, and two process-level settings that make the
//! sandbox's numbers repeatable:
//!
//! * **One CPU.** Everything a 1-worker run starts is confined to the
//!   first CPU the process may use. On the 2-vCPU sandbox the kernel
//!   otherwise migrates the worker and event-loop threads between vCPUs
//!   every few seconds, and each placement has its own wake latency: the
//!   same commit then reads 23 k or 30 k ops/s by luck.
//! * **One malloc arena.** glibc gives every OS thread its own arena and
//!   returns freed memory per arena; with several, peak RSS depends on
//!   which thread happened to free a buffer (26..42 MB for one workload).

use std::io;
use std::sync::OnceLock;

/// glibc's `cpu_set_t`: 1024 bits.
type CpuMask = [u64; 16];

/// glibc `malloc.h`: `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// `time.h`: `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuMask) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// CPU time every thread of this process has used so far (user + system,
/// exited threads included), in nanoseconds. Nanosecond resolution is what
/// lets hundred-millisecond windows be costed; `/proc/self/stat` counts
/// in 10 ms ticks.
pub fn cpu_time_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`; the clock id is one
    // Linux defines for every process.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The CPUs the calling thread may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cpus(CpuMask);

impl Cpus {
    /// The calling thread's current affinity mask.
    pub fn current() -> io::Result<Cpus> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
        if rc == 0 {
            Ok(Cpus(mask))
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// The lowest-numbered CPU of this set alone.
    pub fn first(&self) -> Cpus {
        let mut only: CpuMask = [0; 16];
        if let Some((word, bits)) = self.0.iter().enumerate().find(|(_, w)| **w != 0) {
            only[word] = 1 << bits.trailing_zeros();
        }
        Cpus(only)
    }

    #[cfg(test)]
    fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Confines the calling thread — and every thread it creates from now
    /// on, which is how the runtime's threads are reached — to this set.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: `self.0` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &self.0) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

/// The CPUs this process could use when it first asked.
fn all_cpus() -> Option<Cpus> {
    static ALL: OnceLock<Option<Cpus>> = OnceLock::new();
    *ALL.get_or_init(|| Cpus::current().ok())
}

/// Confines the calling thread, and the runtime it is about to build, to
/// one CPU (`true`) or gives it back every CPU the process started with
/// (`false`, for the two-worker comparison). Call [`remember_cpus`] first.
/// Returns false where the kernel refuses; the run then proceeds unpinned
/// and its numbers are simply noisier.
pub fn confine(one_cpu: bool) -> bool {
    let Some(all) = all_cpus() else {
        return false;
    };
    let target = if one_cpu { all.first() } else { all };
    target.apply().is_ok()
}

/// Records the process's CPU set before anything narrows it.
pub fn remember_cpus() {
    all_cpus();
}

/// Limits glibc malloc to its main arena. Call before any thread starts.
pub fn single_malloc_arena() -> bool {
    // SAFETY: `mallopt` only stores a tunable; both arguments are plain
    // integers from glibc's documented set.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_time_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time_ns() > before);
    }

    #[test]
    fn first_cpu_is_a_single_member_of_the_set() {
        let all = Cpus::current().expect("affinity readable");
        assert!(all.count() >= 1);
        let one = all.first();
        assert_eq!(one.count(), 1);
        assert!(one.0.iter().zip(&all.0).all(|(o, a)| o & a == *o));
        assert_eq!(Cpus([0; 16]).first().count(), 0);
    }

    #[test]
    fn pinning_applies_to_the_calling_thread_and_can_be_undone() {
        // Own thread: affinity is per thread, tests share the process.
        std::thread::spawn(|| {
            let all = Cpus::current().unwrap();
            all.first().apply().unwrap();
            assert_eq!(Cpus::current().unwrap(), all.first());
            all.apply().unwrap();
            assert_eq!(Cpus::current().unwrap(), all);
        })
        .join()
        .unwrap();
    }
}
