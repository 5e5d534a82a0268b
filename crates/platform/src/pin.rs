//! Core pinning — the `libnuma`/affinity stand-in.
//!
//! The paper pins worker threads to cores and allocates memory on the
//! corresponding socket with libnuma. The allocation half is modeled by the
//! memory simulator's socket placement (`bfs-memsim`); this module provides
//! the thread half via
//! `sched_setaffinity` on Linux and a documented no-op elsewhere (pinning is
//! an optimization, never a correctness requirement — all experiments run
//! unpinned on hosts that disallow affinity changes).

/// Attempts to pin the calling thread to `core` (modulo the number of
/// available cores). Returns `true` if the affinity call succeeded.
#[cfg(target_os = "linux")]
pub fn pin_to_core(core: usize) -> bool {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let target = core % cores;
    // SAFETY: cpu_set_t is a plain bitset; CPU_SET/CPU_ZERO are the libc
    // macros reimplemented via the provided helpers, and sched_setaffinity
    // only inspects the set within the given size.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        libc::CPU_SET(target, &mut set);
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
    }
}

/// Non-Linux platforms: affinity is not portable; report failure so callers
/// can record that the run was unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_core(_core: usize) -> bool {
    false
}

/// Number of physical cores the host exposes.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_reports_at_least_one_core() {
        assert!(host_cores() >= 1);
    }

    #[test]
    fn pinning_does_not_crash_and_wraps() {
        // Whether or not the sandbox allows affinity calls, the call must be
        // safe for any core index.
        let _ = pin_to_core(0);
        let _ = pin_to_core(usize::MAX);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinned_thread_still_computes() {
        let h = std::thread::spawn(|| {
            let _ = pin_to_core(0);
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(h.join().unwrap(), 499_500);
    }
}
