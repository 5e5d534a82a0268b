//! Raw `perf_event_open(2)` hardware counters, no heavy dependencies.
//!
//! The engine samples a small per-thread group of hardware events —
//! cycles, instructions, LLC load misses, dTLB load misses — at its
//! phase seams to attribute *measured* memory traffic to the paper's
//! Phase I / Phase II / bottom-up / rearrangement regions. This crate
//! is the thin unsafe layer: it opens one counter group per thread via
//! the raw syscall (there is no libc wrapper for `perf_event_open`),
//! reads all events with a single `read(2)` in the kernel's
//! `PERF_FORMAT_GROUP` layout, and scales for multiplexing using
//! `time_enabled` / `time_running`.
//!
//! # Degradation ladder
//!
//! Hardware counters are a best-effort observability feature, never a
//! correctness dependency. Every entry point returns a typed
//! [`PerfUnavailable`] reason instead of failing:
//!
//! 1. Non-Linux OS or unsupported architecture → [`PerfUnavailable::UnsupportedPlatform`].
//! 2. `kernel.perf_event_paranoid` too strict (common default: 2 allows
//!    user-space-only counting; 3+ forbids it without `CAP_PERFMON`) or a
//!    seccomp filter (typical in containers) → [`PerfUnavailable::PermissionDenied`].
//! 3. PMU absent or event not counted by this host (VMs without vPMU,
//!    some containers) → [`PerfUnavailable::NotSupported`].
//! 4. Anything else → [`PerfUnavailable::OpenFailed`] with the errno.
//!
//! All counters are opened with `exclude_kernel`/`exclude_hv` so they
//! work at `perf_event_paranoid = 2`, the widest-deployed setting.
//!
//! ```
//! use bfs_perf::{PerfGroup, ENGINE_EVENTS};
//!
//! match PerfGroup::open(&ENGINE_EVENTS) {
//!     Ok(mut g) => {
//!         g.enable();
//!         let before = g.read_counts().unwrap_or_default();
//!         // ... region of interest ...
//!         let after = g.read_counts().unwrap_or_default();
//!         let _delta = after.delta(&before);
//!     }
//!     Err(reason) => eprintln!("hw counters off: {reason}"),
//! }
//! ```

use std::fmt;

/// Upper bound on events per group; the engine set uses 4, plus an
/// optional stalled-cycles slot. Fixed so [`PerfCounts`] and the fd
/// table are plain arrays (the engine's warm path must not allocate).
pub const MAX_GROUP: usize = 5;

/// The hardware events this workspace knows how to request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PerfEvent {
    /// `PERF_COUNT_HW_CPU_CYCLES`.
    Cycles,
    /// `PERF_COUNT_HW_INSTRUCTIONS`.
    Instructions,
    /// Last-level-cache read misses (`PERF_TYPE_HW_CACHE`, LL/read/miss)
    /// — each one is a cache line fetched from DRAM, so
    /// `misses × line size` is measured DDR read traffic.
    LlcLoadMisses,
    /// Data-TLB read misses (`PERF_TYPE_HW_CACHE`, dTLB/read/miss) —
    /// the quantity §III-C's page-sorted rearrangement exists to reduce.
    DtlbLoadMisses,
    /// `PERF_COUNT_HW_STALLED_CYCLES_FRONTEND` (optional; not every PMU
    /// exposes it).
    StalledCycles,
}

impl PerfEvent {
    /// Stable lowercase name used in availability strings and docs.
    pub fn name(self) -> &'static str {
        match self {
            PerfEvent::Cycles => "cycles",
            PerfEvent::Instructions => "instructions",
            PerfEvent::LlcLoadMisses => "llc_load_misses",
            PerfEvent::DtlbLoadMisses => "dtlb_load_misses",
            PerfEvent::StalledCycles => "stalled_cycles_frontend",
        }
    }
}

/// The group the engine opens per worker thread, in the index order the
/// phase accumulators use everywhere downstream.
pub const ENGINE_EVENTS: [PerfEvent; 4] = [
    PerfEvent::Cycles,
    PerfEvent::Instructions,
    PerfEvent::LlcLoadMisses,
    PerfEvent::DtlbLoadMisses,
];

/// Why hardware counters could not be opened. Carried through the
/// engine into attribution so reports can print an explicit
/// `hw: unavailable (<reason>)` marker instead of silently showing
/// blank columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PerfUnavailable {
    /// Not Linux, or an architecture without a known syscall number.
    UnsupportedPlatform,
    /// `EACCES`/`EPERM`: blocked by `kernel.perf_event_paranoid` (value
    /// attached when `/proc` is readable) or a seccomp filter.
    PermissionDenied { paranoid: Option<i32> },
    /// `ENOENT`/`ENODEV`/`EOPNOTSUPP`: the PMU (or this event) does not
    /// exist on this host — typical for VMs and containers without a
    /// virtualized PMU.
    NotSupported,
    /// Any other `perf_event_open` failure, with the raw errno.
    OpenFailed { errno: i32 },
}

impl PerfUnavailable {
    /// Stable machine-readable variant tag for structured reporting
    /// (the `/snapshot` endpoint); the human-readable detail stays in
    /// `Display`.
    pub fn kind(&self) -> &'static str {
        match self {
            PerfUnavailable::UnsupportedPlatform => "unsupported_platform",
            PerfUnavailable::PermissionDenied { .. } => "permission_denied",
            PerfUnavailable::NotSupported => "not_supported",
            PerfUnavailable::OpenFailed { .. } => "open_failed",
        }
    }
}

impl fmt::Display for PerfUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfUnavailable::UnsupportedPlatform => {
                write!(f, "perf_event_open is not supported on this platform")
            }
            PerfUnavailable::PermissionDenied { paranoid: Some(p) } => write!(
                f,
                "permission denied: kernel.perf_event_paranoid={p} (need <= 2, or CAP_PERFMON)"
            ),
            PerfUnavailable::PermissionDenied { paranoid: None } => write!(
                f,
                "permission denied (perf_event_paranoid or a seccomp filter blocks perf_event_open)"
            ),
            PerfUnavailable::NotSupported => write!(
                f,
                "PMU not available on this host (common in VMs/containers without a vPMU)"
            ),
            PerfUnavailable::OpenFailed { errno } => {
                write!(f, "perf_event_open failed (errno {errno})")
            }
        }
    }
}

/// One multiplex-scaled sample of every event in a group, in
/// [`PerfGroup::open`] order. Plain `Copy` arrays: deltas on the hot
/// path never touch the heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfCounts {
    values: [u64; MAX_GROUP],
    len: usize,
}

impl PerfCounts {
    /// Number of events sampled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scaled value of event `i` (open order), 0 when out of range.
    pub fn get(&self, i: usize) -> u64 {
        if i < self.len {
            self.values[i]
        } else {
            0
        }
    }

    /// Element-wise `self − prev`, saturating at zero. Multiplex
    /// rescaling can make totals regress by a rounding hair between two
    /// reads; saturation keeps phase deltas well-defined.
    pub fn delta(&self, prev: &PerfCounts) -> PerfCounts {
        let mut out = *self;
        for i in 0..self.len {
            out.values[i] = self.values[i].saturating_sub(prev.values[i]);
        }
        out
    }

    /// Element-wise accumulate (used by per-phase accumulators).
    pub fn accumulate(&mut self, d: &PerfCounts) {
        self.len = self.len.max(d.len);
        for i in 0..d.len {
            self.values[i] = self.values[i].saturating_add(d.values[i]);
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn from_raw(values: [u64; MAX_GROUP], len: usize) -> Self {
        Self { values, len }
    }
}

/// Reads `kernel.perf_event_paranoid`, if `/proc` allows.
pub fn paranoid_level() -> Option<i32> {
    std::fs::read_to_string("/proc/sys/kernel/perf_event_paranoid")
        .ok()?
        .trim()
        .parse()
        .ok()
}

/// One-shot availability probe: opens (and immediately closes) the
/// engine's counter group on the calling thread.
pub fn availability() -> Result<(), PerfUnavailable> {
    PerfGroup::open(&ENGINE_EVENTS).map(drop)
}

/// Human-readable availability line for bench-report environment
/// headers, e.g. `available: cycles,instructions,llc_load_misses,...`
/// or `unavailable: permission denied ...`.
pub fn availability_string() -> String {
    match availability() {
        Ok(()) => {
            let names: Vec<&str> = ENGINE_EVENTS.iter().map(|e| e.name()).collect();
            format!("available: {}", names.join(","))
        }
        Err(reason) => format!("unavailable: {reason}"),
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::{PerfCounts, PerfEvent, PerfUnavailable, MAX_GROUP};

    #[cfg(target_arch = "x86_64")]
    const SYS_PERF_EVENT_OPEN: libc::c_long = 298;
    #[cfg(target_arch = "aarch64")]
    const SYS_PERF_EVENT_OPEN: libc::c_long = 241;

    const PERF_TYPE_HARDWARE: u32 = 0;
    const PERF_TYPE_HW_CACHE: u32 = 3;

    const PERF_COUNT_HW_CPU_CYCLES: u64 = 0;
    const PERF_COUNT_HW_INSTRUCTIONS: u64 = 1;
    const PERF_COUNT_HW_STALLED_CYCLES_FRONTEND: u64 = 7;

    // PERF_TYPE_HW_CACHE config: cache_id | (op_id << 8) | (result_id << 16).
    const PERF_COUNT_HW_CACHE_LL: u64 = 2;
    const PERF_COUNT_HW_CACHE_DTLB: u64 = 3;
    const PERF_COUNT_HW_CACHE_OP_READ: u64 = 0;
    const PERF_COUNT_HW_CACHE_RESULT_MISS: u64 = 1;

    const PERF_FORMAT_TOTAL_TIME_ENABLED: u64 = 1 << 0;
    const PERF_FORMAT_TOTAL_TIME_RUNNING: u64 = 1 << 1;
    const PERF_FORMAT_GROUP: u64 = 1 << 3;

    const PERF_EVENT_IOC_ENABLE: libc::c_ulong = 0x2400;
    const PERF_EVENT_IOC_DISABLE: libc::c_ulong = 0x2401;
    const PERF_EVENT_IOC_RESET: libc::c_ulong = 0x2403;

    // attr flag bits (first u64 bitfield word).
    const ATTR_DISABLED: u64 = 1 << 0;
    const ATTR_EXCLUDE_KERNEL: u64 = 1 << 5;
    const ATTR_EXCLUDE_HV: u64 = 1 << 6;

    const EPERM: i32 = 1;
    const ENOENT: i32 = 2;
    const EACCES: i32 = 13;
    const ENODEV: i32 = 19;
    const EOPNOTSUPP: i32 = 95;

    /// `struct perf_event_attr`, `PERF_ATTR_SIZE_VER0` prefix (64 bytes).
    /// The kernel accepts any historical size; VER0 covers everything a
    /// plain counting group needs.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct PerfEventAttr {
        type_: u32,
        size: u32,
        config: u64,
        sample_period: u64,
        sample_type: u64,
        read_format: u64,
        flags: u64,
        wakeup_events: u32,
        bp_type: u32,
        bp_addr: u64,
    }

    pub const ATTR_SIZE_VER0: u32 = 64;

    #[cfg(test)]
    pub fn attr_struct_size() -> usize {
        std::mem::size_of::<PerfEventAttr>()
    }

    fn attr_for(ev: PerfEvent, leader: bool) -> PerfEventAttr {
        let (type_, config) = match ev {
            PerfEvent::Cycles => (PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES),
            PerfEvent::Instructions => (PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS),
            PerfEvent::StalledCycles => (PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_FRONTEND),
            PerfEvent::LlcLoadMisses => (
                PERF_TYPE_HW_CACHE,
                PERF_COUNT_HW_CACHE_LL
                    | (PERF_COUNT_HW_CACHE_OP_READ << 8)
                    | (PERF_COUNT_HW_CACHE_RESULT_MISS << 16),
            ),
            PerfEvent::DtlbLoadMisses => (
                PERF_TYPE_HW_CACHE,
                PERF_COUNT_HW_CACHE_DTLB
                    | (PERF_COUNT_HW_CACHE_OP_READ << 8)
                    | (PERF_COUNT_HW_CACHE_RESULT_MISS << 16),
            ),
        };
        PerfEventAttr {
            type_,
            size: ATTR_SIZE_VER0,
            config,
            // Only the leader starts disabled; followers inherit the
            // group's running state once the leader is enabled.
            flags: ATTR_EXCLUDE_KERNEL | ATTR_EXCLUDE_HV | if leader { ATTR_DISABLED } else { 0 },
            // Group read: one read(2) returns every member, plus the
            // enabled/running times needed for multiplex scaling.
            read_format: PERF_FORMAT_TOTAL_TIME_ENABLED
                | PERF_FORMAT_TOTAL_TIME_RUNNING
                | PERF_FORMAT_GROUP,
            ..PerfEventAttr::default()
        }
    }

    fn classify_open_error(errno: i32) -> PerfUnavailable {
        match errno {
            EACCES | EPERM => PerfUnavailable::PermissionDenied {
                paranoid: super::paranoid_level(),
            },
            ENOENT | ENODEV | EOPNOTSUPP => PerfUnavailable::NotSupported,
            e => PerfUnavailable::OpenFailed { errno: e },
        }
    }

    /// A per-thread counter group. Monitors the calling thread on any
    /// CPU (`pid = 0`, `cpu = -1`) — exactly what an SPMD lane needs,
    /// since it opens its group on its own thread for the region.
    pub struct PerfGroup {
        fds: [i32; MAX_GROUP],
        len: usize,
    }

    impl PerfGroup {
        pub fn open(events: &[PerfEvent]) -> Result<Self, PerfUnavailable> {
            assert!(
                !events.is_empty() && events.len() <= MAX_GROUP,
                "1..={MAX_GROUP} events per group"
            );
            let mut g = PerfGroup {
                fds: [-1; MAX_GROUP],
                len: 0,
            };
            for (i, &ev) in events.iter().enumerate() {
                let attr = attr_for(ev, i == 0);
                let group_fd = if i == 0 { -1 } else { g.fds[0] };
                // SAFETY: attr is a valid, fully initialized VER0
                // perf_event_attr that outlives the call.
                let (this_thread, any_cpu): (libc::pid_t, libc::c_int) = (0, -1);
                let fd = unsafe {
                    libc::syscall(
                        SYS_PERF_EVENT_OPEN,
                        &attr as *const PerfEventAttr,
                        this_thread,
                        any_cpu,
                        group_fd,
                        0_u64,
                    )
                } as i32;
                if fd < 0 {
                    return Err(classify_open_error(libc::errno()));
                }
                g.fds[i] = fd;
                g.len = i + 1;
            }
            Ok(g)
        }

        pub fn enable(&mut self) {
            // SAFETY: fds[0] is a live perf event fd owned by self.
            unsafe { libc::ioctl(self.fds[0], PERF_EVENT_IOC_ENABLE, 0) };
        }

        pub fn disable(&mut self) {
            // SAFETY: as above.
            unsafe { libc::ioctl(self.fds[0], PERF_EVENT_IOC_DISABLE, 0) };
        }

        pub fn reset(&mut self) {
            // SAFETY: as above.
            unsafe { libc::ioctl(self.fds[0], PERF_EVENT_IOC_RESET, 0) };
        }

        pub fn len(&self) -> usize {
            self.len
        }

        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Reads the whole group in one syscall and rescales each value
        /// by `time_enabled / time_running` to undo kernel multiplexing.
        /// `None` if the read fails or comes back short (counters then
        /// simply stop contributing — degradation, not failure).
        pub fn read_counts(&mut self) -> Option<PerfCounts> {
            // Layout (PERF_FORMAT_GROUP, no ID):
            //   u64 nr; u64 time_enabled; u64 time_running; u64 value[nr];
            let mut buf = [0u64; 3 + MAX_GROUP];
            let want = 8 * (3 + self.len);
            // SAFETY: buf is a writable buffer of `want` bytes; fds[0]
            // is a live perf fd.
            let n = unsafe {
                libc::read(
                    self.fds[0],
                    buf.as_mut_ptr() as *mut libc::c_void,
                    want as libc::size_t,
                )
            };
            if n < want as isize {
                return None;
            }
            let nr = buf[0] as usize;
            if nr != self.len {
                return None;
            }
            let (enabled, running) = (buf[1], buf[2]);
            let mut values = [0u64; MAX_GROUP];
            for i in 0..nr {
                let raw = buf[3 + i];
                values[i] = if running > 0 && running < enabled {
                    ((raw as u128) * (enabled as u128) / (running as u128)) as u64
                } else {
                    raw
                };
            }
            Some(PerfCounts::from_raw(values, nr))
        }
    }

    impl Drop for PerfGroup {
        fn drop(&mut self) {
            for &fd in &self.fds[..self.len] {
                // SAFETY: each stored fd was returned by perf_event_open
                // and is closed exactly once.
                unsafe { libc::close(fd) };
            }
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use sys::PerfGroup;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod stub {
    use super::{PerfCounts, PerfEvent, PerfUnavailable};

    /// Stub for platforms without `perf_event_open`: opening always
    /// reports [`PerfUnavailable::UnsupportedPlatform`], so nothing
    /// downstream needs a cfg.
    pub struct PerfGroup {
        _private: (),
    }

    impl PerfGroup {
        pub fn open(_events: &[PerfEvent]) -> Result<Self, PerfUnavailable> {
            Err(PerfUnavailable::UnsupportedPlatform)
        }

        pub fn enable(&mut self) {}
        pub fn disable(&mut self) {}
        pub fn reset(&mut self) {}

        pub fn len(&self) -> usize {
            0
        }

        pub fn is_empty(&self) -> bool {
            true
        }

        pub fn read_counts(&mut self) -> Option<PerfCounts> {
            None
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub use stub::PerfGroup;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_delta_and_accumulate() {
        let mut a = PerfCounts::default();
        a.accumulate(&PerfCounts {
            values: [10, 20, 5, 0, 0],
            len: 4,
        });
        let b = PerfCounts {
            values: [15, 18, 9, 3, 0],
            len: 4,
        };
        let d = b.delta(&a);
        assert_eq!(d.get(0), 5);
        assert_eq!(d.get(1), 0, "regressions saturate at zero");
        assert_eq!(d.get(2), 4);
        assert_eq!(d.get(3), 3);
        assert_eq!(d.get(9), 0, "out of range reads as zero");
        a.accumulate(&d);
        assert_eq!(a.get(0), 15);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }

    #[test]
    fn unavailable_reasons_render() {
        for r in [
            PerfUnavailable::UnsupportedPlatform,
            PerfUnavailable::PermissionDenied { paranoid: Some(4) },
            PerfUnavailable::PermissionDenied { paranoid: None },
            PerfUnavailable::NotSupported,
            PerfUnavailable::OpenFailed { errno: 22 },
        ] {
            assert!(!r.to_string().is_empty());
        }
        assert!(PerfUnavailable::PermissionDenied { paranoid: Some(4) }
            .to_string()
            .contains("perf_event_paranoid=4"));
    }

    /// Whatever the host allows, `open` must return cleanly: a working
    /// group or a typed reason — never a panic. This is the test that
    /// runs in CI containers where perf is typically forbidden.
    #[test]
    fn open_succeeds_or_reports_typed_reason() {
        match PerfGroup::open(&ENGINE_EVENTS) {
            Ok(mut g) => {
                assert_eq!(g.len(), ENGINE_EVENTS.len());
                assert!(!g.is_empty());
                g.enable();
                g.disable();
            }
            Err(reason) => assert!(!reason.to_string().is_empty()),
        }
        // The convenience probes must agree with open().
        let s = availability_string();
        assert!(s.starts_with("available:") || s.starts_with("unavailable:"));
        assert_eq!(s.starts_with("available:"), availability().is_ok());
    }

    /// Real-hardware sanity: counters move forward while work happens.
    /// Ignored by default — CI containers usually cannot open perf
    /// events; run with `cargo test -p bfs-perf -- --ignored` on a
    /// perf-capable host.
    #[test]
    #[ignore = "requires perf_event_open access (run on bare metal)"]
    fn counters_are_monotonic_when_available() {
        let mut g = PerfGroup::open(&ENGINE_EVENTS).expect("perf available");
        g.enable();
        let before = g.read_counts().expect("group read");
        let mut sink = 0u64;
        for i in 0..2_000_000u64 {
            sink = sink.wrapping_add(i ^ (sink >> 3));
        }
        std::hint::black_box(sink);
        let after = g.read_counts().expect("group read");
        for i in 0..ENGINE_EVENTS.len() {
            assert!(
                after.get(i) >= before.get(i),
                "event {i} regressed: {} -> {}",
                before.get(i),
                after.get(i)
            );
        }
        assert!(after.get(0) > before.get(0), "cycles must advance");
        assert!(after.get(1) > before.get(1), "instructions must advance");
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn attr_layout_is_ver0() {
        assert_eq!(sys::attr_struct_size(), sys::ATTR_SIZE_VER0 as usize);
    }
}
