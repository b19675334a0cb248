//! The one CPU-time clock reader: journal `task` spans and the benches
//! both read on-CPU time through [`cpu_ns`].

/// A CPU-time clock of [`cpu_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuClock {
    /// Every thread of this process.
    Process,
    /// The calling thread.
    Thread,
}

/// Nanoseconds of CPU time on `clock` so far, read with `clock_gettime`
/// from the C library std already links; `None` off Linux. Read it around
/// a span, never per instruction.
pub fn cpu_ns(clock: CpuClock) -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
        let id = match clock {
            CpuClock::Process => 2,
            CpuClock::Thread => 3,
        };
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let ok = unsafe { clock_gettime(id, &mut ts) } == 0;
        ok.then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = clock;
        None
    }
}
