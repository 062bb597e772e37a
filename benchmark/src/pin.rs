//! Thread placement: each client thread of the benchmark is pinned to one
//! CPU (client `t` to the `t`-th allowed one), and the pools it builds stay
//! there with it, because a new thread inherits its creator's mask.
//!
//! Why a whole pool on one CPU: on the 2-vCPU host this was written on, the
//! vCPUs behave like hyperthread siblings under a hypervisor. A region of
//! 124 `SpinBarrier` crossings costs 65 us with both workers time-sliced on
//! one vCPU (a crossing is one `yield`) and 226 us with a worker on each;
//! a flag doacross solve of 7-PT costs 340 us against 1700 us. Spread, the
//! solve times are also multi-modal, in states that last seconds, and the
//! kernel's own placement drifts between all of these, so no statistic of
//! a floating or spread run repeats within 30 %. Confined, p01 repeats
//! within 2 %. What is lost is overlap between workers, which this host
//! cannot show anyway; what is kept is every instruction, yield, flag and
//! check of every variant. `README.md` has the numbers.
//!
//! Where the affinity call is unavailable the run goes on unpinned and
//! says so.

use std::sync::OnceLock;

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
}

/// CPUs this thread may run on, ascending; empty when unknown.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; sys::WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..sys::WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread to `cpu`.
#[cfg(target_os = "linux")]
fn pin_self(cpu: usize) -> bool {
    if cpu >= sys::WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; sys::WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
fn pin_self(_: usize) -> bool {
    false
}

/// The CPUs allowed when the process started: the main thread asks first,
/// before it narrows its own mask.
fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(allowed_cpus)
}

/// Pins the calling thread as client `client`; every thread the benchmark
/// spawns calls this before it builds or uses anything. Returns the CPU.
pub fn client(client: usize) -> Option<usize> {
    let cpus = cpus();
    let cpu = *cpus.get(client % cpus.len().max(1))?;
    pin_self(cpu).then_some(cpu)
}
