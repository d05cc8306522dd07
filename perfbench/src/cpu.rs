//! Pinning the calling thread to one CPU (Linux `sched_setaffinity`).
//!
//! On a shared host a neighbour can load the physical core under one of
//! our CPUs: a single-threaded run then measures whichever CPU the
//! scheduler happened to pick, ~1.4x apart on a 2-vCPU VM. Runs pin
//! their repetitions to each allowed CPU in turn so every run sees every
//! CPU. A pinned thread also reads one CPU from `available_parallelism`,
//! so thread counts are read before pinning, and [`Affinity`] gives the
//! thread its CPUs back when the run ends. Elsewhere these calls report
//! no CPUs and pin nothing.

#[cfg(target_os = "linux")]
mod sys {
    /// glibc's `cpu_set_t`: 1024 bits.
    pub const SET_BYTES: usize = 128;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    }
}

/// The CPUs the calling thread may run on (empty if unknown).
#[cfg(target_os = "linux")]
fn allowed() -> Vec<usize> {
    let mut mask = [0u8; sys::SET_BYTES];
    // SAFETY: pid 0 names the calling thread, and `mask` is a writable
    // buffer of exactly the `cpusetsize` bytes passed, alive for the call.
    let rc = unsafe { sys::sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 8)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// Restricts the calling thread to `cpus`; `false` if the kernel refused.
#[cfg(target_os = "linux")]
fn set(cpus: &[usize]) -> bool {
    let mut mask = [0u8; sys::SET_BYTES];
    for &cpu in cpus {
        if cpu >= mask.len() * 8 {
            return false;
        }
        mask[cpu / 8] |= 1 << (cpu % 8);
    }
    // SAFETY: pid 0 names the calling thread, and `mask` is a readable
    // buffer of exactly the `cpusetsize` bytes passed, alive for the call.
    unsafe { sys::sched_setaffinity(0, mask.len(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn allowed() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
fn set(_cpus: &[usize]) -> bool {
    false
}

/// Restricts the calling thread to `cpu`; `false` if the kernel refused.
pub fn pin(cpu: usize) -> bool {
    set(&[cpu])
}

/// The calling thread's CPUs when made; restored when dropped, so a run
/// that pins leaves its thread as it found it.
pub struct Affinity(Vec<usize>);

impl Affinity {
    pub fn save() -> Self {
        Affinity(allowed())
    }

    pub fn cpus(&self) -> &[usize] {
        &self.0
    }
}

impl Drop for Affinity {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            set(&self.0);
        }
    }
}
