//! Single-CPU pinning. On a shared host a second core comes and goes, so
//! anything that fans out to `available_parallelism()` threads is bimodal
//! by up to 2x; pinned to one CPU every thread time-shares one core and
//! wall time becomes a measure of work done.

/// One 1024-bit `cpu_set_t`, the size glibc uses.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs this process may run on (0 when the call is unavailable).
pub fn allowed_cpus() -> usize {
    affinity().map_or(0, |m| m.iter().map(|w| w.count_ones() as usize).sum())
}

#[cfg(target_os = "linux")]
fn affinity() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(not(target_os = "linux"))]
fn affinity() -> Option<[u64; MASK_WORDS]> {
    None
}

/// Pin the calling thread (and every thread or child process it later
/// creates) to the lowest CPU it is currently allowed on. Call before any
/// thread exists. Returns whether the process now runs on exactly one CPU.
pub fn pin_to_one_cpu() -> bool {
    #[cfg(target_os = "linux")]
    if let Some(mask) = affinity() {
        if let Some(word) = mask.iter().position(|&w| w != 0) {
            let mut one = [0u64; MASK_WORDS];
            one[word] = 1u64 << mask[word].trailing_zeros();
            // SAFETY: `one` is a live buffer of exactly the byte length
            // passed; pid 0 names the calling thread.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        }
    }
    is_pinned()
}

/// Whether the process is confined to one CPU (so
/// `std::thread::available_parallelism()` reads 1).
pub fn is_pinned() -> bool {
    allowed_cpus() == 1
}

/// Re-run this program under `taskset -c 0` when in-process pinning did not
/// work. Returns the re-run's exit code, or `None` when `taskset` is missing
/// or cannot pin either, or when this process already is that re-run.
pub fn reexec_under_taskset() -> Option<i32> {
    const GUARD: &str = "BENCH_TASKSET_REEXEC";
    if std::env::var_os(GUARD).is_some() {
        return None;
    }
    let taskset = || {
        let mut c = std::process::Command::new("taskset");
        c.args(["-c", "0"]);
        c
    };
    if !taskset().arg("true").status().ok()?.success() {
        return None;
    }
    let status = taskset()
        .arg(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(GUARD, "1")
        .status()
        .ok()?;
    Some(status.code().unwrap_or(1))
}
