//! What the benchmark asks of the operating system: which CPUs it may
//! run on, its peak memory, cache sizes, and the stamps (commit, compiler)
//! every result file carries.

use crate::json::{obj, Json};
use std::process::Command;

/// CPU mask words passed to the affinity calls: room for 1024 CPUs, the
/// kernel's default `CONFIG_NR_CPUS` ceiling on x86-64 distributions.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    // From the C library `std` already links. `pid` 0 means the calling
    // thread; `mask` points at `cpusetsize` bytes.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; the call writes at most that many bytes and keeps no pointer.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread — and every thread it spawns afterwards —
/// to `cpus`. Returns `false` if the kernel refused (the run continues
/// unpinned and says so in its stamps).
#[cfg(target_os = "linux")]
pub fn set_allowed_cpus(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // the call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn set_allowed_cpus(_cpus: &[usize]) -> bool {
    false
}

/// Pins the process to one CPU (the highest-numbered allowed one: CPU 0
/// tends to take the interrupts). Called first thing in `main`, before
/// any thread exists, so every later thread inherits it. Returns the CPU,
/// or `None` if pinning is unavailable.
///
/// Why: on the small shared VMs this benchmark is judged on, the second
/// vCPU comes and goes by the minute, and a two-thread batch search ran
/// at either once or twice the one-thread speed for a whole process
/// lifetime, so any number that depends on two threads overlapping is
/// bimodal (2× apart). On one CPU every thread of
/// the program still runs — the pool, the server's reader/dispatcher/
/// writer, the cluster ranks — but they share a core, so the timings
/// measure CPU work done, which repeats.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    set_allowed_cpus(&[cpu]).then_some(cpu)
}

/// CPUs this thread may use right now: call before pinning for `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    // glibc: returns freed heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Makes resident memory mean *live* memory from here on: hands the
/// allocator's freed pages back to the kernel (glibc keeps them by
/// default, and how many depends on thread timing — peak RSS of identical
/// runs differed by 30 %), then resets the kernel's peak-RSS mark
/// (`VmHWM`) to the current value. Best effort: where either step is
/// unavailable the run continues and `peak_rss_mb` is merely noisier.
pub fn settle_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time; it only releases memory the allocator already considers free.
    unsafe {
        malloc_trim(0);
    }
    // "5" = reset the peak resident set size (Documentation/filesystems/proc).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process in MB, or 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size in bytes of cpu0's cache at `level` (unified or data), or 0.
pub fn cache_bytes(level: u32) -> u64 {
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let Some(lvl) = read("level").and_then(|s| s.trim().parse::<u32>().ok()) else {
            continue;
        };
        let kind = read("type").unwrap_or_default();
        if lvl != level || kind.trim() == "Instruction" {
            continue;
        }
        let Some(size) = read("size") else { continue };
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1 << 20),
            Some(b'G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        return digits.parse::<u64>().map_or(0, |n| n * mult);
    }
    0
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The stamps every result and trace file carries.
pub fn stamps(
    scale: &str,
    seed: u64,
    seconds: f64,
    nproc: usize,
    pinned_cpu: Option<usize>,
) -> Json {
    obj([
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        (
            "rustc",
            command_line("rustc", &["-V"])
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        ("nproc", nproc.into()),
        ("pinned_cpu", pinned_cpu.map_or(Json::Null, Json::from)),
        ("features", obj([("simd", cfg!(feature = "simd").into())])),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (lto, codegen-units=1)"
            }
            .into(),
        ),
        ("scale", scale.into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("l2_bytes", cache_bytes(2).into()),
        ("llc_bytes", cache_bytes(3).into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }

    #[test]
    fn affinity_round_trips() {
        let before = allowed_cpus();
        if before.is_empty() {
            return; // not Linux, or the call is filtered
        }
        let one = [*before.last().unwrap()];
        assert!(set_allowed_cpus(&one));
        assert_eq!(allowed_cpus(), one);
        assert!(set_allowed_cpus(&before));
        assert_eq!(allowed_cpus(), before);
    }
}
