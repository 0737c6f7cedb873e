//! Host facts the numbers depend on: CPU affinity, peak RSS and
//! provenance.

use std::path::Path;
use std::process::{Command, Stdio};

/// `cpu_set_t` as glibc lays it out: 1024 bits.
const CPU_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPUs the calling thread may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restrict the calling thread (and threads it spawns later) to `cpus`.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; CPU_WORDS];
    for &c in cpus {
        if c >= CPU_WORDS * 64 {
            return Err(format!("cpu {c} is beyond the affinity mask"));
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity({cpus:?}) failed: {}", std::io::Error::last_os_error()))
    }
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpus: &[usize]) -> Result<(), String> {
    Err("CPU pinning needs Linux".to_string())
}

/// Pin the calling thread to the first `n` allowed CPUs (fewer if fewer
/// are allowed) and return the CPUs actually applied.
pub fn pin_first(n: usize) -> Vec<usize> {
    let cpus: Vec<usize> = allowed_cpus().into_iter().take(n).collect();
    match pin_current_thread(&cpus) {
        Ok(()) => cpus,
        Err(e) => {
            eprintln!("simbench: running unpinned: {e}");
            Vec::new()
        }
    }
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Logical CPUs the OS reports for this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `rustc --version`, or "unknown".
pub fn rustc_version() -> String {
    Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// The commit `repo`'s `HEAD` names (what `git rev-parse HEAD` prints),
/// read from `.git` directly so nothing outside `repo` is consulted;
/// "unknown" outside a git checkout.
pub fn git_head(repo: &Path) -> String {
    let git = repo.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_applies_a_subset_of_the_allowed_cpus() {
        let allowed = allowed_cpus();
        let handle = std::thread::spawn(move || (pin_first(1), allowed_cpus()));
        let (applied, now) = handle.join().expect("pinning thread");
        if !allowed.is_empty() {
            assert_eq!(applied, vec![allowed[0]]);
            assert_eq!(now, applied);
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
