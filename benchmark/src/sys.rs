//! Process facts the benchmark reads from the operating system: peak
//! resident memory, CPU count, the source revision, and handing freed
//! input memory back before the measured window.

use std::process::{Command, Stdio};

/// Peak resident set size (`VmHWM`) in MiB, if `/proc` reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the peak-RSS mark to the current RSS (Linux `clear_refs` 5),
/// so the next [`peak_rss_mb`] covers only what follows. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod trim {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }

    pub fn release_free_memory() {
        // SAFETY: glibc's malloc_trim takes no pointers and only returns
        // free heap pages to the kernel; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod trim {
    pub fn release_free_memory() {}
}

/// Returns freed heap pages to the kernel, so the peak RSS of the window
/// measures what the program holds rather than the allocator's memory of
/// the synthetic world the inputs were built from.
pub fn release_free_memory() {
    trim::release_free_memory();
}

/// The CPU model, from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(revision, dirty)` of the source tree, or `("unknown", None)` where
/// there is no git checkout.
pub fn git_revision() -> (String, Option<bool>) {
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match run(&["rev-parse", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty =
                run(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
            (rev, dirty)
        }
        _ => ("unknown".to_string(), None),
    }
}
