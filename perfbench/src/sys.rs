//! Host facts and process plumbing: platform description, per-phase
//! peak RSS, and unique scratch directories.

use sfa_json::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Core count, CPU model, cache sizes and memory of this host.
pub fn platform() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut caches = Vec::new();
    for i in 0.. {
        let dir = PathBuf::from(format!("/sys/devices/system/cpu/cpu0/cache/index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        caches.push(Value::String(format!("L{level} {kind} {size}")));
    }
    let mem_kib = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    Value::Object(vec![
        ("cpu_model".into(), Value::String(model)),
        ("cores".into(), Value::Number(cores as f64)),
        ("caches".into(), Value::Array(caches)),
        (
            "memory_mib".into(),
            Value::Number((mem_kib / 1024.0).round()),
        ),
        ("os".into(), Value::String(std::env::consts::OS.into())),
    ])
}

/// Reset this process's resident high-water mark (`VmHWM`) to its
/// current RSS, so the next [`peak_rss_mib`] covers only what follows.
/// Freed heap memory is returned to the kernel first, so the mark
/// starts from live memory, not from what earlier set-ups left in the
/// allocator.
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages.
        unsafe { malloc_trim(0) };
    }
    reset_peak_rss_mark()
}

/// Reset the resident high-water mark to the current RSS without
/// touching the allocator — cheap enough to call while serving.
pub fn reset_peak_rss_mark() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset peak RSS through /proc/self/clear_refs: {e}"))
}

/// This process's resident high-water mark in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A directory unique to this process and call, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `<root>/<tag>-<pid>-<n>`.
    pub fn new(root: &Path, tag: &str) -> Result<ScratchDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_unique_and_removed() {
        let root = std::env::temp_dir();
        let a = ScratchDir::new(&root, "perfbench-test").unwrap();
        let b = ScratchDir::new(&root, "perfbench-test").unwrap();
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }

    #[test]
    fn peak_rss_is_readable_after_a_reset() {
        reset_peak_rss().unwrap();
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
