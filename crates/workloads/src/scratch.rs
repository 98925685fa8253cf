//! Unique scratch directories for tests that touch the filesystem.
//!
//! Test binaries run their tests on parallel threads, and several
//! binaries may run at once. A fixed `temp_dir().join("name")` shared by
//! two tests lets one delete or overwrite the other's files mid-test, so
//! every test that writes files takes its own [`ScratchDir`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory under the system temp dir, named from the process
/// id, a caller-chosen name and a per-process counter, so no two calls
/// share it. Removed with its contents on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create a new, empty scratch directory tagged `name`.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created.
    pub fn new(name: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("sfa_{name}_{}_{n}", std::process::id()));
        // A directory left by an earlier process that reused this pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("create scratch dir {}: {e}", path.display()));
        ScratchDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_gets_its_own_directory_and_drop_removes_it() {
        let a = ScratchDir::new("scratch_test");
        let b = ScratchDir::new("scratch_test");
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("f"), b"x").unwrap();
        assert!(!b.join("f").exists());
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }
}
