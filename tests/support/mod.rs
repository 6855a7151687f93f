//! The one temp-file helper of the CLI integration tests.
//!
//! A test binary's tests run as threads of one process, so a path built
//! from the pid alone is shared by every test that picks the same name
//! (`metrics_json` used to overwrite its own `out.json` that way). Each
//! call here gets its own path — pid plus a process-wide counter — and
//! the file is removed when the handle drops, on success or panic.

// Every test binary compiles its own copy and none uses both functions.
#![allow(dead_code)]

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A path in the system temp directory, deleted on drop.
pub struct TempFile(PathBuf);

/// A fresh path that no other call returns; nothing is created there.
pub fn temp_path(name: &str) -> TempFile {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    TempFile(std::env::temp_dir().join(format!("pimalign_test_{pid}_{n}_{name}")))
}

/// A fresh path holding `contents`.
pub fn write_temp(name: &str, contents: &str) -> TempFile {
    let file = temp_path(name);
    std::fs::write(&file, contents).expect("write temp file");
    file
}

impl Deref for TempFile {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempFile {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}
