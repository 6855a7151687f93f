//! Helpers the integration tests share: [`align`], one chunk through the
//! one alignment entry point, the one temp-file helper, and
//! [`edit_distance`], an oracle independent of `swalign`.
//!
//! A test binary's tests run as threads of one process, so a path built
//! from the pid alone is shared by every test that picks the same name
//! (`metrics_json` used to overwrite its own `out.json` that way). Each
//! call here gets its own path — pid plus a process-wide counter — and
//! the file is removed when the handle drops, on success or panic.

// Every test binary compiles its own copy and none uses every function.
#![allow(dead_code)]

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bioseq::{Base, DnaSeq};
use pim_aligner::{AlignmentOutcome, BatchTotals, Platform};

/// `reads` through `Platform::align_chunk_parallel` as one chunk on one
/// worker, forward strand only: the outcomes in input order and the
/// chunk's totals (`platform.batch_report(&totals)` is the report).
pub fn align(platform: &Platform, reads: &[DnaSeq]) -> (Vec<AlignmentOutcome>, BatchTotals) {
    let (pairs, totals) = platform
        .align_chunk_parallel(reads, 1, 0, false)
        .expect("a non-empty chunk on one worker");
    (pairs.into_iter().map(|(o, _)| o).collect(), totals)
}

/// One read's outcome, as [`align`] gives it.
pub fn align_one(platform: &Platform, read: &DnaSeq) -> AlignmentOutcome {
    align(platform, std::slice::from_ref(read)).0.remove(0)
}

/// Unit-cost edit distance between `a` and `b` over the whole O(mn)
/// table, one row at a time. It shares no code with `swalign`, so it can
/// check what the aligner verified with it.
pub fn edit_distance(a: &[Base], b: &[Base]) -> usize {
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, x) in a.iter().enumerate() {
        // `diagonal` is the previous row's cell j, `row[j + 1]` still the
        // previous row's cell j + 1, `row[j]` this row's cell j.
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, y) in b.iter().enumerate() {
            let cell = (diagonal + usize::from(x != y))
                .min(row[j + 1] + 1)
                .min(row[j] + 1);
            diagonal = row[j + 1];
            row[j + 1] = cell;
        }
    }
    row[b.len()]
}

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
