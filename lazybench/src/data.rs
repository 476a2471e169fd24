//! The benchmark's inputs on disk: the generated repository and the
//! per-run copy the served workload mutates.
//!
//! The repository goes to the repository's bench-repository cache
//! (`target/bench-repos/`); everything else lives under `.lazybench/` in
//! the working directory. Generation is deterministic, so the repository
//! is made once and reused by later runs.

use lazyetl_core::{Warehouse, WarehouseConfig};
use std::path::{Path, PathBuf};

/// Root of everything the benchmark writes.
pub fn work_root() -> PathBuf {
    PathBuf::from(".lazybench")
}

/// Where results and spans of finished runs go.
pub fn out_dir() -> PathBuf {
    work_root().join("out")
}

/// The `small` repository (40 mSEED files, 280 records), generated on
/// first use into the repository's bench-repository cache.
pub fn small_dir() -> PathBuf {
    lazyetl_bench::scale_repo(lazyetl_bench::ScaleName::Small)
}

/// Per-run copy of `small` the served workload lands files in.
pub fn served_repo_dir() -> PathBuf {
    work_root().join("run").join("served").join("repo")
}

/// Snapshot the served workload restarts from.
pub fn served_snapshot_dir() -> PathBuf {
    work_root().join("run").join("served").join("snap")
}

/// Copy a directory tree.
pub fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), to)?;
        }
    }
    Ok(())
}

/// Query that touches every record: the warm-up pass.
pub const TOUCH_ALL: &str = "SELECT COUNT(*), MIN(D.sample_value) FROM mseed.dataview";

/// Make a fresh mutable copy of `small` and a snapshot of a warmed lazy
/// warehouse over it, for the served workload's warm restart.
pub fn prepare_served() -> Result<(), String> {
    let repo = served_repo_dir();
    let snap = served_snapshot_dir();
    let run = repo.parent().expect("served repo dir has a parent");
    std::fs::remove_dir_all(run).ok();
    copy_dir(&small_dir(), &repo).map_err(|e| format!("copy small: {e}"))?;
    std::fs::remove_file(repo.join(".complete")).ok();
    let wh = Warehouse::open_lazy(&repo, WarehouseConfig::default())
        .map_err(|e| format!("open served copy: {e}"))?;
    wh.query(TOUCH_ALL)
        .map_err(|e| format!("warm served copy: {e}"))?;
    wh.save_to(&snap)
        .map_err(|e| format!("save served snapshot: {e}"))?;
    Ok(())
}
