//! Crash-safe replacement of small metadata files.
//!
//! The catalog snapshot, the query store and the quarantine list are each
//! rewritten whole whenever they change. [`replace_file`] is the one
//! recipe all three use: write a sibling `.tmp`, `sync_all` it, rename it
//! over the target, then fsync the parent directory so the rename itself
//! survives power loss (Pillai et al., "All File Systems Are Not Created
//! Equal", OSDI 2014). A crash at any point leaves either the old file or
//! the complete new one, never an empty or torn one.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use seqdb_types::{DbError, Result};

/// Atomically and durably replace `path` with `data`. Write errors map
/// through [`DbError::io_write`], so a full disk is the typed
/// `DiskFull`; the temp file is removed on failure.
pub fn replace_file(path: &Path, data: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp).and_then(|mut f| {
        f.write_all(data)?;
        f.sync_all()
    });
    if let Err(e) = written.and_then(|()| fs::rename(&tmp, path)) {
        let _ = fs::remove_file(&tmp);
        return Err(DbError::io_write(e));
    }
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    sync_dir(dir.unwrap_or(Path::new(".")))
}

/// Sync a directory so a just-completed rename inside it is durable.
pub fn sync_dir(dir: &Path) -> Result<()> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seqdb-durable-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn replace_overwrites_and_leaves_no_tmp() {
        let d = dir("overwrite");
        let path = d.join("catalog.seqdb");
        replace_file(&path, b"first version, longer than the second").unwrap();
        replace_file(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec!["catalog.seqdb"], "no .tmp left");
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn replace_into_missing_directory_fails_typed() {
        let d = dir("missing");
        let path = d.join("gone").join("querystore.seqdb");
        let err = replace_file(&path, b"x").unwrap_err();
        assert!(matches!(err, DbError::Io(_)), "{err:?}");
        assert!(!path.exists());
        fs::remove_dir_all(&d).ok();
    }
}
