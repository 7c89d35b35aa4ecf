//! Durability and poison-recovery primitives shared by the checkpointing
//! sinks (manifest, heartbeat, telemetry snapshot, report emission).
//!
//! The campaign's crash-safety story rests on two guarantees these
//! helpers provide:
//!
//! * **Atomic whole-file replacement** ([`durable_write`]): a reader (or
//!   a resumed campaign) never observes a half-written report, metrics
//!   snapshot, or heartbeat-adjacent output — it sees either the old
//!   bytes or the new bytes, fsynced before the rename makes them
//!   visible.
//! * **Panic containment** ([`lock_unpoisoned`]): one panicking cell
//!   thread must not disable checkpointing for the rest of the campaign,
//!   so sink mutexes recover the guard from a poisoned lock instead of
//!   propagating the panic. The protected state is a log sink whose worst
//!   torn state is a partial trailing line — exactly the torn-tail case
//!   every log reader already tolerates.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// Writes `contents` to `path` atomically and durably: the bytes go to a
/// sibling temp file, are fsynced, and then renamed over `path` (the
/// parent directory is fsynced best-effort so the rename itself survives
/// a crash). Readers never see a partial file.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing, or renaming the temp
/// file; on error the temp file is removed best-effort and `path` is
/// untouched.
pub fn durable_write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::other(format!("no file name in {}", path.display())))?;
    let tmp = path.with_file_name(format!(
        "{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(contents.as_ref())?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    // Make the rename durable; some filesystems don't support opening a
    // directory for sync, so failure here is not fatal.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Locks `mutex`, recovering the guard if a previous holder panicked.
/// Use only where the protected state stays coherent across an unwind
/// mid-critical-section (append-style sinks qualify; multi-step state
/// machines do not).
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hetsched-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_write_replaces_contents_atomically() {
        let dir = temp_dir("replace");
        let path = dir.join("out.txt");
        durable_write(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        durable_write(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        // No temp droppings left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(leftovers.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_write_to_missing_directory_errors_cleanly() {
        let dir = temp_dir("missing");
        let path = dir.join("nope").join("out.txt");
        assert!(durable_write(&path, "x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_unpoisoned_recovers_after_a_panicking_holder() {
        let mutex = Mutex::new(7usize);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock().unwrap();
            panic!("poison it");
        }));
        assert!(caught.is_err());
        assert!(mutex.is_poisoned());
        *lock_unpoisoned(&mutex) += 1;
        assert_eq!(*lock_unpoisoned(&mutex), 8);
    }
}
