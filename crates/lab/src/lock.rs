//! Ownership lockfiles for journals and family directories.
//!
//! `mb-lab run` appends to a journal, `mb-lab supervise` owns a whole
//! family directory, and `mb-lab serve` owns a data dir full of job
//! families. Each layer used to *assume* sole ownership; two writers
//! on one journal interleave appends and break the digest chain, and
//! two supervisors on one `--dir` double-spawn workers against the
//! same journals. The service mode makes that collision easy to
//! trigger (two operators pointing at one data dir), so ownership is
//! now an explicit, typed contract:
//!
//! * A [`PathLock`] is a sidecar file holding the owner's pid, created
//!   with `O_EXCL` so exactly one contender wins a race.
//! * A lock whose recorded pid is still alive (checked via
//!   `/proc/<pid>`) is a hard [`LabError::Locked`] error — mapped to
//!   exit code 5 (`ENV_MISCONFIG`), never retried, never stolen.
//! * A lock whose owner is dead (SIGKILL, power loss) is *stale*: it
//!   is removed and the acquisition retried, so crash recovery never
//!   needs a manual `rm`. The retry loops through `O_EXCL` again, so
//!   two contenders stealing the same stale lock still serialize.
//! * Dropping the guard removes the file; an abnormal exit leaves a
//!   stale lock, which the next owner steals by the rule above.
//!
//! The liveness probe is advisory (pids recycle), but the window is
//! the width of a pid reuse against a crashed owner's own lockfile —
//! the failure it closes (two *live* writers) is checked exactly.

use crate::error::LabError;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Whether `pid` names a live process. Linux reads `/proc`; elsewhere
/// the probe conservatively reports "alive" so locks are never stolen.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        // A zombie still has a /proc entry but can never touch the
        // locked path again — a SIGKILLed owner awaiting its reap must
        // not wedge the restarted writer. State is field 3 of
        // /proc/<pid>/stat, after the parenthesised comm.
        match std::fs::read_to_string(Path::new("/proc").join(pid.to_string()).join("stat")) {
            Ok(stat) => {
                let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
                !after_comm.trim_start().starts_with('Z')
            }
            Err(_) => false,
        }
    } else {
        true
    }
}

/// An exclusive ownership claim over one path, held for the guard's
/// lifetime (see the module docs for the steal/refuse rules).
#[derive(Debug)]
pub struct PathLock {
    path: PathBuf,
}

impl PathLock {
    /// The conventional lockfile path guarding `target` (journal file
    /// or directory): `<target>.lock` as a sibling.
    pub fn guard_path(target: &Path) -> PathBuf {
        let name = target
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "dir".to_string());
        target.with_file_name(format!("{name}.lock"))
    }

    /// Acquires the lock at `path`, stealing it only from a dead owner.
    ///
    /// # Errors
    ///
    /// [`LabError::Locked`] when a live process holds it, or
    /// [`LabError::Io`] on filesystem failure.
    pub fn acquire(path: &Path) -> Result<PathLock, LabError> {
        // Bounded retries: each loop either wins O_EXCL, errors on a
        // live owner, or removes one stale file. Unbounded contention
        // over freshly written locks resolves as Owned below.
        for _ in 0..16 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)
            {
                Ok(mut file) => {
                    write!(file, "{}", std::process::id())?;
                    file.sync_all()?;
                    return Ok(PathLock {
                        path: path.to_path_buf(),
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let text = match fs::read_to_string(path) {
                        Ok(t) => t,
                        // The holder released between our open and read:
                        // go around and contend again.
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                        Err(e) => return Err(LabError::Io(e)),
                    };
                    match text.trim().parse::<u32>() {
                        Ok(pid) if pid_alive(pid) => {
                            return Err(LabError::Locked {
                                path: path.to_path_buf(),
                                pid,
                            })
                        }
                        // Dead owner, or a torn/garbled pid from a
                        // crash mid-write: the claim is stale either
                        // way. Remove and re-contend.
                        _ => match fs::remove_file(path) {
                            Ok(()) => continue,
                            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                            Err(e) => return Err(LabError::Io(e)),
                        },
                    }
                }
                Err(e) => return Err(LabError::Io(e)),
            }
        }
        Err(LabError::Io(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            format!("lock at {} kept churning owners", path.display()),
        )))
    }

    /// Acquires the conventional lock guarding `target` (see
    /// [`PathLock::guard_path`]).
    ///
    /// # Errors
    ///
    /// As [`PathLock::acquire`].
    pub fn acquire_guarding(target: &Path) -> Result<PathLock, LabError> {
        PathLock::acquire(&PathLock::guard_path(target))
    }

    /// The lockfile this guard holds.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for PathLock {
    fn drop(&mut self) {
        // Best-effort release; a leftover file is a stale lock the
        // next owner steals after the liveness probe.
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mb-lock-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn acquire_writes_own_pid_and_release_removes() {
        let dir = scratch("basic");
        let path = dir.join("x.lock");
        let lock = PathLock::acquire(&path).expect("fresh acquire");
        let text = fs::read_to_string(&path).expect("lockfile readable");
        assert_eq!(text.trim(), std::process::id().to_string());
        drop(lock);
        assert!(!path.exists(), "drop releases the lock");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_owner_is_a_typed_refusal() {
        let dir = scratch("live");
        let path = dir.join("x.lock");
        let _held = PathLock::acquire(&path).expect("first acquire");
        // Our own pid is alive by definition, so the second claim must
        // refuse rather than steal.
        match PathLock::acquire(&path) {
            Err(LabError::Locked { pid, .. }) => {
                assert_eq!(pid, std::process::id());
            }
            other => panic!("expected Owned, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_and_garbled_locks_are_stolen() {
        let dir = scratch("stale");
        let path = dir.join("x.lock");
        // Pid 0 is never a live userspace process; garbage is a torn
        // write. Both are stale claims.
        for stale in ["0", "not-a-pid", ""] {
            fs::write(&path, stale).expect("plant stale lock");
            let lock = PathLock::acquire(&path).expect("steal stale lock");
            assert_eq!(
                fs::read_to_string(&path).expect("lockfile").trim(),
                std::process::id().to_string()
            );
            drop(lock);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn exit_code_is_env_misconfig() {
        let e = LabError::Locked {
            path: PathBuf::from("j.lock"),
            pid: 1,
        };
        assert_eq!(e.exit_code(), 5);
        assert!(e.to_string().contains("already owned by live process 1"));
    }

    #[test]
    fn guard_path_is_a_sibling_suffix() {
        assert_eq!(
            PathLock::guard_path(Path::new("/a/b/shard.journal")),
            PathBuf::from("/a/b/shard.journal.lock")
        );
        assert_eq!(
            PathLock::guard_path(Path::new("/a/family")),
            PathBuf::from("/a/family.lock")
        );
    }
}
