//! One content-addressed artifact store under every on-disk cache.
//!
//! An entry is one file, `<kind>-<scale>-<model>-<key:016x>.bin`, holding
//! exactly [`binio::to_vec`] of the value. The caller's `key` digests
//! everything the value was computed from (the model definition and the
//! producing parameters), so a stale entry is a name nobody asks for again
//! and two model versions coexist. A file that fails to decode — truncated,
//! garbage, another format version — is a miss, and the caller's next
//! [`Store::put`] replaces it. Writes go through a temporary file in the
//! same directory and a `rename`, so a process sharing the directory never
//! reads half a file, and a directory that cannot be written costs the
//! cache, never the value. One LRU sweep bounds every kind at once.
//!
//! Every file operation under a cache directory lives in this module.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime};

use diffusion::ModelScale;
use ditto_core::binio::{self, FromBin, ToBin};
use ditto_core::jsonio::Value;
use ditto_core::telemetry;

use crate::sweep::scale_name;

/// A directory of content-addressed cache entries. Nothing touches the
/// disk until the first [`Store::get`] or [`Store::put`].
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// The store in `dir` (created by the first [`Store::put`]).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Store { dir: dir.into() }
    }

    /// Where the entry `(kind, scale, model, key)` lives.
    pub(crate) fn path(&self, kind: &str, scale: ModelScale, model: &str, key: u64) -> PathBuf {
        self.dir.join(entry_name(kind, scale, model, key))
    }

    /// The value stored under `(kind, scale, model, key)`, if it decodes.
    /// A hit re-stamps the file's mtime, the clock of [`Store::sweep`].
    pub fn get<T: FromBin>(
        &self,
        kind: &str,
        scale: ModelScale,
        model: &str,
        key: u64,
    ) -> Option<T> {
        let started = Instant::now();
        let path = self.path(kind, scale, model, key);
        let bytes = fs::read(&path).ok()?;
        match binio::from_slice(&bytes) {
            Ok(value) => {
                // Best effort: a failed stamp only makes the entry look older.
                if let Ok(f) = fs::File::options().append(true).open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                note(kind, scale, model, "hit", started);
                Some(value)
            }
            Err(e) => {
                eprintln!("[store] discarding unreadable {}: {e}", path.display());
                None
            }
        }
    }

    /// Stores `value` under `(kind, scale, model, key)`, replacing any
    /// entry there. `made_since` is when the caller started computing the
    /// value; the `traced` event reports the time since. A failed write
    /// only warns: the caller keeps its value, the entry stays a miss.
    pub fn put<T: ToBin>(
        &self,
        kind: &str,
        scale: ModelScale,
        model: &str,
        key: u64,
        value: &T,
        made_since: Instant,
    ) {
        // Unique per process and call, so concurrent writers of one entry
        // never share a temporary file.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let name = entry_name(kind, scale, model, key);
        let path = self.dir.join(&name);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".{name}.{}-{seq}.tmp", std::process::id()));
        let written = fs::create_dir_all(&self.dir)
            .and_then(|()| fs::write(&tmp, binio::to_vec(value)))
            .and_then(|()| fs::rename(&tmp, &path));
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            eprintln!("[store] warning: not cached, {}: {e}", path.display());
        }
        note(kind, scale, model, "traced", made_since);
    }

    /// Bounds the total bytes of the store's entries, of every kind, to
    /// `max_bytes` by deleting the least recently used first (oldest
    /// mtime; ties by name). Files that are not entries are never counted
    /// or touched. Each eviction is attributed to `requester`, the load
    /// that pushed the store over the cap. Returns how many were evicted.
    pub fn sweep(&self, max_bytes: u64, requester: &str) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else { return 0 };
        let mut found: Vec<(SystemTime, String, u64)> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok().filter(|n| is_entry(n))?;
                let meta = e.metadata().ok()?;
                Some((meta.modified().ok()?, name, meta.len()))
            })
            .collect();
        let mut total: u64 = found.iter().map(|(_, _, size)| size).sum();
        found.sort();
        let mut evicted = 0;
        for (_, name, size) in found {
            if total <= max_bytes {
                break;
            }
            let path = self.dir.join(&name);
            if let Err(e) = fs::remove_file(&path) {
                eprintln!("[store] failed to evict {}: {e}", path.display());
                continue;
            }
            eprintln!("[store] cache over {max_bytes} B cap: evicted {}", path.display());
            if telemetry::on() {
                telemetry::event(
                    "trace_cache_evict",
                    vec![
                        ("file", Value::Str(name)),
                        ("bytes", Value::Int(i128::from(size))),
                        ("requester", Value::Str(requester.to_string())),
                    ],
                );
                telemetry::counter("bench.trace_cache.evict", 1);
            }
            total -= size;
            evicted += 1;
        }
        evicted
    }
}

fn entry_name(kind: &str, scale: ModelScale, model: &str, key: u64) -> String {
    format!("{kind}-{}-{model}-{key:016x}.bin", scale_name(scale))
}

/// Whether `name` is an entry: `<kind>-<scale>-<model>-<16 hex digits>.bin`.
fn is_entry(name: &str) -> bool {
    let Some(stem) = name.strip_suffix(".bin") else { return false };
    let parts: Vec<&str> = stem.split('-').collect();
    parts.len() == 4
        && parts[..3].iter().all(|p| !p.is_empty())
        && parts[3].len() == 16
        && parts[3].bytes().all(|b| b.is_ascii_hexdigit())
}

/// One `trace_cache` event per lookup: which kind of artifact, for which
/// model at which scale, whether it was a `hit` or had to be made
/// (`traced`), and how long the decode (or the making) took. Counters
/// (`bench.trace_cache.*`) and a per-kind timing series ride along so
/// `obs-report` can show hit rates without replaying the stream.
fn note(kind: &str, scale: ModelScale, model: &str, outcome: &str, started: Instant) {
    if !telemetry::on() {
        return;
    }
    let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    telemetry::event(
        "trace_cache",
        vec![
            ("kind", Value::Str(kind.to_string())),
            ("model", Value::Str(model.to_string())),
            ("scale", Value::Str(scale_name(scale).to_string())),
            ("outcome", Value::Str(outcome.to_string())),
            ("us", Value::Int(i128::from(us))),
        ],
    );
    telemetry::counter(&format!("bench.trace_cache.{outcome}"), 1);
    telemetry::series(&format!("bench.{kind}_{outcome}_us"), us);
}

/// File helpers for tests, so the cache's tests make no file calls of their
/// own.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use std::path::Path;

    /// A fresh, empty directory under the system temp dir, removed on drop
    /// (tests must not touch the shared `target/ditto-cache`, and env-var
    /// overrides would race across the parallel test harness).
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("ditto-store-test-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create temp cache dir");
            TempDir(dir)
        }

        pub(crate) fn store(&self) -> Store {
            Store::new(&self.0)
        }
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    pub(crate) fn read(path: &Path) -> Vec<u8> {
        fs::read(path).expect("read cache file")
    }

    /// Writes `bytes` to `path`, then sleeps a little so files written in
    /// turn get distinct mtimes even on coarse-granularity filesystems.
    pub(crate) fn write(path: &Path, bytes: &[u8]) {
        fs::write(path, bytes).expect("write cache file");
        std::thread::sleep(std::time::Duration::from_millis(15));
    }

    pub(crate) fn mtime(path: &Path) -> SystemTime {
        fs::metadata(path).and_then(|m| m.modified()).expect("cache file mtime")
    }

    pub(crate) fn len(path: &Path) -> u64 {
        fs::metadata(path).expect("cache file metadata").len()
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;

    const SMALL: ModelScale = ModelScale::Small;

    #[test]
    fn entry_names_are_content_addressed() {
        let name = entry_name("similarity", ModelScale::Tiny, "DiT", 0xAB);
        assert_eq!(name, "similarity-tiny-DiT-00000000000000ab.bin");
        assert!(is_entry(&name));
        for other in [
            "trace-DDPM.bin",
            "trace-tiny-DDPM.bin",
            "trace-tiny-DDPM.json",
            "trace-tiny-DDPM-00000000000000zz.bin",
            "trace--DDPM-0000000000000000.bin",
            ".trace-small-DDPM-0000000000000000.bin.1-0.tmp",
            "notes.txt",
        ] {
            assert!(!is_entry(other), "{other}");
        }
    }

    #[test]
    fn put_replaces_and_leaves_no_temporary_files() {
        let dir = TempDir::new("put");
        let store = dir.store();
        store.put("trace", SMALL, "DDPM", 7, &vec![1u64, 2], Instant::now());
        store.put("trace", SMALL, "DDPM", 7, &vec![3u64], Instant::now());
        assert_eq!(store.get::<Vec<u64>>("trace", SMALL, "DDPM", 7), Some(vec![3]));
        assert_eq!(store.get::<Vec<u64>>("trace", SMALL, "DDPM", 8), None);
        let names: Vec<_> = fs::read_dir(&*dir).unwrap().flatten().map(|e| e.file_name()).collect();
        assert_eq!(names, ["trace-small-DDPM-0000000000000007.bin"]);
    }

    #[test]
    fn unwritable_store_warns_and_misses_instead_of_panicking() {
        // A directory whose parent is a regular file cannot be created,
        // whatever the permissions (tests may run as root).
        let dir = TempDir::new("unwritable");
        let file = dir.join("not-a-dir");
        write(&file, b"x");
        let store = Store::new(file.join("cache"));
        store.put("similarity", SMALL, "SDM", 1, &vec![0.5f32], Instant::now());
        assert_eq!(store.get::<Vec<f32>>("similarity", SMALL, "SDM", 1), None);
        assert_eq!(store.sweep(0, "test"), 0);
        assert_eq!(read(&file), b"x");
    }
}
