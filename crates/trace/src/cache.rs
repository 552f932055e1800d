//! The content-addressed on-disk trace cache.
//!
//! A cache entry is one sealed v2 trace whose file name encodes its
//! content address: `<label>-<fingerprint:016x>.mtrace`, where the
//! fingerprint hashes everything the recorded stream depends on (for
//! workload streams: profile, `DramConfig`, generator seed, and length —
//! see `moat_workloads::trace_key`). Same inputs → same file → recorded
//! once, replayed forever; any input change → different address → a miss,
//! never a stale hit.
//!
//! The cache directory defaults to `.trace-cache/v2` under the current
//! directory (override with `MOAT_TRACE_DIR`); the format version is part
//! of the path so a future v3 starts from an empty cache instead of
//! tripping over v2 files. Writers record into a process-unique `.tmp`
//! file and publish with an atomic rename, so concurrent recorders (sweep
//! workers, parallel CI jobs on a shared cache volume) never observe a
//! half-written entry.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use moat_dram::env;
use moat_sim::RequestStream;

use crate::format::record_stream;
use crate::reader::TraceFile;

/// Disambiguates concurrent recordings from one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The content address of one cached trace.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Human-readable label (e.g. the workload name); sanitized into the
    /// file name.
    pub label: String,
    /// Fingerprint of everything the stream depends on.
    pub fingerprint: u64,
}

impl TraceKey {
    /// Creates a key.
    pub fn new(label: impl Into<String>, fingerprint: u64) -> TraceKey {
        TraceKey {
            label: label.into(),
            fingerprint,
        }
    }

    /// The cache file name for this key. The label is sanitized to
    /// `[A-Za-z0-9._-]`; identity lives in the fingerprint.
    pub fn file_name(&self) -> String {
        let safe: String = self
            .label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{safe}-{:016x}.mtrace", self.fingerprint)
    }
}

/// A directory of content-addressed traces.
#[derive(Debug, Clone)]
pub struct TraceCache {
    dir: PathBuf,
}

impl TraceCache {
    /// The format tag in the default directory (and the recommended CI
    /// cache key component): bump when [`crate::VERSION`] bumps.
    pub const FORMAT_TAG: &'static str = "v2";

    /// The environment variable overriding the cache directory.
    pub const ENV_VAR: &'static str = "MOAT_TRACE_DIR";

    /// The default cache directory: `$MOAT_TRACE_DIR`, or
    /// `.trace-cache/v2` under the current directory.
    pub fn default_dir() -> PathBuf {
        match Self::env_dir() {
            Ok(Some(dir)) => dir,
            Ok(None) => Path::new(".trace-cache").join(Self::FORMAT_TAG),
            // Library callers degrade to the default (with a warning);
            // the repro binary validates eagerly at startup and turns
            // the same error into a clean exit.
            Err(e) => {
                moat_telemetry::log::warn(
                    "moat-trace",
                    format_args!("{e}; using the default cache directory"),
                );
                Path::new(".trace-cache").join(Self::FORMAT_TAG)
            }
        }
    }

    /// The cache directory override from [`Self::ENV_VAR`], validated:
    /// `None` when unset, an error when set to something unusable (empty
    /// — which previously fell back silently, hiding a misconfigured CI
    /// variable — or not valid Unicode).
    ///
    /// # Errors
    ///
    /// Describes the malformed value.
    pub fn env_dir() -> Result<Option<PathBuf>, String> {
        match env::var(Self::ENV_VAR)? {
            Some(dir) if dir.trim().is_empty() => Err(format!(
                "{} is set but empty (unset it to use the default directory)",
                Self::ENV_VAR
            )),
            dir => Ok(dir.map(PathBuf::from)),
        }
    }

    /// Opens (creating if needed) a cache at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<TraceCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(TraceCache { dir })
    }

    /// Opens the default cache (see [`default_dir`](Self::default_dir)).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn open_default() -> io::Result<TraceCache> {
        Self::open(Self::default_dir())
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of `key`'s entry (whether or not it exists).
    pub fn path_of(&self, key: &TraceKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Opens the cached trace for `key`, or `None` on a miss. A failure
    /// to *validate* — truncation, checksum corruption, a fingerprint
    /// that does not match the key — counts as a miss and evicts the
    /// entry so the next [`record`](Self::record) replaces it. Transient
    /// resource errors (fd exhaustion, `mmap` out of address space)
    /// also miss, but leave the entry on disk: the recording is fine,
    /// only this open attempt failed.
    pub fn lookup(&self, key: &TraceKey) -> Option<TraceFile> {
        let path = self.path_of(key);
        if !path.exists() {
            return None;
        }
        match TraceFile::open(&path) {
            Ok(trace) if trace.fingerprint() == key.fingerprint => Some(trace),
            Ok(_) => {
                // Mislabeled (file name does not match its content
                // address): evict so it gets re-recorded.
                let _ = std::fs::remove_file(&path);
                crate::reader::clear_marker(&path);
                None
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Corrupt or truncated: evict (marker included) so it
                // gets re-recorded.
                let _ = std::fs::remove_file(&path);
                crate::reader::clear_marker(&path);
                None
            }
            Err(_) => None,
        }
    }

    /// Records `stream` as `key`'s entry and opens it back. The recording
    /// lands in a process-unique temporary file first and is published
    /// with an atomic rename. Since the writer computed the checksum
    /// over the very bytes it just wrote, the entry is marked verified
    /// immediately — the open that follows (and every later one, until
    /// the file changes) skips the checksum re-walk.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the temporary file is cleaned up on error.
    pub fn record<S: RequestStream>(&self, key: &TraceKey, stream: S) -> io::Result<TraceFile> {
        let path = self.path_of(key);
        let tmp = self.dir.join(format!(
            "{}.{}.{}.tmp",
            key.file_name(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let header = record_stream(&tmp, key.fingerprint, stream)?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        crate::reader::mark_verified(&path, header.checksum);
        TraceFile::open(&path)
    }

    /// The cache's one-line workflow: a [`lookup`](Self::lookup) hit
    /// replays from the map; a miss generates the stream **once** (via
    /// `make_stream`), spills it to disk, and replays that.
    ///
    /// # Errors
    ///
    /// Propagates recording I/O errors on the miss path.
    pub fn open_or_record<S, F>(&self, key: &TraceKey, make_stream: F) -> io::Result<TraceFile>
    where
        S: RequestStream,
        F: FnOnce() -> S,
    {
        if let Some(hit) = self.lookup(key) {
            return Ok(hit);
        }
        self.record(key, make_stream())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_dram::{BankId, Nanos, RowId};
    use moat_sim::Request;

    fn temp_cache(name: &str) -> TraceCache {
        let dir =
            std::env::temp_dir().join(format!("moat-cache-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TraceCache::open(dir).unwrap()
    }

    fn stream(n: u32, salt: u32) -> impl Iterator<Item = Request> + Clone {
        (0..n).map(move |i| Request {
            gap: Nanos::new(u64::from(i % 97)),
            bank: BankId::new(0),
            row: RowId::new(i.wrapping_mul(31).wrapping_add(salt) % 512),
        })
    }

    #[test]
    fn env_dir_validates_the_override() {
        // One serial test owns the env var; the other cache tests use
        // explicit directories and never consult it.
        std::env::set_var(TraceCache::ENV_VAR, "");
        assert!(
            TraceCache::env_dir().is_err(),
            "set-but-empty must error, not silently fall back"
        );
        std::env::set_var(TraceCache::ENV_VAR, "   ");
        assert!(TraceCache::env_dir().is_err(), "whitespace-only is empty");
        std::env::set_var(TraceCache::ENV_VAR, "/tmp/moat-custom-cache");
        assert_eq!(
            TraceCache::env_dir().unwrap(),
            Some(PathBuf::from("/tmp/moat-custom-cache"))
        );
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let bogus = std::ffi::OsString::from_vec(vec![0x2F, 0xFF]);
            std::env::set_var(TraceCache::ENV_VAR, &bogus);
            assert!(TraceCache::env_dir().is_err(), "non-Unicode must error");
        }
        std::env::remove_var(TraceCache::ENV_VAR);
        assert_eq!(TraceCache::env_dir(), Ok(None), "unset means no override");
    }

    #[test]
    fn miss_records_once_then_hits() {
        let cache = temp_cache("hit");
        let key = TraceKey::new("unit", 0x1234);
        assert!(cache.lookup(&key).is_none());

        let mut generations = 0u32;
        let t1 = cache
            .open_or_record(&key, || {
                generations += 1;
                stream(1000, 5)
            })
            .unwrap();
        assert_eq!(t1.len(), 1000);
        assert_eq!(generations, 1);

        let t2 = cache
            .open_or_record(&key, || {
                generations += 1;
                stream(1000, 5)
            })
            .unwrap();
        assert_eq!(generations, 1, "second open is a pure cache hit");
        assert_eq!(t2.len(), 1000);
        // No temporary files left behind.
        let stray: Vec<_> = std::fs::read_dir(cache.dir())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(stray.is_empty());
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn corrupt_entry_is_evicted_and_rerecorded() {
        let cache = temp_cache("corrupt");
        let key = TraceKey::new("unit", 9);
        cache.record(&key, stream(500, 1)).unwrap();
        // Flip one record byte: checksum validation must reject it. The
        // mtime is pushed explicitly so the verified-once marker goes
        // stale even on filesystems with coarse timestamps (a real
        // corrupting write moves the mtime the same way).
        let path = cache.path_of(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_times(std::fs::FileTimes::new().set_modified(
            std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000),
        ))
        .unwrap();
        drop(file);

        assert!(cache.lookup(&key).is_none(), "corruption is a miss");
        assert!(!path.exists(), "corrupt entry evicted");
        assert!(
            !crate::reader::has_marker(&path),
            "the stale marker is evicted with the entry"
        );
        let again = cache.open_or_record(&key, || stream(500, 1)).unwrap();
        assert_eq!(again.len(), 500);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn record_marks_the_entry_verified() {
        // The recording pass computes the checksum over the bytes it
        // writes, so the published entry carries a verified-once marker
        // from the start — the reopen per experiment skips the re-walk.
        let cache = temp_cache("marker");
        let key = TraceKey::new("unit", 44);
        cache.record(&key, stream(200, 3)).unwrap();
        let path = cache.path_of(&key);
        assert!(
            crate::reader::has_marker(&path),
            "record() must publish the marker with the entry"
        );
        // A later lookup still opens (fast path) and fully verifies on
        // demand.
        let hit = cache.lookup(&key).expect("hit");
        hit.verify().expect("marked entry passes the full walk");
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_a_miss() {
        let cache = temp_cache("fpr");
        let a = TraceKey::new("same-label", 1);
        cache.record(&a, stream(10, 0)).unwrap();
        // Same label, different fingerprint: different file, so a miss.
        let b = TraceKey::new("same-label", 2);
        assert!(cache.lookup(&b).is_none());
        assert!(cache.lookup(&a).is_some(), "a unaffected");
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn labels_are_sanitized() {
        let key = TraceKey::new("sp ace/../evil", 0xAB);
        assert_eq!(key.file_name(), "sp_ace_.._evil-00000000000000ab.mtrace");
    }
}
