//! The mmap-backed trace reader and its zero-copy replay stream.
//!
//! Opening a trace fully validates it — header, length, checksum — but a
//! full checksum pass over a multi-gigabyte cache entry on *every* open
//! is wasted work when the same process (or a previous run) already
//! verified the identical bytes: a `--full` `repro all` opens each trace
//! once per experiment. [`TraceFile::open`] therefore keeps a
//! *verified-once marker*, a tiny `<file>.ok` sidecar recording the
//! trace's size, mtime, and header checksum at the moment a full
//! verification succeeded. While the metadata still matches, later opens
//! skip the re-walk; any mismatch (or a missing/garbled marker) falls
//! back to the full pass and rewrites the marker.
//!
//! The marker is a metadata-trust fast path, not a cryptographic seal: a
//! writer that forges the sidecar (or corrupts the records without
//! touching size or mtime) can slip past `open`. The ground truth stays
//! [`TraceFile::verify`], which always re-walks the bytes — `repro trace
//! verify` uses it, and the error-path tests pin that a
//! corrupted-after-marking file is still rejected there.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::time::UNIX_EPOCH;

use moat_sim::{Request, RequestStream, DEFAULT_CHUNK};

use crate::format::{
    decode_record, fold_checksum, TraceHeader, CHECKSUM_SEED, HEADER_BYTES, RECORD_BYTES,
};
use crate::mmap::Mmap;

/// Header-level facts about a trace file, read without walking the
/// records (the `repro trace info` view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceInfo {
    /// The validated header.
    pub header: TraceHeader,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// The file inspected.
    pub path: PathBuf,
}

impl TraceInfo {
    /// Reads and validates the header (magic, version, record size, and
    /// that the file length matches the record count) without touching
    /// the record bytes.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on malformed or truncated
    /// headers and propagates I/O errors.
    pub fn read(path: &Path) -> io::Result<TraceInfo> {
        use std::io::Read;

        let mut file = File::open(path)?;
        let file_bytes = file.metadata()?.len();
        let mut head = [0u8; HEADER_BYTES];
        // An injected short read takes the same wrap as a real one below.
        crate::failpoint::check_read()
            .and_then(|()| file.read_exact(&mut head))
            .map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("trace truncated: {file_bytes} bytes, header needs {HEADER_BYTES}"),
                    )
                } else {
                    e
                }
            })?;
        let header = TraceHeader::decode(&head)?;
        let expect = HEADER_BYTES as u64 + header.count * RECORD_BYTES as u64;
        if file_bytes != expect {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trace truncated or padded: {file_bytes} bytes, header promises {expect} \
                     ({} records)",
                    header.count
                ),
            ));
        }
        Ok(TraceInfo {
            header,
            file_bytes,
            path: path.to_path_buf(),
        })
    }
}

/// The sidecar extension of the verified-once marker (appended to the
/// trace's file name: `foo.mtrace` → `foo.mtrace.ok`).
const MARKER_SUFFIX: &str = "ok";

/// The identity a verified-once marker records: everything that must
/// still match for a previous full verification to vouch for the bytes
/// on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VerifiedStamp {
    /// Total file size in bytes.
    bytes: u64,
    /// Modification time, seconds + nanos since the epoch.
    mtime_secs: u64,
    mtime_nanos: u32,
    /// The header checksum the verification confirmed.
    checksum: u64,
}

impl VerifiedStamp {
    /// Reads the trace's current identity from the filesystem.
    fn of(path: &Path, checksum: u64) -> io::Result<VerifiedStamp> {
        let meta = std::fs::metadata(path)?;
        let mtime = meta
            .modified()?
            .duration_since(UNIX_EPOCH)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "mtime before the epoch"))?;
        Ok(VerifiedStamp {
            bytes: meta.len(),
            mtime_secs: mtime.as_secs(),
            mtime_nanos: mtime.subsec_nanos(),
            checksum,
        })
    }

    /// The marker path for `path`.
    fn marker_path(path: &Path) -> PathBuf {
        let mut name = path.as_os_str().to_os_string();
        name.push(".");
        name.push(MARKER_SUFFIX);
        PathBuf::from(name)
    }

    /// Serializes the marker file body.
    fn encode(&self) -> String {
        format!(
            "moat-trace-verified v1\nbytes {}\nmtime {}.{:09}\nchecksum {:016x}\n",
            self.bytes, self.mtime_secs, self.mtime_nanos, self.checksum
        )
    }

    /// Parses a marker file body; `None` on any malformation (a garbled
    /// marker simply misses, forcing a full verification).
    fn decode(text: &str) -> Option<VerifiedStamp> {
        let mut lines = text.lines();
        if lines.next()? != "moat-trace-verified v1" {
            return None;
        }
        let bytes = lines.next()?.strip_prefix("bytes ")?.parse().ok()?;
        let (secs, nanos) = lines.next()?.strip_prefix("mtime ")?.split_once('.')?;
        let checksum = lines.next()?.strip_prefix("checksum ")?;
        Some(VerifiedStamp {
            bytes,
            mtime_secs: secs.parse().ok()?,
            mtime_nanos: nanos.parse().ok()?,
            checksum: u64::from_str_radix(checksum, 16).ok()?,
        })
    }

    /// Whether a matching marker exists for `path`.
    fn matches_marker(&self, path: &Path) -> bool {
        std::fs::read_to_string(Self::marker_path(path))
            .ok()
            .and_then(|text| Self::decode(&text))
            .is_some_and(|stored| stored == *self)
    }

    /// Best-effort marker publication (tmp + rename so a concurrent
    /// reader never sees a torn marker; failures are ignored — the worst
    /// case is a future full re-verification).
    fn write_marker(&self, path: &Path) {
        let marker = Self::marker_path(path);
        let tmp = marker.with_extension(format!("{MARKER_SUFFIX}.{}.tmp", std::process::id()));
        if std::fs::write(&tmp, self.encode()).is_ok() && std::fs::rename(&tmp, &marker).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Records a verified-once marker for `path`, vouching that its current
/// on-disk bytes were fully validated against `checksum`. Used by
/// [`TraceFile::open`] after a successful verification and by the trace
/// cache right after it seals a recording (the writer just computed the
/// checksum over the very bytes it wrote). Best-effort: failures only
/// cost a future re-verification.
pub(crate) fn mark_verified(path: &Path, checksum: u64) {
    if let Ok(stamp) = VerifiedStamp::of(path, checksum) {
        stamp.write_marker(path);
    }
}

/// Removes the verified-once marker alongside `path`, if any (used when
/// the cache evicts a corrupt entry).
pub(crate) fn clear_marker(path: &Path) {
    let _ = std::fs::remove_file(VerifiedStamp::marker_path(path));
}

/// Whether a verified-once marker file exists alongside `path` (test
/// support; says nothing about whether it still matches).
#[cfg(test)]
pub(crate) fn has_marker(path: &Path) -> bool {
    VerifiedStamp::marker_path(path).exists()
}

/// A validated, memory-mapped v2 trace.
///
/// Opening verifies the header, the length, and the checksum — a
/// corrupted cache entry surfaces as an [`io::Error`] here, never as a
/// wrong replay. The one sequential verification pass doubles as a page
/// warm-up, so first replay runs at memory speed. A verified-once
/// sidecar marker (see the module docs) lets re-opens of bytes this
/// library already validated skip the checksum re-walk.
///
/// `TraceFile` is `Send + Sync`: replays borrow the map immutably, so one
/// open trace serves every sweep worker at once, each with its own
/// [`replay`](Self::replay) cursor.
#[derive(Debug)]
pub struct TraceFile {
    map: Mmap,
    header: TraceHeader,
    path: PathBuf,
}

impl TraceFile {
    /// Opens, maps, and validates a trace.
    ///
    /// The header and length are always checked. The checksum re-walk is
    /// skipped when a verified-once marker (size + mtime + checksum
    /// recorded by a previous successful verification — see the module
    /// docs) still matches the file; otherwise the full pass runs and,
    /// on success, refreshes the marker so the next open is cheap.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on bad magic, version or
    /// record-size mismatch, truncation, or checksum mismatch, and
    /// propagates open/map errors.
    pub fn open(path: &Path) -> io::Result<TraceFile> {
        let trace = Self::map_checked(path)?;
        let stamp = VerifiedStamp::of(path, trace.header.checksum).ok();
        if stamp.is_some_and(|s| s.matches_marker(path)) {
            // Verified once already, and neither size nor mtime moved:
            // trust the earlier full pass.
            return Ok(trace);
        }
        trace.verify()?;
        if let Some(stamp) = stamp {
            stamp.write_marker(path);
        }
        Ok(trace)
    }

    /// Opens, maps, and *unconditionally* re-walks the full checksum,
    /// ignoring any verified-once marker — exactly one validation pass
    /// (the marker fast path of [`open`](Self::open) would make a
    /// subsequent explicit [`verify`](Self::verify) call a second full
    /// walk on unmarked files). The ground-truth entry point of
    /// `repro trace verify`; refreshes the marker on success like
    /// `open`.
    ///
    /// # Errors
    ///
    /// Same as [`open`](Self::open).
    pub fn open_strict(path: &Path) -> io::Result<TraceFile> {
        let trace = Self::map_checked(path)?;
        trace.verify()?;
        mark_verified(path, trace.header.checksum);
        Ok(trace)
    }

    /// The prefix both opens share: reads and checks the header, maps
    /// the file, and checks the mapping's length against the header's.
    /// The checksum is left to the caller.
    fn map_checked(path: &Path) -> io::Result<TraceFile> {
        let info = TraceInfo::read(path)?;
        let file = File::open(path)?;
        let map = Mmap::map(&file)?;
        if map.len() as u64 != info.file_bytes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trace changed size while opening",
            ));
        }
        Ok(TraceFile {
            map,
            header: info.header,
            path: path.to_path_buf(),
        })
    }

    /// Re-walks the record region and checks it against the header
    /// checksum.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on a mismatch.
    pub fn verify(&self) -> io::Result<()> {
        let mut hash = CHECKSUM_SEED;
        for record in self.records().chunks_exact(RECORD_BYTES) {
            hash = fold_checksum(hash, record.try_into().unwrap());
        }
        if hash != self.header.checksum {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trace checksum mismatch: computed {hash:#018x}, header says {:#018x}",
                    self.header.checksum
                ),
            ));
        }
        Ok(())
    }

    /// The validated header.
    pub fn header(&self) -> TraceHeader {
        self.header
    }

    /// The content fingerprint recorded at write time.
    pub fn fingerprint(&self) -> u64 {
        self.header.fingerprint
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> u64 {
        self.header.count
    }

    /// Whether the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.header.count == 0
    }

    /// The file this trace was mapped from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The raw record region.
    pub fn records(&self) -> &[u8] {
        &self.map[HEADER_BYTES..]
    }

    /// A fresh zero-copy replay cursor over the whole trace. Cursors are
    /// independent; any number can be live at once.
    pub fn replay(&self) -> TraceReplay<'_> {
        TraceReplay {
            data: self.records(),
            pos: 0,
        }
    }
}

/// A [`RequestStream`] decoding requests straight out of the mapped
/// record region — the replay side of the trace store. `next_chunk`
/// decodes a chunk of fixed-width records into the caller's reusable
/// buffer; no per-request heap traffic, no parsing state.
#[derive(Debug, Clone)]
pub struct TraceReplay<'a> {
    data: &'a [u8],
    /// Byte offset of the next record within `data`.
    pos: usize,
}

impl TraceReplay<'_> {
    /// Requests not yet replayed.
    pub fn remaining(&self) -> u64 {
        ((self.data.len() - self.pos) / RECORD_BYTES) as u64
    }
}

impl RequestStream for TraceReplay<'_> {
    fn next_request(&mut self) -> Option<Request> {
        let record = self.data.get(self.pos..self.pos + RECORD_BYTES)?;
        self.pos += RECORD_BYTES;
        Some(decode_record(record.try_into().unwrap()))
    }

    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> usize {
        buf.clear();
        if buf.capacity() == 0 {
            buf.reserve(DEFAULT_CHUNK);
        }
        let n = buf
            .capacity()
            .min((self.data.len() - self.pos) / RECORD_BYTES);
        let end = self.pos + n * RECORD_BYTES;
        for record in self.data[self.pos..end].chunks_exact(RECORD_BYTES) {
            buf.push(decode_record(record.try_into().unwrap()));
        }
        self.pos = end;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{record_stream, TraceWriter};
    use moat_dram::{BankId, Nanos, RowId};

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "moat-reader-test-{}-{name}.mtrace",
            std::process::id()
        ))
    }

    fn sample(n: u32) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                gap: Nanos::new(u64::from(i) * 3),
                bank: BankId::new((i % 4) as u16),
                row: RowId::new(i.wrapping_mul(2654435761) % 1024),
            })
            .collect()
    }

    #[test]
    fn roundtrip_through_disk_is_lossless() {
        let path = temp_path("roundtrip");
        let reqs = sample(5000);
        let header = record_stream(&path, 42, reqs.iter().copied()).unwrap();
        assert_eq!(header.count, 5000);

        let trace = TraceFile::open(&path).unwrap();
        assert_eq!(trace.len(), 5000);
        assert_eq!(trace.fingerprint(), 42);
        // Per-request and chunked replay both reproduce the sequence.
        let mut one_by_one = trace.replay();
        for (i, &r) in reqs.iter().enumerate() {
            assert_eq!(one_by_one.next_request(), Some(r), "at {i}");
        }
        assert_eq!(one_by_one.next_request(), None);

        let mut chunked = trace.replay();
        let mut buf = Vec::with_capacity(333);
        let mut seen = Vec::new();
        while chunked.next_chunk(&mut buf) > 0 {
            seen.extend_from_slice(&buf);
        }
        assert_eq!(seen, reqs);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_trace_is_valid_and_ends_immediately() {
        let path = temp_path("empty");
        let header = record_stream(&path, 7, std::iter::empty::<Request>()).unwrap();
        assert_eq!(header.count, 0);
        let trace = TraceFile::open(&path).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.replay().next_request(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unfinished_trace_never_validates() {
        let path = temp_path("unfinished");
        {
            let mut w = TraceWriter::create(&path, 1).unwrap();
            for r in sample(10) {
                w.push(r).unwrap();
            }
            // Dropped without finish(): header stays zeroed.
        }
        let err = TraceFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_cursors_are_independent() {
        let path = temp_path("cursors");
        let reqs = sample(100);
        record_stream(&path, 0, reqs.iter().copied()).unwrap();
        let trace = TraceFile::open(&path).unwrap();
        let mut a = trace.replay();
        let mut b = trace.replay();
        assert_eq!(a.next_request(), Some(reqs[0]));
        assert_eq!(a.next_request(), Some(reqs[1]));
        assert_eq!(b.next_request(), Some(reqs[0]), "b has its own cursor");
        assert_eq!(a.remaining(), 98);
        assert_eq!(b.remaining(), 99);
        std::fs::remove_file(&path).unwrap();
    }
}
