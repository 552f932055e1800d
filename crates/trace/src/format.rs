//! The binary activation-trace format **v2** and its streaming writer.
//!
//! A trace is one fixed-width header followed by fixed-width records, all
//! integers little-endian, so a reader can decode any record straight out
//! of a byte slice (or a memory map) without parsing state:
//!
//! ```text
//! offset  size  field
//! ------  ----  ------------------------------------------------------
//!      0     8  magic  b"MOATTRC2"
//!      8     4  format version (u32, currently 2)
//!     12     4  record size in bytes (u32, currently 16)
//!     16     8  content fingerprint (u64; generator/config hash, 0 when
//!               imported from an external source)
//!     24     8  record count (u64)
//!     32     8  checksum (u64, FNV-1a over the record region read as
//!               little-endian u64 words)
//!     40     8  reserved (zero)
//!     48   16n  records
//! ```
//!
//! A record is one activation request:
//!
//! ```text
//! offset  size  field
//! ------  ----  ----------------------------------------
//!      0     8  inter-arrival gap in nanoseconds (u64)
//!      8     4  row index (u32)
//!     12     2  bank index (u16)
//!     14     2  padding (zero)
//! ```
//!
//! Version 1 is the plain-text `gap_ns bank row` format of
//! `moat_workloads::write_trace`; the two are losslessly interconvertible
//! (`repro trace convert`).

use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use moat_dram::hash::{fnv1a_continue, FNV_OFFSET, FNV_PRIME};
use moat_dram::{BankId, Nanos, RowId};
use moat_sim::{Request, RequestStream, DEFAULT_CHUNK};

/// The eight magic bytes opening every v2 trace.
pub const MAGIC: [u8; 8] = *b"MOATTRC2";

/// The format version this crate reads and writes.
pub const VERSION: u32 = 2;

/// Header size in bytes.
pub const HEADER_BYTES: usize = 48;

/// Record size in bytes.
pub const RECORD_BYTES: usize = 16;

/// The decoded fixed-width header of a v2 trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Content fingerprint of the stream (generator/config hash; `0` for
    /// traces imported from an external source).
    pub fingerprint: u64,
    /// Number of records that follow the header.
    pub count: u64,
    /// FNV-1a checksum over the record region (little-endian u64 words).
    pub checksum: u64,
}

impl TraceHeader {
    /// Encodes the header into its 48-byte on-disk form.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&(RECORD_BYTES as u32).to_le_bytes());
        out[16..24].copy_from_slice(&self.fingerprint.to_le_bytes());
        out[24..32].copy_from_slice(&self.count.to_le_bytes());
        out[32..40].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Decodes and validates a header.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on a short buffer, wrong
    /// magic, unsupported version, or unexpected record size.
    pub fn decode(bytes: &[u8]) -> io::Result<TraceHeader> {
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        if bytes.len() < HEADER_BYTES {
            return Err(bad(format!(
                "trace header truncated: {} bytes, need {HEADER_BYTES}",
                bytes.len()
            )));
        }
        if bytes[0..8] != MAGIC {
            return Err(bad("not a MOAT v2 trace (bad magic)".into()));
        }
        let le32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let le64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = le32(8);
        if version != VERSION {
            return Err(bad(format!(
                "unsupported trace version {version} (this build reads v{VERSION})"
            )));
        }
        let record_bytes = le32(12);
        if record_bytes as usize != RECORD_BYTES {
            return Err(bad(format!(
                "unexpected record size {record_bytes} (expected {RECORD_BYTES})"
            )));
        }
        Ok(TraceHeader {
            fingerprint: le64(16),
            count: le64(24),
            checksum: le64(32),
        })
    }
}

/// Encodes one request into its 16-byte record form.
#[inline]
pub fn encode_record(r: Request) -> [u8; RECORD_BYTES] {
    let mut out = [0u8; RECORD_BYTES];
    out[0..8].copy_from_slice(&r.gap.as_u64().to_le_bytes());
    out[8..12].copy_from_slice(&r.row.index().to_le_bytes());
    out[12..14].copy_from_slice(&r.bank.index().to_le_bytes());
    out
}

/// Decodes one 16-byte record. Infallible: every bit pattern is a legal
/// request (padding bytes are ignored); integrity is the checksum's job.
#[inline]
pub fn decode_record(bytes: &[u8; RECORD_BYTES]) -> Request {
    Request {
        gap: Nanos::new(u64::from_le_bytes(bytes[0..8].try_into().unwrap())),
        row: RowId::new(u32::from_le_bytes(bytes[8..12].try_into().unwrap())),
        bank: BankId::new(u16::from_le_bytes(bytes[12..14].try_into().unwrap())),
    }
}

/// Folds one record into a running FNV-1a checksum (two u64 words).
#[inline]
pub fn fold_checksum(hash: u64, record: &[u8; RECORD_BYTES]) -> u64 {
    let lo = u64::from_le_bytes(record[0..8].try_into().unwrap());
    let hi = u64::from_le_bytes(record[8..16].try_into().unwrap());
    let hash = (hash ^ lo).wrapping_mul(FNV_PRIME);
    (hash ^ hi).wrapping_mul(FNV_PRIME)
}

/// The empty-region checksum seed.
pub const CHECKSUM_SEED: u64 = FNV_OFFSET;

/// An order-sensitive FNV-1a fingerprint builder, used to derive the
/// content address of a trace from the generator inputs that produced it
/// (profile, DRAM configuration, seed, length).
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Starts a fresh fingerprint.
    pub const fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Folds raw bytes in.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.0 = fnv1a_continue(self.0, bytes.iter().copied());
        self
    }

    /// Folds a string in, including its length (so `("ab", "c")` and
    /// `("a", "bc")` fingerprint differently).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write_bytes(s.as_bytes())
    }

    /// Folds a u64 in.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// The final 64-bit fingerprint.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// A streaming v2 trace writer: records append through a buffered file
/// handle while the count and checksum accumulate, and
/// [`finish`](Self::finish) seals the header. A trace that was not
/// finished (crash, early drop) is left with a zeroed magic field and will
/// never validate as a trace.
#[derive(Debug)]
pub struct TraceWriter {
    out: BufWriter<File>,
    path: PathBuf,
    fingerprint: u64,
    count: u64,
    checksum: u64,
}

impl TraceWriter {
    /// Creates (truncating) `path` and writes the placeholder header.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn create(path: &Path, fingerprint: u64) -> io::Result<TraceWriter> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        // Placeholder: all zeroes, so a partial file has no magic and can
        // never be mistaken for a complete trace.
        out.write_all(&[0u8; HEADER_BYTES])?;
        Ok(TraceWriter {
            out,
            path: path.to_path_buf(),
            fingerprint,
            count: 0,
            checksum: CHECKSUM_SEED,
        })
    }

    /// The path being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Appends one request.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    #[inline]
    pub fn push(&mut self, request: Request) -> io::Result<()> {
        crate::failpoint::check_write()?;
        let record = encode_record(request);
        self.checksum = fold_checksum(self.checksum, &record);
        self.count += 1;
        self.out.write_all(&record)
    }

    /// Drains an entire request stream into the trace in chunk-sized
    /// passes and returns how many requests were written.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append_stream<S: RequestStream>(&mut self, mut stream: S) -> io::Result<u64> {
        let mut chunk: Vec<Request> = Vec::with_capacity(DEFAULT_CHUNK);
        let mut written = 0u64;
        while stream.next_chunk(&mut chunk) > 0 {
            for &r in &chunk {
                self.push(r)?;
            }
            written += chunk.len() as u64;
        }
        Ok(written)
    }

    /// Seals the trace: flushes the records, rewrites the header with the
    /// final count and checksum, and syncs the file. Returns the header.
    ///
    /// # Errors
    ///
    /// Propagates flush/seek/write/sync errors.
    pub fn finish(mut self) -> io::Result<TraceHeader> {
        crate::failpoint::check_write()?;
        let header = TraceHeader {
            fingerprint: self.fingerprint,
            count: self.count,
            checksum: self.checksum,
        };
        self.out.flush()?;
        let file = self.out.get_mut();
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header.encode())?;
        file.sync_all()?;
        Ok(header)
    }
}

/// Records `stream` into a v2 trace at `path` in one pass and returns the
/// sealed header.
///
/// # Errors
///
/// Propagates I/O errors; on error the partial file is removed.
pub fn record_stream<S: RequestStream>(
    path: &Path,
    fingerprint: u64,
    stream: S,
) -> io::Result<TraceHeader> {
    let result = (|| {
        let mut writer = TraceWriter::create(path, fingerprint)?;
        writer.append_stream(stream)?;
        writer.finish()
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(path);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(gap: u64, bank: u16, row: u32) -> Request {
        Request {
            gap: Nanos::new(gap),
            bank: BankId::new(bank),
            row: RowId::new(row),
        }
    }

    #[test]
    fn record_roundtrip_is_lossless() {
        for r in [
            req(0, 0, 0),
            req(52, 31, 65_535),
            req(u64::MAX, u16::MAX, u32::MAX),
        ] {
            assert_eq!(decode_record(&encode_record(r)), r);
        }
        // Padding bytes are zero on encode and ignored on decode.
        let mut bytes = encode_record(req(7, 3, 9));
        assert_eq!(&bytes[14..16], &[0, 0]);
        bytes[14] = 0xAB;
        assert_eq!(decode_record(&bytes), req(7, 3, 9));
    }

    #[test]
    fn header_roundtrip_and_validation() {
        let h = TraceHeader {
            fingerprint: 0xDEAD_BEEF,
            count: 12345,
            checksum: 77,
        };
        let bytes = h.encode();
        assert_eq!(TraceHeader::decode(&bytes).unwrap(), h);

        let mut bad_magic = bytes;
        bad_magic[0] = b'X';
        assert_eq!(
            TraceHeader::decode(&bad_magic).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        let mut bad_version = bytes;
        bad_version[8..12].copy_from_slice(&9u32.to_le_bytes());
        let err = TraceHeader::decode(&bad_version).unwrap_err();
        assert!(err.to_string().contains("version 9"), "{err}");

        let mut bad_record = bytes;
        bad_record[12..16].copy_from_slice(&24u32.to_le_bytes());
        assert!(TraceHeader::decode(&bad_record).is_err());

        assert!(TraceHeader::decode(&bytes[..20]).is_err(), "short buffer");
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let a = encode_record(req(1, 0, 2));
        let b = encode_record(req(3, 1, 4));
        let ab = fold_checksum(fold_checksum(CHECKSUM_SEED, &a), &b);
        let ba = fold_checksum(fold_checksum(CHECKSUM_SEED, &b), &a);
        assert_ne!(ab, ba);
    }

    #[test]
    fn fingerprint_separates_field_boundaries() {
        let mut a = Fingerprint::new();
        a.write_str("ab").write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.write_str("ab").write_str("c");
        assert_eq!(a.finish(), c.finish(), "deterministic");
    }
}
