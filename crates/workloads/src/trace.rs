//! Trace import/export: persist activation streams so experiments can be
//! replayed outside the generator (or real traces plugged in, should the
//! user have them).
//!
//! Two sibling formats, losslessly interconvertible:
//!
//! * **v1 (text)** — one request per line, `gap_ns bank row`, with `#`
//!   comments ([`write_trace`] / [`read_trace`]). Human-editable; the
//!   import/export interchange form.
//! * **v2 (binary)** — the fixed-width mmap-backed store of
//!   [`moat_trace`]: 48-byte header, 16-byte records
//!   ([`text_to_binary`] / [`binary_to_text`]). The replay form every
//!   sweep runs from.
//!
//! [`trace_key`] derives the content address a generated workload stream
//! caches under — the fingerprint covers the profile, the full
//! [`DramConfig`], and the [`GeneratorConfig`] (banks, windows, seed), so
//! any input change misses the cache instead of replaying a stale stream.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use moat_dram::{BankId, DramConfig, Nanos, RowId};
use moat_sim::{Request, RequestStream};
use moat_trace::{Fingerprint, TraceFile, TraceHeader, TraceKey, TraceWriter};

use crate::generator::GeneratorConfig;
use crate::profiles::WorkloadProfile;

/// Writes a request stream to `writer` in the text trace format.
///
/// A mutable reference works as the writer (`&mut f`), per the usual
/// `W: Write` convention.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use moat_dram::{BankId, Nanos, RowId};
/// use moat_sim::Request;
/// use moat_workloads::{read_trace, write_trace};
///
/// let reqs = vec![Request { gap: Nanos::new(52), bank: BankId::new(1), row: RowId::new(7) }];
/// let mut buf = Vec::new();
/// write_trace(&mut buf, reqs.iter().copied())?;
/// let back: Vec<_> = read_trace(&buf[..])?.collect::<Result<_, _>>()?;
/// assert_eq!(back, reqs);
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write_trace<W: Write, S: RequestStream>(writer: W, mut stream: S) -> io::Result<u64> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# moat activation trace v1: gap_ns bank row")?;
    let mut n = 0u64;
    while let Some(r) = stream.next_request() {
        writeln!(w, "{} {} {}", r.gap.as_u64(), r.bank.index(), r.row.index())?;
        n += 1;
    }
    w.flush()?;
    Ok(n)
}

/// Reads a text trace back as an iterator of requests.
///
/// # Errors
///
/// Returns an error immediately if the reader fails; malformed lines
/// surface as item-level errors.
pub fn read_trace<R: Read>(reader: R) -> io::Result<impl Iterator<Item = io::Result<Request>>> {
    let lines = BufReader::new(reader).lines();
    Ok(lines.filter_map(|line| match line {
        Err(e) => Some(Err(e)),
        Ok(l) => {
            let l = l.trim();
            if l.is_empty() || l.starts_with('#') {
                return None;
            }
            Some(parse_line(l))
        }
    }))
}

fn parse_line(l: &str) -> io::Result<Request> {
    let mut parts = l.split_whitespace();
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad {what}: {l}"));
    let gap: u64 = parts
        .next()
        .ok_or_else(|| bad("gap"))?
        .parse()
        .map_err(|_| bad("gap"))?;
    let bank: u16 = parts
        .next()
        .ok_or_else(|| bad("bank"))?
        .parse()
        .map_err(|_| bad("bank"))?;
    let row: u32 = parts
        .next()
        .ok_or_else(|| bad("row"))?
        .parse()
        .map_err(|_| bad("row"))?;
    if parts.next().is_some() {
        return Err(bad("trailing fields"));
    }
    Ok(Request {
        gap: Nanos::new(gap),
        bank: BankId::new(bank),
        row: RowId::new(row),
    })
}

/// The content address a generated workload stream caches under: the
/// fingerprint covers the generator algorithm version
/// ([`crate::GENERATOR_VERSION`] — bumped when the emission logic
/// changes, so stale recordings can never replay as the new sequence),
/// the profile name, every [`DramConfig`] field (via its `Debug` form —
/// any organization or timing change invalidates the entry), and the
/// full [`GeneratorConfig`], which together determine the stream
/// bit-for-bit. The stream's length is a function of these inputs and
/// is additionally pinned by the trace header's record count.
pub fn trace_key(
    profile: &WorkloadProfile,
    dram: &DramConfig,
    config: GeneratorConfig,
) -> TraceKey {
    let mut fp = Fingerprint::new();
    fp.write_u64(u64::from(crate::GENERATOR_VERSION))
        .write_str(profile.name)
        .write_str(&format!("{dram:?}"))
        .write_u64(u64::from(config.banks))
        .write_u64(u64::from(config.windows))
        .write_u64(config.seed);
    TraceKey::new(profile.name, fp.finish())
}

/// Converts a v1 text trace into a sealed v2 binary trace at `path`,
/// carrying `fingerprint` into the header (use `0` for traces imported
/// from an external source). Returns the sealed header.
///
/// # Errors
///
/// Propagates read errors, malformed-line errors, and write errors; the
/// partial output file is removed on error.
pub fn text_to_binary<R: Read>(
    reader: R,
    path: &Path,
    fingerprint: u64,
) -> io::Result<TraceHeader> {
    let result = (|| {
        let mut writer = TraceWriter::create(path, fingerprint)?;
        for request in read_trace(reader)? {
            writer.push(request?)?;
        }
        writer.finish()
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(path);
    }
    result
}

/// Writes a v2 binary trace back out as v1 text. Returns the request
/// count (always `trace.len()`).
///
/// # Errors
///
/// Propagates write errors.
pub fn binary_to_text<W: Write>(trace: &TraceFile, writer: W) -> io::Result<u64> {
    write_trace(writer, trace.replay())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeneratorConfig, WorkloadProfile, WorkloadStream};
    use moat_dram::DramConfig;

    #[test]
    fn roundtrip_generated_stream() {
        let profile = WorkloadProfile::by_name("x264").unwrap();
        let dram = DramConfig::paper_baseline();
        let cfg = GeneratorConfig {
            banks: 1,
            windows: 1,
            seed: 9,
        };
        let mut buf = Vec::new();
        let n = write_trace(&mut buf, WorkloadStream::new(profile, &dram, cfg)).unwrap();
        assert!(n > 1000);
        let back: Vec<Request> = read_trace(&buf[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back.len() as u64, n);

        let mut orig = WorkloadStream::new(profile, &dram, cfg);
        for r in &back {
            assert_eq!(Some(*r), orig.next_request());
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n52 0 7\n# mid\n0 1 9\n";
        let reqs: Vec<Request> = read_trace(text.as_bytes())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[1].bank, BankId::new(1));
    }

    #[test]
    fn malformed_lines_error() {
        for bad in ["52 0", "x 0 1", "1 2 3 4"] {
            let res: Result<Vec<Request>, _> = read_trace(bad.as_bytes()).unwrap().collect();
            assert!(res.is_err(), "{bad} should fail");
        }
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "moat-wl-trace-{}-{name}.mtrace",
            std::process::id()
        ))
    }

    #[test]
    fn text_and_binary_interconvert_losslessly() {
        let profile = WorkloadProfile::by_name("x264").unwrap();
        let dram = DramConfig::paper_baseline();
        let cfg = GeneratorConfig {
            banks: 1,
            windows: 1,
            seed: 11,
        };
        let mut text = Vec::new();
        let n = write_trace(&mut text, WorkloadStream::new(profile, &dram, cfg)).unwrap();

        // text → binary → text reproduces the stream exactly.
        let path = temp("convert");
        let header = text_to_binary(&text[..], &path, 0xF00D).unwrap();
        assert_eq!(header.count, n);
        assert_eq!(header.fingerprint, 0xF00D);
        let trace = TraceFile::open(&path).unwrap();
        let mut replay = trace.replay();
        let mut orig = WorkloadStream::new(profile, &dram, cfg);
        while let Some(expect) = orig.next_request() {
            assert_eq!(replay.next_request(), Some(expect));
        }
        assert_eq!(replay.next_request(), None);

        let mut text_again = Vec::new();
        assert_eq!(binary_to_text(&trace, &mut text_again).unwrap(), n);
        let a: Vec<Request> = read_trace(&text[..]).unwrap().map(|r| r.unwrap()).collect();
        let b: Vec<Request> = read_trace(&text_again[..])
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(a, b);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_text_conversion_cleans_up() {
        let path = temp("badconvert");
        assert!(text_to_binary("1 2\n".as_bytes(), &path, 0).is_err());
        assert!(!path.exists(), "partial binary removed on error");
    }

    #[test]
    fn trace_key_separates_every_input() {
        let dram = DramConfig::paper_baseline();
        let base = GeneratorConfig {
            banks: 2,
            windows: 1,
            seed: 7,
        };
        let p = WorkloadProfile::by_name("gcc").unwrap();
        let key = trace_key(p, &dram, base);
        assert_eq!(key.label, "gcc");
        assert_eq!(key, trace_key(p, &dram, base), "deterministic");

        let other_profile = trace_key(WorkloadProfile::by_name("roms").unwrap(), &dram, base);
        let other_seed = trace_key(p, &dram, GeneratorConfig { seed: 8, ..base });
        let other_banks = trace_key(p, &dram, GeneratorConfig { banks: 4, ..base });
        let other_windows = trace_key(p, &dram, GeneratorConfig { windows: 2, ..base });
        let other_dram = trace_key(p, &DramConfig::builder().rows_per_bank(4096).build(), base);
        let fps: Vec<u64> = [
            &key,
            &other_profile,
            &other_seed,
            &other_banks,
            &other_windows,
            &other_dram,
        ]
        .iter()
        .map(|k| k.fingerprint)
        .collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "inputs {i} and {j} collide");
            }
        }
    }

    #[test]
    fn trace_key_is_pinned() {
        // Every recorded trace, the `--full` set and CI's trace cache
        // included, is filed under this fingerprint: a change to the
        // hash or to any `DramConfig` field's `Debug` form re-keys them
        // all, so it must come with a `GENERATOR_VERSION` bump.
        let key = trace_key(
            WorkloadProfile::by_name("roms").unwrap(),
            &DramConfig::paper_baseline(),
            GeneratorConfig::scaled(),
        );
        assert_eq!(key.fingerprint, 0x45d5_77c2_c287_5de7);
    }
}
