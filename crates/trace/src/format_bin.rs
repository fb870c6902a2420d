//! Compact binary format for persisting large traces.
//!
//! The text format ([`crate::format`]) is grep-friendly but costs ≈30
//! bytes and a parse per request; full-scale workloads run to millions
//! of requests, where the fixed-width binary format is ~4× smaller and
//! an order of magnitude faster to load.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  b"WCTB"          4 bytes
//! version u8 = 1          1 byte
//! reserved [u8; 3]        3 bytes
//! record count u64        8 bytes
//! records: count × {
//!     timestamp_ms u64    8 bytes
//!     doc_id       u64    8 bytes
//!     size_bytes   u64    8 bytes
//!     type_tag     u8     1 byte   (same tags as the text format)
//! }
//! ```
//!
//! The count-prefixed header makes truncation detectable.

use std::io::{self, Read, Write};

use crate::error::TraceError;
use crate::format::{type_char, type_from_char};
use crate::record::{Request, Trace};
use crate::types::{ByteSize, DocId, Timestamp};

/// File magic.
pub const MAGIC: [u8; 4] = *b"WCTB";
/// Current format version.
pub const VERSION: u8 = 1;
/// Bytes per record.
pub const RECORD_BYTES: usize = 25;

/// Writes a trace in the binary format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_trace_bin<W: Write>(mut writer: W, trace: &Trace) -> io::Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&[VERSION, 0, 0, 0])?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    for r in trace {
        writer.write_all(&r.timestamp.as_millis().to_le_bytes())?;
        writer.write_all(&r.doc.as_u64().to_le_bytes())?;
        writer.write_all(&r.size.as_u64().to_le_bytes())?;
        writer.write_all(&[type_char(r.doc_type) as u8])?;
    }
    Ok(())
}

/// Records [`read_trace_bin`] reserves up front at most. A reader's
/// length is unknown, so a forged record count must not size the
/// buffer; past this the trace grows as records actually arrive.
const PREALLOC_RECORDS: usize = 1 << 16;

/// Checks magic and version, returning the declared record count.
fn parse_header(header: &[u8]) -> Result<u64, TraceError> {
    if header[..4] != MAGIC {
        return Err(TraceError::parse(0, "bad magic (not a WCTB trace)"));
    }
    if header[4] != VERSION {
        return Err(TraceError::parse(
            0,
            format!("unsupported version {}", header[4]),
        ));
    }
    Ok(u64::from_le_bytes(
        header[8..16].try_into().expect("8 bytes"),
    ))
}

/// Checks the header of an in-memory trace and that its body holds
/// exactly the declared number of records. Returns the record count and
/// the body, so callers can size buffers from the input length rather
/// than from a header that may be forged.
pub(crate) fn checked_body(bytes: &[u8]) -> Result<(usize, &[u8]), TraceError> {
    let Some(header) = bytes.get(..16) else {
        return Err(TraceError::parse(0, "truncated header"));
    };
    let count = parse_header(header)?;
    let body = &bytes[16..];
    let held = body.len() / RECORD_BYTES;
    match usize::try_from(count) {
        Ok(c) if c == held && body.len().is_multiple_of(RECORD_BYTES) => Ok((c, body)),
        Ok(c) if c <= held => Err(TraceError::parse(
            c + 1,
            "trailing bytes after final record",
        )),
        _ => Err(TraceError::parse(
            held + 1,
            format!("truncated record {held} of {count}"),
        )),
    }
}

/// Decodes one fixed-width record; `line` is its 1-based position.
fn decode_record(record: &[u8], line: usize) -> Result<Request, TraceError> {
    let ts = u64::from_le_bytes(record[0..8].try_into().expect("8 bytes"));
    let doc = u64::from_le_bytes(record[8..16].try_into().expect("8 bytes"));
    let size = u64::from_le_bytes(record[16..24].try_into().expect("8 bytes"));
    let ty = type_from_char(record[24] as char)
        .ok_or_else(|| TraceError::parse(line, format!("bad type tag {}", record[24])))?;
    Ok(Request::new(
        Timestamp::from_millis(ts),
        DocId::new(doc),
        ty,
        ByteSize::new(size),
    ))
}

/// Reads a trace in the binary format.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] for bad magic, unsupported version,
/// truncation, or invalid type tags, and [`TraceError::Io`] for reader
/// failures.
pub fn read_trace_bin<R: Read>(mut reader: R) -> Result<Trace, TraceError> {
    let mut header = [0u8; 16];
    reader
        .read_exact(&mut header)
        .map_err(|_| TraceError::parse(0, "truncated header"))?;
    let count = parse_header(&header)?;

    let reserve = usize::try_from(count).map_or(PREALLOC_RECORDS, |c| c.min(PREALLOC_RECORDS));
    let mut trace = Trace::with_capacity(reserve);
    let mut record = [0u8; RECORD_BYTES];
    for i in 0..count {
        reader.read_exact(&mut record).map_err(|_| {
            TraceError::parse(i as usize + 1, format!("truncated record {i} of {count}"))
        })?;
        trace.push(decode_record(&record, i as usize + 1)?);
    }
    // Trailing data after the declared count indicates a corrupt writer.
    let mut probe = [0u8; 1];
    match reader.read(&mut probe) {
        Ok(0) => Ok(trace),
        Ok(_) => Err(TraceError::parse(
            count as usize + 1,
            "trailing bytes after final record",
        )),
        Err(e) => Err(TraceError::Io(e)),
    }
}

/// Serializes a trace to an in-memory byte vector.
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + trace.len() * RECORD_BYTES);
    write_trace_bin(&mut buf, trace).expect("writing to Vec cannot fail");
    buf
}

/// Parses a trace from an in-memory byte slice.
///
/// The declared record count must match the body length exactly, and
/// it is checked before anything is allocated, so a forged header costs
/// an error rather than a huge allocation.
///
/// # Errors
///
/// Same as [`read_trace_bin`].
pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
    let (count, body) = checked_body(bytes)?;
    let mut trace = Trace::with_capacity(count);
    for (i, record) in body.chunks_exact(RECORD_BYTES).enumerate() {
        trace.push(decode_record(record, i + 1)?);
    }
    Ok(trace)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::doctype::DocumentType;

    fn sample() -> Trace {
        (0..100u64)
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(i * 7),
                    DocId::new(i % 13),
                    DocumentType::ALL[(i % 5) as usize],
                    ByteSize::new(i * i + 1),
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        assert_eq!(from_bytes(&to_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        let bytes = to_bytes(&t);
        assert_eq!(bytes.len(), 16);
        assert_eq!(from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn size_is_fixed_width() {
        let t = sample();
        assert_eq!(to_bytes(&t).len(), 16 + t.len() * RECORD_BYTES);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[4] = 9;
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("version 9"), "{err}");
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = to_bytes(&sample());
        // Cut mid-record.
        let cut = &bytes[..bytes.len() - 7];
        let err = from_bytes(cut).unwrap_err().to_string();
        assert!(err.contains("truncated record"), "{err}");
        // Cut mid-header.
        let err = from_bytes(&bytes[..10]).unwrap_err().to_string();
        assert!(err.contains("truncated header"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = to_bytes(&sample());
        bytes.push(0xFF);
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("trailing"), "{err}");
    }

    /// A 336-byte file whose header claims 2^40 records.
    pub(crate) fn forged_header() -> Vec<u8> {
        let mut bytes = to_bytes(&sample().iter().take(14).copied().collect());
        bytes[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        bytes.truncate(336);
        bytes
    }

    #[test]
    fn forged_record_count_is_an_error_not_an_allocation() {
        let bytes = forged_header();
        assert_eq!(bytes.len(), 336);
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(
            err.contains("truncated record 12 of 1099511627776"),
            "{err}"
        );
        let err = read_trace_bin(bytes.as_slice()).unwrap_err().to_string();
        assert!(err.contains("truncated record 12 of"), "{err}");
    }

    #[test]
    fn undercounted_header_is_trailing_data() {
        let mut bytes = to_bytes(&sample());
        bytes[8..16].copy_from_slice(&3u64.to_le_bytes());
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn bad_type_tag_is_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[16 + 24] = b'Q'; // first record's type tag
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("type tag"), "{err}");
    }

    #[test]
    fn binary_is_smaller_than_text_at_realistic_magnitudes() {
        // Full-scale traces carry hour-plus timestamps, million-scale
        // document ids and kilo-to-megabyte sizes; their decimal forms
        // dominate the text format's footprint.
        let t: Trace = (0..200u64)
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(3_600_000 + i * 40),
                    DocId::new(1_000_000 + i),
                    DocumentType::Image,
                    ByteSize::new(100_000 + i * 997),
                )
            })
            .collect();
        let text = crate::format::to_string(&t).len();
        let bin = to_bytes(&t).len();
        assert!(bin < text, "binary {bin} vs text {text}");
    }
}
