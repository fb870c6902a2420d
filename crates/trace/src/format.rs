//! Compact text format for persisting preprocessed traces.
//!
//! One request per line, whitespace-separated:
//!
//! ```text
//! <timestamp-ms> <doc-id> <type-char> <transfer-bytes>
//! ```
//!
//! where `<type-char>` is `I` (image), `H` (HTML), `M` (multi media),
//! `A` (application) or `O` (other). Lines starting with `#` are comments.
//! The format is intentionally trivial so traces can be produced or
//! consumed by awk one-liners during analysis.

use std::io::{self, BufRead, Write};

use crate::doctype::DocumentType;
use crate::error::TraceError;
use crate::record::{Request, Trace};
use crate::types::{ByteSize, DocId, Timestamp};

/// Single-character tag for a document type.
pub fn type_char(ty: DocumentType) -> char {
    match ty {
        DocumentType::Image => 'I',
        DocumentType::Html => 'H',
        DocumentType::MultiMedia => 'M',
        DocumentType::Application => 'A',
        DocumentType::Other => 'O',
    }
}

/// Inverse of [`type_char`].
pub fn type_from_char(c: char) -> Option<DocumentType> {
    match c.to_ascii_uppercase() {
        'I' => Some(DocumentType::Image),
        'H' => Some(DocumentType::Html),
        'M' => Some(DocumentType::MultiMedia),
        'A' => Some(DocumentType::Application),
        'O' => Some(DocumentType::Other),
        _ => None,
    }
}

/// Writes a trace in the compact text format.
///
/// # Errors
///
/// Propagates any I/O error from `writer`. A `&mut Vec<u8>` or `&mut` of
/// any `Write` implementor can be passed.
pub fn write_trace<W: Write>(mut writer: W, trace: &Trace) -> io::Result<()> {
    writeln!(writer, "# webcache trace v1: ts_ms doc_id type size_bytes")?;
    for r in trace {
        writeln!(
            writer,
            "{} {} {} {}",
            r.timestamp.as_millis(),
            r.doc.as_u64(),
            type_char(r.doc_type),
            r.size.as_u64(),
        )?;
    }
    Ok(())
}

/// Reads a trace in the compact text format.
///
/// Lines are read into one reused byte buffer and parsed by the same
/// record parser as [`DenseTrace::from_text_bytes`](crate::DenseTrace::from_text_bytes).
///
/// # Errors
///
/// Returns [`TraceError::Parse`] for malformed lines (including lines
/// that are not valid UTF-8) and [`TraceError::Io`] for reader failures.
pub fn read_trace<R: BufRead>(mut reader: R) -> Result<Trace, TraceError> {
    let mut trace = Trace::new();
    let mut line = Vec::new();
    let mut line_no = 0;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Ok(trace);
        }
        line_no += 1;
        if let Some(request) = parse_record(&line, line_no)? {
            trace.push(request);
        }
    }
}

/// Parses one line of the text format; `line_no` is its 1-based
/// position. Blank and comment lines give `Ok(None)`.
///
/// The grammar: the line must be valid UTF-8; leading and trailing
/// whitespace (Unicode `White_Space`, as [`str::trim`] strips it) is
/// ignored; an empty line or one starting with `#` is skipped. Fields
/// are separated by runs of ASCII whitespace. The first four fields
/// are a decimal timestamp, doc id and size around a one-byte type tag
/// (see [`type_from_char`]); each number is an optional `+` and one or
/// more digits that fit in a `u64`. Fields after the fourth are
/// ignored.
pub(crate) fn parse_record(line: &[u8], line_no: usize) -> Result<Option<Request>, TraceError> {
    let line = if line.is_ascii() {
        trim_ascii_white_space(line)
    } else {
        std::str::from_utf8(line)
            .map_err(|_| TraceError::parse(line_no, "invalid UTF-8"))?
            .trim()
            .as_bytes()
    };
    if line.first().is_none_or(|&b| b == b'#') {
        return Ok(None);
    }
    let mut fields = Fields(line);
    let missing = |name: &str| TraceError::parse(line_no, format!("missing field `{name}`"));
    let number = |field: Option<Option<u64>>, name: &str, bad: &str| match field {
        None => Err(missing(name)),
        Some(None) => Err(TraceError::parse(line_no, bad)),
        Some(Some(value)) => Ok(value),
    };
    let ts = number(fields.number(), "timestamp", "bad timestamp")?;
    let doc = number(fields.number(), "doc_id", "bad doc id")?;
    let ty_field = fields.next().ok_or_else(|| missing("type"))?;
    let ty = match ty_field {
        &[tag] => type_from_char(tag as char),
        _ => None,
    }
    .ok_or_else(|| {
        TraceError::parse(
            line_no,
            format!("bad type tag `{}`", String::from_utf8_lossy(ty_field)),
        )
    })?;
    let size = number(fields.number(), "size", "bad size")?;
    Ok(Some(Request::new(
        Timestamp::from_millis(ts),
        DocId::new(doc),
        ty,
        ByteSize::new(size),
    )))
}

/// [`str::trim`] of an ASCII line: strips the ASCII `White_Space`
/// bytes, which include the vertical tab that
/// [`u8::is_ascii_whitespace`] leaves out.
fn trim_ascii_white_space(line: &[u8]) -> &[u8] {
    let white = |b: &u8| matches!(b, b'\t'..=b'\r' | b' ');
    let start = line.iter().position(|b| !white(b)).unwrap_or(line.len());
    let end = line
        .iter()
        .rposition(|b| !white(b))
        .map_or(start, |i| i + 1);
    &line[start..end]
}

/// The fields of a trimmed line: runs of bytes between ASCII
/// whitespace, as [`str::split_ascii_whitespace`] yields them.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    /// The next field, or `None` past the last.
    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = self.0.trim_ascii_start();
        if rest.is_empty() {
            return None;
        }
        let end = rest
            .iter()
            .position(u8::is_ascii_whitespace)
            .unwrap_or(rest.len());
        self.0 = &rest[end..];
        Some(&rest[..end])
    }

    /// The next field as a number, scanned once: `None` past the last
    /// field, `Some(None)` when the field is not what
    /// [`u64::from_str`](std::str::FromStr) accepts (an optional `+`
    /// and one or more digits that fit in a `u64`).
    fn number(&mut self) -> Option<Option<u64>> {
        let rest = self.0.trim_ascii_start();
        let start = usize::from(*rest.first()? == b'+');
        let mut value = 0u64;
        let mut end = start;
        while let Some(&b) = rest.get(end) {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                if b.is_ascii_whitespace() {
                    break;
                }
                return Some(None);
            }
            let Some(next) = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(digit)))
            else {
                return Some(None);
            };
            value = next;
            end += 1;
        }
        self.0 = &rest[end..];
        Some((end > start).then_some(value))
    }
}

/// Serializes a trace to an in-memory string (convenience for tests and
/// small tools).
pub fn to_string(trace: &Trace) -> String {
    let mut buf = Vec::new();
    write_trace(&mut buf, trace).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("format module writes UTF-8 only")
}

/// Parses a trace from an in-memory string.
///
/// # Errors
///
/// Same as [`read_trace`].
pub fn from_str(text: &str) -> Result<Trace, TraceError> {
    read_trace(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        vec![
            Request::new(
                Timestamp::from_millis(0),
                DocId::new(3),
                DocumentType::Image,
                ByteSize::new(512),
            ),
            Request::new(
                Timestamp::from_millis(1500),
                DocId::new(7),
                DocumentType::MultiMedia,
                ByteSize::new(1 << 20),
            ),
        ]
        .into()
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let text = to_string(&t);
        let back = from_str(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\n0 1 H 10\n# trailing\n";
        let t = from_str(text).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.requests()[0].doc_type, DocumentType::Html);
    }

    #[test]
    fn type_chars_roundtrip() {
        for ty in DocumentType::ALL {
            assert_eq!(type_from_char(type_char(ty)), Some(ty));
        }
        assert_eq!(type_from_char('x'), None);
        assert_eq!(
            type_from_char('i'),
            Some(DocumentType::Image),
            "lower-case accepted"
        );
    }

    #[test]
    fn malformed_lines_error_with_position() {
        for (text, needle) in [
            ("0 1 H", "size"),
            ("0 1 Q 10", "type tag"),
            ("0 1 HH 10", "type tag"),
            ("x 1 H 10", "timestamp"),
            ("0 y H 10", "doc id"),
            ("0 1 H z", "size"),
        ] {
            let err = from_str(text).unwrap_err().to_string();
            assert!(err.contains(needle), "`{text}` -> `{err}`");
            assert!(err.contains("line 1"), "`{text}` -> `{err}`");
        }
    }

    #[test]
    fn empty_input_is_empty_trace() {
        assert!(from_str("").unwrap().is_empty());
    }
}
