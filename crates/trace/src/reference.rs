//! Test-only reference model of the trace loaders.
//!
//! [`read_trace`] is the text parser the crate shipped before the
//! byte-level one: `BufRead::lines`, one `String` per line, `str::trim`
//! and `str::split_ascii_whitespace`, numbers through `u64::from_str`.
//! It shares no code with [`format::read_trace`] or
//! [`DenseTrace::from_text_bytes`], so the properties below pin both
//! against it: on any input, hostile or mutated, all three give equal
//! traces or fail at the same line, and none of them panics. The same
//! holds for the two wctb loaders.

use std::io::BufRead;

use proptest::prelude::*;

use crate::doctype::DocumentType;
use crate::error::TraceError;
use crate::format::{self, type_from_char};
use crate::format_bin;
use crate::record::{Request, Trace};
use crate::types::{ByteSize, DocId, Timestamp};
use crate::DenseTrace;

/// Reads a text trace the straightforward way. A line that is not valid
/// UTF-8 fails at that line.
pub(crate) fn read_trace<R: BufRead>(reader: R) -> Result<Trace, TraceError> {
    let mut trace = Trace::new();
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line.map_err(|_| TraceError::parse(line_no, "invalid UTF-8"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        trace.push(parse_request_line(trimmed, line_no)?);
    }
    Ok(trace)
}

fn parse_request_line(line: &str, line_no: usize) -> Result<Request, TraceError> {
    let mut fields = line.split_ascii_whitespace();
    let mut next = |name: &str| {
        fields
            .next()
            .ok_or_else(|| TraceError::parse(line_no, format!("missing field `{name}`")))
    };
    let ts: u64 = next("timestamp")?
        .parse()
        .map_err(|_| TraceError::parse(line_no, "bad timestamp"))?;
    let doc: u64 = next("doc_id")?
        .parse()
        .map_err(|_| TraceError::parse(line_no, "bad doc id"))?;
    let ty_field = next("type")?;
    let ty = ty_field
        .chars()
        .next()
        .and_then(type_from_char)
        .filter(|_| ty_field.len() == 1)
        .ok_or_else(|| TraceError::parse(line_no, format!("bad type tag `{ty_field}`")))?;
    let size: u64 = next("size")?
        .parse()
        .map_err(|_| TraceError::parse(line_no, "bad size"))?;
    Ok(Request::new(
        Timestamp::from_millis(ts),
        DocId::new(doc),
        ty,
        ByteSize::new(size),
    ))
}

/// What a loader's outcome is compared by: the value, or the line and
/// message of the error.
fn outcome<T>(result: Result<T, TraceError>) -> Result<T, (usize, String)> {
    result.map_err(|e| match e {
        TraceError::Parse { line, message } => (line, message),
        TraceError::Io(e) => panic!("in-memory input gave an i/o error: {e}"),
    })
}

/// Runs every text loader on `bytes` and checks they agree.
fn text_loaders_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let reference = outcome(read_trace(bytes));
    let trace = outcome(format::read_trace(bytes));
    let dense = outcome(DenseTrace::from_text_bytes(bytes));
    prop_assert_eq!(&trace, &reference, "read_trace vs reference");
    prop_assert_eq!(
        dense,
        reference.map(|t| DenseTrace::build(&t)),
        "from_text_bytes vs reference + build"
    );
    Ok(())
}

/// Runs every wctb loader on `bytes` and checks they agree.
fn wctb_loaders_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let trace = outcome(format_bin::from_bytes(bytes));
    let dense = outcome(DenseTrace::from_wctb_bytes(bytes));
    let streamed = outcome(format_bin::read_trace_bin(bytes));
    prop_assert_eq!(
        dense,
        trace.clone().map(|t| DenseTrace::build(&t)),
        "from_wctb_bytes vs from_bytes + build"
    );
    // The streaming reader stops at the first bad record, the slice
    // readers check the length first, so only their successes must match.
    prop_assert_eq!(streamed.is_ok(), trace.is_ok());
    if let (Ok(a), Ok(b)) = (streamed, trace) {
        prop_assert_eq!(a, b);
    }
    Ok(())
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    let request = (
        0u64..100_000,
        0u64..50,
        prop::sample::select(DocumentType::ALL.to_vec()),
        0u64..10_000_000,
    )
        .prop_map(|(ts, doc, ty, size)| {
            Request::new(
                Timestamp::from_millis(ts),
                DocId::new(doc),
                ty,
                ByteSize::new(size),
            )
        });
    prop::collection::vec(request, 0..40).prop_map(Trace::from)
}

/// Byte strings spliced into valid traces: line structure, whitespace
/// the two splitters treat differently, signs, overflow, tag variants
/// and non-ASCII bytes (valid and not) inside comments and fields.
const SPLICES: &[&[u8]] = &[
    b"\r",
    b"\r\n",
    b"\t",
    b"\n",
    b"\n\n",
    b"   \n",
    b"\n# a comment\n",
    b"\n# caf\xc3\xa9 \xe2\x9c\x93\n",
    b"\n# bad \xff byte\n",
    b"\n  \t# indented comment\n",
    b"#",
    b"+",
    b"++",
    b"-",
    b"18446744073709551615",
    b"18446744073709551616",
    b"99999999999999999999",
    b"000000000000000000000000000042",
    b"i",
    b"h",
    b"HH",
    b"x",
    b" ",
    b"\x0b",
    b"\x0c",
    b"\xc2\xa0",
    b"\xe3\x80\x80",
    b"\xc3",
    b"\xff",
    b"\xc3\xa9",
    b" extra fields \xc3\xa9",
];

/// A mutation of an encoded trace.
#[derive(Debug, Clone)]
enum Mutation {
    /// Every `\n` becomes `\r\n`.
    Crlf,
    /// Every field separator becomes a tab.
    Tabs,
    /// Every type tag is lower-cased.
    Lowercase,
    /// `SPLICES[.0]` goes in at offset `.1` (modulo the length + 1).
    Splice(usize, usize),
    /// The byte at offset `.0` (modulo the length) becomes `.1`.
    Replace(usize, u8),
    /// The input is cut at offset `.0` (modulo the length + 1).
    Truncate(usize),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::Crlf),
        Just(Mutation::Tabs),
        Just(Mutation::Lowercase),
        (0usize..SPLICES.len(), 0usize..4096).prop_map(|(i, at)| Mutation::Splice(i, at)),
        (0usize..4096, 0u8..=255).prop_map(|(at, b)| Mutation::Replace(at, b)),
        (0usize..4096).prop_map(Mutation::Truncate),
    ]
}

fn mutate(mut bytes: Vec<u8>, mutations: &[Mutation]) -> Vec<u8> {
    for mutation in mutations {
        let at = |i: usize, len: usize| i % (len + 1);
        match *mutation {
            Mutation::Crlf => {
                bytes = bytes
                    .iter()
                    .flat_map(|&b| {
                        if b == b'\n' {
                            vec![b'\r', b'\n']
                        } else {
                            vec![b]
                        }
                    })
                    .collect();
            }
            Mutation::Tabs => bytes
                .iter_mut()
                .filter(|b| **b == b' ')
                .for_each(|b| *b = b'\t'),
            Mutation::Lowercase => bytes
                .iter_mut()
                .filter(|b| b"IHMAO".contains(b))
                .for_each(|b| b.make_ascii_lowercase()),
            Mutation::Splice(i, pos) => {
                let pos = at(pos, bytes.len());
                bytes.splice(pos..pos, SPLICES[i].iter().copied());
            }
            Mutation::Replace(pos, b) => {
                if !bytes.is_empty() {
                    let pos = pos % bytes.len();
                    bytes[pos] = b;
                }
            }
            Mutation::Truncate(pos) => bytes.truncate(at(pos, bytes.len())),
        }
    }
    bytes
}

/// Bytes drawn mostly from the text format's own alphabet.
fn arb_text_bytes() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![
        prop::sample::select(b"0123456789 \n\t\r#+-IHMAOihmaoQ\x0b\x0c".to_vec()),
        0u8..=255,
    ];
    prop::collection::vec(byte, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Mutated valid text traces: every text loader agrees with the
    /// reference, and none panics.
    #[test]
    fn text_loaders_agree_on_mutated_traces(
        trace in arb_trace(),
        mutations in prop::collection::vec(arb_mutation(), 0..6),
    ) {
        text_loaders_agree(&mutate(format::to_string(&trace).into_bytes(), &mutations))?;
    }

    /// Arbitrary bytes: the same agreement.
    #[test]
    fn text_loaders_agree_on_arbitrary_bytes(bytes in arb_text_bytes()) {
        text_loaders_agree(&bytes)?;
    }

    /// Mutated valid wctb traces (truncated bodies, replaced bytes,
    /// spliced garbage): every wctb loader agrees and none panics.
    #[test]
    fn wctb_loaders_agree_on_mutated_traces(
        trace in arb_trace(),
        mutations in prop::collection::vec(arb_mutation(), 0..3),
    ) {
        wctb_loaders_agree(&mutate(format_bin::to_bytes(&trace), &mutations))?;
    }

    /// Arbitrary bytes behind a valid magic and version, and with none.
    #[test]
    fn wctb_loaders_agree_on_arbitrary_bytes(
        header in prop::sample::select(vec![true, false]),
        bytes in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let mut input = Vec::new();
        if header {
            input.extend_from_slice(&format_bin::MAGIC);
            input.extend_from_slice(&[format_bin::VERSION, 0, 0, 0]);
        }
        input.extend_from_slice(&bytes);
        wctb_loaders_agree(&input)?;
    }
}

#[test]
fn reference_and_loaders_agree_on_the_grammar_corners() {
    for text in [
        "",
        "\n",
        "0 1 H 10",
        "0 1 H 10\r\n1 2 I 5\r\n",
        "\x0b0 1 H 10\x0c",
        "\u{a0}0 1 H 10\u{3000}",
        "0\u{a0}1 H 10",
        "0\x0b1 H 10",
        "+0 +1 h +10 trailing \u{e9}",
        "+ 1 H 10",
        "18446744073709551615 1 H 18446744073709551615",
        "18446744073709551616 1 H 10",
        "0 1 H 000000000000000000000000010",
        "-0 1 H 10",
        "0 1 \u{e9} 10",
        "0 1 HH 10",
        "0 1 H",
        "0 1",
        "0",
        "# only a comment",
        "  # indented comment\n0 1 H 10",
    ] {
        text_loaders_agree(text.as_bytes()).unwrap();
    }
    text_loaders_agree(b"0 1 H 10\n# caf\xff\n").unwrap();
}

#[test]
fn invalid_utf8_fails_at_its_line() {
    let err = format::read_trace(&b"1 5 I 10\n2 \xff 6 I 10\n"[..]).unwrap_err();
    assert_eq!(err.to_string(), "parse error at line 2: invalid UTF-8");
    let err = DenseTrace::from_text_bytes(b"1 5 I 10\n2 \xff 6 I 10\n").unwrap_err();
    assert_eq!(err.to_string(), "parse error at line 2: invalid UTF-8");
}
