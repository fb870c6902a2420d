//! A dense, struct-of-arrays view of a [`Trace`] for the simulation hot
//! path.
//!
//! A [`Trace`] stores one 32-byte [`Request`](crate::Request) struct per
//! request, keyed by sparse 64-bit document ids; the simulator then pays a
//! hash lookup per request to find per-document state. [`DenseTrace`]
//! eliminates both costs up front: it interns every [`DocId`] to a
//! contiguous `u32` *slot* (numbered in first-appearance order) and lays
//! the requests out as parallel arrays — one `Vec<u32>` of slots, one
//! `Vec<u64>` of transfer sizes, one `Vec<u8>` of document-type indices.
//! Per-document simulator state can then live in plain `Vec`s indexed by
//! slot, and the per-request working set shrinks from 32 to 13 bytes.
//!
//! The view is built **once** per sweep and shared read-only across worker
//! threads; each worker replays it against its own cache. Commands that
//! only replay build it straight from a file's bytes
//! ([`DenseTrace::from_text_bytes`], [`DenseTrace::from_wctb_bytes`])
//! without materializing the [`Trace`] at all.

use crate::doctype::DocumentType;
use crate::error::TraceError;
use crate::format::{self, type_from_char};
use crate::format_bin::RECORD_BYTES;
use crate::fxhash::FxHashMap;
use crate::record::Trace;
use crate::types::{ByteSize, DocId};

/// A struct-of-arrays trace with documents interned to dense `u32` slots.
/// See the module-level documentation above.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseTrace {
    /// Per request: the interned document slot.
    docs: Vec<u32>,
    /// Per request: the transfer size in bytes.
    sizes: Vec<u64>,
    /// Per request: `DocumentType::index()` of the response.
    types: Vec<u8>,
    /// Number of distinct documents (== the number of slots handed out).
    distinct: usize,
}

/// Requests parsed per interning batch in [`DenseTrace::from_text_bytes`].
///
/// Parsing and hash probing in one loop serialize: the parse work
/// between probes keeps the probes' cache misses from overlapping.
/// Parsing a batch first and then interning it back to back lets them
/// overlap again; 512 is where the gain levelled off at 1/8 DFN scale.
const INTERN_BATCH: usize = 512;

/// Hands out dense slots to document ids in first-appearance order.
#[derive(Default)]
struct Interner(FxHashMap<u64, u32>);

impl Interner {
    /// The slot of `doc`, handing out the next free one on first sight.
    #[inline]
    fn slot(&mut self, doc: u64) -> u32 {
        let next = self.0.len() as u32;
        *self.0.entry(doc).or_insert(next)
    }

    /// Number of slots handed out.
    fn len(&self) -> usize {
        self.0.len()
    }
}

impl DenseTrace {
    /// An empty view with room for `requests` requests.
    fn with_capacity(requests: usize) -> Self {
        DenseTrace {
            docs: Vec::with_capacity(requests),
            sizes: Vec::with_capacity(requests),
            types: Vec::with_capacity(requests),
            distinct: 0,
        }
    }

    /// Builds the dense view of `trace`, interning document ids in
    /// first-appearance order: the document of the first request gets
    /// slot 0, the next previously unseen document slot 1, and so on.
    pub fn build(trace: &Trace) -> Self {
        let requests = trace.requests();
        let mut dense = DenseTrace::with_capacity(requests.len());
        let mut interner = Interner::default();
        for request in requests {
            dense.docs.push(interner.slot(request.doc.as_u64()));
            dense.sizes.push(request.size.as_u64());
            dense.types.push(request.doc_type.index() as u8);
        }
        dense.distinct = interner.len();
        dense
    }

    /// Builds the dense view straight from text-format bytes (see
    /// [`crate::format`]), with no intermediate [`Trace`].
    ///
    /// Lines go through the same record parser as
    /// [`format::read_trace`], a batch of 512 requests at a time; each
    /// batch's document ids are then interned back to back.
    /// Equivalent to `DenseTrace::build(&format::read_trace(bytes)?)`,
    /// errors included.
    ///
    /// # Errors
    ///
    /// The same [`TraceError::Parse`] cases as [`format::read_trace`].
    pub fn from_text_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut dense = DenseTrace::default();
        let mut interner = Interner::default();
        let mut batch: Vec<u64> = Vec::with_capacity(INTERN_BATCH);
        // A final `\n` leaves an empty last line, which parses as blank.
        for (i, line) in bytes.split(|&b| b == b'\n').enumerate() {
            let Some(request) = format::parse_record(line, i + 1)? else {
                continue;
            };
            batch.push(request.doc.as_u64());
            dense.sizes.push(request.size.as_u64());
            dense.types.push(request.doc_type.index() as u8);
            if batch.len() == INTERN_BATCH {
                dense
                    .docs
                    .extend(batch.drain(..).map(|doc| interner.slot(doc)));
            }
        }
        dense
            .docs
            .extend(batch.drain(..).map(|doc| interner.slot(doc)));
        dense.distinct = interner.len();
        Ok(dense)
    }

    /// Builds the dense view straight from WCTB binary bytes
    /// (see [`crate::format_bin`]), skipping the intermediate
    /// [`Trace`]/`Request` vector entirely.
    ///
    /// Records are decoded and interned in a single pass: per request
    /// only the 13 bytes the simulator consumes (slot, size, type) are
    /// materialized, instead of a 32-byte `Request` first. Timestamps
    /// are validated-over and dropped, exactly as [`DenseTrace::build`]
    /// drops them. Equivalent to
    /// `DenseTrace::build(&format_bin::from_bytes(bytes)?)` — the
    /// round-trip tests pin that — at roughly half the peak memory.
    ///
    /// # Errors
    ///
    /// The same [`TraceError::Parse`] cases as
    /// [`crate::format_bin::from_bytes`]: bad magic, unsupported
    /// version, truncated header or records, trailing bytes, invalid
    /// type tags.
    pub fn from_wctb_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        // Buffers are sized from the body actually present, never from
        // the (possibly forged) header count alone.
        let (count, body) = crate::format_bin::checked_body(bytes)?;
        let mut dense = DenseTrace::with_capacity(count);
        let mut interner = Interner::default();
        for (i, record) in body.chunks_exact(RECORD_BYTES).enumerate() {
            // record[0..8] is the timestamp: validated by presence, unused.
            let doc = u64::from_le_bytes(record[8..16].try_into().expect("8 bytes"));
            let size = u64::from_le_bytes(record[16..24].try_into().expect("8 bytes"));
            let ty = type_from_char(record[24] as char)
                .ok_or_else(|| TraceError::parse(i + 1, format!("bad type tag {}", record[24])))?;
            dense.docs.push(interner.slot(doc));
            dense.sizes.push(size);
            dense.types.push(ty.index() as u8);
        }
        dense.distinct = interner.len();
        Ok(dense)
    }

    /// The overall size of the trace: the sum over distinct documents
    /// of the largest transfer seen for each. Equal to
    /// [`Trace::overall_size`] of the trace this view was built from,
    /// in one O(n) pass over per-slot maxima instead of a sort.
    pub fn overall_size(&self) -> ByteSize {
        let mut largest = vec![0u64; self.distinct];
        for (&slot, &size) in self.docs.iter().zip(&self.sizes) {
            let max = &mut largest[slot as usize];
            *max = (*max).max(size);
        }
        largest.into_iter().map(ByteSize::new).sum()
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the trace contains no requests.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Number of distinct documents; slots are exactly
    /// `0..distinct_documents()`. Size per-slot state from this.
    pub fn distinct_documents(&self) -> usize {
        self.distinct
    }

    /// The interned document slot of each request, in arrival order.
    pub fn docs(&self) -> &[u32] {
        &self.docs
    }

    /// The transfer size of each request, in arrival order.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// The `DocumentType::index()` of each request, in arrival order.
    pub fn type_indices(&self) -> &[u8] {
        &self.types
    }

    /// The request at `index` as `(slot, size, type)`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn request(&self, index: usize) -> (u32, ByteSize, DocumentType) {
        (
            self.docs[index],
            ByteSize::new(self.sizes[index]),
            DocumentType::from_index(self.types[index] as usize),
        )
    }

    /// Reconstructs the slot's stand-in [`DocId`] (the slot number itself).
    ///
    /// Dense consumers address documents by slot; this helper exists for
    /// code that needs a `DocId`-typed handle for such a slot.
    pub fn slot_doc(slot: u32) -> DocId {
        DocId::new(slot as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Request;
    use crate::types::Timestamp;

    fn req(doc: u64, ty: DocumentType, size: u64) -> Request {
        Request::new(Timestamp::ZERO, DocId::new(doc), ty, ByteSize::new(size))
    }

    #[test]
    fn interns_in_first_appearance_order() {
        let trace: Trace = vec![
            req(900, DocumentType::Html, 10),
            req(3, DocumentType::Image, 20),
            req(900, DocumentType::Html, 10),
            req(77, DocumentType::Other, 5),
        ]
        .into();
        let dense = DenseTrace::build(&trace);
        assert_eq!(dense.len(), 4);
        assert_eq!(dense.docs(), &[0, 1, 0, 2]);
        assert_eq!(dense.distinct_documents(), 3);
        assert_eq!(dense.distinct_documents(), trace.distinct_documents());
    }

    #[test]
    fn parallel_arrays_carry_sizes_and_types() {
        let trace: Trace = vec![
            req(1, DocumentType::MultiMedia, 5_000),
            req(2, DocumentType::Application, 300),
        ]
        .into();
        let dense = DenseTrace::build(&trace);
        assert_eq!(dense.sizes(), &[5_000, 300]);
        assert_eq!(
            dense.type_indices(),
            &[
                DocumentType::MultiMedia.index() as u8,
                DocumentType::Application.index() as u8
            ]
        );
        let (slot, size, ty) = dense.request(0);
        assert_eq!(slot, 0);
        assert_eq!(size, ByteSize::new(5_000));
        assert_eq!(ty, DocumentType::MultiMedia);
    }

    #[test]
    fn empty_trace_builds_empty_view() {
        let dense = DenseTrace::build(&Trace::new());
        assert!(dense.is_empty());
        assert_eq!(dense.distinct_documents(), 0);
    }

    #[test]
    fn slot_doc_roundtrips() {
        assert_eq!(DenseTrace::slot_doc(7).as_u64(), 7);
    }

    fn mixed_trace() -> Trace {
        (0..150u64)
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(i * 11),
                    DocId::new(1_000_000 + i % 23),
                    DocumentType::ALL[(i % 5) as usize],
                    ByteSize::new(i * 31 + 1),
                )
            })
            .collect()
    }

    #[test]
    fn from_wctb_bytes_equals_build_of_decoded_trace() {
        let trace = mixed_trace();
        let bytes = crate::format_bin::to_bytes(&trace);
        let direct = DenseTrace::from_wctb_bytes(&bytes).unwrap();
        let via_trace = DenseTrace::build(&crate::format_bin::from_bytes(&bytes).unwrap());
        assert_eq!(direct, via_trace);
        assert_eq!(direct, DenseTrace::build(&trace));
    }

    #[test]
    fn from_text_bytes_equals_build_of_read_trace_across_batches() {
        // Over two and a half interning batches, with comments between.
        let trace: Trace = (0..(2 * INTERN_BATCH as u64 + 300))
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(i),
                    DocId::new(i * i % 977),
                    DocumentType::ALL[(i % 5) as usize],
                    ByteSize::new(i % 13 * 100),
                )
            })
            .collect();
        let text = format::to_string(&trace).replace("\n1", "\n# c\n1");
        let direct = DenseTrace::from_text_bytes(text.as_bytes()).unwrap();
        assert_eq!(direct, DenseTrace::build(&trace));
        assert_eq!(
            direct,
            DenseTrace::build(&format::read_trace(text.as_bytes()).unwrap())
        );
    }

    #[test]
    fn overall_size_takes_each_documents_largest_transfer() {
        let trace: Trace = vec![
            req(1, DocumentType::Html, 100),
            req(2, DocumentType::Image, 0),
            req(1, DocumentType::Html, 40),
            req(3, DocumentType::MultiMedia, 7),
            req(1, DocumentType::Html, 150),
        ]
        .into();
        let dense = DenseTrace::build(&trace);
        assert_eq!(dense.overall_size(), ByteSize::new(157));
        assert_eq!(dense.overall_size(), trace.overall_size());
        assert_eq!(DenseTrace::default().overall_size(), ByteSize::ZERO);
    }

    #[test]
    fn from_wctb_bytes_rejects_forged_record_count() {
        let bytes = crate::format_bin::tests::forged_header();
        let err = DenseTrace::from_wctb_bytes(&bytes).unwrap_err().to_string();
        assert!(
            err.contains("truncated record 12 of 1099511627776"),
            "{err}"
        );
    }

    #[test]
    fn from_wctb_bytes_handles_empty_trace() {
        let bytes = crate::format_bin::to_bytes(&Trace::new());
        let dense = DenseTrace::from_wctb_bytes(&bytes).unwrap();
        assert!(dense.is_empty());
        assert_eq!(dense.distinct_documents(), 0);
    }

    #[test]
    fn from_wctb_bytes_rejects_what_the_trace_reader_rejects() {
        let good = crate::format_bin::to_bytes(&mixed_trace());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let err = DenseTrace::from_wctb_bytes(&bad_magic)
            .unwrap_err()
            .to_string();
        assert!(err.contains("magic"), "{err}");

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        let err = DenseTrace::from_wctb_bytes(&bad_version)
            .unwrap_err()
            .to_string();
        assert!(err.contains("version 9"), "{err}");

        let err = DenseTrace::from_wctb_bytes(&good[..10])
            .unwrap_err()
            .to_string();
        assert!(err.contains("truncated header"), "{err}");

        let err = DenseTrace::from_wctb_bytes(&good[..good.len() - 7])
            .unwrap_err()
            .to_string();
        assert!(err.contains("truncated record"), "{err}");

        let mut trailing = good.clone();
        trailing.push(0xFF);
        let err = DenseTrace::from_wctb_bytes(&trailing)
            .unwrap_err()
            .to_string();
        assert!(err.contains("trailing"), "{err}");

        let mut bad_tag = good;
        bad_tag[16 + 24] = b'Q';
        let err = DenseTrace::from_wctb_bytes(&bad_tag)
            .unwrap_err()
            .to_string();
        assert!(err.contains("type tag"), "{err}");
    }
}
