//! Cache admission control.
//!
//! Replacement decides *what to evict*; admission decides *what to let
//! in*. The proxy literature around the paper studied both: size
//! thresholds (LRU-THOLD — never cache documents above a limit, an
//! admission-side approximation of the SIZE policy) and frequency
//! filters (cache only on the second request, suppressing the one-timer
//! majority that both DFN and RTP exhibit). The modern cohort adds
//! TinyLFU: a [`FrequencySketch`]-backed filter that admits a candidate
//! only when its recent popularity clears a threshold, composable with
//! any replacement policy (`tinylfu+slru` is the W-TinyLFU layout).
//!
//! The seam is the [`AdmissionPolicy`] trait: the
//! [`Cache`](crate::Cache) consults an [`AdmissionController`] (a thin
//! spec-tagged wrapper over a boxed `AdmissionPolicy`) before storing a
//! fetched document; rejected documents are forwarded to the client
//! without being stored. [`AdmissionSpec`] survives as the parse/serde
//! frontend that names which filter to build.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use serde::{Deserialize, Serialize};

use webcache_trace::{ByteSize, DocId};

use crate::sketch::FrequencySketch;

/// Admission policy selector: the declarative, serializable frontend.
///
/// `AdmissionSpec::new` (via [`AdmissionController::new`]) builds the
/// matching [`AdmissionPolicy`] implementation; the spec itself carries
/// no runtime state.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum AdmissionSpec {
    /// Admit everything (the paper's setting).
    #[default]
    All,
    /// Admit only documents of at most this size (LRU-THOLD).
    MaxSize(ByteSize),
    /// Admit a document only on its second fetch within a sliding window
    /// of recently seen fetches (a one-timer filter). The `usize` is the
    /// window capacity in distinct documents.
    SecondHit(usize),
    /// TinyLFU: admit under cache pressure only when the Count-Min
    /// frequency sketch estimates the candidate was requested at least
    /// twice in the recent sample window. While the cache has room,
    /// everything is admitted (the sketch still records).
    TinyLfu,
}

impl AdmissionSpec {
    /// A short label for composed policy names (`"TinyLFU"` in
    /// `"TinyLFU+SLRU"`), or `None` for [`AdmissionSpec::All`], which is
    /// invisible in labels.
    pub fn label_prefix(&self) -> Option<String> {
        match self {
            AdmissionSpec::All => None,
            AdmissionSpec::MaxSize(limit) => Some(format!("MAX:{}", limit.as_u64())),
            AdmissionSpec::SecondHit(window) => Some(format!("2HIT:{window}")),
            AdmissionSpec::TinyLfu => Some("TinyLFU".to_string()),
        }
    }
}

/// The admission seam: a stateful filter consulted on every miss-fill.
///
/// Implementations decide per candidate; the [`Cache`](crate::Cache)
/// additionally forwards *hits* to [`AdmissionPolicy::record`] when
/// [`AdmissionPolicy::wants_record`] is `true`, so frequency-based
/// filters observe the full access stream, not just misses.
pub trait AdmissionPolicy: fmt::Debug + Send {
    /// Decides whether a fetched document may enter the cache, updating
    /// internal state. `pressure` is `true` when storing the document
    /// would force evictions; filters that only guard a contended cache
    /// (TinyLFU) admit freely without pressure, while hard predicates
    /// (size thresholds) ignore the flag.
    fn admit(&mut self, doc: DocId, size: ByteSize, pressure: bool) -> bool;

    /// Observes a cache hit for `doc`. Only called when
    /// [`AdmissionPolicy::wants_record`] returns `true`.
    fn record(&mut self, doc: DocId) {
        let _ = doc;
    }

    /// Whether this filter needs to observe hits via
    /// [`AdmissionPolicy::record`]. The cache caches this answer to keep
    /// the hit path virtual-call free for filters that don't.
    fn wants_record(&self) -> bool {
        false
    }

    /// Number of documents currently remembered by the filter's
    /// bounded memory (diagnostic; `0` for stateless filters).
    fn remembered(&self) -> usize {
        0
    }

    /// The reason payload behind the most recent
    /// [`AdmissionPolicy::admit`] verdict, for the flight recorder.
    /// Filters without an articulable reason return the none-kind.
    fn last_reason(&self) -> webcache_obs::Reason {
        webcache_obs::Reason::none()
    }
}

/// Admits everything — [`AdmissionSpec::All`].
#[derive(Debug, Default)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn admit(&mut self, _doc: DocId, _size: ByteSize, _pressure: bool) -> bool {
        true
    }
}

/// Size-threshold filter — [`AdmissionSpec::MaxSize`].
#[derive(Debug)]
pub struct MaxSizeFilter {
    limit: ByteSize,
    /// Size consulted by the most recent verdict (flight-recorder
    /// reason payload).
    last_size: ByteSize,
}

impl MaxSizeFilter {
    /// A filter admitting documents of at most `limit` bytes.
    pub fn new(limit: ByteSize) -> Self {
        MaxSizeFilter {
            limit,
            last_size: ByteSize::ZERO,
        }
    }
}

impl AdmissionPolicy for MaxSizeFilter {
    fn admit(&mut self, doc: DocId, size: ByteSize, _pressure: bool) -> bool {
        let _ = doc;
        self.last_size = size;
        size <= self.limit
    }

    fn last_reason(&self) -> webcache_obs::Reason {
        webcache_obs::Reason::max_size(self.last_size.as_f64(), self.limit.as_f64())
    }
}

/// One-timer filter — [`AdmissionSpec::SecondHit`].
///
/// Remembers up to `window` recently fetched documents in a
/// seq-stamped map + FIFO; a refetch while remembered is admitted and
/// consumes the entry. Memory is O(window) regardless of catalog size
/// (the pre-redesign `Vec<bool>` grew with the largest slot ever seen —
/// a slow leak under the endless `WorkloadStream`).
#[derive(Debug)]
pub struct SecondHitFilter {
    window: usize,
    /// Live entries: slot → stamp of its `order` entry.
    pending: HashMap<u32, u64>,
    /// FIFO of (slot, stamp); entries whose stamp no longer matches
    /// `pending` are stale and skipped.
    order: VecDeque<(u32, u64)>,
    /// Monotone stamp distinguishing re-insertions of the same slot.
    seq: u64,
    /// Whether the most recent verdict found the doc remembered
    /// (flight-recorder reason payload).
    last_seen: bool,
}

impl SecondHitFilter {
    /// A filter with the given window (distinct documents).
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "second-hit window must be positive");
        SecondHitFilter {
            window,
            pending: HashMap::new(),
            order: VecDeque::new(),
            seq: 0,
            last_seen: false,
        }
    }
}

impl AdmissionPolicy for SecondHitFilter {
    fn admit(&mut self, doc: DocId, _size: ByteSize, _pressure: bool) -> bool {
        let slot = doc.as_u64() as u32;
        if self.pending.remove(&slot).is_some() {
            // Second fetch: admit. (The stale entry in `order` is
            // skipped when it surfaces.)
            self.last_seen = true;
            return true;
        }
        self.last_seen = false;
        self.seq += 1;
        self.pending.insert(slot, self.seq);
        self.order.push_back((slot, self.seq));
        // Bound the memory to the window, skipping stale entries.
        while self.pending.len() > self.window {
            let Some((old, stamp)) = self.order.pop_front() else {
                break;
            };
            if self.pending.get(&old) == Some(&stamp) {
                self.pending.remove(&old);
            }
        }
        // The FIFO itself can accumulate stale entries faster than the
        // window bound drains them; compact it amortized-O(1). Saturating:
        // a window near `usize::MAX` (a parsed `2hit:N` spec) never
        // compacts rather than wrapping to compact on every admit.
        if self.order.len() >= self.window.saturating_mul(2).saturating_add(2) {
            let pending = &self.pending;
            self.order
                .retain(|&(slot, stamp)| pending.get(&slot) == Some(&stamp));
        }
        false
    }

    fn remembered(&self) -> usize {
        self.pending.len()
    }

    fn last_reason(&self) -> webcache_obs::Reason {
        webcache_obs::Reason::second_hit(self.last_seen)
    }
}

/// Frequency-sketch filter — [`AdmissionSpec::TinyLfu`].
///
/// Every consulted candidate and every recorded hit feeds the
/// [`FrequencySketch`]; under pressure a candidate must have an
/// estimated recent frequency ≥ 2 (i.e. this is at least its second
/// appearance in the sample window) to displace resident documents.
#[derive(Debug)]
pub struct TinyLfuFilter {
    sketch: FrequencySketch,
    /// Estimate behind the most recent verdict (flight-recorder reason
    /// payload).
    last_estimate: u32,
}

/// The frequency estimate a pressured TinyLFU candidate must reach.
pub const TINYLFU_ADMIT_THRESHOLD: u32 = 2;

impl TinyLfuFilter {
    /// A filter over a default-width sketch.
    pub fn new() -> Self {
        TinyLfuFilter {
            sketch: FrequencySketch::new(),
            last_estimate: 0,
        }
    }
}

impl Default for TinyLfuFilter {
    fn default() -> Self {
        TinyLfuFilter::new()
    }
}

impl AdmissionPolicy for TinyLfuFilter {
    fn admit(&mut self, doc: DocId, _size: ByteSize, pressure: bool) -> bool {
        let estimate = self.sketch.record(doc.as_u64());
        self.last_estimate = estimate;
        !pressure || estimate >= TINYLFU_ADMIT_THRESHOLD
    }

    fn record(&mut self, doc: DocId) {
        self.sketch.record(doc.as_u64());
    }

    fn wants_record(&self) -> bool {
        true
    }

    fn last_reason(&self) -> webcache_obs::Reason {
        webcache_obs::Reason::tinylfu(
            f64::from(self.last_estimate),
            f64::from(TINYLFU_ADMIT_THRESHOLD),
        )
    }
}

/// Stateful admission decision-maker: the cache-facing wrapper that
/// pairs the declarative [`AdmissionSpec`] with its built
/// [`AdmissionPolicy`]. See the module-level documentation above.
#[derive(Debug)]
pub struct AdmissionController {
    spec: AdmissionSpec,
    policy: Box<dyn AdmissionPolicy>,
    wants_record: bool,
}

impl AdmissionController {
    /// Creates a controller for the given spec.
    ///
    /// # Panics
    ///
    /// Panics when a [`AdmissionSpec::SecondHit`] window is zero.
    pub fn new(spec: AdmissionSpec) -> Self {
        let policy: Box<dyn AdmissionPolicy> = match spec {
            AdmissionSpec::All => Box::new(AdmitAll),
            AdmissionSpec::MaxSize(limit) => Box::new(MaxSizeFilter::new(limit)),
            AdmissionSpec::SecondHit(window) => Box::new(SecondHitFilter::new(window)),
            AdmissionSpec::TinyLfu => Box::new(TinyLfuFilter::new()),
        };
        let wants_record = policy.wants_record();
        AdmissionController {
            spec,
            policy,
            wants_record,
        }
    }

    /// The configured spec.
    pub fn spec(&self) -> AdmissionSpec {
        self.spec
    }

    /// Decides whether a fetched document may enter the cache, updating
    /// internal state. Equivalent to full-pressure
    /// [`AdmissionController::admit_with_pressure`] — the conservative
    /// reading for callers that don't track occupancy.
    pub fn admit(&mut self, doc: DocId, size: ByteSize) -> bool {
        self.policy.admit(doc, size, true)
    }

    /// Decides admission with an explicit pressure flag (`true` when
    /// storing the document would force evictions).
    pub fn admit_with_pressure(&mut self, doc: DocId, size: ByteSize, pressure: bool) -> bool {
        self.policy.admit(doc, size, pressure)
    }

    /// Forwards a cache hit to the filter (only meaningful when
    /// [`AdmissionController::wants_record`] is `true`).
    pub fn record(&mut self, doc: DocId) {
        self.policy.record(doc);
    }

    /// Whether the filter needs to observe hits. Cached at construction
    /// so the cache's hit path can branch on a plain bool.
    pub fn wants_record(&self) -> bool {
        self.wants_record
    }

    /// Number of documents currently remembered by the filter's bounded
    /// memory.
    pub fn remembered(&self) -> usize {
        self.policy.remembered()
    }

    /// The reason payload behind the most recent admission verdict
    /// (none-kind for filters without one), for the flight recorder.
    pub fn last_reason(&self) -> webcache_obs::Reason {
        self.policy.last_reason()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    #[test]
    fn admit_all() {
        let mut c = AdmissionController::new(AdmissionSpec::All);
        assert!(c.admit(doc(1), ByteSize::from_gib(10)));
        assert_eq!(c.remembered(), 0);
    }

    #[test]
    fn max_size_threshold() {
        let mut c = AdmissionController::new(AdmissionSpec::MaxSize(ByteSize::new(1000)));
        assert!(
            c.admit(doc(1), ByteSize::new(1000)),
            "boundary is inclusive"
        );
        assert!(!c.admit(doc(2), ByteSize::new(1001)));
    }

    #[test]
    fn second_hit_admits_on_refetch() {
        let mut c = AdmissionController::new(AdmissionSpec::SecondHit(100));
        assert!(!c.admit(doc(1), ByteSize::new(10)), "first fetch rejected");
        assert!(c.admit(doc(1), ByteSize::new(10)), "second fetch admitted");
        // After admission the memory entry is consumed: a later fetch
        // (e.g. after eviction) starts the cycle over.
        assert!(!c.admit(doc(1), ByteSize::new(10)));
    }

    #[test]
    fn second_hit_window_forgets_old_documents() {
        let mut c = AdmissionController::new(AdmissionSpec::SecondHit(2));
        c.admit(doc(1), ByteSize::new(1));
        c.admit(doc(2), ByteSize::new(1));
        c.admit(doc(3), ByteSize::new(1)); // evicts doc 1 from the window
        assert_eq!(c.remembered(), 2);
        assert!(!c.admit(doc(1), ByteSize::new(1)), "doc 1 was forgotten");
    }

    #[test]
    fn second_hit_skips_stale_order_entries() {
        let mut c = AdmissionController::new(AdmissionSpec::SecondHit(2));
        c.admit(doc(1), ByteSize::new(1));
        assert!(c.admit(doc(1), ByteSize::new(1))); // consume doc 1
                                                    // Window has a stale `order` entry for doc 1; filling it must
                                                    // still retain the two live docs.
        c.admit(doc(2), ByteSize::new(1));
        c.admit(doc(3), ByteSize::new(1));
        assert_eq!(c.remembered(), 2);
        assert!(
            c.admit(doc(2), ByteSize::new(1)),
            "doc 2 must still be live"
        );
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = AdmissionController::new(AdmissionSpec::SecondHit(0));
    }

    /// Regression for the pre-redesign slow leak: the second-hit memory
    /// must stay O(window) while the catalog of distinct documents grows
    /// without bound (the endless `WorkloadStream` scenario).
    #[test]
    fn second_hit_memory_stays_bounded_under_growing_catalog() {
        let window = 64;
        let mut c = AdmissionController::new(AdmissionSpec::SecondHit(window));
        let mut filter = SecondHitFilter::new(window);
        for i in 0..1_000_000u64 {
            c.admit(doc(i), ByteSize::new(1));
            filter.admit(doc(i), ByteSize::new(1), true);
            assert!(c.remembered() <= window);
        }
        // The internal FIFO must be bounded too, not just the live map.
        assert!(
            filter.order.len() <= 2 * window + 2,
            "order FIFO leaked: {} entries",
            filter.order.len()
        );
        assert_eq!(filter.pending.len(), window);
    }

    #[test]
    fn tinylfu_admits_freely_without_pressure_and_gates_under_pressure() {
        let mut c = AdmissionController::new(AdmissionSpec::TinyLfu);
        assert!(c.wants_record());
        assert!(
            c.admit_with_pressure(doc(1), ByteSize::new(10), false),
            "no pressure: admit and record"
        );
        assert!(
            !c.admit_with_pressure(doc(2), ByteSize::new(10), true),
            "cold candidate rejected under pressure"
        );
        assert!(
            c.admit_with_pressure(doc(2), ByteSize::new(10), true),
            "second appearance clears the gate"
        );
        // Doc 1 was recorded during its pressure-free admission, so it
        // passes a later pressured re-check.
        assert!(c.admit_with_pressure(doc(1), ByteSize::new(10), true));
    }

    #[test]
    fn tinylfu_record_counts_toward_admission() {
        let mut c = AdmissionController::new(AdmissionSpec::TinyLfu);
        c.record(doc(9));
        assert!(
            c.admit_with_pressure(doc(9), ByteSize::new(10), true),
            "a recorded hit plus the candidate probe reaches the threshold"
        );
    }

    #[test]
    fn spec_label_prefixes() {
        assert_eq!(AdmissionSpec::All.label_prefix(), None);
        assert_eq!(
            AdmissionSpec::TinyLfu.label_prefix().as_deref(),
            Some("TinyLFU")
        );
        assert_eq!(
            AdmissionSpec::SecondHit(16).label_prefix().as_deref(),
            Some("2HIT:16")
        );
        assert_eq!(
            AdmissionSpec::MaxSize(ByteSize::new(4096))
                .label_prefix()
                .as_deref(),
            Some("MAX:4096")
        );
    }
}
