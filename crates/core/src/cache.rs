//! The byte-capacity cache.
//!
//! [`Cache`] owns the set of resident documents, enforces the byte
//! capacity by querying its [`ReplacementPolicy`] for victims, and keeps
//! per-[document-type](DocumentType) occupancy counters — the quantities
//! plotted in Figure 1 of the paper (fraction of cached documents and of
//! cached bytes per type).
//!
//! # Data layout
//!
//! The store is a slab: a `Vec<Option<Entry>>` indexed by *slot*, where a
//! slot is a dense integer the cache assigns to each document id on its
//! first insert attempt (and keeps forever — slots survive eviction).
//! Policies and the admission controller are addressed with slot-valued
//! [`DocId`] handles, so all their per-document state is vector-indexed
//! too; no hash is computed anywhere on the hit path. Two interning modes
//! exist:
//!
//! * [`Cache::new`] interns arbitrary sparse ids through a hash map (one
//!   fx-hash lookup per request, at the boundary only).
//! * [`Cache::with_dense_slots`] skips even that: the caller promises ids
//!   are already dense slots `0..n` (a
//!   [`DenseTrace`](webcache_trace::DenseTrace) replay), and the slab and
//!   policy state are pre-sized to `n`.

use serde::{Deserialize, Serialize};

use webcache_trace::fxhash::FxHashMap;
use webcache_trace::{ByteSize, DocId, DocumentType, TypeMap};

use crate::admission::{AdmissionController, AdmissionSpec};
use crate::policy::ReplacementPolicy;

/// Per-type occupancy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Number of resident documents of this type.
    pub documents: u64,
    /// Bytes occupied by documents of this type.
    pub bytes: ByteSize,
}

/// A document removed from the store to make room, with the metadata an
/// observer needs to account the loss (bytes evicted, per-type churn).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The document id as the caller knows it.
    pub doc: DocId,
    /// Type of the evicted document.
    pub doc_type: DocumentType,
    /// Resident size of the evicted document.
    pub size: ByteSize,
}

/// How [`Cache::insert`] disposed of the offered document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertDisposition {
    /// The document is now resident.
    Inserted,
    /// The admission rule in front of the store turned it away.
    RejectedByAdmission,
    /// The document is larger than the whole cache; nothing was evicted.
    TooLarge,
}

/// Result of [`Cache::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionOutcome {
    /// What happened to the offered document.
    pub disposition: InsertDisposition,
    /// Documents evicted to make room, in eviction order.
    pub evicted: Vec<Eviction>,
}

impl EvictionOutcome {
    /// Whether the document was actually admitted.
    pub fn inserted(&self) -> bool {
        self.disposition == InsertDisposition::Inserted
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The document id as the caller knows it (reported in
    /// [`EvictionOutcome::evicted`]; policies only ever see the slot).
    doc: DocId,
    size: ByteSize,
    doc_type: DocumentType,
}

/// How document ids map to dense slab slots.
#[derive(Debug)]
enum SlotIndex {
    /// Ids are already dense slots (`Cache::with_dense_slots`).
    Identity,
    /// Sparse ids are interned on first insert attempt.
    Map(FxHashMap<u64, u32>),
}

impl SlotIndex {
    /// The slot of `doc`, if one was ever assigned.
    fn get(&self, doc: DocId) -> Option<u32> {
        match self {
            SlotIndex::Identity => Some(doc.as_u64() as u32),
            SlotIndex::Map(map) => map.get(&doc.as_u64()).copied(),
        }
    }

    /// The slot of `doc`, assigning the next free one if new.
    fn intern(&mut self, doc: DocId) -> u32 {
        match self {
            SlotIndex::Identity => doc.as_u64() as u32,
            SlotIndex::Map(map) => {
                let next = map.len() as u32;
                *map.entry(doc.as_u64()).or_insert(next)
            }
        }
    }
}

/// A web cache with a fixed byte capacity and a pluggable replacement
/// policy.
///
/// ```
/// use webcache_core::{AdmissionSpec, Cache, PolicyKind};
/// use webcache_trace::{ByteSize, DocId, DocumentType};
///
/// let mut cache = Cache::new(ByteSize::new(100), PolicyKind::Lru.build(), AdmissionSpec::All);
/// cache.insert(DocId::new(1), DocumentType::Image, ByteSize::new(60));
/// let outcome = cache.insert(DocId::new(2), DocumentType::Html, ByteSize::new(60));
/// let victims: Vec<DocId> = outcome.evicted.iter().map(|e| e.doc).collect();
/// assert_eq!(victims, vec![DocId::new(1)]); // LRU made room
/// assert!(cache.access(DocId::new(2)));
/// ```
#[derive(Debug)]
pub struct Cache {
    capacity: ByteSize,
    used: ByteSize,
    /// Slot-indexed slab of resident documents.
    entries: Vec<Option<Entry>>,
    /// Number of resident documents (`Some` entries in the slab).
    live: usize,
    slots: SlotIndex,
    occupancy: TypeMap<Occupancy>,
    policy: Box<dyn ReplacementPolicy>,
    admission: AdmissionController,
    /// Cached `admission.wants_record()`: keeps the hit path free of a
    /// virtual call for the filters that don't observe hits.
    record_hits: bool,
    rejected_by_admission: u64,
    /// Flight-recorder seam: when set, every consulted admission
    /// verdict that becomes an observer-visible event (Inserted or
    /// RejectedByAdmission — not TooLarge, which emits no event) pushes
    /// the filter's reason here, in event order.
    admit_reasons: Option<webcache_obs::ReasonChannel>,
}

impl Cache {
    /// Creates an empty cache interning arbitrary sparse document ids,
    /// with `admission` in front of the store (see [`crate::admission`];
    /// [`AdmissionSpec::All`] is the paper's admit-everything cache).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(
        capacity: ByteSize,
        policy: Box<dyn ReplacementPolicy>,
        admission: AdmissionSpec,
    ) -> Self {
        Cache::with_slots(
            capacity,
            policy,
            admission,
            SlotIndex::Map(FxHashMap::default()),
            0,
        )
    }

    /// Creates an empty cache whose document ids are promised to be dense
    /// slots `0..distinct_documents` (e.g. a
    /// [`DenseTrace`](webcache_trace::DenseTrace) replay). Skips the
    /// id-interning map and pre-sizes the slab and all policy state.
    ///
    /// Behaviorally identical to [`Cache::new`] fed ids in
    /// first-insert-attempt order; only the data layout differs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_dense_slots(
        capacity: ByteSize,
        policy: Box<dyn ReplacementPolicy>,
        admission: AdmissionSpec,
        distinct_documents: usize,
    ) -> Self {
        Cache::with_slots(
            capacity,
            policy,
            admission,
            SlotIndex::Identity,
            distinct_documents,
        )
    }

    /// The construction both public constructors share; only the slot
    /// interning and the pre-sizing differ between them.
    fn with_slots(
        capacity: ByteSize,
        mut policy: Box<dyn ReplacementPolicy>,
        admission: AdmissionSpec,
        slots: SlotIndex,
        distinct_documents: usize,
    ) -> Self {
        assert!(!capacity.is_zero(), "cache capacity must be positive");
        policy.reserve_slots(distinct_documents);
        let admission = AdmissionController::new(admission);
        let record_hits = admission.wants_record();
        Cache {
            capacity,
            used: ByteSize::ZERO,
            entries: vec![None; distinct_documents],
            live: 0,
            slots,
            occupancy: TypeMap::default(),
            policy,
            admission,
            record_hits,
            rejected_by_admission: 0,
            admit_reasons: None,
        }
    }

    /// Routes admission-verdict reasons into `reasons` for the flight
    /// recorder: one push per Inserted or RejectedByAdmission outcome,
    /// in event order (TooLarge pushes nothing — it emits no observer
    /// event either, keeping the FIFO pairing exact).
    ///
    /// Admit-all verdicts carry no reason, so a cache that admits
    /// everything pushes nothing: popping the empty channel yields the
    /// same none-kind reason a push would have carried.
    pub fn set_admit_reasons(&mut self, reasons: webcache_obs::ReasonChannel) {
        if self.admission.spec() != AdmissionSpec::All {
            self.admit_reasons = Some(reasons);
        }
    }

    /// The slot-valued handle policies and admission are addressed with.
    #[inline]
    fn handle(slot: u32) -> DocId {
        DocId::new(slot as u64)
    }

    /// The resident entry at `slot`, if any.
    #[inline]
    fn entry_at(&self, slot: u32) -> Option<Entry> {
        self.entries.get(slot as usize).copied().flatten()
    }

    /// Number of insert attempts the admission rule turned away.
    pub fn admission_rejections(&self) -> u64 {
        self.rejected_by_admission
    }

    /// The configured byte capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently occupied.
    pub fn used_bytes(&self) -> ByteSize {
        self.used
    }

    /// Number of resident documents.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the cache holds no documents.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The policy's display label: the replacement label (`"GD*(P)"`),
    /// prefixed with the admission label when a filter is composed in
    /// front (`"TinyLFU+SLRU"`) — matching
    /// [`PolicySpec::label`](crate::PolicySpec::label).
    pub fn policy_label(&self) -> String {
        match self.admission.spec().label_prefix() {
            Some(prefix) => format!("{prefix}+{}", self.policy.label()),
            None => self.policy.label(),
        }
    }

    /// Whether `doc` is resident, *without* touching policy state.
    pub fn contains(&self, doc: DocId) -> bool {
        self.slots.get(doc).and_then(|s| self.entry_at(s)).is_some()
    }

    /// The resident size of `doc`, if cached.
    pub fn size_of(&self, doc: DocId) -> Option<ByteSize> {
        self.slots
            .get(doc)
            .and_then(|s| self.entry_at(s))
            .map(|e| e.size)
    }

    /// Per-type occupancy counters (documents and bytes).
    pub fn occupancy(&self) -> &TypeMap<Occupancy> {
        &self.occupancy
    }

    /// Looks up `doc`, updating replacement state on a hit.
    ///
    /// Returns `true` on a hit. This is the read path a proxy executes per
    /// request; on a miss the caller fetches the document and calls
    /// [`Cache::insert`].
    pub fn access(&mut self, doc: DocId) -> bool {
        let Some(slot) = self.slots.get(doc) else {
            return false;
        };
        match self.entry_at(slot) {
            Some(entry) => {
                self.policy
                    .on_hit_typed(Self::handle(slot), entry.size, entry.doc_type);
                if self.record_hits {
                    // Frequency-based admission sees the whole access
                    // stream, not just miss-fills.
                    self.admission.record(Self::handle(slot));
                }
                true
            }
            None => false,
        }
    }

    /// Admits `doc`, evicting victims until it fits.
    ///
    /// A document larger than the entire cache is not admitted (and evicts
    /// nothing). If `doc` is already resident it is first removed, then
    /// re-admitted with the new size and type — callers that only want to
    /// refresh recency should use [`Cache::access`] instead.
    pub fn insert(
        &mut self,
        doc: DocId,
        doc_type: DocumentType,
        size: ByteSize,
    ) -> EvictionOutcome {
        let mut evicted = Vec::new();
        let disposition = self.insert_into(doc, doc_type, size, &mut evicted);
        EvictionOutcome {
            disposition,
            evicted,
        }
    }

    /// Allocation-free [`Cache::insert`]: victims go into the
    /// caller-provided `evicted` buffer (cleared first) instead of a
    /// fresh vector. The dense replay loop reuses one buffer across
    /// millions of inserts.
    pub fn insert_into(
        &mut self,
        doc: DocId,
        doc_type: DocumentType,
        size: ByteSize,
        evicted: &mut Vec<Eviction>,
    ) -> InsertDisposition {
        evicted.clear();
        let slot = self.slots.intern(doc);
        let handle = Self::handle(slot);
        if slot as usize >= self.entries.len() {
            self.entries.resize(slot as usize + 1, None);
        }
        if self.entries[slot as usize].is_some() {
            // Re-admission with new size/type: drop the old incarnation.
            self.policy.remove(handle);
            self.detach(slot);
        }
        // Pressure: would storing this document force evictions? Filters
        // that only guard a contended cache (TinyLFU) admit freely below
        // capacity; the hard predicates ignore the flag.
        let pressure = self.used + size > self.capacity;
        if !self.admission.admit_with_pressure(handle, size, pressure) {
            self.rejected_by_admission += 1;
            if let Some(reasons) = &self.admit_reasons {
                reasons.push(self.admission.last_reason());
            }
            return InsertDisposition::RejectedByAdmission;
        }
        if size > self.capacity {
            return InsertDisposition::TooLarge;
        }

        while self.used + size > self.capacity {
            let victim = self
                .policy
                .evict()
                .expect("cache is over budget but policy tracks no documents");
            let vslot = victim.as_u64() as u32;
            let ventry = self.entries[vslot as usize].expect("policy evicted a non-resident slot");
            self.detach(vslot);
            evicted.push(Eviction {
                doc: ventry.doc,
                doc_type: ventry.doc_type,
                size: ventry.size,
            });
        }

        self.entries[slot as usize] = Some(Entry {
            doc,
            size,
            doc_type,
        });
        self.live += 1;
        self.used += size;
        let occ = &mut self.occupancy[doc_type];
        occ.documents += 1;
        occ.bytes += size;
        self.policy.on_insert_typed(handle, size, doc_type);
        if let Some(reasons) = &self.admit_reasons {
            reasons.push(self.admission.last_reason());
        }
        InsertDisposition::Inserted
    }

    /// Removes `doc` (e.g. because it was modified at the origin server).
    ///
    /// Returns `true` if the document was resident. Unlike eviction this
    /// has no aging side effects on the policy.
    pub fn invalidate(&mut self, doc: DocId) -> bool {
        let Some(slot) = self.slots.get(doc) else {
            return false;
        };
        if self.entry_at(slot).is_some() {
            self.policy.remove(Self::handle(slot));
            self.detach(slot);
            true
        } else {
            false
        }
    }

    /// Removes bookkeeping for a slot already untracked by the policy.
    fn detach(&mut self, slot: u32) {
        let entry = self.entries[slot as usize]
            .take()
            .expect("detach of non-resident document");
        self.live -= 1;
        self.used -= entry.size;
        let occ = &mut self.occupancy[entry.doc_type];
        occ.documents -= 1;
        occ.bytes -= entry.size;
    }

    /// Checks internal consistency; used by tests.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        assert!(self.used <= self.capacity, "capacity exceeded");
        let residents: Vec<&Entry> = self.entries.iter().flatten().collect();
        let total: u64 = residents.iter().map(|e| e.size.as_u64()).sum();
        assert_eq!(self.used.as_u64(), total, "used-bytes counter drifted");
        assert_eq!(self.policy.len(), self.live, "policy desync");
        assert_eq!(residents.len(), self.live, "live counter drifted");
        let mut per_type: TypeMap<Occupancy> = TypeMap::default();
        for e in &residents {
            per_type[e.doc_type].documents += 1;
            per_type[e.doc_type].bytes += e.size;
        }
        assert_eq!(&per_type, &self.occupancy, "occupancy counters drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    fn lru_cache(capacity: u64) -> Cache {
        Cache::new(
            ByteSize::new(capacity),
            PolicyKind::Lru.build(),
            AdmissionSpec::All,
        )
    }

    /// A sparse-id cache built from a composed spec such as
    /// `"tinylfu+slru"`.
    fn spec_cache(capacity: u64, spec: &str) -> Cache {
        let spec: crate::spec::PolicySpec = spec.parse().unwrap();
        Cache::new(
            ByteSize::new(capacity),
            spec.replacement.build(),
            spec.admission,
        )
    }

    #[test]
    fn hit_and_miss() {
        let mut c = lru_cache(100);
        assert!(!c.access(doc(1)));
        c.insert(doc(1), DocumentType::Html, ByteSize::new(10));
        assert!(c.access(doc(1)));
        assert!(c.contains(doc(1)));
        assert_eq!(c.size_of(doc(1)), Some(ByteSize::new(10)));
        c.debug_validate();
    }

    #[test]
    fn eviction_makes_room() {
        let mut c = lru_cache(100);
        c.insert(doc(1), DocumentType::Image, ByteSize::new(50));
        c.insert(doc(2), DocumentType::Image, ByteSize::new(50));
        let outcome = c.insert(doc(3), DocumentType::Image, ByteSize::new(80));
        assert!(outcome.inserted());
        let victims: Vec<DocId> = outcome.evicted.iter().map(|e| e.doc).collect();
        assert_eq!(victims, vec![doc(1), doc(2)]);
        assert!(outcome
            .evicted
            .iter()
            .all(|e| e.doc_type == DocumentType::Image && e.size.as_u64() == 50));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes().as_u64(), 80);
        c.debug_validate();
    }

    #[test]
    fn oversized_document_is_rejected_without_evictions() {
        let mut c = lru_cache(100);
        c.insert(doc(1), DocumentType::Html, ByteSize::new(60));
        let outcome = c.insert(doc(2), DocumentType::MultiMedia, ByteSize::new(101));
        assert!(!outcome.inserted());
        assert_eq!(outcome.disposition, InsertDisposition::TooLarge);
        assert!(outcome.evicted.is_empty());
        assert!(c.contains(doc(1)), "rejection must not disturb residents");
        c.debug_validate();
    }

    #[test]
    fn document_exactly_capacity_fits() {
        let mut c = lru_cache(100);
        let outcome = c.insert(doc(1), DocumentType::MultiMedia, ByteSize::new(100));
        assert!(outcome.inserted());
        assert_eq!(c.used_bytes().as_u64(), 100);
    }

    #[test]
    fn reinsert_replaces_size_and_type() {
        let mut c = lru_cache(100);
        c.insert(doc(1), DocumentType::Html, ByteSize::new(10));
        c.insert(doc(1), DocumentType::Image, ByteSize::new(30));
        assert_eq!(c.len(), 1);
        assert_eq!(c.size_of(doc(1)), Some(ByteSize::new(30)));
        assert_eq!(c.occupancy()[DocumentType::Html].documents, 0);
        assert_eq!(c.occupancy()[DocumentType::Image].documents, 1);
        c.debug_validate();
    }

    #[test]
    fn invalidate_removes_without_aging() {
        let mut c = lru_cache(100);
        c.insert(doc(1), DocumentType::Html, ByteSize::new(10));
        assert!(c.invalidate(doc(1)));
        assert!(!c.invalidate(doc(1)));
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), ByteSize::ZERO);
        c.debug_validate();
    }

    #[test]
    fn occupancy_tracks_types() {
        let mut c = lru_cache(1000);
        c.insert(doc(1), DocumentType::Image, ByteSize::new(100));
        c.insert(doc(2), DocumentType::Image, ByteSize::new(200));
        c.insert(doc(3), DocumentType::MultiMedia, ByteSize::new(300));
        let occ = c.occupancy();
        assert_eq!(occ[DocumentType::Image].documents, 2);
        assert_eq!(occ[DocumentType::Image].bytes.as_u64(), 300);
        assert_eq!(occ[DocumentType::MultiMedia].bytes.as_u64(), 300);
        assert_eq!(occ[DocumentType::Html], Occupancy::default());
    }

    #[test]
    fn admission_max_size_rejects_large_documents() {
        let mut c = Cache::new(
            ByteSize::new(10_000),
            PolicyKind::Lru.build(),
            AdmissionSpec::MaxSize(ByteSize::new(100)),
        );
        assert!(c
            .insert(doc(1), DocumentType::Image, ByteSize::new(100))
            .inserted());
        let outcome = c.insert(doc(2), DocumentType::MultiMedia, ByteSize::new(101));
        assert!(!outcome.inserted());
        assert_eq!(outcome.disposition, InsertDisposition::RejectedByAdmission);
        assert!(outcome.evicted.is_empty(), "rejection must not evict");
        assert_eq!(c.admission_rejections(), 1);
        assert!(c.contains(doc(1)));
        c.debug_validate();
    }

    #[test]
    fn admission_second_hit_filters_one_timers() {
        let mut c = Cache::new(
            ByteSize::new(10_000),
            PolicyKind::Lru.build(),
            AdmissionSpec::SecondHit(64),
        );
        assert!(!c
            .insert(doc(1), DocumentType::Html, ByteSize::new(10))
            .inserted());
        assert!(!c.contains(doc(1)));
        // Second fetch of the same document is admitted.
        assert!(c
            .insert(doc(1), DocumentType::Html, ByteSize::new(10))
            .inserted());
        assert!(c.contains(doc(1)));
        assert_eq!(c.admission_rejections(), 1);
        c.debug_validate();
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = lru_cache(0);
    }

    #[test]
    fn spec_construction_composes_label_and_admission() {
        let mut c = spec_cache(100, "tinylfu+slru");
        assert_eq!(c.policy_label(), "TinyLFU+SLRU");

        // Below capacity, TinyLFU admits everything (and records).
        assert!(c
            .insert(doc(1), DocumentType::Html, ByteSize::new(60))
            .inserted());
        // Under pressure a cold one-timer is rejected instead of
        // displacing the resident document.
        let outcome = c.insert(doc(2), DocumentType::Image, ByteSize::new(60));
        assert_eq!(outcome.disposition, InsertDisposition::RejectedByAdmission);
        assert!(outcome.evicted.is_empty());
        assert!(c.contains(doc(1)));
        // Its second appearance clears the sketch's frequency gate.
        assert!(c
            .insert(doc(2), DocumentType::Image, ByteSize::new(60))
            .inserted());
        assert!(!c.contains(doc(1)), "now the resident was displaced");
        assert_eq!(c.admission_rejections(), 1);
        c.debug_validate();
    }

    #[test]
    fn tinylfu_protects_hot_documents_via_recorded_hits() {
        let mut c = spec_cache(100, "tinylfu+lru");
        c.insert(doc(1), DocumentType::Html, ByteSize::new(100));
        for _ in 0..5 {
            assert!(c.access(doc(1)), "hits feed the sketch");
        }
        // A one-timer flood can't get past admission while doc 1 is hot.
        for i in 10..20 {
            let outcome = c.insert(doc(i), DocumentType::Image, ByteSize::new(50));
            assert_eq!(
                outcome.disposition,
                InsertDisposition::RejectedByAdmission,
                "one-timer {i} must not displace the hot document"
            );
        }
        assert!(c.contains(doc(1)));
        c.debug_validate();
    }

    #[test]
    fn capacity_invariant_under_random_workload_all_policies() {
        // Deterministic pseudo-random workload over every policy kind.
        for kind in PolicyKind::ALL {
            let mut c = Cache::new(ByteSize::new(10_000), kind.build(), AdmissionSpec::All);
            let mut state = 987654321u64;
            let mut next = || {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                state >> 33
            };
            for step in 0..3000 {
                let d = doc(next() % 200);
                let ty = DocumentType::ALL[(next() % 5) as usize];
                match next() % 10 {
                    0 => {
                        c.invalidate(d);
                    }
                    _ => {
                        if !c.access(d) {
                            let size = ByteSize::new(next() % 3000 + 1);
                            c.insert(d, ty, size);
                        }
                    }
                }
                if step % 256 == 0 {
                    c.debug_validate();
                }
            }
            c.debug_validate();
        }
    }
}
