//! Simulator event hooks — the observability seam of the simulator.
//!
//! An [`Observer`] receives a callback for every cache-relevant event of
//! a replay: the access outcome (hit, miss, modification miss), document
//! insertion, admission rejection, and every eviction. Events carry the
//! document slot, transfer size, [`DocumentType`] and request index, so
//! an observer can reconstruct anything the end-of-run aggregates fold
//! away — time series, per-type churn, eviction dynamics.
//!
//! # Zero cost when unused
//!
//! The observer is a **generic parameter** of the replay loops
//! ([`Simulator::run_dense_observed`](crate::Simulator::run_dense_observed)
//! and friends), not a `dyn` object: with the [`NoopObserver`] every hook
//! monomorphizes to an empty inline function and the hot path compiles to
//! exactly the unobserved loop. The `hotpath` bench bin checks this claim
//! against the recorded baseline on every run.
//!
//! ```
//! use webcache_core::PolicyKind;
//! use webcache_sim::observe::{AccessEvent, AccessKind, Observer};
//! use webcache_sim::{SimulationConfig, Simulator};
//! use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};
//!
//! /// Counts eviction events.
//! #[derive(Debug, Default)]
//! struct EvictionCounter {
//!     evictions: u64,
//! }
//!
//! impl Observer for EvictionCounter {
//!     fn on_evict(&mut self, _at: AccessEvent, _evicted: webcache_core::Eviction) {
//!         self.evictions += 1;
//!     }
//! }
//!
//! let trace: Trace = (0..100u64)
//!     .map(|i| Request::new(
//!         Timestamp::from_millis(i),
//!         DocId::new(i % 10),
//!         DocumentType::Html,
//!         ByteSize::new(600),
//!     ))
//!     .collect();
//! let mut counter = EvictionCounter::default();
//! let config = SimulationConfig::builder()
//!     .capacity(ByteSize::new(1_800))
//!     .warmup_fraction(0.0)
//!     .build();
//! Simulator::new(PolicyKind::Lru.build(), config)
//!     .run_observed(&trace, &mut counter);
//! assert!(counter.evictions > 0, "3-document cache under 10 hot documents must evict");
//! ```

use webcache_core::Eviction;
use webcache_trace::{ByteSize, DocId, DocumentType};

/// Static facts about a run, delivered once before the first event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMeta {
    /// Number of requests the replay will process (warm-up included).
    pub total_requests: usize,
    /// Index of the first *measured* request: requests `0..warmup_end`
    /// only warm the cache and are excluded from the report.
    pub warmup_end: usize,
    /// Configured cache capacity.
    pub capacity: ByteSize,
}

/// One request-level event.
///
/// `doc` **is** the dense document slot (`0..distinct_documents`) the
/// replay ([`Simulator::run_dense_observed`](crate::Simulator::run_dense_observed))
/// interned the trace's id to, not the trace's own document id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Index of the request in the trace (0-based, warm-up included).
    pub index: u64,
    /// Dense document slot of the requested document.
    pub doc: DocId,
    /// Type of the requested document.
    pub doc_type: DocumentType,
    /// Transfer size of this request.
    pub size: ByteSize,
    /// Whether the request falls in the warm-up region (not measured).
    pub warmup: bool,
}

/// Outcome of the cache lookup for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Served from the cache.
    Hit,
    /// Not resident; the document will be fetched (and offered to the
    /// cache — watch [`Observer::on_insert`] /
    /// [`Observer::on_admission_reject`] for how that went).
    Miss,
    /// The document changed at the origin (size delta under the
    /// configured [`ModificationRule`](crate::ModificationRule)): the
    /// cached copy was invalidated and the request counts as a miss.
    ModificationMiss,
}

impl AccessKind {
    /// Whether the request was served from the cache.
    pub fn is_hit(self) -> bool {
        matches!(self, AccessKind::Hit)
    }
}

/// Receives simulator events during a replay.
///
/// Every hook has an empty default body, so an observer implements only
/// what it needs. Hooks fire in request order; for a single request the
/// order is [`on_access`](Observer::on_access), then (on a miss) one of
/// [`on_insert`](Observer::on_insert) /
/// [`on_admission_reject`](Observer::on_admission_reject), then one
/// [`on_evict`](Observer::on_evict) per victim, in eviction order.
pub trait Observer {
    /// The replay is about to start.
    #[inline(always)]
    fn on_run_start(&mut self, meta: RunMeta) {
        let _ = meta;
    }

    /// A request was looked up in the cache.
    #[inline(always)]
    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        let _ = (event, kind);
    }

    /// The missed document was admitted into the cache.
    #[inline(always)]
    fn on_insert(&mut self, event: AccessEvent) {
        let _ = event;
    }

    /// The admission rule turned the missed document away.
    #[inline(always)]
    fn on_admission_reject(&mut self, event: AccessEvent) {
        let _ = event;
    }

    /// A resident document was evicted to make room; `at` is the request
    /// that triggered the eviction.
    #[inline(always)]
    fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
        let _ = (at, evicted);
    }

    /// The replay finished (flush any partial state).
    #[inline(always)]
    fn on_run_end(&mut self) {}
}

/// The do-nothing observer: every hook is an empty inline function, so
/// replay loops monomorphized over it are identical to unobserved loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// Forwarding impl so observers can be passed down by mutable reference.
impl<O: Observer + ?Sized> Observer for &mut O {
    #[inline(always)]
    fn on_run_start(&mut self, meta: RunMeta) {
        (**self).on_run_start(meta);
    }

    #[inline(always)]
    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        (**self).on_access(event, kind);
    }

    #[inline(always)]
    fn on_insert(&mut self, event: AccessEvent) {
        (**self).on_insert(event);
    }

    #[inline(always)]
    fn on_admission_reject(&mut self, event: AccessEvent) {
        (**self).on_admission_reject(event);
    }

    #[inline(always)]
    fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
        (**self).on_evict(at, evicted);
    }

    #[inline(always)]
    fn on_run_end(&mut self) {
        (**self).on_run_end();
    }
}

/// Pair composition: both observers receive every event, `A` first. Lets
/// callers stack independent observers (e.g. profiling + anomaly +
/// logging as `(profile, (anomaly, log))`) without a trait object.
impl<A: Observer, B: Observer> Observer for (A, B) {
    #[inline(always)]
    fn on_run_start(&mut self, meta: RunMeta) {
        self.0.on_run_start(meta);
        self.1.on_run_start(meta);
    }

    #[inline(always)]
    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        self.0.on_access(event, kind);
        self.1.on_access(event, kind);
    }

    #[inline(always)]
    fn on_insert(&mut self, event: AccessEvent) {
        self.0.on_insert(event);
        self.1.on_insert(event);
    }

    #[inline(always)]
    fn on_admission_reject(&mut self, event: AccessEvent) {
        self.0.on_admission_reject(event);
        self.1.on_admission_reject(event);
    }

    #[inline(always)]
    fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
        self.0.on_evict(at, evicted);
        self.1.on_evict(at, evicted);
    }

    #[inline(always)]
    fn on_run_end(&mut self) {
        self.0.on_run_end();
        self.1.on_run_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_core::{AdmissionSpec, PolicyKind};

    use crate::reference::Recorder;
    use crate::{SimulationConfig, Simulator};
    use webcache_trace::{Request, Timestamp, Trace};

    fn req(doc: u64, size: u64) -> Request {
        Request::new(
            Timestamp::ZERO,
            DocId::new(doc),
            DocumentType::Html,
            ByteSize::new(size),
        )
    }

    #[test]
    fn event_stream_matches_replay() {
        // Capacity for one document; the second insert evicts the first.
        let trace: Trace = vec![req(1, 80), req(1, 80), req(2, 80)].into();
        let mut rec = Recorder::default();
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(100))
            .warmup_fraction(0.0)
            .build();
        let report = Simulator::new(PolicyKind::Lru.build(), config).run_observed(&trace, &mut rec);

        let meta = rec.started.expect("on_run_start fired");
        assert_eq!(meta.total_requests, 3);
        assert_eq!(meta.warmup_end, 0);
        assert_eq!(meta.capacity, ByteSize::new(100));
        assert!(rec.ended, "on_run_end fired");

        let kinds: Vec<AccessKind> = rec.accesses.iter().map(|&(_, k)| k).collect();
        assert_eq!(
            kinds,
            vec![AccessKind::Miss, AccessKind::Hit, AccessKind::Miss]
        );
        assert_eq!(rec.inserts.len(), 2, "both misses were admitted");
        assert!(rec.rejects.is_empty());
        assert_eq!(rec.evictions.len(), 1);
        let (at, evicted) = rec.evictions[0];
        assert_eq!(at.index, 2, "doc 2's insert evicted");
        assert_eq!(evicted.size, ByteSize::new(80));
        assert_eq!(evicted.doc_type, DocumentType::Html);
        assert_eq!(report.overall().hits, 1);
    }

    #[test]
    fn modification_miss_and_warmup_are_flagged() {
        // 100 -> 102 bytes is a <5% change: modification miss.
        let trace: Trace = vec![req(1, 100), req(1, 102)].into();
        let mut rec = Recorder::default();
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(1_000))
            .warmup_fraction(0.5)
            .build();
        Simulator::new(PolicyKind::Lru.build(), config).run_observed(&trace, &mut rec);
        assert_eq!(rec.accesses.len(), 2, "warm-up requests still emit events");
        assert!(rec.accesses[0].0.warmup);
        assert!(!rec.accesses[1].0.warmup);
        assert_eq!(rec.accesses[1].1, AccessKind::ModificationMiss);
    }

    #[test]
    fn admission_rejects_are_observed() {
        let trace: Trace = vec![req(1, 100), req(1, 100)].into();
        let mut rec = Recorder::default();
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(1_000))
            .warmup_fraction(0.0)
            .build();
        let spec = webcache_core::PolicySpec::new(AdmissionSpec::SecondHit(16), PolicyKind::Lru);
        Simulator::from_spec(spec, config).run_observed(&trace, &mut rec);
        assert_eq!(rec.rejects.len(), 1, "first offer is filtered");
        assert_eq!(rec.inserts.len(), 1, "second offer is admitted");
    }
}
