//! Bridging simulator events into the flight recorder.
//!
//! [`FlightObserver`] is an [`Observer`] that turns every replay event
//! into a [`DecisionRecord`] in a [`SharedRecorder`] ring. Reason
//! payloads arrive over two FIFO [`ReasonChannel`]s:
//!
//! * **evictions** — filled by an instrumented policy's
//!   [`FlightSink`](webcache_obs::FlightSink) (one reason per `evict()`
//!   victim, in victim order), one per eviction record;
//! * **admissions** — filled by the cache at each Inserted /
//!   RejectedByAdmission outcome (see `Cache::set_admit_reasons`), one
//!   per insert / admission-reject record.
//!
//! Both pairings are exact because the simulator documents its event
//! order per request: `on_access`, then on a miss exactly one of
//! `on_insert` / `on_admission_reject`, then one `on_evict` per victim
//! in eviction order — and TooLarge outcomes emit neither an event nor
//! a reason. Un-instrumented policies (LRU, FIFO, SLRU, LRU-2, or any
//! policy built without a sink) simply leave the channel empty and the
//! records carry the none-kind reason.
//!
//! # One ring lock per request
//!
//! The access record goes to the ring as soon as `on_access` fires, so
//! an anomaly trigger later in the observer chain finds the triggering
//! event in the ring. A request's insert, reject and evict records are
//! staged instead, and written under the same lock as the *next*
//! request's access record (or at run end). Their reasons are popped
//! then too, one channel lock per request that needs them: nothing is
//! pushed between a request's events and the next lookup. Readers of
//! the ring therefore lag the replay by at most one request, and the
//! ring's contents and order are the same as with one lock per record.

use webcache_core::Eviction;
use webcache_obs::flight::{DecisionRecord, EventKind, Reason, ReasonChannel, SharedRecorder};

use crate::observe::{AccessEvent, AccessKind, Observer};

/// Observer recording every replay event into a shared flight ring.
/// See the module-level documentation above.
#[derive(Debug, Clone)]
pub struct FlightObserver {
    recorder: SharedRecorder,
    evictions: Option<ReasonChannel>,
    admissions: Option<ReasonChannel>,
    /// The current request's insert / reject / evict records, reasons
    /// not yet stamped.
    staged: Vec<DecisionRecord>,
}

impl FlightObserver {
    /// An observer recording plain events (no reason channels — every
    /// record carries the none-kind reason).
    pub fn new(recorder: SharedRecorder) -> FlightObserver {
        FlightObserver {
            recorder,
            evictions: None,
            admissions: None,
            staged: Vec::new(),
        }
    }

    /// An observer that additionally stamps eviction records with
    /// reasons popped from `evictions` and insert/reject records with
    /// reasons popped from `admissions`.
    pub fn with_reasons(
        recorder: SharedRecorder,
        evictions: ReasonChannel,
        admissions: ReasonChannel,
    ) -> FlightObserver {
        FlightObserver {
            recorder,
            evictions: Some(evictions),
            admissions: Some(admissions),
            staged: Vec::new(),
        }
    }

    /// The ring this observer records into.
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    fn stage(&mut self, event: AccessEvent, kind: EventKind) {
        self.staged.push(record(event, kind));
    }

    /// Stamps the staged records matching `wants` with reasons from
    /// `channel`, in staging order.
    fn stamp(
        channel: &Option<ReasonChannel>,
        staged: &mut [DecisionRecord],
        wants: fn(EventKind) -> bool,
    ) {
        if let Some(channel) = channel {
            if staged.iter().any(|r| wants(r.event)) {
                channel.pop_into(
                    staged
                        .iter_mut()
                        .filter(|r| wants(r.event))
                        .map(|r| &mut r.reason),
                );
            }
        }
    }

    /// Writes the staged records, then `access`, under one ring lock.
    fn flush(&mut self, access: Option<DecisionRecord>) {
        if !self.staged.is_empty() {
            Self::stamp(&self.admissions, &mut self.staged, |kind| {
                matches!(kind, EventKind::Insert | EventKind::AdmissionReject)
            });
            Self::stamp(&self.evictions, &mut self.staged, |kind| {
                kind == EventKind::Evict
            });
        }
        self.recorder.record_all(&self.staged, access);
        self.staged.clear();
    }
}

/// The record of `event` as `kind`, with the none-kind reason.
fn record(event: AccessEvent, kind: EventKind) -> DecisionRecord {
    DecisionRecord {
        index: event.index,
        doc: event.doc.as_u64(),
        doc_type: event.doc_type.index() as u8,
        size: event.size.as_u64(),
        event: kind,
        reason: Reason::none(),
    }
}

impl Observer for FlightObserver {
    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        let kind = match kind {
            AccessKind::Hit => EventKind::Hit,
            AccessKind::Miss => EventKind::Miss,
            AccessKind::ModificationMiss => EventKind::ModificationMiss,
        };
        self.flush(Some(record(event, kind)));
    }

    fn on_insert(&mut self, event: AccessEvent) {
        self.stage(event, EventKind::Insert);
    }

    fn on_admission_reject(&mut self, event: AccessEvent) {
        self.stage(event, EventKind::AdmissionReject);
    }

    fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
        self.staged.push(DecisionRecord {
            index: at.index,
            doc: evicted.doc.as_u64(),
            doc_type: evicted.doc_type.index() as u8,
            size: evicted.size.as_u64(),
            event: EventKind::Evict,
            reason: Reason::none(),
        });
    }

    fn on_run_end(&mut self) {
        self.flush(None);
        // Defensive: a policy that emitted reasons nobody paired (e.g.
        // evictions driven outside the replay loop) must not poison the
        // next pass's pairing.
        if let Some(ch) = &self.evictions {
            ch.clear();
        }
        if let Some(ch) = &self.admissions {
            ch.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use webcache_core::PolicyKind;
    use webcache_obs::flight::{FlightSink, ReasonKind};
    use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};

    use crate::{SimulationConfig, Simulator};

    fn trace(requests: &[(u64, u64)]) -> Trace {
        requests
            .iter()
            .enumerate()
            .map(|(i, &(doc, size))| {
                Request::new(
                    Timestamp::from_millis(i as u64),
                    DocId::new(doc),
                    DocumentType::Html,
                    ByteSize::new(size),
                )
            })
            .collect()
    }

    fn config(capacity: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .warmup_fraction(0.0)
            .build()
    }

    #[test]
    fn records_full_event_stream_with_greedy_dual_reasons() {
        // Capacity one 80-byte doc; the third request evicts the first.
        let t = trace(&[(1, 80), (1, 80), (2, 80)]);
        let recorder = SharedRecorder::new(64);
        let evict_ch = ReasonChannel::new();
        let admit_ch = ReasonChannel::new();
        let observer =
            FlightObserver::with_reasons(recorder.clone(), evict_ch.clone(), admit_ch.clone());

        let policy = PolicyKind::Gds(webcache_core::CostModel::Constant)
            .build_instrumented(FlightSink::new(evict_ch));
        let mut sim = Simulator::new(policy, config(100));
        sim.set_admit_reasons(admit_ch);
        let mut obs = observer;
        sim.run_observed(&t, &mut obs);

        let records = recorder.snapshot();
        let kinds: Vec<EventKind> = records.iter().map(|r| r.event).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Miss,
                EventKind::Insert,
                EventKind::Hit,
                EventKind::Miss,
                EventKind::Insert,
                EventKind::Evict,
            ]
        );
        let evict = records.last().unwrap();
        assert_eq!(evict.reason.kind, ReasonKind::GreedyDual);
        assert!(evict.reason.a > 0.0, "victim H must be positive");
        // Channels fully drained: pairing was exact.
        assert!(obs.recorder().total() == 6);
    }

    #[test]
    fn uninstrumented_policy_records_none_reasons() {
        let t = trace(&[(1, 80), (2, 80), (3, 80)]);
        let recorder = SharedRecorder::new(64);
        let mut obs = FlightObserver::new(recorder.clone());
        let sim = Simulator::new(PolicyKind::Lru.build(), config(100));
        sim.run_observed(&t, &mut obs);
        assert!(recorder
            .snapshot()
            .iter()
            .all(|r| r.reason.kind == ReasonKind::None));
        assert!(recorder
            .snapshot()
            .iter()
            .any(|r| r.event == EventKind::Evict));
    }

    /// The flight observer as it was before staging: one ring lock and
    /// one channel pop per record.
    #[derive(Debug)]
    struct PerRecord {
        recorder: SharedRecorder,
        evictions: ReasonChannel,
        admissions: ReasonChannel,
    }

    impl PerRecord {
        fn push(&self, event: AccessEvent, kind: EventKind, reason: Option<&ReasonChannel>) {
            let mut r = record(event, kind);
            r.reason = reason.and_then(ReasonChannel::pop).unwrap_or_default();
            self.recorder.record_all(&[], Some(r));
        }
    }

    impl Observer for PerRecord {
        fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
            let kind = match kind {
                AccessKind::Hit => EventKind::Hit,
                AccessKind::Miss => EventKind::Miss,
                AccessKind::ModificationMiss => EventKind::ModificationMiss,
            };
            self.push(event, kind, None);
        }

        fn on_insert(&mut self, event: AccessEvent) {
            self.push(event, EventKind::Insert, Some(&self.admissions));
        }

        fn on_admission_reject(&mut self, event: AccessEvent) {
            self.push(event, EventKind::AdmissionReject, Some(&self.admissions));
        }

        fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
            let mut r = record(at, EventKind::Evict);
            r.doc = evicted.doc.as_u64();
            r.doc_type = evicted.doc_type.index() as u8;
            r.size = evicted.size.as_u64();
            r.reason = self.evictions.pop().unwrap_or_default();
            self.recorder.record_all(&[], Some(r));
        }

        fn on_run_end(&mut self) {
            self.evictions.clear();
            self.admissions.clear();
        }
    }

    /// Snapshots the ring at every lookup, after the flight observer
    /// ahead of it in the chain has seen the event: what an anomaly
    /// trigger's bundle would hold.
    #[derive(Debug)]
    struct AtTrigger {
        recorder: SharedRecorder,
        snapshots: Vec<String>,
    }

    impl Observer for AtTrigger {
        fn on_access(&mut self, _event: AccessEvent, _kind: AccessKind) {
            self.snapshots.push(self.recorder.to_jsonl());
        }
    }

    /// Replays `t` twice through `spec` (instrumented, admission reasons
    /// on), once per observer built by `make`, and returns the final
    /// JSONL plus the ring at every lookup.
    fn replay_with<O: Observer>(
        t: &Trace,
        spec: &str,
        make: impl FnOnce(SharedRecorder, ReasonChannel, ReasonChannel) -> O,
    ) -> (String, Vec<String>) {
        let recorder = SharedRecorder::new(48);
        let (evict, admit) = (ReasonChannel::new(), ReasonChannel::new());
        let spec: webcache_core::PolicySpec = spec.parse().unwrap();
        let mut sim =
            Simulator::from_spec_instrumented(spec, config(2_000), FlightSink::new(evict.clone()));
        sim.set_admit_reasons(admit.clone());
        let mut chain = (
            make(recorder.clone(), evict, admit),
            AtTrigger {
                recorder: recorder.clone(),
                snapshots: Vec::new(),
            },
        );
        sim.run_observed(t, &mut chain);
        (recorder.to_jsonl(), chain.1.snapshots)
    }

    #[test]
    fn staged_records_equal_per_record_output() {
        let mut state = 7u64;
        let requests: Vec<(u64, u64)> = (0..400)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let doc = (state >> 33) % 30;
                // Sizes drift now and then, so modification misses show.
                (doc, 150 + doc * 20 + (state >> 60) % 3)
            })
            .collect();
        let t = trace(&requests);
        for spec in ["gd*(p)", "tinylfu+gds(1)", "2hit:1024+lfu-da", "lru"] {
            let staged = replay_with(&t, spec, FlightObserver::with_reasons);
            let reference = replay_with(&t, spec, |recorder, evictions, admissions| PerRecord {
                recorder,
                evictions,
                admissions,
            });
            assert_eq!(staged.0, reference.0, "{spec}: final ring");
            assert_eq!(staged.1, reference.1, "{spec}: ring at each lookup");
            assert!(staged.0.contains("\"event\": \"evict\""), "{spec} evicts");
        }
    }
}
