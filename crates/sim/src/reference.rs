//! Test-only reference model of the simulator.
//!
//! [`run_hashed`] replays a [`Trace`] the straightforward way: sparse
//! document ids interned by a hash map inside the [`Cache`], and
//! last-transfer sizes in a `HashMap`. It shares nothing with the dense
//! replay ([`Simulator::run_dense_observed`]) but the methodology, so the
//! differentials below pin the dense path bit-for-bit against it: same
//! reports, same observer event streams, for every policy, admission
//! filter and configuration.

use std::collections::HashMap;

use proptest::prelude::*;

use webcache_core::{AdmissionSpec, Cache, Eviction, PolicyKind, PolicySpec};
use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace, TypeMap};

use crate::metrics::HitStats;
use crate::observe::{AccessEvent, AccessKind, NoopObserver, Observer, RunMeta};
use crate::occupancy::{OccupancySample, OccupancySeries};
use crate::simulator::{access_kind, notify_insert, SimulationConfig, SimulationReport};
use crate::windowed::{WindowSpec, WindowedMetrics};
use crate::{ModificationRule, Simulator};

/// Replays `trace` through the sparse-id hashed cache path.
pub(crate) fn run_hashed(
    spec: impl Into<PolicySpec>,
    config: SimulationConfig,
    trace: &Trace,
) -> SimulationReport {
    run_hashed_observed(spec, config, trace, &mut NoopObserver)
}

/// Like [`run_hashed`], but streams every event into `observer`. Events
/// carry the caller's sparse document id.
pub(crate) fn run_hashed_observed<O: Observer>(
    spec: impl Into<PolicySpec>,
    config: SimulationConfig,
    trace: &Trace,
    observer: &mut O,
) -> SimulationReport {
    let spec = spec.into();
    let (warmup_end, sample_every) = config.schedule(trace.len());
    observer.on_run_start(RunMeta {
        total_requests: trace.len(),
        warmup_end,
        capacity: config.capacity,
    });
    let mut cache = Cache::new(config.capacity, spec.replacement.build(), spec.admission);
    let mut last_transfer: HashMap<u64, u64> = HashMap::new();
    let mut by_type: TypeMap<HitStats> = TypeMap::default();
    let mut occupancy = OccupancySeries::new();

    for (index, request) in trace.iter().enumerate() {
        let doc = request.doc;
        let transfer = request.size.as_u64();
        let prev = last_transfer.insert(doc.as_u64(), transfer);
        let modified = prev.is_some_and(|p| config.modification_rule.is_modification(p, transfer));

        let hit = if modified {
            cache.invalidate(doc);
            false
        } else {
            cache.access(doc)
        };
        let event = AccessEvent {
            index: index as u64,
            doc,
            doc_type: request.doc_type,
            size: request.size,
            warmup: index < warmup_end,
        };
        observer.on_access(event, access_kind(hit, modified));
        if !hit {
            let outcome = cache.insert(doc, request.doc_type, request.size);
            notify_insert(observer, event, outcome.disposition, &outcome.evicted);
        }

        if index >= warmup_end {
            let stats = &mut by_type[request.doc_type];
            stats.record(request.size, hit);
            if modified {
                stats.modification_misses += 1;
            }
            let measured_index = index - warmup_end;
            if measured_index % sample_every == sample_every - 1 {
                occupancy.push(OccupancySample::capture(index as u64, &cache));
            }
        }
    }
    observer.on_run_end();

    let mut report = SimulationReport::from_parts(cache.policy_label(), config, by_type);
    report.occupancy = occupancy;
    report
}

/// Records the full observer event stream for assertion.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Recorder {
    pub(crate) started: Option<RunMeta>,
    pub(crate) accesses: Vec<(AccessEvent, AccessKind)>,
    pub(crate) inserts: Vec<AccessEvent>,
    pub(crate) rejects: Vec<AccessEvent>,
    pub(crate) evictions: Vec<(AccessEvent, Eviction)>,
    pub(crate) ended: bool,
}

impl Observer for Recorder {
    fn on_run_start(&mut self, meta: RunMeta) {
        self.started = Some(meta);
    }
    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        self.accesses.push((event, kind));
    }
    fn on_insert(&mut self, event: AccessEvent) {
        self.inserts.push(event);
    }
    fn on_admission_reject(&mut self, event: AccessEvent) {
        self.rejects.push(event);
    }
    fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
        self.evictions.push((at, evicted));
    }
    fn on_run_end(&mut self) {
        self.ended = true;
    }
}

/// Spreads a small doc index over the u64 space so the differential
/// actually exercises the sparse-id interning of the hashed path.
fn sparse_id(doc: u64) -> u64 {
    doc.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0xdead_beef)
}

/// A random trace over `docs` documents, ids mapped through `id`.
fn arb_trace(docs: u64, id: fn(u64) -> u64) -> impl Strategy<Value = Trace> {
    prop::collection::vec((0..docs, 0u8..5, 1u64..100_000), 1..300).prop_map(move |reqs| {
        reqs.into_iter()
            .enumerate()
            .map(|(i, (doc, ty, size))| {
                Request::new(
                    Timestamp::from_millis(i as u64),
                    DocId::new(id(doc)),
                    DocumentType::ALL[ty as usize],
                    ByteSize::new(size),
                )
            })
            .collect()
    })
}

fn arb_admission() -> impl Strategy<Value = AdmissionSpec> {
    prop_oneof![
        Just(AdmissionSpec::All),
        Just(AdmissionSpec::TinyLfu),
        (1u64..50_000).prop_map(|s| AdmissionSpec::MaxSize(ByteSize::new(s))),
        (1usize..64).prop_map(AdmissionSpec::SecondHit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The hash-free dense replay is *bit-identical* to the sparse
    /// hashed replay — same hits, same evictions, same occupancy
    /// samples — for every policy, admission filter and config.
    #[test]
    fn dense_replay_matches_hashed_replay(
        trace in arb_trace(48, sparse_id),
        kind in prop::sample::select(PolicyKind::ALL.to_vec()),
        capacity in 1_000u64..200_000,
        warmup in 0.0f64..0.5,
        admission in arb_admission(),
        any_change in prop_oneof![Just(false), Just(true)],
        samples in 0usize..8,
    ) {
        let rule = if any_change {
            ModificationRule::AnyChange
        } else {
            ModificationRule::SizeDelta
        };
        let config = SimulationConfig::new(ByteSize::new(capacity))
            .with_warmup_fraction(warmup)
            .with_modification_rule(rule)
            .with_occupancy_samples(samples);
        let spec = PolicySpec::new(admission, kind);
        let dense = Simulator::from_spec(spec, config).run(&trace);
        let hashed = run_hashed(spec, config, &trace);
        prop_assert_eq!(dense, hashed);
    }

    /// The dense and hashed replays feed the observer identically:
    /// windowed series collected on either path are equal.
    #[test]
    fn windowed_series_agree_across_replay_paths(
        trace in arb_trace(40, |doc| doc),
        kind in prop::sample::select(PolicyKind::ALL.to_vec()),
        capacity in 1_000u64..200_000,
        window in prop_oneof![
            (1u64..80).prop_map(WindowSpec::Requests),
            (1u64..500_000).prop_map(|b| WindowSpec::Bytes(ByteSize::new(b))),
        ],
    ) {
        let config = SimulationConfig::new(ByteSize::new(capacity));
        let mut dense = WindowedMetrics::new(window);
        Simulator::from_spec(kind, config).run_observed(&trace, &mut dense);
        let mut hashed = WindowedMetrics::new(window);
        run_hashed_observed(kind, config, &trace, &mut hashed);
        prop_assert_eq!(dense.windows(), hashed.windows());
        prop_assert_eq!(dense.warmup_churn(), hashed.warmup_churn());
        prop_assert_eq!(dense.total_churn(), hashed.total_churn());
    }
}

/// Deterministic spot check over the full policy roster, including a
/// sweep-style grid of capacities.
#[test]
fn all_policies_agree_on_fixed_workload() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let trace: Trace = (0..4_000)
        .map(|i| {
            Request::new(
                Timestamp::from_millis(i),
                DocId::new(sparse_id(next() % 300)),
                DocumentType::ALL[(next() % 5) as usize],
                ByteSize::new(next() % 20_000 + 1),
            )
        })
        .collect();
    for kind in PolicyKind::ALL {
        for capacity in [10_000u64, 100_000, 1_000_000] {
            let config = SimulationConfig::new(ByteSize::new(capacity));
            let dense = Simulator::from_spec(kind, config).run(&trace);
            let hashed = run_hashed(kind, config, &trace);
            assert_eq!(dense, hashed, "{kind:?} diverged at capacity {capacity}");
        }
    }
}

/// The sweep engine (which replays the shared dense view) produces
/// exactly the report a hashed cell-by-cell run would.
#[test]
fn sweep_grid_matches_hashed_cells() {
    use crate::CacheSizeSweep;
    let trace: Trace = (0..2_500u64)
        .map(|i| {
            Request::new(
                Timestamp::from_millis(i),
                DocId::new(sparse_id(i * i % 211)),
                DocumentType::ALL[(i % 5) as usize],
                ByteSize::new(i % 9_000 + 1),
            )
        })
        .collect();
    let capacities = vec![ByteSize::new(20_000), ByteSize::new(250_000)];
    let report = CacheSizeSweep::new(PolicyKind::ALL.to_vec(), capacities.clone())
        .run_with_threads(&trace, 4);
    assert_eq!(
        report.points().len(),
        PolicyKind::ALL.len() * capacities.len()
    );
    for point in report.points() {
        let hashed = run_hashed(point.policy, SimulationConfig::new(point.capacity), &trace);
        assert_eq!(
            point.report, hashed,
            "sweep cell ({:?}, {}) diverged from the hashed replay",
            point.policy, point.capacity
        );
        // And the indexed lookup finds exactly this point.
        let found = report
            .get(point.policy, point.capacity)
            .expect("index lookup");
        assert_eq!(found.report, point.report);
    }
}

/// On a trace whose ids are already dense slots in first-appearance
/// order, both replays emit the very same event stream and report.
#[test]
fn dense_and_hashed_replays_emit_identical_streams() {
    let trace: Trace = (0..60u64)
        .map(|i| {
            Request::new(
                Timestamp::ZERO,
                DocId::new(i % 7),
                DocumentType::Html,
                ByteSize::new(200 + (i % 3) * 400),
            )
        })
        .collect();
    let config = SimulationConfig::builder()
        .capacity(ByteSize::new(1_500))
        .warmup_fraction(0.1)
        .build();
    for spec in ["lru", "2hit:8+lru"] {
        let spec: PolicySpec = spec.parse().unwrap();
        let mut dense = Recorder::default();
        let dense_report = Simulator::from_spec(spec, config).run_observed(&trace, &mut dense);
        let mut hashed = Recorder::default();
        let hashed_report = run_hashed_observed(spec, config, &trace, &mut hashed);
        assert!(!dense.evictions.is_empty(), "{spec}");
        assert_eq!(
            dense.rejects.is_empty(),
            spec.admission == AdmissionSpec::All
        );
        assert_eq!(dense, hashed, "{spec}");
        assert_eq!(dense_report, hashed_report, "{spec}");
    }
}
