//! Online regret metrics: how much better could the policy have done?
//!
//! Two complementary measures, both cheap enough for live replay:
//!
//! * **Wasted evictions** — an eviction whose victim is re-requested
//!   within `window` requests was (in hindsight) a mistake: keeping the
//!   document would have turned that miss into a hit. Counted per
//!   document type, since the paper's schemes discriminate by type.
//! * **Gap to clairvoyant** — every `gap_every` requests, the last
//!   `gap_window` requests are replayed through a
//!   [`WindowedClairvoyant`] (hit for hit the same as
//!   [`oracle::clairvoyant_overall`](crate::oracle::clairvoyant_overall)
//!   on that window) and the oracle's hit rate over that window is
//!   compared with the live hit rate over the same window. The gap
//!   (oracle − actual, in hit-rate points) is the online analogue of the
//!   offline "fraction of clairvoyant" comparisons in EXPERIMENTS.md.
//!
//! # Cost
//!
//! Per request the tracker does O(1) work with no hashing: one vector
//! read and write for the wasted-eviction check, one ring push for the
//! trailing window. The clairvoyant replay costs O(`gap_window`) once
//! every `gap_every` requests and reuses its buffers, so after the
//! first window it allocates nothing. Memory is bounded:
//! one eviction clock per document slot plus the `gap_window` ring.
//!
//! The tracker keeps its own request clock, which never resets, so
//! windows keep their meaning across the passes of a serve loop (the
//! per-pass `AccessEvent::index` restarts at 0 every pass). Document
//! ids are expected to be dense slots, as every dense and sharded replay
//! delivers them: the eviction clocks are a vector indexed by slot.
//!
//! [`RegretTracker`] is an [`Observer`], so it composes with the other
//! serve-path observers via tuple nesting, and exports through a
//! [`Registry`] when one is attached:
//!
//! * `webcache_regret_evictions_total{doc_type}`
//! * `webcache_regret_wasted_evictions_total{doc_type}`
//! * `webcache_regret_gap_to_clairvoyant` (gauge, hit-rate points)
//! * `webcache_regret_window_hit_rate` / `webcache_regret_oracle_hit_rate`

use std::collections::VecDeque;

use webcache_core::Eviction;
use webcache_obs::{Counter, Gauge, Registry};
use webcache_trace::{ByteSize, DocumentType, TypeMap};

use crate::observe::{AccessEvent, AccessKind, Observer, RunMeta};
use crate::oracle::WindowedClairvoyant;
use crate::simulator::ModificationRule;

/// Sizing knobs for [`RegretTracker`].
#[derive(Debug, Clone, Copy)]
pub struct RegretConfig {
    /// A victim re-requested within this many requests of its eviction
    /// counts as a wasted eviction.
    pub window: u64,
    /// Trailing request count replayed through the clairvoyant oracle.
    pub gap_window: usize,
    /// Recompute the gap gauge every this many requests (0 disables the
    /// oracle entirely — wasted-eviction counting stays on).
    pub gap_every: u64,
}

impl Default for RegretConfig {
    fn default() -> Self {
        RegretConfig {
            window: 1024,
            gap_window: 4096,
            gap_every: 4096,
        }
    }
}

/// Registry handles, split out so the tracker works registry-free.
#[derive(Debug)]
struct RegretMetrics {
    evictions: [Counter; DocumentType::ALL.len()],
    wasted: [Counter; DocumentType::ALL.len()],
    gap: Gauge,
    window_hit_rate: Gauge,
    oracle_hit_rate: Gauge,
}

/// Marks a slot with no eviction awaiting re-request.
const NOT_PENDING: u64 = u64::MAX;

/// Observer computing online regret metrics. See the module docs.
#[derive(Debug)]
pub struct RegretTracker {
    config: RegretConfig,
    capacity: ByteSize,
    /// Per document slot: the clock of its latest eviction not yet
    /// followed by a request, or [`NOT_PENDING`]. Grown on demand.
    evicted_at: Vec<u64>,
    evictions: TypeMap<u64>,
    wasted: TypeMap<u64>,
    /// Trailing requests: (doc, size, hit), at most `gap_window` long.
    recent: VecDeque<(u64, u64, bool)>,
    /// Hits among `recent`.
    recent_hits: usize,
    oracle: WindowedClairvoyant,
    /// Requests seen across every pass; the clock of the current
    /// request is `seen - 1`.
    seen: u64,
    last_gap: Option<f64>,
    metrics: Option<RegretMetrics>,
}

impl RegretTracker {
    /// A tracker with the given knobs and no registry export.
    pub fn new(config: RegretConfig) -> RegretTracker {
        RegretTracker {
            config,
            capacity: ByteSize::new(1),
            evicted_at: Vec::new(),
            evictions: TypeMap::default(),
            wasted: TypeMap::default(),
            recent: VecDeque::new(),
            recent_hits: 0,
            oracle: WindowedClairvoyant::new(),
            seen: 0,
            last_gap: None,
            metrics: None,
        }
    }

    /// Registers the regret metric families and routes updates to them.
    pub fn with_registry(config: RegretConfig, registry: &Registry) -> RegretTracker {
        let per_type = |name: &str, help: &str| {
            DocumentType::ALL.map(|ty| registry.counter(name, help, &[("doc_type", ty.label())]))
        };
        let metrics = RegretMetrics {
            evictions: per_type(
                "webcache_regret_evictions_total",
                "Evictions observed by the regret tracker.",
            ),
            wasted: per_type(
                "webcache_regret_wasted_evictions_total",
                "Evictions whose victim was re-requested within the regret window.",
            ),
            gap: registry.gauge(
                "webcache_regret_gap_to_clairvoyant",
                "Clairvoyant hit rate minus actual hit rate over the trailing window.",
                &[],
            ),
            window_hit_rate: registry.gauge(
                "webcache_regret_window_hit_rate",
                "Actual hit rate over the trailing regret window.",
                &[],
            ),
            oracle_hit_rate: registry.gauge(
                "webcache_regret_oracle_hit_rate",
                "Clairvoyant hit rate over the trailing regret window.",
                &[],
            ),
        };
        let mut tracker = RegretTracker::new(config);
        tracker.metrics = Some(metrics);
        tracker
    }

    /// Wasted evictions counted so far for `ty`.
    pub fn wasted(&self, ty: DocumentType) -> u64 {
        self.wasted[ty]
    }

    /// Evictions observed so far for `ty`.
    pub fn evictions(&self, ty: DocumentType) -> u64 {
        self.evictions[ty]
    }

    /// The most recent gap-to-clairvoyant value, if one was computed.
    pub fn last_gap(&self) -> Option<f64> {
        self.last_gap
    }

    /// Replays the trailing window through the clairvoyant oracle and
    /// updates the gap gauge.
    fn recompute_gap(&mut self) {
        if self.recent.is_empty() {
            return;
        }
        let len = self.recent.len() as f64;
        let actual = self.recent_hits as f64 / len;
        // Judged like a default replay: the paper's modification rule.
        let oracle_hits = self.oracle.hits(
            self.recent.iter().map(|&(doc, size, _)| (doc, size)),
            self.capacity.as_u64(),
            ModificationRule::default(),
        );
        let oracle_hr = oracle_hits as f64 / len;
        let gap = oracle_hr - actual;
        self.last_gap = Some(gap);
        if let Some(m) = &self.metrics {
            m.gap.set(gap);
            m.window_hit_rate.set(actual);
            m.oracle_hit_rate.set(oracle_hr);
        }
    }
}

impl Observer for RegretTracker {
    fn on_run_start(&mut self, meta: RunMeta) {
        self.capacity = meta.capacity;
        // Cross-pass state (pending victims, trailing window) persists:
        // the serve loop replays the same stream, so regret across a
        // pass boundary is still regret.
    }

    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        let now = self.seen;
        self.seen += 1;
        let doc = event.doc.as_u64();
        let hit = matches!(kind, AccessKind::Hit);

        // Wasted-eviction check: was this doc evicted recently?
        if let Some(at) = self.evicted_at.get_mut(doc as usize) {
            let evicted = std::mem::replace(at, NOT_PENDING);
            if evicted != NOT_PENDING && now - evicted <= self.config.window {
                self.wasted[event.doc_type] += 1;
                if let Some(m) = &self.metrics {
                    m.wasted[event.doc_type.index()].inc();
                }
            }
        }

        // Trailing window for the clairvoyant gap.
        if self.config.gap_every > 0 {
            self.recent.push_back((doc, event.size.as_u64(), hit));
            self.recent_hits += usize::from(hit);
            if self.recent.len() > self.config.gap_window {
                if let Some((_, _, old_hit)) = self.recent.pop_front() {
                    self.recent_hits -= usize::from(old_hit);
                }
            }
            if self.seen.is_multiple_of(self.config.gap_every) {
                self.recompute_gap();
            }
        }
    }

    fn on_evict(&mut self, _at: AccessEvent, evicted: Eviction) {
        let doc = evicted.doc.as_u64() as usize;
        self.evictions[evicted.doc_type] += 1;
        if let Some(m) = &self.metrics {
            m.evictions[evicted.doc_type.index()].inc();
        }
        if doc >= self.evicted_at.len() {
            self.evicted_at.resize(doc + 1, NOT_PENDING);
        }
        self.evicted_at[doc] = self.seen.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;

    use proptest::prelude::*;
    use webcache_core::{CostModel, PolicyKind};
    use webcache_trace::{DocId, Request, Timestamp, Trace};

    use crate::live::{FixedSource, LiveStatus};
    use crate::{ShardedReplayLoop, SimulationConfig, Simulator};

    fn req(i: u64, doc: u64, size: u64) -> Request {
        Request::new(
            Timestamp::from_millis(i),
            DocId::new(doc),
            DocumentType::Html,
            ByteSize::new(size),
        )
    }

    fn run(trace: Trace, capacity: u64, config: RegretConfig) -> RegretTracker {
        let mut tracker = RegretTracker::new(config);
        let sim_config = SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .warmup_fraction(0.0)
            .build();
        Simulator::new(PolicyKind::Lru.build(), sim_config).run_observed(&trace, &mut tracker);
        tracker
    }

    #[test]
    fn quick_reuse_after_eviction_counts_as_wasted() {
        // Capacity one doc: 1, 2 (evicts 1), 1 (wasted!), 2 (wasted!).
        let trace: Trace = vec![req(0, 1, 80), req(1, 2, 80), req(2, 1, 80), req(3, 2, 80)].into();
        let t = run(trace, 100, RegretConfig::default());
        assert_eq!(t.evictions(DocumentType::Html), 3);
        assert_eq!(t.wasted(DocumentType::Html), 2);
    }

    #[test]
    fn reuse_beyond_window_is_not_wasted() {
        let mut reqs = vec![req(0, 1, 80), req(1, 2, 80)]; // evicts doc 1
                                                           // Fill 10 requests of unrelated churn (window = 4).
        for i in 0..10u64 {
            reqs.push(req(2 + i, 100 + i, 80));
        }
        reqs.push(req(100, 1, 80)); // doc 1 returns too late
        let t = run(
            reqs.into(),
            100,
            RegretConfig {
                window: 4,
                gap_window: 64,
                gap_every: 0,
            },
        );
        assert_eq!(t.wasted(DocumentType::Html), 0, "late reuse is not regret");
        assert!(t.last_gap().is_none(), "gap disabled with gap_every = 0");
    }

    #[test]
    fn gap_to_clairvoyant_is_nonnegative_and_bounded() {
        // Cycling 3 docs through a 1-doc cache: LRU hits 0%, the oracle
        // does strictly better, so the gap must be positive.
        let trace: Trace = (0..64u64).map(|i| req(i, i % 3, 80)).collect();
        let t = run(
            trace,
            100,
            RegretConfig {
                window: 16,
                gap_window: 32,
                gap_every: 16,
            },
        );
        let gap = t.last_gap().expect("gap computed");
        assert!(gap > 0.0, "oracle must beat LRU on a cycling trace: {gap}");
        assert!(gap <= 1.0);
    }

    #[test]
    fn registry_export_matches_internal_counters() {
        let registry = Registry::new();
        let mut tracker = RegretTracker::with_registry(
            RegretConfig {
                window: 64,
                gap_window: 32,
                gap_every: 8,
            },
            &registry,
        );
        let trace: Trace = vec![req(0, 1, 80), req(1, 2, 80), req(2, 1, 80), req(3, 2, 80)].into();
        let sim_config = SimulationConfig::builder()
            .capacity(ByteSize::new(100))
            .warmup_fraction(0.0)
            .build();
        Simulator::new(PolicyKind::Lru.build(), sim_config).run_observed(&trace, &mut tracker);
        let text = registry.prometheus_text();
        assert!(
            text.contains("webcache_regret_wasted_evictions_total{doc_type=\"HTML\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("webcache_regret_evictions_total{doc_type=\"HTML\"} 3"),
            "{text}"
        );
    }

    /// The wasted-eviction bookkeeping the slot vector replaced: a
    /// SipHash map of pending victims plus an expiry deque. It is clocked
    /// by `event.index` shifted by the requests of earlier passes, i.e.
    /// by a clock that does not restart with each pass.
    #[derive(Debug)]
    struct HashMapReference {
        window: u64,
        offset: u64,
        pass_len: u64,
        pending: HashMap<u64, u64>,
        order: VecDeque<(u64, u64)>,
        wasted: TypeMap<u64>,
    }

    impl HashMapReference {
        fn new(window: u64) -> Self {
            HashMapReference {
                window,
                offset: 0,
                pass_len: 0,
                pending: HashMap::new(),
                order: VecDeque::new(),
                wasted: TypeMap::default(),
            }
        }

        fn expire_pending(&mut self, now: u64) {
            while let Some(&(at, doc)) = self.order.front() {
                if now.saturating_sub(at) <= self.window {
                    break;
                }
                self.order.pop_front();
                if self.pending.get(&doc) == Some(&at) {
                    self.pending.remove(&doc);
                }
            }
        }
    }

    impl Observer for HashMapReference {
        fn on_run_start(&mut self, meta: RunMeta) {
            self.offset += self.pass_len;
            self.pass_len = meta.total_requests as u64;
        }

        fn on_access(&mut self, event: AccessEvent, _kind: AccessKind) {
            let now = self.offset + event.index;
            self.expire_pending(now);
            if let Some(at) = self.pending.remove(&event.doc.as_u64()) {
                if now.saturating_sub(at) <= self.window {
                    self.wasted[event.doc_type] += 1;
                }
            }
        }

        fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
            let now = self.offset + at.index;
            self.pending.insert(evicted.doc.as_u64(), now);
            self.order.push_back((now, evicted.doc.as_u64()));
        }
    }

    /// Tracker and reference side by side, with both wasted counts and
    /// the tracker's state size snapshotted at the end of every pass.
    #[derive(Debug)]
    struct Paired {
        tracker: RegretTracker,
        reference: HashMapReference,
        per_pass: Vec<(TypeMap<u64>, TypeMap<u64>)>,
        max_state: usize,
    }

    impl Observer for Paired {
        fn on_run_start(&mut self, meta: RunMeta) {
            self.tracker.on_run_start(meta);
            self.reference.on_run_start(meta);
        }

        fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
            self.tracker.on_access(event, kind);
            self.reference.on_access(event, kind);
        }

        fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
            self.tracker.on_evict(at, evicted);
            self.reference.on_evict(at, evicted);
        }

        fn on_run_end(&mut self) {
            self.per_pass
                .push((self.tracker.wasted, self.reference.wasted));
            let state = self.tracker.evicted_at.len() + self.tracker.recent.len();
            self.max_state = self.max_state.max(state);
        }
    }

    /// A deterministic pseudo-random stream over `docs` documents of
    /// mixed types.
    fn scattered(len: u64, docs: u64, seed: u64) -> Trace {
        let mut state = seed;
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let doc = (state >> 33) % docs;
                Request::new(
                    Timestamp::from_millis(i),
                    DocId::new(doc),
                    DocumentType::ALL[(doc % 5) as usize],
                    ByteSize::new(200 + (doc % 7) * 100),
                )
            })
            .collect()
    }

    #[test]
    fn expiry_holds_across_serve_passes() {
        let trace = scattered(3_000, 300, 11);
        let distinct = trace.distinct_documents();
        let config = RegretConfig {
            window: 64,
            gap_window: 256,
            gap_every: 256,
        };
        let mut observers = [Paired {
            tracker: RegretTracker::new(config),
            reference: HashMapReference::new(config.window),
            per_pass: Vec::new(),
            max_state: 0,
        }];
        let replay = ShardedReplayLoop {
            config: SimulationConfig::builder()
                .capacity(ByteSize::new(20_000))
                .warmup_fraction(0.0)
                .build(),
            spec: PolicyKind::Lru.into(),
            rate: None,
            max_passes: Some(3),
            shards: 1,
            clients: 1,
            lock_probes: None,
            reasons: None,
        };
        let summary = replay
            .run_observed(
                &mut FixedSource::new(&trace),
                &LiveStatus::new(),
                &AtomicBool::new(false),
                &mut observers,
                |_| {},
            )
            .unwrap();
        let [paired] = observers;
        assert_eq!(summary.passes, 3);
        assert_eq!(paired.per_pass.len(), 3);
        for (pass, (tracker, reference)) in paired.per_pass.iter().enumerate() {
            for ty in DocumentType::ALL {
                assert_eq!(tracker[ty], reference[ty], "pass {pass}, {ty:?}");
            }
        }
        let total: u64 = DocumentType::ALL
            .iter()
            .map(|&ty| paired.per_pass[2].0[ty])
            .sum();
        assert!(total > 0, "the trace must produce wasted evictions");
        assert!(
            paired.max_state <= distinct + config.gap_window,
            "state {} exceeds {distinct} slots + {} window",
            paired.max_state,
            config.gap_window
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Single-pass wasted-eviction counts equal the map-based
        /// bookkeeping for every document type, across policies,
        /// capacities and windows.
        #[test]
        fn wasted_evictions_match_hashmap_reference(
            docs in 1u64..80,
            len in 1u64..1_500,
            seed in 0u64..u64::MAX,
            capacity in 100u64..20_000,
            window in 0u64..300,
            policy in 0usize..3,
        ) {
            let trace = scattered(len, docs, seed);
            let config = RegretConfig { window, gap_window: 128, gap_every: 64 };
            let mut obs = (RegretTracker::new(config), HashMapReference::new(window));
            let kind = [
                PolicyKind::Lru,
                PolicyKind::GdStar(CostModel::Packet),
                PolicyKind::LfuDa,
            ][policy];
            let sim_config = SimulationConfig::builder()
                .capacity(ByteSize::new(capacity))
                .warmup_fraction(0.0)
                .build();
            Simulator::new(kind.build(), sim_config).run_observed(&trace, &mut obs);
            for ty in DocumentType::ALL {
                prop_assert_eq!(obs.0.wasted(ty), obs.1.wasted[ty], "{:?}", ty);
            }
        }
    }
}
