//! Replacement policies.
//!
//! A [`ReplacementPolicy`] tracks per-document bookkeeping (recency,
//! frequency, GreedyDual `H` values) and answers eviction queries; the
//! [`Cache`](crate::cache::Cache) owns the actual store and byte
//! accounting and drives the policy through the trait's lifecycle hooks.

use std::fmt;

use serde::{Deserialize, Serialize};

use webcache_trace::{ByteSize, DocId, DocumentType};

use crate::cost::CostModel;
use crate::float::OrderedF64;

mod arc;
mod fifo;
mod gds;
mod gdsf;
mod gdstar;
mod lfu;
mod lfuda;
mod lru;
mod lruk;
mod s3fifo;
mod size;
mod slru;

pub use arc::Arc;
pub use fifo::Fifo;
pub use gds::Gds;
pub use gdsf::Gdsf;
pub use gdstar::{BetaEstimator, BetaMode, GdStar};
pub use lfu::Lfu;
pub use lfuda::LfuDa;
pub use lru::Lru;
pub use lruk::LruK;
pub use s3fifo::S3Fifo;
pub use size::SizeBased;
pub use slru::Slru;

/// Bookkeeping interface implemented by every replacement scheme.
///
/// The contract, enforced by the cache and checked by the policy
/// conformance tests:
///
/// * `on_insert` is called exactly once for a document entering the cache;
///   the document is not already tracked.
/// * `on_hit` is called for accesses to tracked documents.
/// * `evict` removes and returns the policy's victim; it must return a
///   currently tracked document, and applies any aging side effects
///   (GreedyDual / LFU-DA cache-age updates).
/// * `remove` untracks a document without aging side effects (used for
///   invalidation after a document modification).
pub trait ReplacementPolicy: fmt::Debug + Send {
    /// Human-readable label, e.g. `"GD*(P)"`.
    fn label(&self) -> String;

    /// A document of the given size was inserted into the cache.
    fn on_insert(&mut self, doc: DocId, size: ByteSize);

    /// A tracked document was requested and served from the cache.
    fn on_hit(&mut self, doc: DocId, size: ByteSize);

    /// Type-aware insert hook. The cache calls this variant (it knows
    /// every document's [`DocumentType`]); the default forwards to
    /// [`ReplacementPolicy::on_insert`]. Only type-aware schemes (GD\*
    /// with per-type β) override it.
    fn on_insert_typed(&mut self, doc: DocId, size: ByteSize, doc_type: DocumentType) {
        let _ = doc_type;
        self.on_insert(doc, size);
    }

    /// Type-aware hit hook; the default forwards to
    /// [`ReplacementPolicy::on_hit`].
    fn on_hit_typed(&mut self, doc: DocId, size: ByteSize, doc_type: DocumentType) {
        let _ = doc_type;
        self.on_hit(doc, size);
    }

    /// Chooses, untracks and returns the eviction victim.
    ///
    /// Returns `None` when no documents are tracked.
    fn evict(&mut self) -> Option<DocId>;

    /// Untracks `doc` without any aging side effects.
    ///
    /// Called when a document is invalidated (e.g. modified at the origin
    /// server). Unknown documents are ignored.
    fn remove(&mut self, doc: DocId);

    /// Number of tracked documents.
    fn len(&self) -> usize;

    /// Whether no documents are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Announces that document handles will be dense slots `0..n`, so
    /// slot-indexed state can be sized once up front instead of growing
    /// on demand. Purely an optimization hint; the default does nothing.
    fn reserve_slots(&mut self, n: usize) {
        let _ = n;
    }
}

/// The slot a document handle indexes in per-document vectors.
///
/// Policies store per-document state in plain vectors indexed by
/// `doc.as_u64()`: the [`Cache`](crate::Cache) interns every real
/// document id to a dense slot before calling the policy hooks, so these
/// values are small contiguous integers, never sparse 64-bit ids.
#[inline]
pub(crate) fn slot_of(doc: DocId) -> usize {
    doc.as_u64() as usize
}

/// Grows `vec` with `fill` until `index` is in bounds, then returns the
/// element — the on-demand counterpart of
/// [`ReplacementPolicy::reserve_slots`].
#[inline]
pub(crate) fn slot_entry<T: Copy>(vec: &mut Vec<T>, index: usize, fill: T) -> &mut T {
    if index >= vec.len() {
        vec.resize(index + 1, fill);
    }
    &mut vec[index]
}

/// A heap key combining a priority value with a deterministic tie-breaker.
///
/// Smaller values evict first; among equal values, the smaller `tie` (the
/// older event) evicts first, making every policy fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PriorityKey {
    pub value: OrderedF64,
    pub tie: u64,
}

impl PriorityKey {
    pub(crate) fn new(value: f64, tie: u64) -> Self {
        PriorityKey {
            value: OrderedF64::new(value),
            tie,
        }
    }
}

/// Identifies a replacement scheme; used to configure sweeps and to
/// construct policies.
///
/// [`PolicyKind::build`] is the single construction entry point — callers
/// never juggle the per-scheme constructors (`Gds::new(cost_model)`,
/// `GdStar::new(cost_model, mode)`, `LruK::two()`, …) directly.
///
/// ```
/// use webcache_core::{CostModel, PolicyKind};
///
/// let policy = PolicyKind::GdStar(CostModel::Packet).build();
/// assert_eq!(policy.label(), "GD*(P)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Least Recently Used.
    Lru,
    /// First In First Out.
    Fifo,
    /// Least Frequently Used (no aging; prone to cache pollution).
    Lfu,
    /// Evict the largest document first (SIZE, Williams et al.).
    SizeBased,
    /// Least Frequently Used with Dynamic Aging.
    LfuDa,
    /// Segmented LRU (two recency segments; promotion on re-reference).
    Slru,
    /// LRU-2: evict by backward-2 reference distance (O'Neil et al.).
    LruTwo,
    /// GreedyDual-Size under the given cost model.
    Gds(CostModel),
    /// GreedyDual-Size-Frequency under the given cost model (the β = 1
    /// special case of GreedyDual\*, as deployed in Squid).
    Gdsf(CostModel),
    /// GreedyDual\* under the given cost model, with online-adaptive β.
    GdStar(CostModel),
    /// Adaptive Replacement Cache (Megiddo & Modha): recency/frequency
    /// balance learned online from ghost-list hits.
    Arc,
    /// S3-FIFO (Yang et al.): small/main/ghost FIFO queues with 2-bit
    /// access counters; scan-resistant without any reordering.
    S3Fifo,
}

impl PolicyKind {
    /// The four schemes of the paper's constant-cost experiments
    /// (Figure 2): LRU, LFU-DA, GDS(1), GD\*(1).
    pub const PAPER_CONSTANT: [PolicyKind; 4] = [
        PolicyKind::Lru,
        PolicyKind::LfuDa,
        PolicyKind::Gds(CostModel::Constant),
        PolicyKind::GdStar(CostModel::Constant),
    ];

    /// The four schemes of the paper's packet-cost experiments
    /// (Figure 3): LRU, LFU-DA, GDS(P), GD\*(P).
    pub const PAPER_PACKET: [PolicyKind; 4] = [
        PolicyKind::Lru,
        PolicyKind::LfuDa,
        PolicyKind::Gds(CostModel::Packet),
        PolicyKind::GdStar(CostModel::Packet),
    ];

    /// Every kind, for exhaustive tests.
    pub const ALL: [PolicyKind; 15] = [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Lfu,
        PolicyKind::SizeBased,
        PolicyKind::LfuDa,
        PolicyKind::Slru,
        PolicyKind::LruTwo,
        PolicyKind::Gds(CostModel::Constant),
        PolicyKind::Gds(CostModel::Packet),
        PolicyKind::Gdsf(CostModel::Constant),
        PolicyKind::Gdsf(CostModel::Packet),
        PolicyKind::GdStar(CostModel::Constant),
        PolicyKind::GdStar(CostModel::Packet),
        PolicyKind::Arc,
        PolicyKind::S3Fifo,
    ];

    /// Constructs a fresh policy instance of this kind.
    ///
    /// This is the only construction path the rest of the workspace uses;
    /// the per-scheme constructors remain available for code that needs
    /// non-default parameters (a fixed β, K ≠ 2, …).
    pub fn build(&self) -> Box<dyn ReplacementPolicy> {
        self.build_instrumented(())
    }

    /// Constructs a fresh policy instance routing internal events
    /// (heap-operation costs, inflation steps) into `sink`.
    ///
    /// The list-based schemes (LRU, FIFO, SLRU, LRU-2) maintain no
    /// priority heap and report no events — the sink is dropped for
    /// them. ARC and S3-FIFO are heap-free too but do report eviction
    /// *reasons* (queue provenance) through the sink's `evict_reason`
    /// channel. `build_instrumented(())` is exactly
    /// [`PolicyKind::build`].
    pub fn build_instrumented<M: webcache_obs::MetricsSink>(
        &self,
        sink: M,
    ) -> Box<dyn ReplacementPolicy> {
        match *self {
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Fifo => Box::new(Fifo::new()),
            PolicyKind::Lfu => Box::new(Lfu::with_sink(sink)),
            PolicyKind::SizeBased => Box::new(SizeBased::with_sink(sink)),
            PolicyKind::LfuDa => Box::new(LfuDa::with_sink(sink)),
            PolicyKind::Slru => Box::new(Slru::new()),
            PolicyKind::LruTwo => Box::new(LruK::two()),
            PolicyKind::Gds(cost) => Box::new(Gds::with_sink(cost, sink)),
            PolicyKind::Gdsf(cost) => Box::new(Gdsf::with_sink(cost, sink)),
            PolicyKind::GdStar(cost) => {
                Box::new(GdStar::with_sink(cost, BetaMode::default(), sink))
            }
            PolicyKind::Arc => Box::new(Arc::with_sink(sink)),
            PolicyKind::S3Fifo => Box::new(S3Fifo::with_sink(sink)),
        }
    }

    /// Parses a policy name as used on command lines and in config
    /// files. Accepts the paper's labels (case-insensitive, `*` or
    /// `star`): `lru`, `fifo`, `lfu`, `size`, `lfu-da`, `slru`,
    /// `gds(1)`, `gds(p)`, `gdsf(1)`, `gdsf(p)`, `gd*(1)`, `gd*(p)`
    /// (parentheses optional).
    ///
    /// ```
    /// use webcache_core::{CostModel, PolicyKind};
    /// assert_eq!(PolicyKind::parse("gd*(p)"), Some(PolicyKind::GdStar(CostModel::Packet)));
    /// assert_eq!(PolicyKind::parse("LFU-DA"), Some(PolicyKind::LfuDa));
    /// assert_eq!(PolicyKind::parse("nonsense"), None);
    /// ```
    pub fn parse(name: &str) -> Option<PolicyKind> {
        let normalized: String = name
            .to_ascii_lowercase()
            .chars()
            .filter(|c| !matches!(c, '(' | ')' | '-' | '_' | ' '))
            .collect();
        let normalized = normalized.replace("star", "*");
        Some(match normalized.as_str() {
            "lru" => PolicyKind::Lru,
            "fifo" => PolicyKind::Fifo,
            "lfu" => PolicyKind::Lfu,
            "size" => PolicyKind::SizeBased,
            "lfuda" => PolicyKind::LfuDa,
            "slru" => PolicyKind::Slru,
            "lru2" | "lruk" => PolicyKind::LruTwo,
            "gds" | "gds1" => PolicyKind::Gds(CostModel::Constant),
            "gdsp" => PolicyKind::Gds(CostModel::Packet),
            "gdsf" | "gdsf1" => PolicyKind::Gdsf(CostModel::Constant),
            "gdsfp" => PolicyKind::Gdsf(CostModel::Packet),
            "gd*" | "gd*1" => PolicyKind::GdStar(CostModel::Constant),
            "gd*p" => PolicyKind::GdStar(CostModel::Packet),
            "arc" => PolicyKind::Arc,
            "s3fifo" => PolicyKind::S3Fifo,
            _ => return None,
        })
    }

    /// The label the paper uses for this scheme.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Lru => "LRU".to_owned(),
            PolicyKind::Fifo => "FIFO".to_owned(),
            PolicyKind::Lfu => "LFU".to_owned(),
            PolicyKind::SizeBased => "SIZE".to_owned(),
            PolicyKind::LfuDa => "LFU-DA".to_owned(),
            PolicyKind::Slru => "SLRU".to_owned(),
            PolicyKind::LruTwo => "LRU-2".to_owned(),
            PolicyKind::Gds(cost) => format!("GDS({})", cost.tag()),
            PolicyKind::Gdsf(cost) => format!("GDSF({})", cost.tag()),
            PolicyKind::GdStar(cost) => format!("GD*({})", cost.tag()),
            PolicyKind::Arc => "ARC".to_owned(),
            PolicyKind::S3Fifo => "S3-FIFO".to_owned(),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(PolicyKind::Lru.label(), "LRU");
        assert_eq!(PolicyKind::LfuDa.label(), "LFU-DA");
        assert_eq!(PolicyKind::Gds(CostModel::Constant).label(), "GDS(1)");
        assert_eq!(PolicyKind::Gds(CostModel::Packet).label(), "GDS(P)");
        assert_eq!(PolicyKind::GdStar(CostModel::Constant).label(), "GD*(1)");
        assert_eq!(PolicyKind::GdStar(CostModel::Packet).to_string(), "GD*(P)");
    }

    #[test]
    fn build_labels_agree_with_kind() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().label(), kind.label());
        }
    }

    #[test]
    fn default_impls_match_the_paper_defaults() {
        assert_eq!(Gds::default().label(), "GDS(1)");
        assert_eq!(Gdsf::default().label(), "GDSF(1)");
        assert_eq!(GdStar::default().label(), "GD*(1)");
        assert_eq!(LruK::default().k(), 2);
        assert_eq!(Lru::default().label(), "LRU");
        assert_eq!(Slru::default().label(), "SLRU");
    }

    /// Trait-contract conformance for every policy: insert/hit/evict/remove
    /// keep `len` consistent, eviction drains exactly the tracked set, and
    /// removed documents are never chosen as victims.
    #[test]
    fn conformance_lifecycle() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build();
            assert!(p.is_empty(), "{kind}");
            assert_eq!(p.evict(), None, "{kind}");

            for i in 0..10 {
                p.on_insert(doc(i), ByteSize::new(100 * (i + 1)));
            }
            assert_eq!(p.len(), 10, "{kind}");
            p.on_hit(doc(3), ByteSize::new(400));
            p.on_hit(doc(3), ByteSize::new(400));
            p.remove(doc(5));
            p.remove(doc(5)); // idempotent
            assert_eq!(p.len(), 9, "{kind}");

            let mut victims = Vec::new();
            while let Some(v) = p.evict() {
                victims.push(v.as_u64());
            }
            victims.sort_unstable();
            assert_eq!(
                victims,
                vec![0, 1, 2, 3, 4, 6, 7, 8, 9],
                "{kind}: eviction must drain exactly the tracked set"
            );
            assert!(p.is_empty(), "{kind}");
        }
    }

    #[test]
    fn parse_roundtrips_every_label() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(&kind.label()), Some(kind), "{kind}");
        }
        // Forgiving spellings.
        assert_eq!(
            PolicyKind::parse("GDStar(P)"),
            Some(PolicyKind::GdStar(CostModel::Packet))
        );
        assert_eq!(
            PolicyKind::parse("gds_1"),
            Some(PolicyKind::Gds(CostModel::Constant))
        );
        assert_eq!(PolicyKind::parse("lfu da"), Some(PolicyKind::LfuDa));
        assert_eq!(PolicyKind::parse(""), None);
        assert_eq!(PolicyKind::parse("gdq"), None);
    }

    #[test]
    fn priority_key_orders_by_value_then_tie() {
        let a = PriorityKey::new(1.0, 5);
        let b = PriorityKey::new(1.0, 6);
        let c = PriorityKey::new(2.0, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn instrumented_build_matches_plain_build_and_records_events() {
        use std::collections::HashSet;
        use webcache_obs::{PolicyProbe, Registry};
        use webcache_trace::ByteSize;

        for kind in PolicyKind::ALL {
            let registry = Registry::new();
            let probe = PolicyProbe::register(&registry, &kind.label());
            let mut plain = kind.build();
            let mut probed = kind.build_instrumented(probe);
            // Drive both instances with the same access sequence: the sink
            // must not perturb policy decisions.
            let mut tracked: HashSet<u64> = HashSet::new();
            for i in 0u64..400 {
                let slot = (i * 31) % 40;
                let d = webcache_trace::DocId::new(slot);
                let s = ByteSize::new(64 + (i * 97) % 4096);
                if tracked.insert(slot) {
                    plain.on_insert(d, s);
                    probed.on_insert(d, s);
                } else {
                    plain.on_hit(d, s);
                    probed.on_hit(d, s);
                }
                if i % 9 == 0 {
                    let a = plain.evict();
                    let b = probed.evict();
                    assert_eq!(a, b, "{kind} diverged at step {i}");
                    if let Some(v) = a {
                        tracked.remove(&v.as_u64());
                    }
                }
                assert_eq!(plain.len(), probed.len(), "{kind} at step {i}");
            }
            // Heap-backed policies must have reported operations; the
            // list-based ones drop the sink and report nothing.
            let heap_backed = !matches!(
                kind,
                PolicyKind::Lru
                    | PolicyKind::Fifo
                    | PolicyKind::Slru
                    | PolicyKind::LruTwo
                    | PolicyKind::Arc
                    | PolicyKind::S3Fifo
            );
            let text = registry.prometheus_text();
            let ops_reported = text
                .lines()
                .filter(|l| l.starts_with("webcache_heap_ops_total{"))
                .any(|l| !l.ends_with(" 0"));
            assert_eq!(
                ops_reported, heap_backed,
                "{kind}: heap-op metrics mismatch\n{text}"
            );
        }
    }
}
