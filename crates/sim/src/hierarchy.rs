//! Two-level cache hierarchy simulation.
//!
//! The paper frames its two cost models through the proxy's position in
//! the network: institutional (leaf) proxies optimize hit rate, backbone
//! (parent) proxies optimize byte hit rate, and the workload the parent
//! sees is the *miss stream* of the leaves (cf. Mahanti, Williamson &
//! Eager's characterization of proxy hierarchies, cited as \[10\]). This
//! module makes that setting simulable: a row of leaf caches in front of
//! one shared parent cache.
//!
//! Requests are distributed over the leaves round-robin (the trace model
//! carries no client identities; round-robin spreads each document's
//! request chain across leaves, which is the conservative assumption for
//! leaf locality). A leaf miss consults the parent; a parent miss goes
//! to the origin. Both levels store the document on the way back
//! (store-through), and document modifications invalidate every level.

use serde::{Deserialize, Serialize};

use webcache_core::{Cache, PolicyKind, PolicySpec};
use webcache_trace::{ByteSize, DocId, Trace};

use crate::metrics::HitStats;
use crate::simulator::ModificationRule;

/// Configuration of a two-level hierarchy run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Number of leaf (institutional) caches.
    pub leaf_count: usize,
    /// Byte capacity of each leaf cache.
    pub leaf_capacity: ByteSize,
    /// Policy spec of the leaves (admission + replacement).
    pub leaf_policy: PolicySpec,
    /// Byte capacity of the shared parent (backbone) cache.
    pub parent_capacity: ByteSize,
    /// Policy spec of the parent (admission + replacement).
    pub parent_policy: PolicySpec,
    /// Fraction of the trace used for warm-up (not counted).
    pub warmup_fraction: f64,
    /// Modification-detection rule (applied identically at both levels).
    pub modification_rule: ModificationRule,
}

impl HierarchyConfig {
    /// A hierarchy with the paper-motivated defaults: hit-rate-oriented
    /// GD\*(1) leaves and a byte-hit-rate-oriented GD\*(P) parent, 10%
    /// warm-up.
    pub fn new(leaf_count: usize, leaf_capacity: ByteSize, parent_capacity: ByteSize) -> Self {
        use webcache_core::CostModel;
        HierarchyConfig {
            leaf_count,
            leaf_capacity,
            leaf_policy: PolicyKind::GdStar(CostModel::Constant).into(),
            parent_capacity,
            parent_policy: PolicyKind::GdStar(CostModel::Packet).into(),
            warmup_fraction: 0.10,
            modification_rule: ModificationRule::default(),
        }
    }

    /// Overrides the leaf policy (a bare kind or a composed spec).
    #[must_use]
    pub fn with_leaf_policy(mut self, policy: impl Into<PolicySpec>) -> Self {
        self.leaf_policy = policy.into();
        self
    }

    /// Overrides the parent policy (a bare kind or a composed spec).
    #[must_use]
    pub fn with_parent_policy(mut self, policy: impl Into<PolicySpec>) -> Self {
        self.parent_policy = policy.into();
        self
    }

    /// Overrides the warm-up fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction < 1`.
    #[must_use]
    pub fn with_warmup_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..1.0).contains(&fraction), "warm-up fraction in [0,1)");
        self.warmup_fraction = fraction;
        self
    }

    fn validate(&self) {
        assert!(self.leaf_count > 0, "hierarchy needs at least one leaf");
        assert!(
            !self.leaf_capacity.is_zero(),
            "leaf capacity must be positive"
        );
        assert!(
            !self.parent_capacity.is_zero(),
            "parent capacity must be positive"
        );
    }
}

/// The outcome of a hierarchy run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyReport {
    /// Configuration of the run.
    pub config: HierarchyConfig,
    /// Requests resolved at the leaf level (aggregated over leaves).
    pub leaf: HitStats,
    /// Requests that missed a leaf, measured against the parent.
    pub parent: HitStats,
}

impl HierarchyReport {
    /// Fraction of all requests served without contacting the origin
    /// (leaf hit or parent hit) — the end-user view.
    pub fn combined_hit_rate(&self) -> f64 {
        if self.leaf.requests == 0 {
            return 0.0;
        }
        (self.leaf.hits + self.parent.hits) as f64 / self.leaf.requests as f64
    }

    /// Fraction of requested bytes that never crossed the parent–origin
    /// link — the backbone-traffic view.
    pub fn combined_byte_hit_rate(&self) -> f64 {
        if self.leaf.bytes_requested.is_zero() {
            return 0.0;
        }
        (self.leaf.bytes_hit + self.parent.bytes_hit).as_f64() / self.leaf.bytes_requested.as_f64()
    }
}

/// Runs a trace through a two-level hierarchy.
///
/// # Panics
///
/// Panics on an invalid configuration (zero leaves or capacities).
pub fn simulate_hierarchy(trace: &Trace, config: HierarchyConfig) -> HierarchyReport {
    config.validate();
    let cache =
        |capacity, spec: PolicySpec| Cache::new(capacity, spec.replacement.build(), spec.admission);
    let mut leaves: Vec<Cache> = (0..config.leaf_count)
        .map(|_| cache(config.leaf_capacity, config.leaf_policy))
        .collect();
    let mut parent = cache(config.parent_capacity, config.parent_policy);

    let warmup_end = trace.warmup_boundary(config.warmup_fraction);
    let mut leaf_stats = HitStats::default();
    let mut parent_stats = HitStats::default();
    let mut last_transfer: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();

    for (index, request) in trace.iter().enumerate() {
        let doc: DocId = request.doc;
        let transfer = request.size.as_u64();
        let prev = last_transfer.insert(doc.as_u64(), transfer);
        let modified = prev.is_some_and(|p| config.modification_rule.is_modification(p, transfer));

        let (leaf_hit, parent_hit) = if modified {
            // Invalidate the stale copies everywhere.
            for l in leaves.iter_mut() {
                l.invalidate(doc);
            }
            parent.invalidate(doc);
            (false, false)
        } else if leaves[index % config.leaf_count].access(doc) {
            (true, false)
        } else {
            (false, parent.access(doc))
        };

        let leaf = &mut leaves[index % config.leaf_count];
        if !leaf_hit {
            leaf.insert(doc, request.doc_type, request.size);
            if !parent_hit {
                parent.insert(doc, request.doc_type, request.size);
            }
        }

        if index >= warmup_end {
            leaf_stats.record(request.size, leaf_hit);
            if modified {
                leaf_stats.modification_misses += 1;
            }
            if !leaf_hit {
                parent_stats.record(request.size, parent_hit);
            }
        }
    }

    HierarchyReport {
        config,
        leaf: leaf_stats,
        parent: parent_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_trace::{DocumentType, Request, Timestamp};

    fn trace(reqs: &[(u64, u64)]) -> Trace {
        reqs.iter()
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

    fn config(leaves: usize, leaf_cap: u64, parent_cap: u64) -> HierarchyConfig {
        HierarchyConfig::new(leaves, ByteSize::new(leaf_cap), ByteSize::new(parent_cap))
            .with_leaf_policy(PolicyKind::Lru)
            .with_parent_policy(PolicyKind::Lru)
            .with_warmup_fraction(0.0)
    }

    #[test]
    fn leaf_hits_stay_at_leaves() {
        // One leaf: second access to the same doc hits the leaf, never
        // reaching the parent.
        let t = trace(&[(1, 100), (1, 100)]);
        let r = simulate_hierarchy(&t, config(1, 1_000, 1_000));
        assert_eq!(r.leaf.requests, 2);
        assert_eq!(r.leaf.hits, 1);
        assert_eq!(
            r.parent.requests, 1,
            "only the cold miss reached the parent"
        );
        assert_eq!(r.parent.hits, 0);
        assert_eq!(r.combined_hit_rate(), 0.5);
    }

    #[test]
    fn parent_serves_cross_leaf_sharing() {
        // Two leaves, round-robin: requests 0 and 1 go to different
        // leaves. Request 1 misses its leaf but hits the parent, which
        // learned the document from request 0's miss.
        let t = trace(&[(1, 100), (1, 100)]);
        let r = simulate_hierarchy(&t, config(2, 1_000, 1_000));
        assert_eq!(r.leaf.hits, 0);
        assert_eq!(r.parent.requests, 2);
        assert_eq!(r.parent.hits, 1);
        assert_eq!(r.combined_hit_rate(), 0.5);
        assert_eq!(r.combined_byte_hit_rate(), 0.5);
    }

    #[test]
    fn hierarchy_beats_isolated_leaves() {
        // A workload with heavy cross-leaf sharing: every document is
        // requested once per leaf. Without the parent every request
        // would miss; the parent converts all but the first occurrence.
        let reqs: Vec<(u64, u64)> = (0..50u64).flat_map(|d| [(d, 100), (d, 100)]).collect();
        let t = trace(&reqs);
        let with_parent = simulate_hierarchy(&t, config(2, 100_000, 100_000));
        let tiny_parent = simulate_hierarchy(&t, config(2, 100_000, 1));
        assert!(with_parent.combined_hit_rate() > tiny_parent.combined_hit_rate());
        assert_eq!(with_parent.combined_hit_rate(), 0.5);
    }

    #[test]
    fn modifications_invalidate_every_level() {
        // Doc served (100), re-served with a 2% size change: modification
        // — both leaf and parent copies must be dropped, and the
        // follow-up request must miss the leaf but hit the parent only if
        // re-inserted (it was, by the modified request).
        let t = trace(&[(1, 100), (1, 102), (1, 102), (1, 102)]);
        let r = simulate_hierarchy(&t, config(1, 1_000, 1_000));
        // Request 0: cold miss. Request 1: modification miss. Requests
        // 2, 3: leaf hits.
        assert_eq!(r.leaf.hits, 2);
        assert_eq!(r.leaf.modification_misses, 1);
    }

    #[test]
    fn warmup_excludes_early_requests() {
        let t = trace(&[(1, 100), (1, 100), (1, 100), (1, 100)]);
        let r = simulate_hierarchy(&t, config(1, 1_000, 1_000).with_warmup_fraction(0.5));
        assert_eq!(r.leaf.requests, 2);
        assert_eq!(r.leaf.hits, 2);
    }

    #[test]
    fn empty_trace_yields_zero_rates() {
        let r = simulate_hierarchy(&Trace::new(), config(2, 100, 100));
        assert_eq!(r.combined_hit_rate(), 0.0);
        assert_eq!(r.combined_byte_hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn zero_leaves_rejected() {
        let _ = simulate_hierarchy(&Trace::new(), config(0, 100, 100));
    }
}
