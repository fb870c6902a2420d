//! Quickstart: generate a small DFN-like workload, simulate two
//! replacement schemes, and compare their per-type hit rates.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use webcache::prelude::*;

fn main() {
    // 1. A DFN-like workload at 1/512 of the original scale
    //    (≈ 13 000 requests) — deterministic given the seed.
    let profile = WorkloadProfile::dfn().scaled(1.0 / 512.0);
    let trace = profile.build_trace(42);
    println!(
        "workload: {} requests, {} distinct documents, {} requested",
        trace.len(),
        trace.distinct_documents(),
        trace.requested_bytes(),
    );

    // 2. Simulate LRU and GreedyDual* on the same trace with a cache
    //    sized at 5% of the total trace volume.
    let capacity = trace.overall_size().scale(0.05);
    println!("cache capacity: {capacity}\n");

    for kind in [PolicyKind::Lru, PolicyKind::GdStar(CostModel::Constant)] {
        let config = SimulationConfig::new(capacity);
        let report = Simulator::new(kind.build(), config).run(&trace);
        let overall = report.overall();
        println!(
            "{:8}  hit rate {:.3}  byte hit rate {:.3}",
            report.policy,
            overall.hit_rate(),
            overall.byte_hit_rate(),
        );
        for ty in DocumentType::MAIN {
            let stats = report.by_type()[ty];
            println!(
                "          {:12} hr {:.3}  bhr {:.3}  ({} requests)",
                ty.label(),
                stats.hit_rate(),
                stats.byte_hit_rate(),
                stats.requests,
            );
        }
        println!();
    }
}
