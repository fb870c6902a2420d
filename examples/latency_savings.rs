//! User-perceived latency: what the hit-rate differences between
//! replacement schemes mean for end users — the institutional-proxy
//! objective the paper attributes to the constant cost model.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example latency_savings
//! ```

use webcache::prelude::*;
use webcache::sim::LatencyModel;

fn main() {
    let trace = WorkloadProfile::dfn().scaled(1.0 / 512.0).build_trace(21);
    let capacity = trace.overall_size().scale(0.05);
    let model = LatencyModel::campus_2001();

    println!(
        "workload: {} requests; cache {capacity}; campus-2001 link model\n",
        trace.len()
    );
    println!(
        "{:8} {:>9} {:>14} {:>12} {:>9}",
        "policy", "hit rate", "mean ms/req", "total saved", "speedup"
    );
    for kind in [
        PolicyKind::Lru,
        PolicyKind::LfuDa,
        PolicyKind::Gds(CostModel::Constant),
        PolicyKind::GdStar(CostModel::Constant),
    ] {
        let report = Simulator::new(kind.build(), SimulationConfig::new(capacity)).run(&trace);
        let latency = model.estimate(&report);
        println!(
            "{:8} {:>9.3} {:>14.1} {:>11.1}% {:>8.2}x",
            report.policy,
            report.overall().hit_rate(),
            latency.mean_ms(),
            latency.savings() * 100.0,
            latency.speedup(),
        );
    }

    println!(
        "\nThe hit-rate ordering carries over to latency directly: every extra\n\
         percentage point of hit rate removes one slow origin round-trip per\n\
         hundred requests."
    );
}
