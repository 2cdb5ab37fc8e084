//! Quickstart: generate a small Internet, run a month-like workload, and
//! print the paper's headline community statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bgpworms::monitor::groundtruth::feed_set;
use bgpworms::prelude::*;

fn main() {
    // 1. A ~130-AS Internet: tier-1 clique, transit hierarchy, stubs, IXPs.
    let topo = TopologyParams::small().seed(42).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams::default(),
    );
    println!(
        "topology: {} ASes, {} prefixes ({} IPv4 / {} IPv6)",
        topo.len(),
        alloc.len(),
        alloc.v4_count(),
        alloc.v6_count()
    );

    // 2. A policy workload: per-AS community handling, services, collectors.
    let workload = Workload::generate(&topo, &alloc, &WorkloadParams::default());
    println!(
        "workload: {} origination episodes, {} collectors",
        workload.originations.len(),
        workload.collectors.len()
    );

    // 3. Propagate everything to convergence.
    let sim = workload.simulation(&topo).threads(4).compile();
    let result = sim.run(&workload.originations);
    println!(
        "propagation: {} update events, converged = {}",
        result.events, result.converged
    );

    // 4. Read what the collectors heard — the feed the analysis pipeline
    //    takes, the same set their MRT archives would parse to.
    let set = feed_set(&workload.collectors, &result.observations);

    // 5. The paper's §4 numbers.
    let usage = UsageAnalysis::compute(&set);
    println!(
        "\ncommunity usage: {:.1}% of updates carry >=1 community \
         ({:.1}% carry more than two)",
        usage.overall_fraction * 100.0,
        usage.fraction_more_than(2) * 100.0
    );

    let analysis = PropagationAnalysis::compute(&set, &BlackholeDetector::conventional());
    let all = analysis.fig5a_all();
    println!(
        "propagation: {:.1}% of communities travel more than four AS hops",
        (1.0 - all.fraction_at(4.0)) * 100.0
    );
    println!(
        "transit forwarders: {} of {} transit ASes relay foreign communities ({:.1}%)",
        analysis.forwarders.len(),
        analysis.transit_ases.len(),
        analysis.forwarder_fraction() * 100.0
    );

    let overview = DatasetOverview::compute(&set);
    println!("\nTable 1 analogue:\n{}", overview.render());
}
