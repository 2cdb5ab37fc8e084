//! The full §4 measurement pipeline, end to end: generate an Internet, run
//! a month-like workload, archive the collectors as MRT, parse the MRT
//! back, and print every §4 statistic — including per-figure series.
//!
//! ```sh
//! cargo run --release --example measure_communities [seed]
//! ```

use bgpworms::analysis::propagation::render_table2;
use bgpworms::prelude::*;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2018);

    // Internet + workload + propagation.
    let topo = TopologyParams::small().seed(seed).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams { seed },
    );
    let workload = Workload::generate(
        &topo,
        &alloc,
        &WorkloadParams {
            seed,
            ..Default::default()
        },
    );
    let sim = workload.simulation(&topo).threads(4).compile();
    let result = sim.run(&workload.originations);

    // Collector MRT out, observation set in.
    let archives = bgpworms::routesim::archive_all(&workload.collectors, &result.observations, 0)
        .expect("in-memory archive");
    let total_mrt: usize = archives.iter().map(|a| a.updates_mrt.len()).sum();
    println!(
        "archived {} collectors, {} bytes of BGP4MP MRT",
        archives.len(),
        total_mrt
    );
    let inputs: Vec<ArchiveInput> = archives.into_iter().map(ArchiveInput::from).collect();
    let set = ObservationSet::from_archives(&inputs).expect("simulator MRT parses");
    println!("parsed {} observations\n", set.observations.len());

    // Table 1.
    println!("--- Table 1: dataset overview ---");
    println!("{}", DatasetOverview::compute(&set).render());

    // Fig 4.
    let usage = UsageAnalysis::compute(&set);
    println!("--- Fig 4: community usage ---");
    println!(
        "updates with >=1 community: {:.1}%   with more than two: {:.1}%",
        usage.overall_fraction * 100.0,
        usage.fraction_more_than(2) * 100.0
    );

    // Fig 5 + Table 2.
    let detector = BlackholeDetector::conventional();
    let prop = PropagationAnalysis::compute(&set, &detector);
    let all = prop.fig5a_all();
    let bh = prop.fig5a_blackhole();
    println!("\n--- Fig 5a: propagation distance ---");
    println!(
        "all communities: n={} median={:?} >4 hops: {:.1}%",
        all.len(),
        all.quantile(0.5),
        (1.0 - all.fraction_at(4.0)) * 100.0
    );
    println!(
        "blackhole subset: n={} median={:?}",
        bh.len(),
        bh.quantile(0.5)
    );
    println!("\n--- Table 2: ASes with observed communities ---");
    println!("{}", render_table2(&prop.table2));
    println!(
        "transit forwarders: {}/{} ({:.1}%)",
        prop.forwarders.len(),
        prop.transit_ases.len(),
        prop.forwarder_fraction() * 100.0
    );

    // Fig 5c.
    let tv = TopValues::compute(&set);
    println!("\n--- Fig 5c: top community values ---");
    println!("{}", tv.render(10));

    // Fig 6.
    let filt = FilteringAnalysis::compute(&set);
    let (fwd, fil) = filt.fractions(0);
    println!("--- Fig 6: filtering inference ---");
    println!(
        "of {} observed AS edges: {:.1}% show forwarding, {:.1}% show filtering \
         ({} strict forwarders, {} strict filterers, {} mixed)",
        filt.all_edges.len(),
        fwd * 100.0,
        fil * 100.0,
        filt.strict_forwarders().count(),
        filt.strict_filterers().count(),
        filt.mixed().count()
    );
}
