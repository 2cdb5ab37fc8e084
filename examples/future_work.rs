//! The paper's future-work agenda, executed: the §7.6 "likely" blackhole
//! corpus, non-RTBH (steering) surveys with path-change inference, the
//! §7.7 fake-location injection, the §4.4 filtering-vs-relationship
//! correlation, and the footnote-1 RFC 8092 large-community channel.
//!
//! ```sh
//! cargo run --release --example future_work
//! ```

use bgpworms::analysis::{
    FilteringAnalysis, LargeCommunityAnalysis, RelClass, RelationshipCorrelation,
};
use bgpworms::attacks::wild::{extended_survey, survey::SurveyParams};
use bgpworms::monitor::groundtruth::feed_set;
use bgpworms::prelude::*;
use bgpworms::topology::Role;

fn survey_params() -> SurveyParams {
    SurveyParams {
        topo: TopologyParams::small().seed(2018),
        workload: WorkloadParams {
            blackhole_service_prob: 0.7,
            steering_service_prob: 0.6,
            location_tag_prob: 0.5,
            ..WorkloadParams::default()
        },
        n_vps: 60,
        max_communities: 120,
        verify_repeatability: false,
    }
}

fn main() {
    println!("== §7.6 future work: the 'likely' (unverified) corpus ==\n");
    let report = extended_survey::likely_survey(&survey_params());
    println!(
        "verified corpus: {:>3} tested, {:>2} effective ({:.0}%)",
        report.verified.tested,
        report.verified.effective,
        report.verified.effective_fraction() * 100.0
    );
    println!(
        "likely corpus:   {:>3} tested, {:>2} effective ({:.0}%)",
        report.likely.tested,
        report.likely.effective,
        report.likely.effective_fraction() * 100.0
    );
    println!(
        "\nThe verification step of Giotsas et al. is what makes the survey\n\
         meaningful: blackhole-shaped candidates without a service behind them\n\
         are inert.\n"
    );

    println!("== §7.6 limitations: non-RTBH communities need subtler inference ==\n");
    let steering = extended_survey::steering_survey(&survey_params());
    println!(
        "prepend communities tested: {}; with a visible path change: {} ({:.0}%)",
        steering.tested,
        steering.effective.len(),
        steering.effective_fraction() * 100.0
    );
    println!(
        "vantage points that lost reachability: {} — the binary ping test the\n\
         RTBH survey uses would have reported *nothing*; only the per-VP\n\
         traceroute diff exposes the steering effect.\n",
        steering.reachability_lost
    );

    println!("== §7.7: injecting contradictory location communities ==\n");
    match extended_survey::location_injection(&survey_params()) {
        Some(r) => {
            println!(
                "injected {} and {} on one announcement ('LAX' per {}, 'FRA' per {});",
                r.injected[0],
                r.injected[1],
                r.injected[0].owner(),
                r.injected[1].owner()
            );
            println!(
                "{} of {} collectors observed the prefix; {} saw both contradictory\n\
                 tags intact — \"we cannot exclude that other operators may rely on\n\
                 community-based location information in unanticipated ways.\"\n",
                r.collectors_observing, r.total_collectors, r.collectors_with_contradiction
            );
        }
        None => println!("no location-tagging ASes in this workload\n"),
    }

    println!("== §4.4 future work: filtering vs business relationship ==\n");
    let topo = TopologyParams::small().seed(2018).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams { seed: 2018 },
    );
    let workload = Workload::generate(&topo, &alloc, &WorkloadParams::default());
    let sim = workload.simulation(&topo).threads(4).compile();
    let result = sim.run(&workload.originations);
    let set = feed_set(&workload.collectors, &result.observations);
    let filters = FilteringAnalysis::compute(&set);
    let corr = RelationshipCorrelation::compute(&filters, |exporter, importer| {
        match topo.role_of(exporter, importer) {
            Some(Role::Customer) => Some(RelClass::ToCustomer),
            Some(Role::Provider) => Some(RelClass::ToProvider),
            Some(Role::Peer) => Some(RelClass::Peer),
            None if topo.shared_ixp(exporter, importer).is_some() => Some(RelClass::Peer),
            None => None,
        }
    });
    print!("{}", corr.render());
    println!(
        "\nEven with ground-truth relationships the classes barely separate —\n\
         the paper's finding that CAIDA's classification is \"too coarse\n\
         grained\" is a property of the problem, not of the dataset.\n"
    );

    println!("== Footnote 1: the RFC 8092 large-community channel ==\n");
    let topo4 = TopologyParams::small()
        .seed(2018)
        .four_byte_stubs(0.15)
        .build();
    let alloc4 = PrefixAllocation::assign(
        &topo4,
        bgpworms::topology::addressing::AddressingParams { seed: 2018 },
    );
    let params4 = WorkloadParams {
        large_community_adoption: 0.8,
        ..WorkloadParams::default()
    };
    let workload4 = Workload::generate(&topo4, &alloc4, &params4);
    let sim4 = workload4.simulation(&topo4).threads(4).compile();
    let result4 = sim4.run(&workload4.originations);
    let set4 = feed_set(&workload4.collectors, &result4.observations);
    print!("{}", LargeCommunityAnalysis::compute(&set4).render());
    println!(
        "\nWith RFC 8092 adopted, 4-byte-ASN networks tag under their own name\n\
         instead of hiding in the anonymous private-ASN bundles of §4.3 — the\n\
         same transitive-propagation worms apply, but at least attribution works."
    );
}
