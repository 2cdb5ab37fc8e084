//! Byte-level lock on collector egress: the MRT archives `archive_all`
//! produces for the `tiny` world's default workload (seed 2018) must stay
//! the bytes recorded in `fixtures/archive_bytes_tiny_2018.txt` — per
//! collector, the length and FNV-1a digest of the update stream and of the
//! RIB dump.
//!
//! The benchmark pins `mrt.bytes_written` (a length) and
//! `digest.artefacts` (what survives parsing); neither notices two bytes
//! swapped inside a record the reader tolerates. This does. The fixture
//! was recorded at the commit *before* the appending encoders, the scratch
//! update and the sort-based RIB dump replaced the per-record `Vec`s and
//! `BTreeMap`s, so it is the old writer's output, not the new one's
//! opinion of itself.

use bgpworms_routesim::workload::APRIL_2018;
use bgpworms_routesim::{archive_all, Workload, WorkloadParams};
use bgpworms_topology::{addressing::AddressingParams, PrefixAllocation, TopologyParams};
use std::fmt::Write as _;

const SEED: u64 = 2018;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per collector: name, then length and digest of each archive.
fn render() -> String {
    let topo = TopologyParams::tiny().seed(SEED).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        AddressingParams {
            seed: SEED,
            ..AddressingParams::default()
        },
    );
    let params = WorkloadParams {
        seed: SEED,
        ..WorkloadParams::default()
    };
    let workload = Workload::generate(&topo, &alloc, &params);
    let result = workload
        .simulation(&topo)
        .threads(1)
        .compile()
        .run(&workload.originations);
    assert!(result.converged);
    let archives = archive_all(
        &workload.collectors,
        &result.observations,
        APRIL_2018 + 30 * 86_400,
    )
    .expect("archiving into memory cannot fail");
    let mut out = String::new();
    for a in &archives {
        writeln!(
            out,
            "{} updates {} {:016x} rib {} {:016x}",
            a.name,
            a.updates_mrt.len(),
            fnv1a(&a.updates_mrt),
            a.rib_mrt.len(),
            fnv1a(&a.rib_mrt),
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[test]
fn tiny_world_archives_match_the_recorded_bytes() {
    let recorded = include_str!("fixtures/archive_bytes_tiny_2018.txt");
    let got = render();
    assert!(
        got.lines().count() > 1 && !got.contains(" updates 0 "),
        "the fixture world must exercise every collector:\n{got}"
    );
    assert_eq!(
        got, recorded,
        "collector archive bytes drifted from the recorded fixture"
    );
}
