//! The metrics the benchmark emits: names and units, and the bounds of the
//! end-to-end ones. This table and `BENCHMARK.json`, which also says which
//! way each metric is better, must agree; a unit test holds them together.

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

/// An end-to-end metric; all of them are lower-is-better.
const fn end_to_end(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, bound }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: 0.0,
    }
}

/// What a user of the system sees, per workload. Printed with `--trace 0`.
///
/// The driver wants a bound of at least three times the spread a set of ten
/// runs shows, and at most 0.25. Peak memory is steady to 3 % and keeps the
/// 0.10 the issue that asked for this benchmark set. The two times are not:
/// on the box this was written on, a neighbour on the same cores slows
/// identical passes by 5 to 15 % for minutes at a time, sets of ten runs of
/// the same code showed `pass_s` spreads of 4 to 11 %, and their medians
/// differed by up to 6 % (README, "Noise", and `REPEATABILITY.md`).
pub const END_TO_END: &[MetricDef] = &[
    end_to_end("pass_s", "s", 0.25),
    end_to_end("setup_s", "s", 0.25),
    end_to_end("peak_rss_mb", "MB", 0.10),
];

/// Single layers. Printed with `--trace 1`. A time `<layer>.<call>_s` is
/// the self time of the spans named `<layer>.<call>`; a count is exact and
/// pinned by `expected/<seed>.json` where marked `*` in the README.
pub const PER_LAYER: &[MetricDef] = &[
    layer("topology.build_s", "s"),
    layer("topology.assign_s", "s"),
    layer("topology.deaggregate_s", "s"),
    layer("topology.nodes", "count"),
    layer("topology.edges", "count"),
    layer("routesim.workload_generate_s", "s"),
    layer("routesim.compile_s", "s"),
    layer("routesim.run_s", "s"),
    layer("routesim.events", "count"),
    layer("routesim.observations", "count"),
    layer("routesim.ns_per_event", "ns"),
    layer("routesim.archive_s", "s"),
    layer("routesim.classify_s", "s"),
    layer("routesim.classes", "count"),
    layer("routesim.class_sims", "count"),
    layer("routesim.class_hits", "count"),
    layer("routesim.class_hit_rate", "ratio"),
    layer("routesim.campaign_run_s", "s"),
    layer("routesim.ms_per_flood", "ms"),
    layer("routesim.replay_us_per_prefix", "us"),
    layer("routesim.checkpoint_roundtrip_us", "us"),
    layer("routesim.checkpoint_bytes", "bytes"),
    layer("routesim.diverged", "count"),
    layer("routesim.quarantined", "count"),
    layer("routesim.flood_ms_p50", "ms"),
    layer("routesim.flood_ms_p90", "ms"),
    layer("routesim.flood_mt_ms_p50", "ms"),
    layer("routesim.intra_flood_speedup", "ratio"),
    layer("routesim.campaign_mt_s", "s"),
    layer("routesim.campaign_parallel_efficiency", "ratio"),
    layer("routesim.snapshot_ms_p50", "ms"),
    layer("routesim.delta_ms_p50", "ms"),
    layer("routesim.delta_ms_p90", "ms"),
    layer("routesim.delta_events", "count"),
    layer("routesim.delta_vs_fresh", "ratio"),
    layer("mrt.bytes_written", "bytes"),
    layer("mrt.write_mb_per_s", "MB/s"),
    layer("mrt.read_raw_s", "s"),
    layer("mrt.read_mb_per_s", "MB/s"),
    layer("mrt.records_read", "count"),
    layer("mrt.lossy_read_s", "s"),
    layer("mrt.lossy_skipped", "count"),
    layer("mrt.rib_read_s", "s"),
    layer("mrt.rib_records", "count"),
    layer("wire.decode_ns_per_update", "ns"),
    layer("wire.encode_ns_per_update", "ns"),
    layer("wire.bytes_per_update", "bytes"),
    layer("core.observation_parse_s", "s"),
    layer("core.dataset_s", "s"),
    layer("core.usage_s", "s"),
    layer("core.propagation_s", "s"),
    layer("core.values_s", "s"),
    layer("core.filtering_s", "s"),
    layer("core.render_s", "s"),
    layer("core.artefact_bytes", "bytes"),
    layer("monitor.hygiene_s", "s"),
    layer("monitor.detector_sweep_benign_s", "s"),
    layer("monitor.detector_sweep_attack_s", "s"),
    layer("monitor.dictionary_infer_s", "s"),
    layer("monitor.tagger_s", "s"),
    layer("monitor.alerts", "count"),
    layer("monitor.recall_bp", "bp"),
    layer("monitor.precision_bp", "bp"),
    layer("attacks.lab_s", "s"),
    layer("attacks.propagation_check_s", "s"),
    layer("attacks.rtbh_s", "s"),
    layer("attacks.steering_s", "s"),
    layer("attacks.routeserver_s", "s"),
    layer("attacks.survey_build_s", "s"),
    layer("attacks.survey_s", "s"),
    layer("attacks.survey_steering_s", "s"),
    layer("attacks.survey_location_s", "s"),
    layer("attacks.candidates", "count"),
    layer("dataplane.fib_with_ms_p50", "ms"),
    layer("dataplane.ping_campaign_ms_p50", "ms"),
    layer("dataplane.trace_us_p50", "us"),
    layer("dataplane.pings", "count"),
    layer("trace.pass_s", "s"),
    layer("trace.overhead_ratio", "ratio"),
    layer("trace.layer_coverage", "ratio"),
    layer("trace.spans", "count"),
    layer("host.nproc", "count"),
    layer("host.loadavg1", "load"),
];

/// True for names made of letters, digits, `_`, `.` and `-` that start
/// with a letter or digit and are at most 64 long.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
