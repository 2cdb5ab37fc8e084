//! Fault-injection property suite: deterministic crashes, retries,
//! quarantine, and durable-checkpoint resume.
//!
//! The contract under test (see `ARCHITECTURE.md` and the `campaign`
//! module docs):
//!
//! * a simulated **crash** at *every* registered fault site
//!   ([`fault_site::ALL`]), followed by a restore from the durably
//!   persisted checkpoint text, reproduces the uninterrupted campaign
//!   **byte for byte** — same `CampaignRun`, same final checkpoint JSON —
//!   across worker-thread counts;
//! * a **transient** per-prefix fault under [`FaultPolicy::Retry`] is
//!   invisible in results;
//! * a **permanently poisoned** prefix under [`FaultPolicy::Quarantine`]
//!   is reported structurally while the rest of the schedule completes,
//!   and the report survives checkpoint round trips;
//! * **budget starvation** degrades gracefully into a structured
//!   `diverged` tally, identical to the unmemoized reference's;
//! * injected crashes are **never** retried in-process — only the durable
//!   checkpoint layer survives them.

use bgpworms_failpoint::{crash_payload, FaultKind, FaultPlan};
use bgpworms_routesim::{
    fault_site, panic_message, prefix_fault_key, Campaign, CampaignCheckpoint, CampaignRun,
    CampaignSink, CompiledSim, DurableSink, FaultPolicy, Origination, PrefixOutcome, RetainRoutes,
    SimSpec,
};
use bgpworms_topology::{PrefixAllocation, Topology, TopologyParams};
use bgpworms_types::Prefix;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The fault sites a campaign advance visits; crash-resume is driven
/// through the durable checkpoint loop for each of these.
const CAMPAIGN_SITES: &[&str] = &[
    fault_site::ENGINE_FLOOD,
    fault_site::CHUNK_CLAIM,
    fault_site::PREFIX,
    fault_site::SINK_FOLD,
    fault_site::SINK_MERGE,
    fault_site::CHECKPOINT_SAVE,
];

/// The sites only the snapshot/delta layer visits (campaigns never
/// capture or restore snapshots — see the campaign module docs).
const SNAPSHOT_SITES: &[&str] = &[fault_site::SNAPSHOT_CAPTURE, fault_site::SNAPSHOT_RESTORE];

#[test]
fn every_registered_site_is_covered_by_exactly_one_suite() {
    let mut covered: Vec<&str> = CAMPAIGN_SITES
        .iter()
        .chain(SNAPSHOT_SITES)
        .copied()
        .collect();
    covered.sort_unstable();
    let mut all: Vec<&str> = fault_site::ALL.to_vec();
    all.sort_unstable();
    assert_eq!(
        covered, all,
        "a fault site was registered without crash-resume coverage (or covered twice)"
    );
}

/// Order-sensitive *durable* sink: records the exact fold/merge call
/// sequence (so any nondeterminism shows up as a sequence diff) and
/// round-trips through a line-oriented text encoding.
#[derive(Debug, Default, Clone, PartialEq)]
struct Ledger {
    calls: Vec<String>,
    events: u64,
    routes: u64,
}

impl CampaignSink for Ledger {
    fn fold(&mut self, prefix: Prefix, outcome: PrefixOutcome) {
        self.calls.push(format!("fold {prefix}"));
        self.events += outcome.events;
        self.routes += outcome.final_routes.map(|r| r.len() as u64).unwrap_or(0);
    }
    fn merge(&mut self, other: Self) {
        self.calls.push("merge".into());
        self.calls.extend(other.calls);
        self.events += other.events;
        self.routes += other.routes;
    }
}

impl DurableSink for Ledger {
    fn encode(&self) -> String {
        let mut out = format!("{} {}", self.events, self.routes);
        for call in &self.calls {
            out.push('\n');
            out.push_str(call);
        }
        out
    }
    fn decode(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| "empty Ledger text".to_string())?;
        let (events, routes) = header
            .split_once(' ')
            .ok_or_else(|| "Ledger header missing separator".to_string())?;
        Ok(Ledger {
            events: events
                .parse()
                .map_err(|e| format!("bad Ledger event count: {e}"))?,
            routes: routes
                .parse()
                .map_err(|e| format!("bad Ledger route count: {e}"))?,
            calls: lines.map(str::to_string).collect(),
        })
    }
}

fn world() -> (Topology, Vec<Origination>) {
    let topo = TopologyParams::tiny().seed(6).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms_topology::addressing::AddressingParams::default(),
    );
    let eps: Vec<Origination> = alloc
        .iter()
        .map(|(asn, prefix)| Origination::announce(asn, prefix, vec![]))
        .collect();
    (topo, eps)
}

fn schedule_prefixes(eps: &[Origination]) -> Vec<Prefix> {
    eps.iter()
        .map(|o| o.prefix)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Runs `campaign` to completion one chunk per advance, persisting the
/// checkpoint to JSON (and restoring from it) between advances — the
/// uninterrupted baseline the crash-resume driver is compared against.
fn run_through_json(
    campaign: &Campaign<'_, '_>,
    eps: &[Origination],
) -> (CampaignRun<Ledger>, String) {
    let mut persisted = campaign.checkpoint_json(&campaign.begin(Ledger::default()));
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 500, "campaign never finished");
        let cp = CampaignCheckpoint::<Ledger>::from_json(&persisted)
            .expect("persisted checkpoint restores");
        let (cp, finished) = campaign.run_chunks(eps, cp, Ledger::default, 1);
        persisted = campaign.checkpoint_json(&cp);
        if finished {
            break;
        }
    }
    let cp =
        CampaignCheckpoint::<Ledger>::from_json(&persisted).expect("final checkpoint restores");
    (campaign.resume(eps, cp, Ledger::default), persisted)
}

/// The crash-resume driver: advance one chunk at a time, persisting the
/// checkpoint text after each advance; when the injected crash fires,
/// "reboot" by restoring from the last successfully persisted text —
/// exactly what a real operator process would do — and keep going.
fn run_with_crash(
    campaign: &Campaign<'_, '_>,
    eps: &[Origination],
    site: &str,
) -> (CampaignRun<Ledger>, String) {
    let mut persisted: Option<String> = None;
    let mut crashes = 0u32;
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 500, "crash-resume at {site} never finished");
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let cp = match &persisted {
                None => campaign.begin(Ledger::default()),
                Some(text) => CampaignCheckpoint::<Ledger>::from_json(text)
                    .expect("persisted checkpoint restores"),
            };
            let (cp, finished) = campaign.run_chunks(eps, cp, Ledger::default, 1);
            (campaign.checkpoint_json(&cp), finished)
        }));
        match attempt {
            Ok((text, finished)) => {
                persisted = Some(text);
                if finished {
                    break;
                }
            }
            Err(payload) => {
                // The only panic in play is the injected crash. Serially it
                // surfaces as the typed payload; through a parallel worker
                // it is stringified — either way it names its site.
                let msg = panic_message(&*payload);
                assert!(
                    msg.contains(&format!("injected simulated crash at fault site `{site}`")),
                    "unexpected panic during crash-resume at {site}: {msg}"
                );
                crashes += 1;
            }
        }
    }
    assert_eq!(
        crashes, 1,
        "the injected crash at {site} must fire exactly once"
    );
    let persisted = persisted.expect("campaign persisted at least one checkpoint");
    let cp =
        CampaignCheckpoint::<Ledger>::from_json(&persisted).expect("final checkpoint restores");
    (campaign.resume(eps, cp, Ledger::default), persisted)
}

#[test]
fn crash_at_every_campaign_site_restores_byte_identically() {
    let (topo, eps) = world();

    // One fault-free baseline, computed serially: every crashed-and-
    // restored run below must match it bit for bit, which simultaneously
    // pins threads = 1 ≡ threads = N under faults.
    let reference_sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
    let reference = Campaign::new(&reference_sim).chunk_size(2);
    let (ref_run, ref_json) = run_through_json(&reference, &eps);
    assert!(!ref_run.degraded(), "baseline world must be clean");

    for &site in CAMPAIGN_SITES {
        for threads in [1usize, 4] {
            let plan = FaultPlan::new().fail_any(site, FaultKind::Crash, 1);
            let mut sim = SimSpec::new(&topo)
                .retain(RetainRoutes::All)
                .faults(&plan)
                .compile();
            sim.set_threads(threads);
            let campaign = Campaign::new(&sim).chunk_size(2);
            let (run, json) = run_with_crash(&campaign, &eps, site);
            assert_eq!(
                run, ref_run,
                "crash at {site} (threads {threads}): restored run differs"
            );
            assert_eq!(
                json, ref_json,
                "crash at {site} (threads {threads}): persisted checkpoint differs"
            );
        }
    }
}

#[test]
fn snapshot_site_crashes_name_their_site_and_clean_reruns_match() {
    let (topo, eps) = world();
    let victim = eps[0].prefix;
    let delta = vec![Origination::announce(eps[0].origin, victim, vec![]).at(600)];

    // A snapshot is one prefix's: capture the victim's own schedule.
    let eps = &eps[..1];
    let reference_sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
    let (ref_result, ref_snap) = reference_sim.run_snapshot(eps, victim);
    let ref_outcome = reference_sim.run_delta_prefix(&ref_snap, &delta);

    // Crash while capturing the snapshot.
    let plan = FaultPlan::new().fail(
        fault_site::SNAPSHOT_CAPTURE,
        prefix_fault_key(victim),
        FaultKind::Crash,
        1,
    );
    let sim = SimSpec::new(&topo)
        .retain(RetainRoutes::All)
        .faults(&plan)
        .compile();
    let err = catch_unwind(AssertUnwindSafe(|| sim.run_snapshot(eps, victim)))
        .expect_err("capture crash must propagate");
    assert!(
        panic_message(&*err).contains("snapshot::capture"),
        "got: {}",
        panic_message(&*err)
    );
    // The firing is consumed: the rerun is clean and matches the
    // fault-free reference exactly.
    let (result, snap) = sim.run_snapshot(eps, victim);
    assert_eq!(result, ref_result);
    assert_eq!(sim.run_delta_prefix(&snap, &delta), ref_outcome);

    // Crash while restoring the snapshot for delta replay.
    let plan = FaultPlan::new().fail(
        fault_site::SNAPSHOT_RESTORE,
        prefix_fault_key(victim),
        FaultKind::Crash,
        1,
    );
    let sim = SimSpec::new(&topo)
        .retain(RetainRoutes::All)
        .faults(&plan)
        .compile();
    let (_, snap) = sim.run_snapshot(eps, victim);
    let err = catch_unwind(AssertUnwindSafe(|| sim.run_delta_prefix(&snap, &delta)))
        .expect_err("restore crash must propagate");
    assert!(
        panic_message(&*err).contains("snapshot::restore"),
        "got: {}",
        panic_message(&*err)
    );
    assert_eq!(sim.run_delta_prefix(&snap, &delta), ref_outcome);
}

#[test]
fn transient_faults_under_retry_are_invisible_in_results() {
    let (topo, eps) = world();
    let prefixes = schedule_prefixes(&eps);
    assert!(prefixes.len() >= 4, "needs a multi-prefix world");
    let (flaky_a, flaky_b) = (prefixes[1], prefixes[prefixes.len() - 2]);

    fn driver<'s, 't>(sim: &'s CompiledSim<'t>, memoized: bool) -> Campaign<'s, 't> {
        if memoized {
            Campaign::new(sim)
        } else {
            Campaign::unmemoized_reference(sim)
        }
    }
    for threads in [1usize, 4] {
        for memoized in [true, false] {
            // Fresh plan per configuration: counters are part of plan
            // state, and each run must see the same firing schedule.
            let plan = FaultPlan::new()
                .fail(
                    fault_site::PREFIX,
                    prefix_fault_key(flaky_a),
                    FaultKind::Panic,
                    2,
                )
                .fail(
                    fault_site::PREFIX,
                    prefix_fault_key(flaky_b),
                    FaultKind::Panic,
                    1,
                );
            let mut sim = SimSpec::new(&topo)
                .retain(RetainRoutes::All)
                .faults(&plan)
                .compile();
            sim.set_threads(threads);
            let run = driver(&sim, memoized)
                .chunk_size(2)
                .fault_policy(FaultPolicy::Retry { attempts: 3 })
                .run(&eps, Ledger::default);

            let mut ref_sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
            ref_sim.set_threads(threads);
            let reference = driver(&ref_sim, memoized)
                .chunk_size(2)
                .run(&eps, Ledger::default);
            assert_eq!(
                run, reference,
                "threads {threads}, memoized {memoized}: retried faults leaked into results"
            );
        }
    }
}

#[test]
fn permanently_poisoned_prefix_is_quarantined_while_the_rest_completes() {
    let (topo, eps) = world();
    let prefixes = schedule_prefixes(&eps);
    let poisoned = prefixes[1];
    let base_plan = FaultPlan::new().fail(
        fault_site::PREFIX,
        prefix_fault_key(poisoned),
        FaultKind::Panic,
        u32::MAX,
    );

    for threads in [1usize, 4] {
        let plan = base_plan.clone();
        let mut sim = SimSpec::new(&topo)
            .retain(RetainRoutes::All)
            .faults(&plan)
            .compile();
        sim.set_threads(threads);
        let run = Campaign::new(&sim)
            .chunk_size(2)
            .fault_policy(FaultPolicy::Quarantine { attempts: 3 })
            .run(&eps, Ledger::default);

        assert!(run.degraded());
        assert!(
            run.converged,
            "quarantine must not masquerade as divergence"
        );
        assert!(run.diverged.is_empty());
        assert_eq!(run.failures.len(), 1, "threads {threads}");
        let failure = &run.failures[0];
        assert_eq!(failure.prefix, poisoned);
        assert_eq!(failure.attempts, 3);
        assert!(
            failure
                .message
                .contains("injected panic at fault site `campaign::prefix`"),
            "got: {}",
            failure.message
        );

        // The poisoned prefix is never folded; everything else is.
        assert!(!run.sink.calls.contains(&format!("fold {poisoned}")));
        let folds = run
            .sink
            .calls
            .iter()
            .filter(|c| c.starts_with("fold "))
            .count();
        assert_eq!(folds, prefixes.len() - 1);

        // Class counters stay schedule statistics — the quarantined
        // prefix is still counted.
        assert_eq!(run.class_sims + run.class_hits, prefixes.len() as u64);

        let summary = run.failure_summary();
        assert!(
            summary.contains(&format!("quarantined: {poisoned} after 3 attempts")),
            "got: {summary}"
        );
    }
}

#[test]
fn quarantine_reports_flow_through_durable_checkpoints() {
    let (topo, eps) = world();
    let poisoned = schedule_prefixes(&eps)[1];
    let base_plan = FaultPlan::new().fail(
        fault_site::PREFIX,
        prefix_fault_key(poisoned),
        FaultKind::Panic,
        u32::MAX,
    );

    let plan = base_plan.clone();
    let sim = SimSpec::new(&topo)
        .retain(RetainRoutes::All)
        .faults(&plan)
        .compile();
    let uninterrupted = Campaign::new(&sim)
        .chunk_size(2)
        .fault_policy(FaultPolicy::Quarantine { attempts: 2 })
        .run(&eps, Ledger::default);
    assert_eq!(uninterrupted.failures.len(), 1);

    // Same campaign, stop-and-go through a JSON round trip after every
    // chunk, on a fresh plan clone (same configuration, fresh counters).
    let plan = base_plan.clone();
    let sim = SimSpec::new(&topo)
        .retain(RetainRoutes::All)
        .faults(&plan)
        .compile();
    let campaign = Campaign::new(&sim)
        .chunk_size(2)
        .fault_policy(FaultPolicy::Quarantine { attempts: 2 });
    let (resumed, _) = run_through_json(&campaign, &eps);
    assert_eq!(
        resumed, uninterrupted,
        "resumed-with-quarantine must equal uninterrupted-with-quarantine"
    );
}

#[test]
fn starved_prefix_reports_structured_divergence() {
    let (topo, eps) = world();
    let victim = schedule_prefixes(&eps)[0];
    let plan = FaultPlan::new().fail(
        fault_site::ENGINE_FLOOD,
        prefix_fault_key(victim),
        FaultKind::Starve,
        u32::MAX,
    );
    let sim = SimSpec::new(&topo)
        .retain(RetainRoutes::All)
        .faults(&plan)
        .compile();
    let campaign = Campaign::new(&sim).chunk_size(2);
    let run = campaign.run(&eps, Ledger::default);

    assert!(!run.converged);
    assert_eq!(run.diverged, vec![victim]);
    assert!(run.failures.is_empty());
    assert!(run.degraded());
    assert!(
        run.failure_summary()
            .contains(&format!("diverged: {victim} (event budget exhausted)")),
        "got: {}",
        run.failure_summary()
    );
    // Graceful degradation folds the partial outcome; it does not skip
    // the prefix.
    assert!(run.sink.calls.contains(&format!("fold {victim}")));

    // Starved prefixes bypass the class memo, pinning the fault to the
    // targeted prefix: memoized ≡ unmemoized still holds.
    let plain = Campaign::unmemoized_reference(&sim)
        .chunk_size(2)
        .run(&eps, Ledger::default);
    assert_eq!(run, plain);
}

#[test]
fn injected_crashes_are_never_retried_in_process() {
    let (topo, eps) = world();
    let victim = schedule_prefixes(&eps)[1];
    let plan = FaultPlan::new().fail(
        fault_site::PREFIX,
        prefix_fault_key(victim),
        FaultKind::Crash,
        1,
    );
    let sim = SimSpec::new(&topo)
        .retain(RetainRoutes::All)
        .faults(&plan)
        .compile();
    // Even the most forgiving policy must not swallow a crash: it models
    // process death, which only the durable checkpoint layer survives.
    let campaign = Campaign::new(&sim)
        .chunk_size(2)
        .fault_policy(FaultPolicy::Quarantine { attempts: 5 });
    let err = catch_unwind(AssertUnwindSafe(|| campaign.run(&eps, Ledger::default)))
        .expect_err("crash must abort the campaign");
    assert!(
        crash_payload(&*err).is_some(),
        "crash payload must surface untouched, got: {}",
        panic_message(&*err)
    );
    // Exactly one firing was consumed, so the restarted campaign — the
    // durable-layer recovery this models — completes cleanly.
    let run = campaign.run(&eps, Ledger::default);
    assert!(!run.degraded());
    assert_eq!(run.failures, vec![]);
}
