//! Durable resume, the whole recovery contract of a campaign.
//!
//! Every result is a pure function of (topology, configs, schedule), so
//! there is no transient fault to retry: what a campaign must survive is
//! its process dying. A dead process loses its memory and nothing else, so
//! the contract is that a campaign restored from the text it persisted
//! after chunk `k`, in a freshly compiled session, finishes exactly as the
//! uninterrupted run does — the same `CampaignRun`, and the same final
//! checkpoint text byte for byte — for every `k` from 0 to the last chunk,
//! at any thread count, memoized or not.

use bgpworms_routesim::{
    Campaign, CampaignCheckpoint, CampaignSink, CompiledSim, DurableSink, Origination,
    PrefixOutcome, RetainRoutes, SimSpec,
};
use bgpworms_topology::{PrefixAllocation, Topology, TopologyParams};
use bgpworms_types::Prefix;

/// Order-sensitive durable sink: records the exact fold/merge call
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

fn session(topo: &Topology, threads: usize) -> CompiledSim<'_> {
    SimSpec::new(topo)
        .retain(RetainRoutes::All)
        .threads(threads)
        .compile()
}

fn driver<'s, 't>(sim: &'s CompiledSim<'t>, memoized: bool) -> Campaign<'s, 't> {
    if memoized {
        Campaign::new(sim)
    } else {
        Campaign::unmemoized_reference(sim)
    }
}

#[test]
fn resuming_from_the_text_persisted_after_any_chunk_is_byte_identical() {
    let (topo, eps) = world();

    // One uninterrupted reference, serial and memoized: every restored run
    // below must match it, which also pins threads = 1 ≡ 4 and
    // memoized ≡ unmemoized across a process boundary.
    let sim = session(&topo, 1);
    let campaign = Campaign::new(&sim);
    let want = campaign.run(&eps, Ledger::default);
    let (done, finished) = campaign.run_chunks(
        &eps,
        campaign.begin(Ledger::default()),
        Ledger::default,
        usize::MAX,
    );
    assert!(finished && !want.degraded());
    let want_json = done.to_json();
    let chunks = want.chunks;
    assert!(chunks >= 2, "the world must span chunks");

    for threads in [1usize, 4] {
        for memoized in [true, false] {
            for k in 0..=chunks {
                let at = format!("stop after chunk {k}, threads {threads}, memoized {memoized}");
                // The process that stops: its session and everything it held
                // in memory go, the persisted text stays.
                let persisted = {
                    let sim = session(&topo, threads);
                    let campaign = driver(&sim, memoized);
                    let begun = campaign.begin(Ledger::default());
                    let (cp, finished) = campaign.run_chunks(&eps, begun, Ledger::default, k);
                    assert_eq!(finished, k == chunks, "{at}");
                    cp.to_json()
                };

                // The process that resumes it.
                let sim = session(&topo, threads);
                let campaign = driver(&sim, memoized);
                let cp = CampaignCheckpoint::<Ledger>::from_json(&persisted)
                    .unwrap_or_else(|err| panic!("{at}: persisted text refused: {err}"));
                assert_eq!(cp.chunks_done(), k, "{at}");
                let (cp, finished) = campaign.run_chunks(&eps, cp, Ledger::default, usize::MAX);
                assert!(finished, "{at}");
                assert_eq!(
                    cp.to_json(),
                    want_json,
                    "{at}: final checkpoint text differs"
                );
                assert_eq!(
                    campaign.resume(&eps, cp, Ledger::default),
                    want,
                    "{at}: resumed run differs"
                );
            }
        }
    }
}
