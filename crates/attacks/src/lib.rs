//! Attack scenarios, lab feasibility, in-the-wild experiments, and the
//! Table 3 difficulty assessment — §§3, 5, 6, 7 of the paper.
//!
//! (`ARCHITECTURE.md` at the repository root shows how these experiments
//! consume the engine's session, campaign, and snapshot/delta layers.)
//!
//! Everything here runs on the `bgpworms-routesim` substrate:
//!
//! * [`scenarios`] — the paper's canonical attack topologies, each built,
//!   run baseline-vs-attack, and validated on both planes: the Fig 2
//!   prepend teaser, Fig 7 remotely triggered blackholing (± hijack),
//!   Fig 8 traffic steering (prepend and local-pref), and Fig 9 route
//!   manipulation at an IXP route server;
//! * [`conditions`] — the necessary/sufficient condition checks of §5.4
//!   (community propagation along the attack path; ability to advertise
//!   tagged/hijacked prefixes);
//! * [`lab`] — the §6 vendor behaviour matrix (defaults, community-add
//!   limits, RTBH preference, mis-ordered validation);
//! * [`wild`] — the §7 experiment harness over full generated Internets:
//!   benign-community propagation checking, the RTBH / steering / route-
//!   server experiments, the §7.6 automated blackhole-community survey,
//!   and the future-work surveys of [`wild::extended_survey`] (the
//!   "likely" corpus, non-RTBH path-change inference, §7.7 fake-location
//!   injection) — each one "generate the [`wild::World`], attach a
//!   platform, run", the two vantage-point sweeps on the one apparatus,
//!   [`wild::survey::SurveyContext`]. A world draws the Internet's
//!   policies (`Workload::policies`) and no passive episode schedule, and
//!   a full-table campaign ([`wild::full_table`]) needs no more: nothing
//!   here floods §4's month;
//! * [`feasibility`] — sweeps scenario variants over policy grids to
//!   regenerate Table 3;
//! * [`ablation`] — proofs that the modelled rules (RTBH preference raise,
//!   §6.3 validation order, the §8 scoped-propagation defense) are
//!   load-bearing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod conditions;
pub mod feasibility;
pub mod lab;
pub mod roles;
pub mod scenarios;
pub mod wild;

pub use conditions::{check_conditions, ConditionReport};
pub use feasibility::{assess_all, Difficulty, FeasibilityRow};
pub use roles::AttackRoles;
pub use scenarios::{ScenarioOutcome, ScenarioReport};
