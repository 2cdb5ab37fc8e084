//! Data-plane substrate: FIBs derived from the simulated control plane,
//! ping/traceroute, an Atlas-like probing platform, and looking glasses.
//!
//! (`ARCHITECTURE.md` at the repository root shows where the data plane
//! sits in the workspace's layer stack; its section "The forwarding plane"
//! has the [`Fib`] column layout and why it is prefix-major.)
//!
//! The paper validates every attack on the data plane: RIPE Atlas probes
//! confirm RTBH drops (§7.3, §7.6), traceroutes bound how far blackhole
//! communities travelled, and looking glasses confirm steering. This crate
//! reproduces those instruments over `bgpworms-routesim` results:
//!
//! * [`Fib`] — longest-prefix-match forwarding tables for every AS, one
//!   shared column per prefix, with null routes where a blackhole
//!   community was accepted;
//! * [`trace`]/[`ping`] — AS-level forward-path simulation including the
//!   reverse path for ping (both directions must deliver);
//! * [`AtlasPlatform`] — a deterministic set of vantage points running
//!   measurement campaigns;
//! * [`LookingGlass`] — formatted per-AS RIB queries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atlas;
pub mod fib;
pub mod looking_glass;
pub mod probe;

pub use atlas::{AtlasPlatform, CampaignResult};
pub use fib::{Fib, FibAction};
pub use looking_glass::LookingGlass;
pub use probe::{ping, trace, PingResult, TraceOutcome, TraceResult};
