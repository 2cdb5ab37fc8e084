//! AS-level ping and traceroute over the simulated forwarding plane.

use crate::fib::{Fib, FibAction};
use bgpworms_types::Asn;

/// Maximum AS hops before declaring a forwarding loop.
const MAX_HOPS: usize = 64;

/// Why a trace ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Reached the AS that delivers the destination locally.
    Delivered,
    /// Dropped at a null route (RTBH) at the last AS of the path.
    Blackholed,
    /// No route at the last AS of the path.
    Unreachable,
    /// Forwarding loop detected.
    Loop,
}

/// A forward-path trace: the AS-level path and its outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceResult {
    /// ASes traversed, starting with the source AS.
    pub path: Vec<Asn>,
    /// Why the trace ended.
    pub outcome: TraceOutcome,
}

impl TraceResult {
    /// True if the packet reached its destination AS.
    pub fn delivered(&self) -> bool {
        self.outcome == TraceOutcome::Delivered
    }
}

/// Result of a bidirectional ping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PingResult {
    /// The forward trace (source AS → destination IP).
    pub forward: TraceResult,
    /// The reverse trace (destination AS → source IP), when the forward
    /// path delivered.
    pub reverse: Option<TraceResult>,
}

impl PingResult {
    /// An echo reply arrives only when both directions deliver.
    pub fn responsive(&self) -> bool {
        self.forward.delivered()
            && self
                .reverse
                .as_ref()
                .map(TraceResult::delivered)
                .unwrap_or(false)
    }
}

/// Traces the AS-level forward path from `src_as` toward `dst_ip`.
pub fn trace(fib: &Fib, src_as: Asn, dst_ip: u32) -> TraceResult {
    let mut path = vec![src_as];
    let mut current = src_as;
    for _ in 0..MAX_HOPS {
        match fib.lookup(current, dst_ip) {
            None => {
                return TraceResult {
                    path,
                    outcome: TraceOutcome::Unreachable,
                }
            }
            Some((_, FibAction::Null)) => {
                return TraceResult {
                    path,
                    outcome: TraceOutcome::Blackholed,
                }
            }
            Some((_, FibAction::Deliver)) => {
                return TraceResult {
                    path,
                    outcome: TraceOutcome::Delivered,
                }
            }
            Some((_, FibAction::Forward(next))) => {
                if path.contains(&next) {
                    path.push(next);
                    return TraceResult {
                        path,
                        outcome: TraceOutcome::Loop,
                    };
                }
                path.push(next);
                current = next;
            }
        }
    }
    TraceResult {
        path,
        outcome: TraceOutcome::Loop,
    }
}

/// Simulates an ICMP echo: forward trace to `dst_ip`, and if delivered, a
/// reverse trace from the delivering AS back to `src_ip`.
pub fn ping(fib: &Fib, src_as: Asn, src_ip: u32, dst_ip: u32) -> PingResult {
    let forward = trace(fib, src_as, dst_ip);
    let reverse = if forward.delivered() {
        let dst_as = *forward.path.last().expect("non-empty path");
        Some(trace(fib, dst_as, src_ip))
    } else {
        None
    };
    PingResult { forward, reverse }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpworms_types::Ipv4Prefix;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> u32 {
        s.parse::<std::net::Ipv4Addr>().unwrap().into()
    }

    /// Line: 1 → 2 → 3 where 3 originates 10.0.0.0/16 and 1 originates
    /// 20.0.0.0/16; both directions installed.
    fn line_fib() -> Fib {
        let mut fib = Fib::default();
        let (a1, a2, a3) = (Asn::new(1), Asn::new(2), Asn::new(3));
        fib.insert(a1, p4("10.0.0.0/16"), FibAction::Forward(a2));
        fib.insert(a2, p4("10.0.0.0/16"), FibAction::Forward(a3));
        fib.insert(a3, p4("10.0.0.0/16"), FibAction::Deliver);
        fib.insert(a3, p4("20.0.0.0/16"), FibAction::Forward(a2));
        fib.insert(a2, p4("20.0.0.0/16"), FibAction::Forward(a1));
        fib.insert(a1, p4("20.0.0.0/16"), FibAction::Deliver);
        fib
    }

    #[test]
    fn trace_delivers_along_the_line() {
        let fib = line_fib();
        let t = trace(&fib, Asn::new(1), ip("10.0.0.1"));
        assert_eq!(t.outcome, TraceOutcome::Delivered);
        assert_eq!(t.path, vec![Asn::new(1), Asn::new(2), Asn::new(3)]);
        assert!(t.delivered());
    }

    #[test]
    fn ping_requires_both_directions() {
        let fib = line_fib();
        let res = ping(&fib, Asn::new(1), ip("20.0.0.1"), ip("10.0.0.1"));
        assert!(res.responsive());
        // Break the reverse path: AS2 loses the 20/16 route.
        let mut broken = line_fib();
        broken.insert(Asn::new(2), p4("20.0.0.0/16"), FibAction::Null);
        let res = ping(&broken, Asn::new(1), ip("20.0.0.1"), ip("10.0.0.1"));
        assert!(res.forward.delivered());
        assert!(!res.responsive(), "reverse blackhole kills the echo");
    }

    #[test]
    fn blackhole_detected_at_drop_point() {
        let mut fib = line_fib();
        // RTBH accepted at AS2 for a /32 inside 10/16.
        fib.insert(Asn::new(2), p4("10.0.0.7/32"), FibAction::Null);
        let t = trace(&fib, Asn::new(1), ip("10.0.0.7"));
        assert_eq!(t.outcome, TraceOutcome::Blackholed);
        assert_eq!(t.path.last(), Some(&Asn::new(2)), "dropped at AS2");
        // Other addresses in the /16 still deliver (LPM).
        assert!(trace(&fib, Asn::new(1), ip("10.0.0.8")).delivered());
    }

    #[test]
    fn unreachable_when_no_route() {
        let fib = line_fib();
        let t = trace(&fib, Asn::new(1), ip("30.0.0.1"));
        assert_eq!(t.outcome, TraceOutcome::Unreachable);
        assert_eq!(t.path, [Asn::new(1)], "dropped where it started");
    }

    #[test]
    fn loops_are_detected() {
        let mut fib = Fib::default();
        fib.insert(
            Asn::new(1),
            p4("10.0.0.0/8"),
            FibAction::Forward(Asn::new(2)),
        );
        fib.insert(
            Asn::new(2),
            p4("10.0.0.0/8"),
            FibAction::Forward(Asn::new(1)),
        );
        let t = trace(&fib, Asn::new(1), ip("10.1.1.1"));
        assert_eq!(t.outcome, TraceOutcome::Loop);
        assert!(t.path.len() >= 3);
    }
}
