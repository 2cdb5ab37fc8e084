//! Table 3: difficulty assessment of the six attack variants.
//!
//! Each variant runs across a weighted grid of realistic deployment
//! configurations (service scopes, validation postures, community
//! propagation on the path). The difficulty rating is derived from the
//! weighted success rate, so it *emerges* from the scenario mechanics
//! rather than being written down.

use crate::scenarios::route_manipulation::{RouteManipulationScenario, RsAttackVariant};
use crate::scenarios::rtbh::RtbhScenario;
use crate::scenarios::steering::{LocalPrefScenario, PrependHijackScenario};
use bgpworms_routesim::{ActScope, CommunityPropagationPolicy, OriginValidation, RsEvalOrder};
use std::fmt;

/// Difficulty rating, as in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Difficulty {
    /// ≥ 60 % of weighted configurations succeed.
    Easy,
    /// 25–60 %.
    Medium,
    /// < 25 %.
    Hard,
}

impl Difficulty {
    fn from_rate(rate: f64) -> Self {
        if rate >= 0.6 {
            Difficulty::Easy
        } else if rate >= 0.25 {
            Difficulty::Medium
        } else {
            Difficulty::Hard
        }
    }
}

impl fmt::Display for Difficulty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Difficulty::Easy => "easy",
            Difficulty::Medium => "medium",
            Difficulty::Hard => "hard",
        })
    }
}

/// One Table 3 row.
#[derive(Debug, Clone)]
pub struct FeasibilityRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Hijack variant?
    pub hijack: bool,
    /// Weighted success rate over the configuration grid.
    pub success_rate: f64,
    /// Derived difficulty.
    pub difficulty: Difficulty,
}

fn weighted_rate(outcomes: &[(bool, f64)]) -> f64 {
    let total: f64 = outcomes.iter().map(|(_, w)| w).sum();
    if total == 0.0 {
        return 0.0;
    }
    outcomes
        .iter()
        .map(|(ok, w)| if *ok { *w } else { 0.0 })
        .sum::<f64>()
        / total
}

/// Grid of validation postures with 2018-era prevalence weights: most
/// networks validated nothing, some used the IRR (occasionally with the
/// §6.3 ordering bug), few were strict.
fn validation_grid() -> Vec<(OriginValidation, bool, f64)> {
    vec![
        // (validation, attacker-registers-IRR, weight)
        (OriginValidation::None, false, 0.55),
        (
            OriginValidation::Irr {
                validate_after_blackhole: false,
            },
            true, // §7.3: IRR checks "can be circumvented"
            0.20,
        ),
        (
            OriginValidation::Irr {
                validate_after_blackhole: false,
            },
            false,
            0.10,
        ),
        (
            OriginValidation::Irr {
                validate_after_blackhole: true,
            },
            false,
            0.10,
        ),
        (OriginValidation::Strict, false, 0.05),
    ]
}

/// Blackholing rows: scope is usually Any (§7.3: "prefixes with blackhole
/// communities are accepted independent of AS relationships").
fn assess_rtbh(hijack: bool) -> FeasibilityRow {
    let mut outcomes = Vec::new();
    for (scope, scope_w) in [(ActScope::Any, 0.7), (ActScope::CustomersOnly, 0.3)] {
        for (validation, registers, val_w) in validation_grid() {
            for (intermediate, mid_w) in [
                (None, 0.5),
                (Some(CommunityPropagationPolicy::ForwardAll), 0.3),
                (Some(CommunityPropagationPolicy::StripAll), 0.2),
            ] {
                let report = RtbhScenario {
                    hijack,
                    target_scope: scope,
                    validation,
                    attacker_registers_irr: registers,
                    intermediate: intermediate.clone(),
                    attacker_sends_communities: true,
                    blackhole_local_pref: None,
                }
                .run();
                outcomes.push((report.succeeded(), scope_w * val_w * mid_w));
            }
        }
    }
    let rate = weighted_rate(&outcomes);
    FeasibilityRow {
        scenario: "Blackholing",
        hijack,
        success_rate: rate,
        difficulty: Difficulty::from_rate(rate),
    }
}

/// Steering via local-pref: providers act only for customers, which blocks
/// most paths (§7.4) — hence hard.
fn assess_local_pref(hijack: bool) -> FeasibilityRow {
    let mut outcomes = Vec::new();
    // The attacker reaches the target from a provider/peer position in the
    // flattened Internet most of the time.
    for (scope, scope_w) in [(ActScope::CustomersOnly, 0.85), (ActScope::Any, 0.15)] {
        let report = LocalPrefScenario {
            target_scope: scope,
        }
        .run();
        let ok = report.succeeded();
        if hijack {
            // The hijack variant additionally needs the forged announcement
            // accepted: reuse the validation grid multiplicatively.
            for (validation, registers, val_w) in validation_grid() {
                let accepted = match validation {
                    OriginValidation::None => true,
                    OriginValidation::Irr { .. } => registers,
                    OriginValidation::Strict => false,
                };
                outcomes.push((ok && accepted, scope_w * val_w));
            }
            continue;
        }
        outcomes.push((ok, scope_w));
    }
    let rate = weighted_rate(&outcomes);
    FeasibilityRow {
        scenario: "Traffic steering (local-pref)",
        hijack,
        success_rate: rate,
        difficulty: Difficulty::from_rate(rate),
    }
}

/// Steering via prepend: same relationship constraint, plus the prepend
/// rule often sits low in evaluation order.
fn assess_prepend(hijack: bool) -> FeasibilityRow {
    let mut outcomes = Vec::new();
    for (customer_position, pos_w) in [(true, 0.2), (false, 0.8)] {
        if hijack {
            for (validation, registers, val_w) in validation_grid() {
                // The scenario's attacker is the target's customer; one in
                // any other position fails the relationship check.
                let ok = customer_position
                    && PrependHijackScenario {
                        target_scope: ActScope::CustomersOnly,
                        validation,
                        attacker_registers_irr: registers,
                    }
                    .run()
                    .succeeded();
                outcomes.push((ok, pos_w * val_w));
            }
        } else {
            let report = crate::scenarios::prepend_teaser::PrependTeaser {
                transit_forwards_communities: true,
                target_scope: if customer_position {
                    ActScope::Any
                } else {
                    ActScope::CustomersOnly
                },
                prepends: 3,
            }
            .run();
            outcomes.push((report.succeeded(), pos_w));
        }
    }
    let rate = weighted_rate(&outcomes);
    FeasibilityRow {
        scenario: "Traffic steering (prepend)",
        hijack,
        success_rate: rate,
        difficulty: Difficulty::from_rate(rate),
    }
}

/// IXP route servers, unlike most transit networks, commonly enforced
/// IRR-based filtering on their members already in 2018 — the paper's
/// Table 3 notes "IRR records for origin validation are typically checked"
/// for route manipulation.
fn rs_validation_grid() -> Vec<(OriginValidation, bool, f64)> {
    vec![
        (OriginValidation::None, false, 0.20),
        (
            OriginValidation::Irr {
                validate_after_blackhole: false,
            },
            true, // circumvented by registering a route object
            0.30,
        ),
        (
            OriginValidation::Irr {
                validate_after_blackhole: false,
            },
            false,
            0.30,
        ),
        (OriginValidation::Strict, false, 0.20),
    ]
}

/// Route manipulation: success depends on knowing (or inferring) the route
/// server's community evaluation order — medium.
fn assess_route_manipulation(hijack: bool) -> FeasibilityRow {
    let mut outcomes = Vec::new();
    for (order, order_w) in [
        (RsEvalOrder::SuppressFirst, 0.5),
        (RsEvalOrder::AnnounceFirst, 0.5),
    ] {
        if hijack {
            for (validation, registers, val_w) in rs_validation_grid() {
                let report = RouteManipulationScenario {
                    variant: RsAttackVariant::Hijack,
                    eval_order: order,
                    validation,
                    attacker_registers_irr: registers,
                }
                .run();
                outcomes.push((report.succeeded(), order_w * val_w));
            }
        } else {
            let report = RouteManipulationScenario {
                variant: RsAttackVariant::ConflictingCommunities,
                eval_order: order,
                ..RouteManipulationScenario::default()
            }
            .run();
            outcomes.push((report.succeeded(), order_w));
        }
    }
    let rate = weighted_rate(&outcomes);
    FeasibilityRow {
        scenario: "Route manipulation",
        hijack,
        success_rate: rate,
        difficulty: Difficulty::from_rate(rate),
    }
}

/// Regenerates all six Table 3 rows.
pub fn assess_all() -> Vec<FeasibilityRow> {
    vec![
        assess_rtbh(false),
        assess_rtbh(true),
        assess_local_pref(false),
        assess_local_pref(true),
        assess_prepend(false),
        assess_prepend(true),
        assess_route_manipulation(false),
        assess_route_manipulation(true),
    ]
}

/// Renders Table 3.
pub fn render(rows: &[FeasibilityRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<32} {:>7} {:>9} {:>10}\n",
        "Scenario", "Hijack", "Success", "Difficulty"
    ));
    out.push_str(&"-".repeat(62));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<32} {:>7} {:>8.0}% {:>10}\n",
            r.scenario,
            if r.hijack { "yes" } else { "no" },
            r.success_rate * 100.0,
            r.difficulty
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difficulty_ordering_matches_table3() {
        let rows = assess_all();
        let find = |name: &str, hijack: bool| {
            rows.iter()
                .find(|r| r.scenario == name && r.hijack == hijack)
                .unwrap_or_else(|| panic!("missing row {name}/{hijack}"))
        };
        // Blackholing is the easiest attack (both variants).
        assert_eq!(find("Blackholing", false).difficulty, Difficulty::Easy);
        assert_eq!(find("Blackholing", true).difficulty, Difficulty::Easy);
        // Steering is hard.
        assert_eq!(
            find("Traffic steering (local-pref)", false).difficulty,
            Difficulty::Hard
        );
        assert_eq!(
            find("Traffic steering (prepend)", true).difficulty,
            Difficulty::Hard
        );
        // Route manipulation sits in between.
        assert_eq!(
            find("Route manipulation", false).difficulty,
            Difficulty::Medium
        );
        // Ordering: blackholing ≥ route manipulation ≥ steering.
        assert!(
            find("Blackholing", false).success_rate
                > find("Route manipulation", false).success_rate
        );
        assert!(
            find("Route manipulation", false).success_rate
                > find("Traffic steering (local-pref)", false).success_rate
        );
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = assess_all();
        let text = render(&rows);
        assert!(text.contains("Blackholing"));
        assert!(text.contains("Route manipulation"));
        assert_eq!(text.lines().count(), rows.len() + 2);
    }

    #[test]
    fn difficulty_thresholds() {
        assert_eq!(Difficulty::from_rate(0.9), Difficulty::Easy);
        assert_eq!(Difficulty::from_rate(0.4), Difficulty::Medium);
        assert_eq!(Difficulty::from_rate(0.1), Difficulty::Hard);
    }
}
