//! The logical content of a BGP UPDATE: withdrawals plus announcements that
//! share one set of path attributes.

use crate::attr::PathAttributes;
use crate::prefix::Prefix;

/// A single announced prefix with its attributes — the unit the analysis
//  pipeline consumes after exploding multi-NLRI updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Announcement {
    /// The announced prefix.
    pub prefix: Prefix,
    /// Attributes shared by the update that carried the prefix.
    pub attrs: PathAttributes,
}

/// The logical content of one UPDATE message: zero or more withdrawals and
/// zero or more announced prefixes sharing `attrs`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouteUpdate {
    /// Withdrawn prefixes.
    pub withdrawn: Vec<Prefix>,
    /// Attributes for the announced NLRI (meaningless when `announced` is
    /// empty and the update is withdraw-only).
    pub attrs: PathAttributes,
    /// Announced prefixes (NLRI).
    pub announced: Vec<Prefix>,
}

impl RouteUpdate {
    /// An announcement-only update for a single prefix.
    pub fn announce(prefix: Prefix, attrs: PathAttributes) -> Self {
        RouteUpdate {
            withdrawn: Vec::new(),
            attrs,
            announced: vec![prefix],
        }
    }

    /// A withdraw-only update.
    pub fn withdraw(prefixes: Vec<Prefix>) -> Self {
        RouteUpdate {
            withdrawn: prefixes,
            attrs: PathAttributes::default(),
            announced: Vec::new(),
        }
    }

    /// Explodes into per-prefix announcements (cloning the shared attrs).
    pub fn announcements(&self) -> impl Iterator<Item = Announcement> + '_ {
        self.announced.iter().map(move |p| Announcement {
            prefix: *p,
            attrs: self.attrs.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::Asn;
    use crate::aspath::AsPath;
    use crate::community::Community;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn announce_constructor() {
        let mut attrs = PathAttributes {
            as_path: AsPath::from_asns([Asn::new(2), Asn::new(1)]),
            ..PathAttributes::default()
        };
        attrs.add_community(Community::new(2, 100));
        let u = RouteUpdate::announce(p("10.0.0.0/8"), attrs.clone());
        assert_eq!(u.announced, vec![p("10.0.0.0/8")]);
        assert!(u.withdrawn.is_empty());
        let anns: Vec<_> = u.announcements().collect();
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].prefix, p("10.0.0.0/8"));
        assert_eq!(anns[0].attrs, attrs);
    }

    #[test]
    fn withdraw_constructor() {
        let u = RouteUpdate::withdraw(vec![p("10.0.0.0/8"), p("2001:db8::/32")]);
        assert_eq!(u.withdrawn.len(), 2);
        assert!(u.announced.is_empty());
    }

    #[test]
    fn multi_nlri_explodes_with_shared_attrs() {
        let mut u = RouteUpdate::announce(p("10.0.0.0/8"), PathAttributes::default());
        u.announced.push(p("11.0.0.0/8"));
        let anns: Vec<_> = u.announcements().collect();
        assert_eq!(anns.len(), 2);
        assert_eq!(anns[0].attrs, anns[1].attrs);
    }
}
