//! Property-based tests over the core types: parse/display round-trips and
//! structural invariants.

use bgpworms_types::{
    asn::Asn,
    aspath::{AsPath, PathSegment},
    community::{normalize, Community},
    ext_community::ExtendedCommunity,
    large_community::LargeCommunity,
    prefix::{Ipv4Prefix, Ipv6Prefix},
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn asn_display_parse_roundtrip(n in any::<u32>()) {
        let a = Asn::new(n);
        let parsed: Asn = a.to_string().parse().unwrap();
        prop_assert_eq!(parsed, a);
    }

    #[test]
    fn asn_classification_partition(n in any::<u32>()) {
        // public / private / reserved / documentation are mutually exclusive.
        let a = Asn::new(n);
        let classes = [a.is_public(), a.is_private(), a.is_reserved(), a.is_documentation()];
        prop_assert_eq!(classes.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn community_display_parse_roundtrip(raw in any::<u32>()) {
        let c = Community::from_u32(raw);
        let parsed: Community = c.to_string().parse().unwrap();
        prop_assert_eq!(parsed, c);
    }

    #[test]
    fn community_halves_recompose(hi in any::<u16>(), lo in any::<u16>()) {
        let c = Community::new(hi, lo);
        prop_assert_eq!(c.asn_part(), hi);
        prop_assert_eq!(c.value_part(), lo);
        prop_assert_eq!(Community::from_u32(c.as_u32()), c);
    }

    #[test]
    fn normalize_is_sorted_unique(mut v in proptest::collection::vec(any::<u32>(), 0..40)) {
        let mut comms: Vec<Community> = v.drain(..).map(Community::from_u32).collect();
        normalize(&mut comms);
        prop_assert!(comms.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn large_community_roundtrips(g in any::<u32>(), l1 in any::<u32>(), l2 in any::<u32>()) {
        let lc = LargeCommunity::new(g, l1, l2);
        prop_assert_eq!(LargeCommunity::from_bytes(lc.to_bytes()), lc);
        let parsed: LargeCommunity = lc.to_string().parse().unwrap();
        prop_assert_eq!(parsed, lc);
    }

    #[test]
    fn ext_community_bytes_roundtrip(raw in any::<u64>()) {
        let ec = ExtendedCommunity::from_u64(raw);
        prop_assert_eq!(ExtendedCommunity::from_bytes(ec.to_bytes()), ec);
    }

    #[test]
    fn v4_prefix_parse_display_roundtrip(addr in any::<u32>(), len in 0u8..=32) {
        let p = Ipv4Prefix::new(addr, len).unwrap();
        let parsed: Ipv4Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn v4_prefix_contains_own_network(addr in any::<u32>(), len in 0u8..=32) {
        let p = Ipv4Prefix::new(addr, len).unwrap();
        prop_assert!(p.contains(p.network()));
        prop_assert!(p.covers(p));
    }

    #[test]
    fn v4_supernet_covers_child(addr in any::<u32>(), len in 1u8..=32) {
        let p = Ipv4Prefix::new(addr, len).unwrap();
        let sup = p.supernet().unwrap();
        prop_assert!(sup.covers(p));
        prop_assert!(p.is_more_specific_of(sup));
    }

    #[test]
    fn v4_first_subnet_is_contained_at_the_requested_length(addr in any::<u32>(), len in 0u8..=32, extra in 0u8..=8) {
        let p = Ipv4Prefix::new(addr, len).unwrap();
        let new_len = (len + extra).min(32);
        let sub = p.first_subnet(new_len).unwrap();
        prop_assert!(p.covers(sub));
        prop_assert_eq!(sub.len(), new_len);
        prop_assert_eq!(sub.network(), p.network());
    }

    #[test]
    fn v6_prefix_parse_display_roundtrip(addr in any::<u128>(), len in 0u8..=128) {
        let p = Ipv6Prefix::new(addr, len).unwrap();
        let parsed: Ipv6Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn prepend_runs_account_for_deprepended_shrinkage(
        asns in proptest::collection::vec(1u32..50, 0..20),
    ) {
        // Sum over runs of (len - 1) equals the hop count removed by
        // de-prepending, and every run AS is on the path.
        let p = AsPath::from_asns(asns.iter().map(|&n| Asn::new(n)));
        let runs: Vec<_> = p.prepend_runs().collect();
        let removed: usize = runs.iter().map(|(_, n)| n - 1).sum();
        prop_assert_eq!(p.hop_count() - p.deprepended().hop_count(), removed);
        for (a, n) in &runs {
            prop_assert!(p.contains(*a));
            prop_assert!(*n >= 2);
        }
        // A de-prepended path has no runs left.
        prop_assert_eq!(p.deprepended().prepend_runs().count(), 0);
    }

    #[test]
    fn aspath_deprepended_is_idempotent(asns in proptest::collection::vec(1u32..1000, 0..20)) {
        let p = AsPath::from_asns(asns.into_iter().map(Asn::new));
        let once = p.deprepended();
        prop_assert_eq!(p.deprepended_asns().collect::<Vec<_>>(), once.to_vec());
        let twice = once.deprepended();
        prop_assert_eq!(&once, &twice);
        // de-prepending never lengthens a path
        prop_assert!(once.hop_count() <= p.hop_count());
    }

    #[test]
    fn aspath_prepend_then_deprepend(asns in proptest::collection::vec(1u32..1000, 1..10), n in 1usize..5) {
        let base = AsPath::from_asns(asns.iter().copied().map(Asn::new));
        let deprepended_base = base.deprepended();
        let head = deprepended_base.head().unwrap();
        let mut prepended = deprepended_base.clone();
        prepended.prepend(head, n);
        prop_assert_eq!(prepended.deprepended(), deprepended_base);
    }

    #[test]
    fn aspath_origin_is_last(asns in proptest::collection::vec(1u32..1000, 1..20)) {
        let p = AsPath::from_asns(asns.iter().copied().map(Asn::new));
        prop_assert_eq!(p.origin(), Some(Asn::new(*asns.last().unwrap())));
        prop_assert_eq!(p.head(), Some(Asn::new(asns[0])));
    }

    #[test]
    fn aspath_set_counts_single_hop(
        seq in proptest::collection::vec(1u32..1000, 0..10),
        set in proptest::collection::vec(1u32..1000, 1..10),
    ) {
        let p = AsPath::from_segments(vec![
            PathSegment::Sequence(seq.iter().copied().map(Asn::new).collect()),
            PathSegment::Set(set.iter().copied().map(Asn::new).collect()),
        ]);
        prop_assert_eq!(p.hop_count(), seq.len() + 1);
    }
}
