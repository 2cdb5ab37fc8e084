//! Property-based tests over the core types: parse/display round-trips and
//! structural invariants.

use bgpworms_types::{
    asn::Asn,
    aspath::{AsPath, PathSegment, INLINE},
    attr::PathAttributes,
    community::{normalize, Community},
    ext_community::ExtendedCommunity,
    large_community::LargeCommunity,
    prefix::{Ipv4Prefix, Ipv6Prefix},
};
use bgpworms_wire::{decode_attributes, encode_attributes, CodecConfig};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

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

/// The reference model of an AS path: a plain segment list, none of them
/// without ASes, with every query written over it directly. `AsPath` must
/// answer as it does, print the same `Debug` and hash the same stream.
mod model {
    use bgpworms_types::{asn::Asn, aspath::PathSegment};

    #[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
    pub struct AsPath {
        pub segments: Vec<PathSegment>,
    }

    impl AsPath {
        /// The path of `segments`, those without ASes left out.
        pub fn new(mut segments: Vec<PathSegment>) -> Self {
            segments.retain(|s| !s.asns().is_empty());
            AsPath { segments }
        }

        pub fn to_vec(&self) -> Vec<Asn> {
            self.segments
                .iter()
                .flat_map(|s| s.asns().to_vec())
                .collect()
        }

        pub fn hop_count(&self) -> usize {
            self.segments.iter().map(PathSegment::hop_count).sum()
        }

        pub fn origin(&self) -> Option<Asn> {
            match self.segments.last()? {
                PathSegment::Sequence(v) => v.last().copied(),
                PathSegment::Set(_) => None,
            }
        }

        pub fn head(&self) -> Option<Asn> {
            self.segments.first()?.asns().first().copied()
        }

        pub fn is_empty(&self) -> bool {
            self.segments.iter().all(|s| s.asns().is_empty())
        }

        pub fn prepend(&mut self, asn: Asn, n: usize) {
            match self.segments.first_mut() {
                _ if n == 0 => {}
                Some(PathSegment::Sequence(v)) => {
                    v.splice(0..0, vec![asn; n]);
                }
                _ => self.segments.insert(0, PathSegment::Sequence(vec![asn; n])),
            }
        }

        pub fn deprepended(&self) -> AsPath {
            let collapse = |v: &Vec<Asn>| {
                let mut v = v.clone();
                v.dedup();
                v
            };
            let segments = (self.segments.iter())
                .map(|s| match s {
                    PathSegment::Sequence(v) => PathSegment::Sequence(collapse(v)),
                    PathSegment::Set(v) => PathSegment::Set(v.clone()),
                })
                .collect();
            AsPath { segments }
        }

        pub fn prepend_runs(&self) -> Vec<(Asn, usize)> {
            let mut runs = Vec::new();
            for s in &self.segments {
                if let PathSegment::Sequence(v) = s {
                    let mut i = 0;
                    while i < v.len() {
                        let run = v[i..].iter().take_while(|&&a| a == v[i]).count();
                        if run > 1 {
                            runs.push((v[i], run));
                        }
                        i += run;
                    }
                }
            }
            runs
        }

        pub fn display(&self) -> String {
            let words: Vec<String> = (self.segments.iter())
                .flat_map(|s| match s {
                    PathSegment::Sequence(v) => v.iter().map(|a| a.get().to_string()).collect(),
                    PathSegment::Set(v) => {
                        let members: Vec<String> = v.iter().map(|a| a.get().to_string()).collect();
                        vec![format!("{{{}}}", members.join(","))]
                    }
                })
                .collect();
            words.join(" ")
        }
    }
}

/// Up to three segments, sets and sequences, each of 0 to `2 * INLINE + 1`
/// ASes out of six, so prepend runs, short and long sequences and equal
/// paths all come up.
fn arb_segments() -> impl Strategy<Value = Vec<PathSegment>> {
    let segment = (
        any::<bool>(),
        proptest::collection::vec(1u32..7, 0..=2 * INLINE + 1),
    )
        .prop_map(|(set, asns)| {
            let asns = asns.into_iter().map(Asn::new).collect();
            if set {
                PathSegment::Set(asns)
            } else {
                PathSegment::Sequence(asns)
            }
        });
    proptest::collection::vec(segment, 0..=3)
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Every query of `path` equals the model's.
fn same_as_model(path: &AsPath, model: &model::AsPath, how: &dyn fmt::Display) {
    assert_eq!(format!("{path:?}"), format!("{model:?}"), "{how}: Debug");
    assert_eq!(hash_of(path), hash_of(model), "{how}: hash stream");
    assert_eq!(path.to_vec(), model.to_vec(), "{how}: to_vec");
    assert_eq!(path.hop_count(), model.hop_count(), "{how}: hop_count");
    assert_eq!(path.origin(), model.origin(), "{how}: origin");
    assert_eq!(path.head(), model.head(), "{how}: head");
    assert_eq!(path.is_empty(), model.is_empty(), "{how}: is_empty");
    assert_eq!(path.to_string(), model.display(), "{how}: Display");
    assert_eq!(
        path.prepend_runs().collect::<Vec<_>>(),
        model.prepend_runs(),
        "{how}: prepend_runs"
    );
    let deprepended = model.deprepended().to_vec();
    assert_eq!(
        path.deprepended_asns().collect::<Vec<_>>(),
        deprepended,
        "{how}: deprepended_asns"
    );
    for asn in (0..8).map(Asn::new) {
        assert_eq!(
            path.contains(asn),
            model.to_vec().contains(&asn),
            "{how}: contains {asn}"
        );
        let position = deprepended.iter().position(|&a| a == asn);
        assert_eq!(path.position(asn), position, "{how}: position {asn}");
    }
}

/// `path` through the AS_PATH codec and back.
fn wire_round_trip(path: &AsPath) -> AsPath {
    let attrs = PathAttributes {
        as_path: path.clone(),
        ..PathAttributes::default()
    };
    let cfg = CodecConfig::modern();
    let bytes = encode_attributes(&attrs, &[], &[], cfg).expect("encodes");
    decode_attributes(&bytes, cfg)
        .expect("decodes")
        .attrs
        .as_path
}

proptest! {
    /// An `AsPath` is its segment list: built by every constructor, prepended,
    /// cloned, de-prepended and sent through the AS_PATH codec, it answers
    /// every query as the model does, and two paths are equal (and hash
    /// equal) exactly when their models are.
    #[test]
    fn aspath_answers_as_its_segment_list_in_either_form(
        segments in arb_segments(),
        prepends in proptest::collection::vec((1u32..7, 0usize..=4), 0..4),
    ) {
        let model = model::AsPath::new(segments.clone());
        let mut built: Vec<(String, AsPath, model::AsPath)> = Vec::new();
        let path = AsPath::from_segments(segments.clone());
        built.push(("from_segments".into(), path.clone(), model.clone()));
        if let [PathSegment::Sequence(asns)] = &segments[..] {
            built.push(("from_asns".into(), AsPath::from_asns(asns.clone()), model.clone()));
        }
        built.push(("clone".into(), built[0].1.clone(), model.clone()));
        built.push(("wire".into(), wire_round_trip(&path), model.clone()));
        let (mut p, mut m) = (path.clone(), model.clone());
        for (k, &(asn, n)) in prepends.iter().enumerate() {
            p.prepend(Asn::new(asn), n);
            m.prepend(Asn::new(asn), n);
            built.push((format!("prepend #{k} ({asn} x{n})"), p.clone(), m.clone()));
        }
        built.push(("prepended, de-prepended".into(), p.deprepended(), m.deprepended()));
        built.push(("de-prepended".into(), path.deprepended(), model.deprepended()));
        let fresh = AsPath::from_segments(model.deprepended().segments);
        built.push(("de-prepended, rebuilt".into(), fresh, model.deprepended()));
        built.push(("prepended, wire".into(), wire_round_trip(&p), m.clone()));

        for (how, path, model) in &built {
            same_as_model(path, model, how);
        }
        for (how_a, a, model_a) in &built {
            for (how_b, b, model_b) in &built {
                prop_assert_eq!(
                    a == b,
                    model_a == model_b,
                    "{} against {}: {:?} and {:?}", how_a, how_b, a, b
                );
                if model_a == model_b {
                    prop_assert_eq!(hash_of(a), hash_of(b), "{} against {}", how_a, how_b);
                }
            }
        }
    }
}
