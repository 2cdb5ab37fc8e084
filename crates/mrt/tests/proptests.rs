//! Property tests: MRT archives round-trip arbitrary update batches, the
//! reader survives arbitrary byte soup without panicking, a writer's reused
//! body buffer never shows in its output, and neither does the message an
//! update stream decodes into again and again.

use bgpworms_mrt::{
    write_state_change, write_update, write_update_into, Bgp4mpMessage, LossyMrtReader, MrtReader,
    MrtRecord, MrtWriter, PeerEntry, RibEntry, TableDumpWriter, UpdateStream,
};
use bgpworms_types::{AsPath, Asn, Community, Ipv4Prefix, PathAttributes, Prefix, RouteUpdate};
use proptest::prelude::*;

fn arb_update() -> impl Strategy<Value = RouteUpdate> {
    (
        proptest::collection::vec((any::<u32>(), 8u8..=32), 1..6),
        proptest::collection::vec(1u32..1_000_000, 1..6),
        proptest::collection::vec(any::<u32>(), 0..8),
    )
        .prop_map(|(prefixes, path, comms)| {
            let attrs = PathAttributes {
                as_path: AsPath::from_asns(path.into_iter().map(Asn::new)),
                next_hop: Some("10.0.0.1".parse().unwrap()),
                communities: comms.into_iter().map(Community::from_u32).collect(),
                ..PathAttributes::default()
            };
            RouteUpdate {
                withdrawn: vec![],
                attrs,
                announced: prefixes
                    .into_iter()
                    .map(|(a, l)| Prefix::V4(Ipv4Prefix::new(a, l).unwrap()))
                    .collect(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_capped(128))]

    #[test]
    fn archive_roundtrips_update_batches(
        updates in proptest::collection::vec(arb_update(), 1..20),
        peer_as in 1u32..1_000_000,
        ts0 in any::<u32>(),
    ) {
        let mut w = MrtWriter::new(Vec::new());
        for (i, u) in updates.iter().enumerate() {
            write_update_into(
                &mut w,
                ts0.wrapping_add(i as u32),
                Asn::new(peer_as),
                Asn::new(64_500),
                "10.0.0.2".parse().unwrap(),
                u,
            ).unwrap();
        }
        let buf = w.into_inner();
        let decoded: Vec<RouteUpdate> = UpdateStream::new(buf.as_slice())
            .map(|r| r.unwrap().update)
            .collect();
        prop_assert_eq!(decoded, updates);
    }

    /// One writer, one body buffer, many records: whatever a longer record
    /// left in the buffer, the next (shorter, longer, refused, of another
    /// kind) is the bytes a brand-new writer produces for it alone.
    #[test]
    fn reused_writer_equals_a_fresh_writer_per_record(
        records in proptest::collection::vec(
            (arb_update(), prop_oneof![Just(0u32), 1u32..40, 200u32..1100], 0u8..8),
            1..24,
        ),
    ) {
        let peer = Asn::new(2);
        let local = Asn::new(64_500);
        let ip: std::net::IpAddr = "10.0.0.2".parse().unwrap();
        let mut reused = MrtWriter::new(Vec::new());
        let mut fresh = Vec::new();
        for (ts, (mut update, extra, kind)) in records.into_iter().enumerate() {
            let ts = ts as u32;
            // Sizes from a few dozen bytes up to past the 4 096-byte cap.
            update.attrs.communities.extend((0..extra).map(Community::from_u32));
            if kind == 0 {
                write_state_change(&mut reused, ts, peer, local, ip, 1, 6).unwrap();
                let mut one = MrtWriter::new(&mut fresh);
                write_state_change(&mut one, ts, peer, local, ip, 1, 6).unwrap();
                continue;
            }
            let before = fresh.len();
            let alone = write_update(&mut fresh, ts, peer, local, ip, &update).map(|_| ());
            let shared = write_update_into(&mut reused, ts, peer, local, ip, &update);
            prop_assert_eq!(shared.is_ok(), alone.is_ok());
            if alone.is_err() {
                prop_assert_eq!(fresh.len(), before, "a refused record left bytes behind");
            }
        }
        prop_assert_eq!(reused.into_inner(), fresh);
    }

    /// The same for a RIB dump, whose records share the buffer with the
    /// peer index table that opened the dump.
    #[test]
    fn reused_dump_writer_equals_one_dump_per_record(
        ribs in proptest::collection::vec(
            (arb_update(), proptest::collection::vec(0u32..300, 0..5)),
            1..12,
        ),
    ) {
        let peers = [PeerEntry { bgp_id: 1, ip: "10.0.0.2".parse().unwrap(), asn: Asn::new(2) }];
        let dump = |sink| TableDumpWriter::new(sink, 9, 1, "view", &peers).unwrap();
        let index_table_len = dump(Vec::new()).into_inner().len();
        let mut reused = dump(Vec::new());
        let mut fresh = dump(Vec::new()).into_inner();
        for (n, (update, sizes)) in ribs.into_iter().enumerate() {
            let entries: Vec<RibEntry> = sizes
                .into_iter()
                .map(|extra| {
                    let mut attrs = update.attrs.clone();
                    attrs.communities.extend((0..extra).map(Community::from_u32));
                    RibEntry { peer_index: 0, originated_time: extra, attrs }
                })
                .collect();
            reused.write_rib(update.announced[0], &entries).unwrap();
            // A dump of its own numbers its record 0; patch the sequence.
            let mut alone = dump(Vec::new());
            alone.write_rib(update.announced[0], &entries).unwrap();
            let mut record = alone.into_inner().split_off(index_table_len);
            record[12..16].copy_from_slice(&(n as u32).to_be_bytes());
            fresh.extend_from_slice(&record);
        }
        prop_assert_eq!(reused.into_inner(), fresh);
    }

    /// One message, refilled record after record — longer updates, shorter
    /// ones, state changes and unknown records between them, damage
    /// anywhere — reads exactly what the iterator's fresh message per item
    /// reads, up to and including the first error.
    #[test]
    fn next_into_a_reused_message_equals_the_iterator(
        records in proptest::collection::vec(
            (arb_update(), prop_oneof![Just(0u32), 1u32..40], 0u8..6),
            1..16,
        ),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 0..3),
        frac in 0.5f64..=1.0,
    ) {
        let (peer, local, ip) = (Asn::new(2), Asn::new(64_500), "10.0.0.2".parse().unwrap());
        let mut w = MrtWriter::new(Vec::new());
        for (ts, (mut update, extra, kind)) in records.into_iter().enumerate() {
            match kind {
                0 => write_state_change(&mut w, ts as u32, peer, local, ip, 1, 6).unwrap(),
                1 => w.write_record(ts as u32, 999, 0, &[0xAB; 5]).unwrap(),
                _ => {
                    update.attrs.communities.extend((0..extra).map(Community::from_u32));
                    write_update_into(&mut w, ts as u32, peer, local, ip, &update).unwrap();
                }
            }
        }
        let mut buf = w.into_inner();
        buf.truncate((buf.len() as f64 * frac) as usize);
        for (pos, bit) in flips {
            if !buf.is_empty() {
                let i = pos % buf.len();
                buf[i] ^= 1 << bit;
            }
        }

        let mut owned = UpdateStream::new(&buf);
        let mut reused = UpdateStream::new(&buf);
        let mut message = Bgp4mpMessage::default();
        loop {
            let want = owned.next();
            let got = match reused.next_into(&mut message) {
                Ok(true) => Some(Ok(message.clone())),
                Ok(false) => None,
                Err(e) => Some(Err(e)),
            };
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            if !matches!(want, Some(Ok(_))) {
                break;
            }
        }
    }

    #[test]
    fn reader_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut r = MrtReader::new(data.as_slice());
        // Drain until error or EOF; no panics allowed.
        for _ in 0..64 {
            match r.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    #[test]
    fn reader_never_panics_on_typed_garbage(
        mrt_type in prop_oneof![Just(13u16), Just(16u16), Just(17u16)],
        subtype in 0u16..8,
        body in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut rec = Vec::new();
        rec.extend_from_slice(&0u32.to_be_bytes());
        rec.extend_from_slice(&mrt_type.to_be_bytes());
        rec.extend_from_slice(&subtype.to_be_bytes());
        rec.extend_from_slice(&(body.len() as u32).to_be_bytes());
        rec.extend_from_slice(&body);
        let mut r = MrtReader::new(rec.as_slice());
        let _ = r.next_record();
    }

    #[test]
    fn lossy_reading_of_a_clean_archive_skips_nothing(
        updates in proptest::collection::vec(arb_update(), 1..10),
    ) {
        let mut w = MrtWriter::new(Vec::new());
        for u in &updates {
            write_update_into(&mut w, 0, Asn::new(2), Asn::new(1),
                "10.0.0.2".parse().unwrap(), u).unwrap();
        }
        let buf = w.into_inner();
        let strict: Vec<MrtRecord> =
            MrtReader::new(buf.as_slice()).map(|r| r.unwrap()).collect();
        let mut lossy = LossyMrtReader::new(buf.as_slice());
        let relaxed: Vec<MrtRecord> = lossy.by_ref().map(|r| r.unwrap()).collect();
        prop_assert_eq!(relaxed, strict);
        prop_assert_eq!(lossy.skipped().total(), 0);
    }

    #[test]
    fn lossy_reader_survives_truncation_and_bit_flips(
        updates in proptest::collection::vec(arb_update(), 1..6),
        frac in 0.0f64..=1.0,
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 0..8),
    ) {
        let mut w = MrtWriter::new(Vec::new());
        for u in &updates {
            write_update_into(&mut w, 0, Asn::new(2), Asn::new(1),
                "10.0.0.2".parse().unwrap(), u).unwrap();
        }
        let mut buf = w.into_inner();
        // Random truncation...
        let cut = ((buf.len() as f64) * frac) as usize;
        buf.truncate(cut.min(buf.len()));
        // ...and random bit flips anywhere in what remains.
        for (pos, bit) in flips {
            if !buf.is_empty() {
                let i = pos % buf.len();
                buf[i] ^= 1 << bit;
            }
        }
        // Drain the lossy reader: any mix of yielded records, skips, and
        // a final structural error is acceptable — panicking is not, and
        // the skip tally must agree with the record count.
        let mut r = LossyMrtReader::new(buf.as_slice());
        let mut yielded = 0u64;
        loop {
            match r.next_record() {
                Ok(Some(_)) => yielded += 1,
                Ok(None) => break,
                Err(_) => break, // structural damage is a graceful stop
            }
        }
        prop_assert_eq!(yielded + r.skipped().total(), r.records_read());
    }

    #[test]
    fn truncated_archives_error_not_panic(
        updates in proptest::collection::vec(arb_update(), 1..4),
        frac in 0.0f64..1.0,
    ) {
        let mut w = MrtWriter::new(Vec::new());
        for u in &updates {
            write_update_into(&mut w, 0, Asn::new(2), Asn::new(1),
                "10.0.0.2".parse().unwrap(), u).unwrap();
        }
        let buf = w.into_inner();
        let cut = ((buf.len() as f64) * frac) as usize;
        let mut r = MrtReader::new(&buf[..cut]);
        loop {
            match r.next_record() {
                Ok(Some(MrtRecord::Bgp4mp(_))) => continue,
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => break, // graceful error is acceptable
            }
        }
    }
}
