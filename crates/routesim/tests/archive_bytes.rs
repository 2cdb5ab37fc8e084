//! Byte-level locks on collector egress and ingress, both over the MRT
//! archives `archive_all` produces for the `tiny` world's default workload
//! (seed 2018):
//!
//! * **egress** — the archives must stay the bytes recorded in
//!   `fixtures/archive_bytes_tiny_2018.txt`: per collector, the length and
//!   FNV-1a digest of the update stream and of the RIB dump;
//! * **ingress** — reading them back must stay what
//!   `fixtures/archive_decode_tiny_2018.txt` records: per collector, the
//!   record count and FNV-1a digest of every record's `Debug` form, read
//!   strictly, read lossily from a copy with damaged record bodies (plus
//!   the skip tally), and read from the RIB dump; the first collector's
//!   first [`LISTED`] records of the strict and RIB reads follow in full,
//!   so a drift shows as a readable diff.
//!
//! A third test cuts a mutation corpus from the first collector's first
//! [`CORPUS`] update records — truncated at every byte, flipped at every
//! bit, every length field inflated — and checks that the rim never panics
//! and that a strict read fails, if at all, at the record that was mutated
//! (ROADMAP item 3(d)).
//!
//! The benchmark pins `mrt.bytes_written` (a length) and
//! `digest.artefacts` (what survives parsing); neither notices two bytes
//! swapped inside a record the reader tolerates, nor a decoder that drops a
//! field no analysis reads. These do. The egress fixture was recorded at
//! the commit *before* the appending encoders, the scratch update and the
//! sort-based RIB dump replaced the per-record `Vec`s and `BTreeMap`s; the
//! ingress fixture at the commit before records were framed as sub-slices
//! of the archive and decoded into one reused update. Each is the old
//! code's output, not the new code's opinion of itself.

use bgpworms_mrt::{Bgp4mpMessage, LossyMrtReader, MrtReader, MrtRecord, UpdateStream};
use bgpworms_routesim::workload::APRIL_2018;
use bgpworms_routesim::{archive_all, CollectorArchive, Workload, WorkloadParams};
use bgpworms_topology::{addressing::AddressingParams, PrefixAllocation, TopologyParams};
use std::fmt::Write as _;

const SEED: u64 = 2018;
/// Records listed in full per read in the ingress fixture.
const LISTED: usize = 20;
/// One record in this many gets a flipped bit in the lossy copy.
const DAMAGE_EVERY: usize = 4;
/// Records the mutation corpus is cut from.
const CORPUS: usize = 16;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn archives() -> Vec<CollectorArchive> {
    let topo = TopologyParams::tiny().seed(SEED).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        AddressingParams {
            seed: SEED,
            ..AddressingParams::default()
        },
    );
    let params = WorkloadParams {
        seed: SEED,
        ..WorkloadParams::default()
    };
    let workload = Workload::generate(&topo, &alloc, &params);
    let result = workload
        .simulation(&topo)
        .threads(1)
        .compile()
        .run(&workload.originations);
    assert!(result.converged);
    archive_all(
        &workload.collectors,
        &result.observations,
        APRIL_2018 + 30 * 86_400,
    )
    .expect("archiving into memory cannot fail")
}

/// One line per collector: name, then length and digest of each archive.
fn render_bytes(archives: &[CollectorArchive]) -> String {
    let mut out = String::new();
    for a in archives {
        writeln!(
            out,
            "{} updates {} {:016x} rib {} {:016x}",
            a.name,
            a.updates_mrt.len(),
            fnv1a(&a.updates_mrt),
            a.rib_mrt.len(),
            fnv1a(&a.rib_mrt),
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Flips one bit inside the body of every [`DAMAGE_EVERY`]-th record, at a
/// position and bit that depend only on the record's number. Headers are
/// left alone, so the framing survives.
fn damage(archive: &[u8]) -> Vec<u8> {
    let mut out = archive.to_vec();
    let (mut pos, mut record) = (0, 0);
    while pos + 12 <= out.len() {
        let len = u32::from_be_bytes([out[pos + 8], out[pos + 9], out[pos + 10], out[pos + 11]]);
        let body = pos + 12;
        if record % DAMAGE_EVERY == 0 && len > 0 {
            out[body + (record * 31) % len as usize] ^= 1 << (record % 8);
        }
        record += 1;
        pos = body + len as usize;
    }
    out
}

/// The `Debug` form of each item, or of its error.
fn lines<T: std::fmt::Debug, E: std::fmt::Display>(
    items: impl Iterator<Item = Result<T, E>>,
) -> Vec<String> {
    items
        .map(|item| match item {
            Ok(record) => format!("{record:?}"),
            Err(e) => format!("Err({e})"),
        })
        .collect()
}

fn summary(lines: &[String]) -> String {
    format!(
        "{} {:016x}",
        lines.len(),
        fnv1a(lines.join("\n").as_bytes())
    )
}

/// Per collector, a summary line of the strict, lossy and RIB reads; for
/// the first collector, then, its first [`LISTED`] records of the strict
/// and of the RIB read.
fn render_decode(archives: &[CollectorArchive]) -> String {
    let mut out = String::new();
    for (n, a) in archives.iter().enumerate() {
        let strict = lines(MrtReader::new(a.updates_mrt.as_slice()));
        let damaged = damage(&a.updates_mrt);
        let mut lossy_reader = LossyMrtReader::new(damaged.as_slice());
        let lossy = lines(lossy_reader.by_ref());
        let rib = lines(MrtReader::new(a.rib_mrt.as_slice()));
        writeln!(
            out,
            "{} strict {} lossy {} skipped [{}] rib {}",
            a.name,
            summary(&strict),
            summary(&lossy),
            lossy_reader.skipped(),
            summary(&rib),
        )
        .expect("writing to a String cannot fail");
        let listed = if n == 0 { LISTED } else { 0 };
        for (kind, list) in [("u", &strict), ("r", &rib)] {
            for (i, line) in list.iter().take(listed).enumerate() {
                writeln!(out, "  {kind}{i} {line}").expect("writing to a String cannot fail");
            }
        }
    }
    out
}

#[test]
fn tiny_world_archives_match_the_recorded_bytes() {
    let recorded = include_str!("fixtures/archive_bytes_tiny_2018.txt");
    let got = render_bytes(&archives());
    assert!(
        got.lines().count() > 1 && !got.contains(" updates 0 "),
        "the fixture world must exercise every collector:\n{got}"
    );
    assert_eq!(
        got, recorded,
        "collector archive bytes drifted from the recorded fixture"
    );
}

#[test]
fn tiny_world_archives_decode_to_the_recorded_records() {
    let recorded = include_str!("fixtures/archive_decode_tiny_2018.txt");
    let archives = archives();
    let got = render_decode(&archives);
    assert!(
        got.lines().count() > LISTED && got.contains("bad-bgp-message: "),
        "the damaged copies must make the lossy reader skip:\n{got}"
    );
    assert_eq!(
        got, recorded,
        "decoding the collector archives drifted from the recorded fixture"
    );
    // One message refilled through a whole feed reads what the strict
    // reader's fresh records hold.
    for a in &archives {
        let mut stream = UpdateStream::new(&a.updates_mrt);
        let mut message = Bgp4mpMessage::default();
        let mut reused = Vec::new();
        while stream.next_into(&mut message).expect("a clean archive") {
            reused.push(MrtRecord::Bgp4mp(message.clone()));
        }
        let strict: Vec<MrtRecord> = MrtReader::new(&a.updates_mrt)
            .map(|r| r.expect("a clean archive"))
            .collect();
        assert_eq!(reused, strict, "{}", a.name);
    }
}

fn be(bytes: &[u8], at: usize, width: usize) -> usize {
    (bytes[at..at + width].iter()).fold(0, |v, &b| v << 8 | usize::from(b))
}

/// Where each of the first `n` records of `archive` starts, and where the
/// last of them ends.
fn record_starts(archive: &[u8], n: usize) -> Vec<usize> {
    let mut starts = vec![0];
    for _ in 0..n {
        let at = starts[starts.len() - 1];
        starts.push(at + 12 + be(archive, at + 8, 4));
    }
    starts
}

/// Every length field of the BGP4MP `MESSAGE_AS4` record at `at`, as
/// (offset, width): the MRT length, the BGP message length, the withdrawn
/// and attribute lengths, each attribute's length and each AS_PATH
/// segment's ASN count.
fn length_fields(bytes: &[u8], at: usize) -> Vec<(usize, usize)> {
    // Peer and local AS, interface index, address family, two addresses.
    let address = if be(bytes, at + 22, 2) == 1 { 4 } else { 16 };
    let message = at + 12 + 12 + 2 * address;
    let withdrawn = message + 19;
    let attrs = withdrawn + 2 + be(bytes, withdrawn, 2);
    let mut fields = vec![(at + 8, 4), (message + 16, 2), (withdrawn, 2), (attrs, 2)];
    let (mut pos, end) = (attrs + 2, attrs + 2 + be(bytes, attrs, 2));
    while pos < end {
        let width = if bytes[pos] & 0x10 != 0 { 2 } else { 1 };
        fields.push((pos + 2, width));
        let (body, len) = (pos + 2 + width, be(bytes, pos + 2, width));
        let mut segment = body;
        while bytes[pos + 1] == 2 && segment < body + len {
            fields.push((segment + 1, 1));
            segment += 2 + 4 * usize::from(bytes[segment + 1]);
        }
        pos = body + len;
    }
    fields
}

/// `bytes` with the big-endian field at `at` raised by `by`, wrapping
/// within its width, or set to its maximum.
fn inflated(bytes: &[u8], (at, width): (usize, usize), by: Option<u64>) -> Vec<u8> {
    let max = (1u64 << (8 * width)) - 1;
    let value = by.map_or(max, |by| (be(bytes, at, width) as u64 + by) & max);
    let mut out = bytes.to_vec();
    out[at..at + width].copy_from_slice(&value.to_be_bytes()[8 - width..]);
    out
}

/// Reads `bytes` strictly, lossily and as an update stream: nothing may
/// panic, and the strict read may fail only at the record starting at
/// `mutated` — and must, when `must_fail`.
fn check(bytes: &[u8], mutated: usize, must_fail: bool, shape: &str) {
    let mut strict = MrtReader::new(bytes);
    let failed_at = loop {
        match strict.next_record() {
            Ok(Some(_)) => {}
            Ok(None) => break None,
            Err(_) => break Some(strict.offset()),
        }
    };
    assert!(
        failed_at.is_none_or(|at| at == mutated),
        "{shape}: failed at {failed_at:?}, mutated the record at {mutated}"
    );
    assert!(!must_fail || failed_at.is_some(), "{shape}: read cleanly");
    LossyMrtReader::new(bytes).for_each(drop);
    UpdateStream::new(bytes).for_each(drop);
}

#[test]
fn mutated_records_never_panic_and_fail_where_they_start() {
    let archives = archives();
    let archive = &archives[0].updates_mrt;
    let starts = record_starts(archive, CORPUS);
    let base = &archive[..starts[CORPUS]];
    let record_of = |byte: usize| starts.partition_point(|&s| s <= byte) - 1;

    for cut in 0..base.len() {
        let k = record_of(cut);
        check(
            &base[..cut],
            starts[k],
            cut != starts[k],
            &format!("cut at {cut}"),
        );
    }
    for bit in 0..8 * base.len() {
        let mut bytes = base.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        check(
            &bytes,
            starts[record_of(bit / 8)],
            false,
            &format!("bit {bit}"),
        );
    }
    let mut inflations = 0;
    for &start in &starts[..CORPUS] {
        for field in length_fields(base, start) {
            for by in [Some(1), Some(255), None] {
                let shape = format!("field {field:?} of the record at {start} + {by:?}");
                check(&inflated(base, field, by), start, false, &shape);
                inflations += 1;
            }
        }
    }
    assert!(inflations >= CORPUS * 8 * 3, "{inflations} inflations");

    // The same shapes through the wire decoder, on each embedded UPDATE
    // alone: never a panic, and every truncation an error.
    let cfg = bgpworms_wire::CodecConfig::modern();
    for &start in &starts[..CORPUS] {
        let fields = length_fields(base, start);
        let message_at = fields[1].0 - 16;
        let message = &base[message_at..message_at + be(base, fields[1].0, 2)];
        for cut in 0..message.len() {
            assert!(bgpworms_wire::decode_message(&message[..cut], cfg).is_err());
        }
        for bit in 0..8 * message.len() {
            let mut bytes = message.to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let _ = bgpworms_wire::decode_message(&bytes, cfg);
        }
        for &(at, width) in &fields[1..] {
            for by in [Some(1), Some(255), None] {
                let bytes = inflated(message, (at - message_at, width), by);
                let _ = bgpworms_wire::decode_message(&bytes, cfg);
            }
        }
    }
}
