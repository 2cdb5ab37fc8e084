//! Durable checkpoints: hand-rolled, serde-free JSON persistence for
//! [`CampaignCheckpoint`], the piece that lets the campaign safety net
//! survive *process death*, not just an in-process pause.
//!
//! The in-memory checkpoint flow ([`crate::Campaign::run_chunks`] /
//! [`crate::Campaign::resume`]) already makes a campaign stoppable after
//! any chunk; this module adds [`CampaignCheckpoint::to_json`] and
//! [`CampaignCheckpoint::from_json`] so the checkpoint can be written to a
//! file between advances and restored by a fresh process. A sink rides
//! along by implementing [`DurableSink`] — a self-describing text encoding
//! of the aggregate, embedded as one JSON string.
//!
//! Like the rest of the workspace, no serialization dependency is used:
//! the writer emits a fixed-field-order, no-whitespace JSON object, and the
//! reader is a small strict cursor that accepts exactly that shape (plus
//! insignificant whitespace). Strictness is the point — a checkpoint is a
//! correctness artifact, and a half-understood one must be rejected, not
//! best-effort repaired. The format carries a version tag (`"v":1`) so a
//! future shape change fails loud instead of misreading old files.
//!
//! Restore validation is layered: `from_json` checks the version, the
//! syntax, and what no campaign writes (a checkpoint past chunk 0 bound to
//! no schedule; a non-empty `failures` list, a field kept always `[]`);
//! [`crate::Campaign::resume`] re-checks schedule digest, chunk size and
//! chunk count against the live campaign. `tests/resume.rs` drives the full
//! loop: stop after any chunk, persist, restore in a fresh session, finish
//! byte-identical to the uninterrupted run.

use crate::campaign::{CampaignCheckpoint, CampaignSink};
use bgpworms_types::Prefix;

/// A campaign sink that can round-trip through a durable checkpoint.
///
/// `encode` must be a pure function of the aggregate state and `decode`
/// its exact inverse (`decode(encode(s)) == s`), so a restored campaign
/// continues from precisely the folded state the original persisted —
/// `tests/resume.rs` holds resumed runs byte-identical to
/// uninterrupted ones, and any lossy encoding breaks that. The text may
/// contain anything (it is JSON-escaped on the way out); keep it
/// self-contained and platform-independent.
pub trait DurableSink: CampaignSink {
    /// Serializes the aggregate into a self-contained text.
    fn encode(&self) -> String;

    /// Rebuilds the aggregate from [`DurableSink::encode`] output.
    fn decode(text: &str) -> Result<Self, String>;
}

impl<S: DurableSink> CampaignCheckpoint<S> {
    /// Serializes this checkpoint into the versioned JSON text that
    /// [`CampaignCheckpoint::from_json`] restores. Deterministic: fixed
    /// field order, no whitespace, so equal checkpoints produce equal
    /// bytes (`tests/resume.rs` compares persisted texts directly).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"v\":1,\"chunks_done\":");
        out.push_str(&self.chunks_done.to_string());
        out.push_str(",\"chunk_size\":");
        out.push_str(&self.chunk_size.to_string());
        out.push_str(",\"schedule_digest\":");
        match self.schedule_digest {
            Some(d) => out.push_str(&d.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"events\":");
        out.push_str(&self.events.to_string());
        out.push_str(",\"converged\":");
        out.push_str(if self.converged { "true" } else { "false" });
        out.push_str(",\"class_sims\":");
        out.push_str(&self.class_sims.to_string());
        out.push_str(",\"class_hits\":");
        out.push_str(&self.class_hits.to_string());
        out.push_str(",\"diverged\":[");
        for (i, prefix) in self.diverged.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, &prefix.to_string());
        }
        out.push_str("],\"failures\":[],\"sink\":");
        push_json_string(&mut out, &self.sink.encode());
        out.push('}');
        out
    }

    /// Restores a checkpoint from [`CampaignCheckpoint::to_json`] text.
    ///
    /// Rejects (with a diagnostic) any version other than 1, any field out
    /// of order or missing, any malformed value, a `null` schedule digest
    /// past chunk 0 and a non-empty `failures` list — a durable checkpoint
    /// is a correctness artifact, so a half-understood one must fail loud.
    /// Schedule-digest, chunk-size and chunk-count consistency against the
    /// resuming campaign are checked by [`crate::Campaign::resume`], same as
    /// for in-memory checkpoints.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut p = Parser::new(text);
        p.token("{")?;
        p.key("v")?;
        let v = p.u64()?;
        if v != 1 {
            return Err(format!("unsupported checkpoint version {v} (expected 1)"));
        }
        p.token(",")?;
        p.key("chunks_done")?;
        let chunks_done = p.usize()?;
        p.token(",")?;
        p.key("chunk_size")?;
        let chunk_size = p.usize()?;
        p.token(",")?;
        p.key("schedule_digest")?;
        // The first advance binds the digest, so only a forged or corrupt
        // text has done chunks and no schedule to check them against.
        if chunks_done > 0 && p.peek('n') {
            return Err(p.err("the schedule digest a checkpoint past chunk 0 is bound to"));
        }
        let schedule_digest = p.opt_u64()?;
        p.token(",")?;
        p.key("events")?;
        let events = p.u64()?;
        p.token(",")?;
        p.key("converged")?;
        let converged = p.bool()?;
        p.token(",")?;
        p.key("class_sims")?;
        let class_sims = p.u64()?;
        p.token(",")?;
        p.key("class_hits")?;
        let class_hits = p.u64()?;
        p.token(",")?;
        p.key("diverged")?;
        p.token("[")?;
        let mut diverged = Vec::new();
        if !p.peek(']') {
            loop {
                diverged.push(parse_prefix(&p.string()?)?);
                if !p.try_token(",") {
                    break;
                }
            }
        }
        p.token("]")?;
        p.token(",")?;
        p.key("failures")?;
        p.token("[")?;
        if !p.peek(']') {
            return Err(p.err("an empty failures list (no prefix is ever quarantined)"));
        }
        p.token("]")?;
        p.token(",")?;
        p.key("sink")?;
        let sink = S::decode(&p.string()?)?;
        p.token("}")?;
        p.end()?;
        Ok(CampaignCheckpoint {
            sink,
            chunks_done,
            chunk_size,
            schedule_digest,
            events,
            converged,
            class_sims,
            class_hits,
            diverged,
        })
    }
}

fn parse_prefix(text: &str) -> Result<Prefix, String> {
    text.parse::<Prefix>()
        .map_err(|e| format!("bad prefix {text:?} in checkpoint: {e}"))
}

/// Appends `text` as a JSON string literal: quotes, backslashes, and every
/// control character escaped, so arbitrary sink encodings survive the
/// round trip.
fn push_json_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let n = c as u32;
                out.push(hex_digit(n >> 4));
                out.push(hex_digit(n & 0xf));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn hex_digit(n: u32) -> char {
    // lint: infallible caller masks to a nibble (0..=15), always in range
    char::from_digit(n, 16).expect("nibble is a hex digit")
}

/// A strict cursor over the checkpoint text: fixed token sequence, with
/// insignificant whitespace tolerated between tokens. Every method returns
/// a positioned diagnostic on mismatch.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser { text, pos: 0 }
    }

    fn skip_ws(&mut self) {
        let rest = &self.text[self.pos..];
        let trimmed = rest.trim_start_matches([' ', '\t', '\n', '\r']);
        self.pos += rest.len() - trimmed.len();
    }

    fn err(&self, expected: &str) -> String {
        let rest: String = self.text[self.pos..].chars().take(24).collect();
        format!(
            "malformed checkpoint at byte {}: expected {expected}, found {rest:?}",
            self.pos
        )
    }

    /// Consumes the literal `token` (after whitespace) or errors.
    fn token(&mut self, token: &str) -> Result<(), String> {
        if self.try_token(token) {
            Ok(())
        } else {
            Err(self.err(&format!("{token:?}")))
        }
    }

    /// Consumes the literal `token` if present; reports whether it did.
    fn try_token(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.text[self.pos..].starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    /// True if the next non-whitespace character is `c` (not consumed).
    fn peek(&mut self, c: char) -> bool {
        self.skip_ws();
        self.text[self.pos..].starts_with(c)
    }

    /// Consumes `"name":` — the fixed-order field label.
    fn key(&mut self, name: &str) -> Result<(), String> {
        self.token(&format!("\"{name}\""))
            .map_err(|_| self.err(&format!("field \"{name}\"")))?;
        self.token(":")
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if digits == 0 {
            return Err(self.err("a number"));
        }
        let value = rest[..digits]
            .parse::<u64>()
            .map_err(|_| self.err("a u64-sized number"))?;
        self.pos += digits;
        Ok(value)
    }

    fn usize(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        usize::try_from(n).map_err(|_| self.err("a usize-sized number"))
    }

    /// A number or `null`.
    fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        if self.try_token("null") {
            Ok(None)
        } else {
            self.u64().map(Some)
        }
    }

    fn bool(&mut self) -> Result<bool, String> {
        if self.try_token("true") {
            Ok(true)
        } else if self.try_token("false") {
            Ok(false)
        } else {
            Err(self.err("true or false"))
        }
    }

    /// A JSON string literal, unescaped.
    fn string(&mut self) -> Result<String, String> {
        self.token("\"")?;
        let mut out = String::new();
        let mut chars = self.text[self.pos..].char_indices();
        loop {
            let Some((i, c)) = chars.next() else {
                return Err(self.err("a closing quote"));
            };
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => {
                    let Some((_, esc)) = chars.next() else {
                        return Err(self.err("an escape character"));
                    };
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let Some((_, h)) = chars.next() else {
                                    return Err(self.err("four hex digits after \\u"));
                                };
                                let Some(d) = h.to_digit(16) else {
                                    return Err(self.err("four hex digits after \\u"));
                                };
                                code = code * 16 + d;
                            }
                            let Some(decoded) = char::from_u32(code) else {
                                return Err(self.err("a scalar \\u escape"));
                            };
                            out.push(decoded);
                        }
                        other => {
                            return Err(self.err(&format!("a valid escape, not \\{other}")));
                        }
                    }
                }
                c => out.push(c),
            }
        }
    }

    /// Asserts the whole text was consumed (trailing whitespace allowed).
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("end of text"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal durable aggregate: a route tally plus a text field that
    /// exercises string escaping end to end.
    #[derive(Debug, Default, PartialEq)]
    struct Tally {
        routes: u64,
        note: String,
    }

    impl CampaignSink for Tally {
        fn fold(&mut self, _prefix: Prefix, outcome: crate::PrefixOutcome) {
            self.routes += outcome.final_routes.map(|r| r.len() as u64).unwrap_or(0);
        }
        fn merge(&mut self, other: Self) {
            self.routes += other.routes;
            self.note.push_str(&other.note);
        }
    }

    impl DurableSink for Tally {
        fn encode(&self) -> String {
            format!("{}\n{}", self.routes, self.note)
        }
        fn decode(text: &str) -> Result<Self, String> {
            let (routes, note) = text
                .split_once('\n')
                .ok_or_else(|| "Tally encoding missing separator".to_string())?;
            Ok(Tally {
                routes: routes
                    .parse()
                    .map_err(|e| format!("bad Tally route count: {e}"))?,
                note: note.to_string(),
            })
        }
    }

    fn sample() -> CampaignCheckpoint<Tally> {
        CampaignCheckpoint {
            sink: Tally {
                routes: 42,
                note: "line \"one\"\n\ttab \\ done\u{1} é".into(),
            },
            chunks_done: 7,
            chunk_size: 3,
            schedule_digest: Some(0xdead_beef_0bad_cafe),
            events: 123_456,
            converged: false,
            class_sims: 9,
            class_hits: 2,
            diverged: vec!["10.1.0.0/16".parse().unwrap()],
        }
    }

    #[test]
    fn checkpoint_round_trips_byte_identically() {
        let cp = sample();
        let text = cp.to_json();
        let back = CampaignCheckpoint::<Tally>::from_json(&text).expect("restores");
        assert_eq!(back.sink, cp.sink);
        assert_eq!(back.chunks_done, cp.chunks_done);
        assert_eq!(back.chunk_size, cp.chunk_size);
        assert_eq!(back.schedule_digest, cp.schedule_digest);
        assert_eq!(back.events, cp.events);
        assert_eq!(back.converged, cp.converged);
        assert_eq!((back.class_sims, back.class_hits), (9, 2));
        assert_eq!(back.diverged, cp.diverged);
        // The writer is deterministic, so restore-then-rewrite is the
        // identity on the persisted bytes.
        assert_eq!(back.to_json(), text);
    }

    /// What `Campaign::begin` hands out: no chunk done, no schedule bound.
    fn fresh() -> CampaignCheckpoint<Tally> {
        CampaignCheckpoint {
            sink: Tally::default(),
            chunks_done: 0,
            chunk_size: 32,
            schedule_digest: None,
            events: 0,
            converged: true,
            class_sims: 0,
            class_hits: 0,
            diverged: Vec::new(),
        }
    }

    #[test]
    fn fresh_checkpoint_serializes_its_null_digest() {
        let text = fresh().to_json();
        assert!(text.contains("\"schedule_digest\":null"), "got: {text}");
        let back = CampaignCheckpoint::<Tally>::from_json(&text).expect("restores");
        assert_eq!(back.schedule_digest, None);
        assert!(back.diverged.is_empty());
    }

    #[test]
    fn a_digestless_checkpoint_past_chunk_zero_is_refused() {
        // A fresh checkpoint's text edited to claim three chunks done still
        // has no schedule digest, so nothing could check those chunks
        // against the schedule: resumed, it would start at chunk 3 and
        // silently skip every prefix before it.
        let forged = fresh()
            .to_json()
            .replacen("\"chunks_done\":0", "\"chunks_done\":3", 1);
        let err = CampaignCheckpoint::<Tally>::from_json(&forged).expect_err("must refuse");
        let at = forged.find("null").expect("the digest is null");
        assert!(
            err.starts_with(&format!(
                "malformed checkpoint at byte {at}: expected the schedule digest"
            )),
            "got: {err}"
        );
    }

    #[test]
    fn a_quarantine_list_is_refused() {
        // No campaign quarantines a prefix, so a checkpoint that lists one
        // is not one this codec wrote.
        let forged = sample().to_json().replacen(
            "\"failures\":[]",
            "\"failures\":[{\"prefix\":\"10.2.0.0/16\",\"attempts\":3,\"message\":\"x\"}]",
            1,
        );
        let err = CampaignCheckpoint::<Tally>::from_json(&forged).expect_err("must refuse");
        let at = forged.find("{\"prefix\"").expect("the forged entry");
        assert!(
            err.starts_with(&format!(
                "malformed checkpoint at byte {at}: expected an empty failures list"
            )),
            "got: {err}"
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let text = sample().to_json().replacen("\"v\":1", "\"v\":2", 1);
        let err = CampaignCheckpoint::<Tally>::from_json(&text).expect_err("must reject");
        assert!(err.contains("version 2"), "got: {err}");
    }

    #[test]
    fn malformed_texts_are_rejected_with_position() {
        for (mangled, why) in [
            (String::from("not json at all"), "garbage"),
            (
                sample().to_json().replacen("\"events\"", "\"evnts\"", 1),
                "renamed field",
            ),
            (sample().to_json() + "trailing", "trailing bytes"),
            (
                sample().to_json().replacen(":123456", ":123456.5", 1),
                "non-integer events",
            ),
        ] {
            assert!(
                CampaignCheckpoint::<Tally>::from_json(&mangled).is_err(),
                "{why} must be rejected"
            );
        }
    }

    /// Restores `text`, whatever it is: `Ok` and `Err` are both answers, a
    /// panic is not, and an error the cursor raised points into the text.
    fn probe(text: &str) {
        let verdict = std::panic::catch_unwind(|| CampaignCheckpoint::<Tally>::from_json(text))
            .unwrap_or_else(|_| panic!("from_json panicked on {text:?}"));
        let Err(err) = verdict else { return };
        if let Some(rest) = err.strip_prefix("malformed checkpoint at byte ") {
            let at = rest.split(':').next().and_then(|n| n.parse::<usize>().ok());
            assert!(at.is_some_and(|at| at <= text.len()), "{err:?} on {text:?}");
        }
    }

    #[test]
    fn mutated_checkpoint_text_is_an_answer_never_a_panic() {
        // One real checkpoint — a diverged prefix, a sink text holding
        // quotes, a backslash, control characters and a two-byte character
        // — cut and damaged every way a file can be, deterministically.
        let text = sample().to_json();
        assert!(CampaignCheckpoint::<Tally>::from_json(&text).is_ok());
        assert!(!text.is_ascii() && text.contains("\\u0001") && text.contains("\\\\"));
        for (cut, _) in text.char_indices() {
            probe(&text[..cut]);
        }
        let bytes = text.as_bytes();
        for at in 0..bytes.len() {
            for with in *b"{\"\\9," {
                let mut damaged = bytes.to_vec();
                damaged[at] = with;
                // Half a two-byte character is not text: no `&str` holds it.
                if let Ok(damaged) = String::from_utf8(damaged) {
                    probe(&damaged);
                }
            }
            // Each number one digit longer: past u64 for the digest, past
            // /32 for a prefix length.
            if bytes[at].is_ascii_digit() && !bytes.get(at + 1).is_some_and(u8::is_ascii_digit) {
                probe(&format!("{}9{}", &text[..=at], &text[at + 1..]));
            }
        }
    }

    #[test]
    fn diagnostics_name_the_byte_position() {
        let err = CampaignCheckpoint::<Tally>::from_json("{\"v\":1,\"chunks_done\":oops")
            .expect_err("must reject");
        assert!(
            err.contains("at byte") && err.contains("a number"),
            "got: {err}"
        );
    }
}
