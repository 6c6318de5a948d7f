//! Allocation-free JSON serialization for the serving-edge response types.
//!
//! The vendored `serde_json::to_string` builds an owned `Value` tree (a
//! `String` per key, a `Vec` per sequence) before writing a single byte —
//! fine for config files, ruinous on the per-response hot path. This module
//! writes [`QaResponse`] (and its constituents) **directly into a caller
//! provided byte buffer**, byte-identical to `serde_json::to_string`, with
//! zero heap allocations once the buffer has warmed to its high-water mark.
//!
//! Byte-identity contract (pinned by the `identical_to_serde_json` tests and
//! by the server's streamed-vs-buffered equivalence suite):
//!
//! * struct fields emit in declaration order, compact (no whitespace);
//! * `Option::None` → `null`, `Some(v)` → the inner value;
//! * unit enum variants (the [`Refusal`] taxonomy) → `"VariantName"`;
//! * `#[serde(transparent)]` newtypes ([`kbqa_rdf::NodeId`]) → the bare inner integer;
//! * finite floats via `{:?}` formatting, non-finite → `null` (JSON has no
//!   NaN/Infinity — same policy as the vendored writer);
//! * strings escape `"` `\` `\n` `\r` `\t` and all other control chars
//!   below 0x20 as lowercase `\u00xx`.
//!
//! Integers (node ids, numeric literals, the model epoch, stats and stage
//! timings) go through [`kbqa_common::decimal`]'s digit writer; only a
//! float's shortest round-trip digits go through [`std::fmt`], via a small
//! adapter into the buffer. Neither allocates, so the whole path is
//! allocation-free (pinned by the counting allocator test in
//! `tests/alloc_steady_state.rs`). A string is scanned a word at a time
//! for bytes that need escaping and, when it has none — the usual case —
//! copied in one piece.
//!
//! There is one answer writer, `write_answer`, generic over where a string
//! field's text comes from. [`QaResponse::serialize_into`] hands it owned
//! [`Answer`](crate::engine::Answer) strings; the engine hands it the kernel's ranked ids — store
//! surfaces (numeric literals formatted in place), template text and
//! predicate paths straight from the dictionary — so
//! [`crate::service::KbqaService::answer_into`] renders a plain BFQ
//! response without materializing an `Answer` or a `String`.

use kbqa_common::decimal::{push_i64, push_u64};
use kbqa_obs::StageBreakdown;
use kbqa_rdf::{ExpandedPredicate, NodeId, Surface, TripleStore};

use crate::engine::ChoiceStats;
use crate::service::{QaResponse, Refusal};

/// `fmt::Write` over a byte buffer, so `{:?}` float formatting lands
/// directly in the output without an intermediate `String`.
struct BufWrite<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for BufWrite<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

fn write_f64(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        use std::fmt::Write as _;
        let _ = write!(BufWrite(out), "{v:?}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Whether any byte of `bytes` is `"`, `\\` or below 0x20 — a byte
/// [`write_escaped`] must escape. Whole 8-byte words are tested at once:
/// `has_zero(w)` is non-zero iff some byte of `w` is 0 (the borrow of
/// `w - 0x01…01` reaches a byte's high bit only through a zero byte below
/// it or that byte itself), and `has_below(w, 0x20)` likewise iff some
/// byte is below 0x20; bytes ≥ 0x80 (multi-byte UTF-8) can set neither.
/// The sub-word tail is tested byte by byte.
fn needs_escape(bytes: &[u8]) -> bool {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let has_below = |w: u64, n: u8| w.wrapping_sub(ONES * u64::from(n)) & !w & HIGHS;
    let has_zero = |w: u64| has_below(w, 1);
    let mut words = bytes.chunks_exact(8);
    for word in words.by_ref() {
        let w = u64::from_ne_bytes(word.try_into().expect("8-byte chunk"));
        let hits = has_below(w, 0x20)
            | has_zero(w ^ (ONES * u64::from(b'"')))
            | has_zero(w ^ (ONES * u64::from(b'\\')));
        if hits != 0 {
            return true;
        }
    }
    words
        .remainder()
        .iter()
        .any(|&b| b < 0x20 || b == b'"' || b == b'\\')
}

/// JSON string escaping, byte-identical to the vendored writer, without the
/// surrounding quotes. A string with nothing to escape is copied whole;
/// otherwise escapes are all single-byte ASCII, so we scan bytes and copy
/// unescaped runs wholesale — multi-byte UTF-8 passes through untouched.
fn write_escaped(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    if !needs_escape(bytes) {
        out.extend_from_slice(bytes);
        return;
    }
    let mut run_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            b if b < 0x20 => {
                out.extend_from_slice(&bytes[run_start..i]);
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[(b >> 4) as usize]);
                out.push(HEX[(b & 0xf) as usize]);
                run_start = i + 1;
                continue;
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run_start..i]);
        out.extend_from_slice(esc);
        run_start = i + 1;
    }
    out.extend_from_slice(&bytes[run_start..]);
}

/// A JSON string field's text, in whatever form the writer is handed it.
pub(crate) trait JsonText {
    /// Append the text as a quoted, escaped JSON string.
    fn write_json(&self, out: &mut Vec<u8>);
}

impl JsonText for str {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.push(b'"');
        write_escaped(out, self);
        out.push(b'"');
    }
}

/// A store surface: text is escaped like any string; an integer or year
/// literal is formatted straight into the buffer (digits need no escaping).
impl JsonText for Surface<'_> {
    fn write_json(&self, out: &mut Vec<u8>) {
        match *self {
            Surface::Text(text) => text.write_json(out),
            Surface::Number(v) => {
                out.push(b'"');
                push_i64(out, v);
                out.push(b'"');
            }
        }
    }
}

/// A predicate path as [`ExpandedPredicate::render`] spells it
/// (`marriage→person→name`), written edge by edge from the store's
/// dictionary instead of through a rendered `String`.
pub(crate) struct PathText<'a> {
    pub(crate) path: &'a ExpandedPredicate,
    pub(crate) store: &'a TripleStore,
}

impl JsonText for PathText<'_> {
    fn write_json(&self, out: &mut Vec<u8>) {
        let dict = self.store.dict();
        out.push(b'"');
        for (i, &p) in self.path.edges().iter().enumerate() {
            if i > 0 {
                out.extend_from_slice("→".as_bytes());
            }
            write_escaped(out, dict.predicate_name(p));
        }
        out.push(b'"');
    }
}

fn write_refusal(out: &mut Vec<u8>, r: Refusal) {
    let name: &[u8] = match r {
        Refusal::NoEntityGrounded => b"\"NoEntityGrounded\"",
        Refusal::NoTemplateMatched => b"\"NoTemplateMatched\"",
        Refusal::NoPredicateAboveTheta => b"\"NoPredicateAboveTheta\"",
        Refusal::EmptyValueSet => b"\"EmptyValueSet\"",
    };
    out.extend_from_slice(name);
}

/// The one answer writer: every ranked answer the server sends — from an
/// owned [`Answer`](crate::engine::Answer) or straight from the kernel's ranked ids — goes
/// through here, so the two renderings cannot drift apart.
pub(crate) fn write_answer(
    out: &mut Vec<u8>,
    value: &(impl JsonText + ?Sized),
    node: Option<NodeId>,
    score: f64,
    entity: &(impl JsonText + ?Sized),
    template: &str,
    predicate: &(impl JsonText + ?Sized),
) {
    out.extend_from_slice(b"{\"value\":");
    value.write_json(out);
    out.extend_from_slice(b",\"node\":");
    match node {
        Some(node) => push_u64(out, u64::from(node.0)),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"score\":");
    write_f64(out, score);
    out.extend_from_slice(b",\"entity\":");
    entity.write_json(out);
    out.extend_from_slice(b",\"template\":");
    template.write_json(out);
    out.extend_from_slice(b",\"predicate\":");
    predicate.write_json(out);
    out.push(b'}');
}

/// A response's opening bytes, up to its first answer.
pub(crate) fn write_response_head(out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"answers\":[");
}

/// Everything after a response's last answer.
pub(crate) fn write_response_tail(
    out: &mut Vec<u8>,
    refusal: Option<Refusal>,
    stats: Option<&ChoiceStats>,
    model_epoch: u64,
    stage_us: Option<&StageBreakdown>,
) {
    out.extend_from_slice(b"],\"refusal\":");
    match refusal {
        Some(r) => write_refusal(out, r),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"stats\":");
    match stats {
        Some(s) => write_stats(out, s),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"model_epoch\":");
    push_u64(out, model_epoch);
    out.extend_from_slice(b",\"stage_us\":");
    match stage_us {
        Some(s) => write_stage_us(out, s),
        None => out.extend_from_slice(b"null"),
    }
    out.push(b'}');
}

fn write_stats(out: &mut Vec<u8>, s: &ChoiceStats) {
    out.extend_from_slice(b"{\"entities\":");
    push_u64(out, s.entities as u64);
    out.extend_from_slice(b",\"templates_per_pair\":");
    write_f64(out, s.templates_per_pair);
    out.extend_from_slice(b",\"predicates_per_template\":");
    write_f64(out, s.predicates_per_template);
    out.extend_from_slice(b",\"values_per_pair\":");
    write_f64(out, s.values_per_pair);
    out.push(b'}');
}

fn write_stage_us(out: &mut Vec<u8>, s: &StageBreakdown) {
    out.extend_from_slice(b"{\"parse_us\":");
    push_u64(out, s.parse_us);
    out.extend_from_slice(b",\"ner_grounding_us\":");
    push_u64(out, s.ner_grounding_us);
    out.extend_from_slice(b",\"conceptualize_us\":");
    push_u64(out, s.conceptualize_us);
    out.extend_from_slice(b",\"template_match_us\":");
    push_u64(out, s.template_match_us);
    out.extend_from_slice(b",\"predicate_score_us\":");
    push_u64(out, s.predicate_score_us);
    out.extend_from_slice(b",\"value_lookup_us\":");
    push_u64(out, s.value_lookup_us);
    out.extend_from_slice(b",\"rank_topk_us\":");
    push_u64(out, s.rank_topk_us);
    out.extend_from_slice(b",\"serialize_us\":");
    push_u64(out, s.serialize_us);
    out.push(b'}');
}

impl QaResponse {
    /// Serialize this response as compact JSON directly into `out`,
    /// byte-identical to `serde_json::to_string(self)` but without building
    /// the intermediate `Value` tree. Appends; does not clear the buffer.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        write_response_head(out);
        for (i, a) in self.answers.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_answer(
                out,
                a.value.as_str(),
                a.node,
                a.score,
                a.entity.as_str(),
                &a.template,
                a.predicate.as_str(),
            );
        }
        write_response_tail(
            out,
            self.refusal,
            self.stats.as_ref(),
            self.model_epoch,
            self.stage_us.as_ref(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Answer;

    fn answer(value: &str, node: Option<u32>, score: f64) -> Answer {
        Answer {
            value: value.to_string(),
            node: node.map(NodeId),
            score,
            entity: "Honolulu".to_string(),
            template: "how many people live in $city".to_string(),
            predicate: "population".to_string(),
        }
    }

    fn assert_identical(resp: &QaResponse) {
        let via_serde = serde_json::to_string(resp).expect("serde_json");
        let mut direct = Vec::new();
        resp.serialize_into(&mut direct);
        assert_eq!(
            String::from_utf8(direct).expect("utf8"),
            via_serde,
            "serialize_into must be byte-identical to serde_json"
        );
    }

    #[test]
    fn identical_to_serde_json_basic() {
        let mut resp = QaResponse::from_answers(vec![
            answer("390k", Some(7), 0.25),
            answer("400000", None, 1.0),
        ]);
        resp.model_epoch = 42;
        assert_identical(&resp);
    }

    #[test]
    fn identical_to_serde_json_refusals() {
        for refusal in [
            Refusal::NoEntityGrounded,
            Refusal::NoTemplateMatched,
            Refusal::NoPredicateAboveTheta,
            Refusal::EmptyValueSet,
        ] {
            let mut resp = QaResponse::refused(refusal);
            resp.model_epoch = u64::MAX;
            assert_identical(&resp);
        }
    }

    #[test]
    fn identical_to_serde_json_explain_payload() {
        let mut resp = QaResponse::from_answers(vec![answer("x", Some(0), 1e-9)]);
        resp.stats = Some(ChoiceStats {
            entities: 3,
            templates_per_pair: 1.5,
            predicates_per_template: 0.1,
            values_per_pair: 2.0,
        });
        resp.stage_us = Some(StageBreakdown {
            parse_us: 1,
            ner_grounding_us: 2,
            conceptualize_us: 3,
            template_match_us: 4,
            predicate_score_us: 5,
            value_lookup_us: 0,
            rank_topk_us: u64::MAX,
            serialize_us: 7,
        });
        assert_identical(&resp);
    }

    #[test]
    fn identical_to_serde_json_string_escapes() {
        for value in [
            "plain",
            "quote\"back\\slash",
            "tab\tnewline\ncarriage\r",
            "ctrl\u{01}\u{1f}bytes",
            "unicode: θ — 東京 🗼",
            "",
            "\u{0}",
        ] {
            let resp = QaResponse::from_answers(vec![answer(value, Some(1), 0.5)]);
            assert_identical(&resp);
        }

        // `write_escaped` tests whole 8-byte words, then the tail byte by
        // byte: put every escapable byte at every offset of strings that
        // end inside, on and past word edges.
        let expect_identical = |value: &str| {
            let mut direct = Vec::new();
            value.write_json(&mut direct);
            assert_eq!(
                String::from_utf8(direct).expect("utf8"),
                serde_json::to_string(value).expect("serde_json"),
                "{value:?}"
            );
        };
        let escapable = (0x00..0x20u8).chain([b'"', b'\\']);
        for byte in escapable {
            for len in 0..=24 {
                expect_identical(&"a".repeat(len));
                for at in 0..len {
                    let mut bytes = vec![b'a'; len];
                    bytes[at] = byte;
                    expect_identical(std::str::from_utf8(&bytes).expect("ascii"));
                }
            }
        }
        // Bytes ≥ 0x80 and 0x7F filling whole words are not escaped, alone
        // or beside an escape in the next word or the tail.
        for fill in [
            "θθθθ",
            "東京東京東京東京",
            "🗼🗼",
            "\u{7f}\u{7f}\u{7f}\u{7f}\u{7f}\u{7f}\u{7f}\u{7f}",
        ] {
            for tail in ["", "x", "\"", "\u{1f}", "abcdefgh\\", "\u{7f}\n"] {
                expect_identical(&format!("{fill}{tail}"));
                expect_identical(&format!("{tail}{fill}"));
                expect_identical(&format!("{fill}{fill}{tail}"));
            }
        }
    }

    #[test]
    fn identical_to_serde_json_float_edge_cases() {
        for score in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1,
            1e-9,
            1e300,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            std::f64::consts::PI,
        ] {
            let resp = QaResponse::from_answers(vec![answer("v", None, score)]);
            assert_identical(&resp);
        }
    }

    #[test]
    fn append_only_contract() {
        let resp = QaResponse::refused(Refusal::EmptyValueSet);
        let mut out = b"prefix".to_vec();
        resp.serialize_into(&mut out);
        assert!(out.starts_with(b"prefix{"));
    }

    #[test]
    fn id_writers_match_the_owned_strings() {
        let mut b = kbqa_rdf::GraphBuilder::new();
        let city = b.resource("city/\"quoted\"");
        b.name(city, "Tōkyō \"East\\Capital\"\t");
        b.fact_int(city, "population", -390_000);
        b.fact_year(city, "founded", 1457);
        let nameless = b.resource("bare/iri");
        b.link(city, "sister\ncity", nameless);
        let store = b.build();
        let mut nodes = vec![city, nameless];
        nodes.extend(store.out_edges(city).map(|t| t.o));
        for node in nodes {
            let mut by_id = Vec::new();
            store.surface_form(node).write_json(&mut by_id);
            let mut owned = Vec::new();
            store.surface(node).as_str().write_json(&mut owned);
            assert_eq!(by_id, owned, "surface of {node:?}");
            assert_eq!(
                String::from_utf8(by_id).unwrap(),
                serde_json::to_string(&store.surface(node)).unwrap()
            );
        }
        let dict = store.dict();
        let edges: Vec<_> = ["sister\ncity", "population"]
            .iter()
            .map(|p| dict.find_predicate(p).expect("interned"))
            .collect();
        for path in [
            ExpandedPredicate::single(edges[0]),
            ExpandedPredicate::new(edges.clone()),
        ] {
            let mut by_id = Vec::new();
            PathText {
                path: &path,
                store: &store,
            }
            .write_json(&mut by_id);
            assert_eq!(
                String::from_utf8(by_id).unwrap(),
                serde_json::to_string(&path.render(&store)).unwrap()
            );
        }
    }
}
