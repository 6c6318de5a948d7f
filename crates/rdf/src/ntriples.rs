//! N-Triples–style import/export.
//!
//! A real RDF substrate must interoperate with dump files; this module
//! reads and writes a line-oriented N-Triples dialect:
//!
//! ```text
//! <city/0> <name> "Honolulu" .
//! <city/0> <population> "390000"^^<int> .
//! <person/0> <dob> "1961"^^<year> .
//! <person/0> <pob> <city/0> .
//! ```
//!
//! Resources are `<iri>`, string literals are quoted with `\"`/`\\`/`\n`
//! escapes, and non-string literals carry a `^^<int>` / `^^<year>` datatype
//! tag. Buffered I/O throughout (the triple log is the big artifact).

use std::io::{BufRead, Write};

use kbqa_common::error::{KbqaError, Result};

use crate::builder::GraphBuilder;
use crate::store::TripleStore;
use crate::term::{Literal, Term};
use crate::triple::NodeId;

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

fn unescape(s: &str) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            other => {
                return Err(KbqaError::MalformedRecord(format!(
                    "bad escape sequence: \\{other:?}"
                )))
            }
        }
    }
    Ok(out)
}

fn render_node(store: &TripleStore, node: NodeId, out: &mut String) {
    match store.dict().node_term(node) {
        Term::Resource(sym) => {
            out.push('<');
            out.push_str(store.dict().resolve_sym(sym));
            out.push('>');
        }
        Term::Literal(Literal::Str(sym)) => {
            out.push('"');
            escape(store.dict().resolve_sym(sym), out);
            out.push('"');
        }
        Term::Literal(Literal::Int(v)) => {
            out.push('"');
            out.push_str(&v.to_string());
            out.push_str("\"^^<int>");
        }
        Term::Literal(Literal::Year(y)) => {
            out.push('"');
            out.push_str(&y.to_string());
            out.push_str("\"^^<year>");
        }
    }
}

/// Export a store as N-Triples lines, in `(p, s, o)` order off the SO runs,
/// so a built store and its mapped twin export the same bytes.
pub fn export<W: Write>(store: &TripleStore, mut writer: W) -> Result<()> {
    let mut line = String::with_capacity(128);
    for t in store.triples() {
        line.clear();
        render_node(store, t.s, &mut line);
        line.push_str(" <");
        line.push_str(store.dict().predicate_name(t.p));
        line.push_str("> ");
        render_node(store, t.o, &mut line);
        line.push_str(" .\n");
        writer.write_all(line.as_bytes())?;
    }
    writer.flush()?;
    Ok(())
}

/// A parsed N-Triples term.
enum ParsedTerm {
    Resource(String),
    Str(String),
    Int(i64),
    Year(i32),
}

/// Parse one term starting at `input`; returns (term, rest).
fn parse_term(input: &str) -> Result<(ParsedTerm, &str)> {
    let input = input.trim_start();
    if let Some(rest) = input.strip_prefix('<') {
        let end = rest
            .find('>')
            .ok_or_else(|| KbqaError::MalformedRecord("unterminated IRI".into()))?;
        return Ok((
            ParsedTerm::Resource(rest[..end].to_owned()),
            &rest[end + 1..],
        ));
    }
    if let Some(rest) = input.strip_prefix('"') {
        // Find the closing unescaped quote.
        let bytes = rest.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => break,
                _ => i += 1,
            }
        }
        if i >= bytes.len() {
            return Err(KbqaError::MalformedRecord("unterminated literal".into()));
        }
        let raw = &rest[..i];
        let mut remainder = &rest[i + 1..];
        if let Some(tagged) = remainder.strip_prefix("^^<int>") {
            let v: i64 = raw
                .parse()
                .map_err(|_| KbqaError::MalformedRecord(format!("bad int literal {raw:?}")))?;
            remainder = tagged;
            return Ok((ParsedTerm::Int(v), remainder));
        }
        if let Some(tagged) = remainder.strip_prefix("^^<year>") {
            let v: i32 = raw
                .parse()
                .map_err(|_| KbqaError::MalformedRecord(format!("bad year literal {raw:?}")))?;
            remainder = tagged;
            return Ok((ParsedTerm::Year(v), remainder));
        }
        return Ok((ParsedTerm::Str(unescape(raw)?), remainder));
    }
    Err(KbqaError::MalformedRecord(format!(
        "expected term at: {input:?}"
    )))
}

/// Import a store from N-Triples lines. Lines starting with `#` and blank
/// lines are skipped; every other line must parse or the import fails.
///
/// Streaming: one line is read at a time into a reused buffer and fed to the
/// builder immediately, so importing a multi-gigabyte dump never buffers the
/// file — peak memory is the builder's interned graph, not the text.
pub fn import<R: BufRead>(mut reader: R) -> Result<TripleStore> {
    let mut builder = GraphBuilder::new();
    let mut line = String::with_capacity(256);
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let err =
            |why: &str| KbqaError::MalformedRecord(format!("line {lineno}: {why}: {trimmed:?}"));
        let (subject, rest) = parse_term(trimmed).map_err(|_| err("bad subject"))?;
        let ParsedTerm::Resource(s_iri) = subject else {
            return Err(err("subject must be a resource"));
        };
        let (pred, rest) = parse_term(rest).map_err(|_| err("bad predicate"))?;
        let ParsedTerm::Resource(p_name) = pred else {
            return Err(err("predicate must be an IRI"));
        };
        let (object, rest) = parse_term(rest).map_err(|_| err("bad object"))?;
        if rest.trim() != "." {
            return Err(err("missing terminating dot"));
        }
        let s = builder.resource(&s_iri);
        match object {
            ParsedTerm::Resource(iri) => {
                let o = builder.resource(&iri);
                builder.link(s, &p_name, o);
            }
            ParsedTerm::Str(v) => builder.fact_str(s, &p_name, &v),
            ParsedTerm::Int(v) => builder.fact_int(s, &p_name, v),
            ParsedTerm::Year(v) => builder.fact_year(s, &p_name, v),
        }
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample_store() -> TripleStore {
        let mut b = GraphBuilder::new();
        let city = b.resource("city/0");
        let mayor = b.resource("person/0");
        b.name(city, "Honolulu");
        b.name(mayor, "Rick \"Mayor\" Blangiardi"); // embedded quotes
        b.fact_int(city, "population", 390_000);
        b.fact_year(mayor, "dob", 1961);
        b.link(city, "mayor", mayor);
        b.build()
    }

    #[test]
    fn export_import_roundtrip() {
        let store = sample_store();
        let mut buffer = Vec::new();
        export(&store, &mut buffer).unwrap();
        let text = String::from_utf8(buffer.clone()).unwrap();
        assert!(text.contains("<city/0> <population> \"390000\"^^<int> ."));
        assert!(text.contains("\"1961\"^^<year>"));
        assert!(text.contains("\\\"Mayor\\\""));

        let restored = import(buffer.as_slice()).unwrap();
        assert_eq!(restored.len(), store.len());
        // Structural equality via re-export.
        let mut again = Vec::new();
        export(&restored, &mut again).unwrap();
        let mut lines_a: Vec<&str> = text.lines().collect();
        let mut lines_b: Vec<&str> = std::str::from_utf8(&again).unwrap().lines().collect();
        lines_a.sort_unstable();
        lines_b.sort_unstable();
        assert_eq!(lines_a, lines_b);
        // Name index works after import.
        assert_eq!(restored.entities_named("honolulu").len(), 1);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let input = b"# a comment\n\n<a> <p> \"x\" .\n".as_slice();
        let store = import(input).unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "<a> <p> \"unterminated .",
            "<a> <p> .",
            "<a> \"not-an-iri\" \"x\" .",
            "\"literal-subject\" <p> \"x\" .",
            "<a> <p> \"x\"",
            "<a> <p> \"x\"^^<int> .",
        ] {
            let result = import(bad.as_bytes());
            assert!(result.is_err(), "accepted malformed line: {bad:?}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let mut b = GraphBuilder::new();
        let r = b.resource("weird");
        b.fact_str(r, "note", "line1\nline2 \\ \"quoted\"");
        let store = b.build();
        let mut buffer = Vec::new();
        export(&store, &mut buffer).unwrap();
        let restored = import(buffer.as_slice()).unwrap();
        let note = restored.dict().find_predicate("note").unwrap();
        let r2 = restored.dict().find_resource("weird").unwrap();
        let value = restored.objects(r2, note).next().unwrap();
        assert_eq!(restored.dict().render(value), "line1\nline2 \\ \"quoted\"");
    }

    #[test]
    fn unescape_rejects_bad_sequences() {
        assert!(unescape("ok \\q").is_err());
        assert_eq!(unescape("a\\\\b").unwrap(), "a\\b");
    }
}
