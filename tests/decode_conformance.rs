//! Differential conformance of the typed request decoder against the
//! vendored `serde_json` derive.
//!
//! `QaRequest::decode` and `QaRequest::decode_batch` sit on the server's
//! client-facing boundary in place of `serde_json::from_str`, so they must
//! accept and reject exactly the same bodies and produce equal values
//! (error wording may differ; the server answers both with a 400
//! `{"error":…}`). Bodies are composed from fragment pools that cover every
//! escape (`\/ \b \f`, `\uXXXX`, surrogate pairs, lone surrogates), raw
//! control characters and multi-byte UTF-8, each JSON whitespace byte,
//! `null` for every field, unknown keys with nested values, duplicate keys,
//! the integer edge cases (`0`, `u64::MAX`, `u64::MAX + 1`, negatives,
//! `1e2`, `01`), ints and floats for `min_theta`, trailing garbage,
//! truncation at every byte of an accepted body, and non-UTF-8 input.
//!
//! The default run samples 256 bodies per shape; the `#[ignore]`d deep run
//! samples 100 000:
//!
//! ```sh
//! cargo test --release --test decode_conformance -- --ignored
//! ```

use kbqa::prelude::QaRequest;
use proptest::TestRng;

/// Inter-token whitespace: JSON's four bytes, and — rarely, since a body
/// draws many — a byte JSON does not count as whitespace.
const WHITESPACE: Pool = Pool {
    valid: &["", "", "", " ", "\t", "\n", "\r", " \r\n\t "],
    broken: &["\u{c}", "\u{b}", "\u{a0}", "\u{0}"],
};

/// A fragment pool: well-formed entries, and broken ones drawn one time in
/// eight so that most composed bodies still decode.
struct Pool {
    valid: &'static [&'static str],
    broken: &'static [&'static str],
}

const KEYS: Pool = Pool {
    valid: &[
        "\"question\"",
        "\"top_k\"",
        "\"min_theta\"",
        "\"decompose\"",
        "\"explain\"",
        "\"request_id\"",
        "\"min_epoch\"",
        "\"q\\u0075estion\"",
        "\"top\\u005fk\"",
        "\"unknown\"",
        "\"\"",
        "\"Question\"",
    ],
    broken: &["question", "\"top_k", "'top_k'"],
};

const STRINGS: Pool = Pool {
    valid: &[
        "\"what is the population of berlin\"",
        "\"who is barack obama married to\"",
        "\"\"",
        "\"esc \\\" \\\\ \\/ \\b \\f \\n \\r \\t\"",
        "\"\\u0041\\u00e9\\u6771\\u0000\"",
        "\"\\ud83d\\ude00 pair\"",
        "\"\\uD83D\\uDE00\"",
        "\"\\u+041\"",
        "\"raw \u{1} control \u{1f} chars\"",
        "\"tab\tand\nnewline raw\"",
        "\"İstanbul ΟΔΟΣ 東京 😀\"",
    ],
    broken: &[
        "\"\\ud83d lone high\"",
        "\"\\ud83d\"",
        "\"\\ude00 lone low\"",
        "\"\\ud83d\\u0041 high then not low\"",
        "\"\\ud83d\\ud83d\"",
        "\"\\u12\"",
        "\"\\u12g4\"",
        "\"\\x\"",
        "\"unterminated",
        "\"trailing backslash\\",
    ],
};

const NUMBERS: Pool = Pool {
    valid: &[
        "0",
        "7",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "-0",
        "1e2",
        "1E2",
        "1e+2",
        "1.5",
        "0.25",
        "-0.0",
        "01",
        "1e400",
        "-1e2",
        "2.0",
        "99999999999999999999999999999999999999999",
    ],
    broken: &["1-2", "1..2", "1e", "+1", ".5", "-"],
};

const LITERALS: Pool = Pool {
    valid: &["null", "true", "false"],
    broken: &["nul", "tru", "nullx", "NaN"],
};

const NESTED: Pool = Pool {
    valid: &[
        "[]",
        "{}",
        "[1,2,[3,{\"a\":null}]]",
        "{\"a\":{\"b\":[true,false,\"\\n\"]}}",
        "[ 1 , \"x\" ]",
        "[[[[]]]]",
        "{\"k\":{\"k\":{\"k\":[]}}}",
    ],
    broken: &["[1,]", "{\"a\" 1}", "[}", "{\"a\":1,}"],
};

const GARBAGE: Pool = Pool {
    valid: &["", " ", "\n"],
    broken: &["x", "}", "]", ",", "{}", "\u{0}"],
};

fn pick(rng: &mut TestRng, pool: &Pool) -> &'static str {
    let side = if chance(rng, 8) {
        pool.broken
    } else {
        pool.valid
    };
    side[(rng.next_u64() % side.len() as u64) as usize]
}

fn ws(rng: &mut TestRng) -> &'static str {
    let side = if chance(rng, 64) {
        WHITESPACE.broken
    } else {
        WHITESPACE.valid
    };
    side[(rng.next_u64() % side.len() as u64) as usize]
}

fn chance(rng: &mut TestRng, one_in: u64) -> bool {
    rng.next_u64().is_multiple_of(one_in)
}

/// A value for `key`: usually one of its own type (so many bodies decode),
/// sometimes anything at all.
fn value(rng: &mut TestRng, key: &str) -> String {
    let pool = match (chance(rng, 4), key) {
        (true, _) => [&STRINGS, &NUMBERS, &LITERALS, &NESTED][(rng.next_u64() % 4) as usize],
        (false, "\"question\"" | "\"q\\u0075estion\"") => &STRINGS,
        (false, "\"decompose\"" | "\"explain\"") => &LITERALS,
        (false, "\"unknown\"" | "\"\"" | "\"Question\"") => &NESTED,
        (false, _) => &NUMBERS,
    };
    pick(rng, pool).to_owned()
}

/// One request object: members in random order, keys possibly repeated.
fn object(rng: &mut TestRng) -> String {
    let mut out = String::from("{");
    out += ws(rng);
    let members = rng.next_u64() % 5;
    for i in 0..members {
        if i > 0 {
            out += ws(rng);
            if !chance(rng, 40) {
                out.push(',');
            }
        }
        out += ws(rng);
        let key = if i == 0 && !chance(rng, 6) {
            "\"question\""
        } else {
            pick(rng, &KEYS)
        };
        out += key;
        out += ws(rng);
        if !chance(rng, 40) {
            out.push(':');
        }
        out += ws(rng);
        out += &value(rng, key);
    }
    if chance(rng, 40) {
        out.push(',');
    }
    out += ws(rng);
    out.push('}');
    out
}

fn batch(rng: &mut TestRng) -> String {
    let mut out = String::from(ws(rng));
    out.push('[');
    let items = rng.next_u64() % 4;
    for i in 0..items {
        if i > 0 && !chance(rng, 40) {
            out.push(',');
        }
        out += ws(rng);
        out += &if chance(rng, 20) {
            value(rng, "")
        } else {
            object(rng)
        };
    }
    out += ws(rng);
    out.push(']');
    out
}

/// Decode `body` both ways and demand the same verdict and value. Returns
/// whether the body was accepted.
fn agree(body: &[u8]) -> bool {
    let typed = QaRequest::decode(body);
    let typed_batch = QaRequest::decode_batch(body);
    let Ok(text) = std::str::from_utf8(body) else {
        assert!(typed.is_err(), "accepted non-UTF-8 body {body:?}");
        assert!(typed_batch.is_err(), "accepted non-UTF-8 batch {body:?}");
        return false;
    };
    let reference = serde_json::from_str::<QaRequest>(text);
    let reference_batch = serde_json::from_str::<Vec<QaRequest>>(text);
    // Debug renderings compare floats bit for bit (`-0.0` vs `0.0`).
    assert_eq!(
        format!("{:?}", typed.as_ref().ok()),
        format!("{:?}", reference.as_ref().ok()),
        "request body {text:?}: typed {typed:?}, serde_json {:?}",
        reference.as_ref().err().map(ToString::to_string)
    );
    assert_eq!(
        format!("{:?}", typed_batch.as_ref().ok()),
        format!("{:?}", reference_batch.as_ref().ok()),
        "batch body {text:?}: typed {typed_batch:?}, serde_json {:?}",
        reference_batch.as_ref().err().map(ToString::to_string)
    );
    typed.is_ok() || typed_batch.is_ok()
}

fn sweep(name: &str, cases: u32) {
    let mut rng = TestRng::from_name(name);
    let mut accepted = 0;
    for _ in 0..cases {
        let mut body = if chance(&mut rng, 3) {
            batch(&mut rng)
        } else {
            object(&mut rng)
        };
        body = format!("{}{}{}", ws(&mut rng), body, ws(&mut rng));
        body += pick(&mut rng, &GARBAGE);
        let mut bytes = body.into_bytes();
        if chance(&mut rng, 16) {
            // Splice in a byte that can never appear in UTF-8.
            let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
            bytes.insert(at, 0xff);
        }
        if agree(&bytes) {
            accepted += 1;
            for end in 0..bytes.len() {
                agree(&bytes[..end]);
            }
        }
    }
    assert!(
        accepted * 5 >= cases,
        "only {accepted} of {cases} bodies were valid: the pools exercise too little"
    );
}

#[test]
fn typed_decoder_agrees_with_serde_json() {
    sweep("typed_decoder_agrees_with_serde_json", 256);
}

#[test]
#[ignore = "deep run: 100 000 bodies (CI runs it in release)"]
fn typed_decoder_agrees_with_serde_json_deep() {
    sweep("typed_decoder_agrees_with_serde_json_deep", 100_000);
}

#[test]
fn every_fragment_in_every_field() {
    let all = |pool: &Pool| pool.valid.iter().chain(pool.broken).copied();
    for space in all(&WHITESPACE) {
        agree(
            format!("{space}{{{space}\"question\"{space}:{space}\"q\"{space}}}{space}").as_bytes(),
        );
        agree(
            format!("[{space}{{\"question\":\"q\"}}{space},{space}{{\"question\":\"r\"}}]")
                .as_bytes(),
        );
    }
    for key in all(&KEYS) {
        for pool in [&STRINGS, &NUMBERS, &LITERALS, &NESTED] {
            for v in all(pool) {
                agree(format!("{{\"question\":\"q\",{key}:{v}}}").as_bytes());
                agree(format!("{{{key}:{v},\"question\":\"q\"}}").as_bytes());
                agree(format!("[{{{key}:{v}}}]").as_bytes());
            }
        }
    }
}
