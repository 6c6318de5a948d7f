//! Conformance of the serving edge's request decoder:
//! `serde_json::from_slice` into `QaRequest` (a `POST /answer` body) and
//! `Vec<QaRequest>` (a `POST /batch` body), through the `Deserialize` that
//! `serde_derive` generates over `serde::de::Reader`.
//!
//! Two kinds of oracle, neither needing a second decoder:
//!
//! * **A sampled sweep.** Bodies are composed from fragment pools that cover
//!   every escape (`\/ \b \f`, `\uXXXX`, surrogate pairs, lone surrogates),
//!   raw control characters and multi-byte UTF-8, each JSON whitespace byte,
//!   `null` for every field, unknown keys with nested values, duplicate
//!   keys, the integer edge cases (`0`, `u64::MAX`, `u64::MAX + 1`,
//!   negatives, `1e2`, `01`), ints and floats for `min_theta`, trailing
//!   garbage and non-UTF-8 bytes. Every body is decided (`Ok` or `Err`)
//!   without a panic, as a request and as a batch; every accepted value
//!   round-trips bit for bit through `to_string` → `from_slice`; and every
//!   prefix of an accepted body is rejected unless all it drops is JSON
//!   whitespace (the top level is always `{…}` or `[…]`).
//! * **A rule table** of what `QaRequest` accepts, with concrete values:
//!   `null`s, integral floats, ranges, duplicate keys, deep unknown values,
//!   trailing data, escapes and surrogates.
//!
//! The default run samples 256 bodies; the `#[ignore]`d deep run samples
//! 100 000:
//!
//! ```sh
//! cargo test --release --test decode_conformance -- --ignored
//! ```

use kbqa::prelude::QaRequest;
use proptest::TestRng;
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Inter-token whitespace: JSON's four bytes, and — rarely, since a body
/// draws many — a byte JSON does not count as whitespace.
const WHITESPACE: Pool = Pool {
    valid: &["", "", "", " ", "\t", "\n", "\r", " \r\n\t "],
    broken: &["\u{c}", "\u{b}", "\u{a0}", "\u{0}"],
};

/// A fragment pool: well-formed entries, and broken ones drawn one time in
/// twelve, since a body draws many fragments and one broken fragment rejects
/// it. `every_fragment_in_every_field` tries every whitespace, key and value
/// fragment, broken ones included, regardless.
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
    let side = if chance(rng, 12) {
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
/// one time in five anything at all.
fn value(rng: &mut TestRng, key: &str) -> String {
    let pool = match (chance(rng, 5), key) {
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

/// A decoded value as the suite compares it: Debug renderings compare floats
/// bit for bit (`-0.0` vs `0.0`).
fn debug<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// What `request` reads back as after `to_string`: itself, except that JSON
/// has no infinity — a non-finite `min_theta` (`1e400`) writes as `null` and
/// so returns as `None`.
fn reread(request: &QaRequest) -> QaRequest {
    let mut expected = request.clone();
    expected.min_theta = expected.min_theta.filter(|theta| theta.is_finite());
    expected
}

/// Decode `body` as `T`, and check an accepted value round-trips through
/// `to_string` → `from_slice` to `expected(value)`. The verdict, as Debug.
fn decide<T, E>(body: &[u8], expected: impl Fn(&T) -> E) -> Option<String>
where
    T: DeserializeOwned + Serialize + std::fmt::Debug,
    E: std::fmt::Debug,
{
    let value = serde_json::from_slice::<T>(body).ok()?;
    let json = serde_json::to_string(&value).expect("serialize");
    let reread = serde_json::from_slice::<T>(json.as_bytes())
        .unwrap_or_else(|e| panic!("{json:?}, written from {body:?}, does not decode: {e}"));
    assert_eq!(
        debug(&reread),
        debug(&expected(&value)),
        "body {body:?} does not round-trip through {json:?}"
    );
    Some(debug(&value))
}

/// Decode `body` as a request and as a batch; both verdicts.
fn verdicts(body: &[u8]) -> (Option<String>, Option<String>) {
    (
        decide::<QaRequest, _>(body, reread),
        decide::<Vec<QaRequest>, _>(body, |batch| batch.iter().map(reread).collect::<Vec<_>>()),
    )
}

/// Apply every sweep oracle to `body`. Returns whether it was accepted.
fn check(body: &[u8]) -> bool {
    let verdict = verdicts(body);
    if std::str::from_utf8(body).is_err() {
        assert_eq!(verdict, (None, None), "accepted non-UTF-8 body {body:?}");
        return false;
    }
    if verdict == (None, None) {
        return false;
    }
    for end in 0..body.len() {
        let dropped = &body[end..];
        let expected = if dropped.iter().all(|b| b" \t\n\r".contains(b)) {
            verdict.clone()
        } else {
            (None, None)
        };
        assert_eq!(
            verdicts(&body[..end]),
            expected,
            "prefix {:?} of accepted body {body:?}",
            &body[..end]
        );
    }
    true
}

fn sweep(seed: &str, cases: u32) {
    let mut rng = TestRng::from_name(seed);
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
        if check(&bytes) {
            accepted += 1;
        }
    }
    // The pools make about one body in four valid (23 433 of the deep run's
    // 100 000); the floor of one in five catches a pool gone broken.
    assert!(
        accepted * 5 >= cases,
        "only {accepted} of {cases} bodies were valid: the pools exercise too little"
    );
}

// The seeds keep the names the two sweeps have always drawn their bodies
// from, so the sampled bodies — and the valid-body count above — stay put.

#[test]
fn sampled_bodies_conform() {
    sweep("typed_decoder_agrees_with_serde_json", 256);
}

#[test]
#[ignore = "deep run: 100 000 bodies (CI runs it in release)"]
fn sampled_bodies_conform_deep() {
    sweep("typed_decoder_agrees_with_serde_json_deep", 100_000);
}

#[test]
fn every_fragment_in_every_field() {
    let all = |pool: &Pool| pool.valid.iter().chain(pool.broken).copied();
    for space in all(&WHITESPACE) {
        check(
            format!("{space}{{{space}\"question\"{space}:{space}\"q\"{space}}}{space}").as_bytes(),
        );
        check(
            format!("[{space}{{\"question\":\"q\"}}{space},{space}{{\"question\":\"r\"}}]")
                .as_bytes(),
        );
    }
    for key in all(&KEYS) {
        for pool in [&STRINGS, &NUMBERS, &LITERALS, &NESTED] {
            for v in all(pool) {
                check(format!("{{\"question\":\"q\",{key}:{v}}}").as_bytes());
                check(format!("{{{key}:{v},\"question\":\"q\"}}").as_bytes());
                check(format!("[{{{key}:{v}}}]").as_bytes());
            }
        }
    }
}

/// `body` as a request, `None` when rejected.
fn request(body: &str) -> Option<QaRequest> {
    serde_json::from_slice(body.as_bytes()).ok()
}

#[test]
fn request_rules() {
    let q = || QaRequest::new("q");
    let rules: Vec<(&str, Option<QaRequest>)> = vec![
        (
            r#"{"question":"what is the population of berlin","request_id":7}"#,
            Some(QaRequest::new("what is the population of berlin").with_request_id(7)),
        ),
        (
            r#"{"question":"q","top_k":3,"min_theta":0.5,"decompose":false,"explain":true,"request_id":9,"min_epoch":2}"#,
            Some(QaRequest {
                top_k: Some(3),
                min_theta: Some(0.5),
                decompose: Some(false),
                explain: true,
                request_id: Some(9),
                min_epoch: Some(2),
                ..q()
            }),
        ),
        // `null` is `None` for every optional field, and an error for the
        // rest.
        (
            r#"{"question":"q","top_k":null,"min_theta":null,"decompose":null,"request_id":null,"min_epoch":null}"#,
            Some(q()),
        ),
        (r#"{"question":"q","explain":null}"#, None),
        (r#"{"question":null}"#, None),
        (r#"{"top_k":1}"#, None),
        (r#"{}"#, None),
        (r#"{"question":1}"#, None),
        // Integer fields take an integral float, cast; never a fraction or
        // an out-of-range integer.
        (
            r#"{"question":"q","top_k":2.0}"#,
            Some(QaRequest {
                top_k: Some(2),
                ..q()
            }),
        ),
        (
            r#"{"question":"q","top_k":1e2}"#,
            Some(QaRequest {
                top_k: Some(100),
                ..q()
            }),
        ),
        (r#"{"question":"q","top_k":1.5}"#, None),
        (r#"{"question":"q","top_k":-1}"#, None),
        (
            r#"{"question":"q","request_id":18446744073709551615}"#,
            Some(q().with_request_id(u64::MAX)),
        ),
        (
            r#"{"question":"q","request_id":18446744073709551616}"#,
            None,
        ),
        (
            r#"{"question":"q","min_epoch":01}"#,
            Some(QaRequest {
                min_epoch: Some(1),
                ..q()
            }),
        ),
        // `min_theta` takes either kind of number.
        (
            r#"{"question":"q","min_theta":1}"#,
            Some(QaRequest {
                min_theta: Some(1.0),
                ..q()
            }),
        ),
        (
            r#"{"question":"q","min_theta":-0.0}"#,
            Some(QaRequest {
                min_theta: Some(-0.0),
                ..q()
            }),
        ),
        (r#"{"question":"q","min_theta":"0.5"}"#, None),
        (r#"{"question":"q","min_theta":1..2}"#, None),
        // The first of duplicate keys wins; later ones are only parsed.
        (
            r#"{"question":"first","question":"second"}"#,
            Some(QaRequest::new("first")),
        ),
        (
            r#"{"question":"q","top_k":1,"top_k":"not checked"}"#,
            Some(QaRequest {
                top_k: Some(1),
                ..q()
            }),
        ),
        (r#"{"question":"q","top_k":"checked","top_k":1}"#, None),
        (r#"{"question":"q","top_k":1,"top_k":[1,]}"#, None),
        // Unknown keys are parsed, then ignored.
        (
            r#"{"x":{"a":[1,{"b":null}],"c":"\n"},"question":"q"}"#,
            Some(q()),
        ),
        (r#"{"question":"q","x":[1,]}"#, None),
        (r#"{"question":"q","x":{"a" 1}}"#, None),
        (
            r#"{"q\u0075estion":"escaped key"}"#,
            Some(QaRequest::new("escaped key")),
        ),
        (r#"{"Question":"q"}"#, None),
        // Only whitespace may follow the object.
        (r#"{"question":"q"} x"#, None),
        (r#"{"question":"q"}{}"#, None),
        ("{\"question\":\"q\"} \t\r\n", Some(q())),
        ("{\"question\":\"q\"}\u{c}", None),
        // Escapes and surrogates.
        (
            r#"{"question":"a\"b\\c\/d\be\ff\ng\rh\ti"}"#,
            Some(QaRequest::new("a\"b\\c/d\u{8}e\u{c}f\ng\rh\ti")),
        ),
        (r#"{"question":"Aé東"}"#, Some(QaRequest::new("Aé東"))),
        (
            r#"{"question":"\u0041\u00e9\u6771\u0000"}"#,
            Some(QaRequest::new("Aé東\u{0}")),
        ),
        (r#"{"question":"😀"}"#, Some(QaRequest::new("😀"))),
        (r#"{"question":"\ud83d\ude00"}"#, Some(QaRequest::new("😀"))),
        (r#"{"question":"\uD83D\uDE00"}"#, Some(QaRequest::new("😀"))),
        (r#"{"question":"\u+041"}"#, Some(QaRequest::new("A"))),
        (
            "{\"question\":\"raw \u{1} and \t\"}",
            Some(QaRequest::new("raw \u{1} and \t")),
        ),
        (r#"{"question":"\ud83d"}"#, None),
        (r#"{"question":"\ud83dx"}"#, None),
        (r#"{"question":"\ud83d\u0041"}"#, None),
        (r#"{"question":"\ude00"}"#, None),
        (r#"{"question":"\u12"}"#, None),
        (r#"{"question":"\u12g4"}"#, None),
        (r#"{"question":"\x"}"#, None),
    ];
    for (body, expected) in rules {
        assert_eq!(debug(&request(body)), debug(&expected), "body {body}");
    }
}

#[test]
fn batch_rules() {
    let batch = |body: &str| serde_json::from_slice::<Vec<QaRequest>>(body.as_bytes()).ok();
    assert_eq!(batch("[]"), Some(vec![]));
    assert_eq!(batch(" [ ] "), Some(vec![]));
    assert_eq!(
        batch(r#"[{"question":"a"},{"question":"b","top_k":2}]"#),
        Some(vec![QaRequest::new("a"), QaRequest::new("b").with_top_k(2)])
    );
    for rejected in [
        r#"[{"question":"a"},]"#,
        r#"[{"question":"a"} {"question":"b"}]"#,
        r#"[1]"#,
        r#"[{"question":"a"},{"top_k":1}]"#,
        r#"{"question":"a"}"#,
        r#"[{"question":"a"}] x"#,
    ] {
        assert_eq!(batch(rejected), None, "body {rejected}");
    }
}

#[test]
fn deep_unknown_nesting_is_skipped_without_recursion() {
    let depth = 200_000;
    let (open, close) = ("[".repeat(depth), "]".repeat(depth));
    assert_eq!(
        request(&format!(r#"{{"question":"q","deep":{open}{close}}}"#)),
        Some(QaRequest::new("q"))
    );
    assert_eq!(
        request(&format!(r#"{{"question":"q","deep":{open}}}"#)),
        None
    );
}

#[test]
fn non_utf8_bodies_are_rejected() {
    let body = b"{\"question\":\"\xff\"}";
    let err = serde_json::from_slice::<QaRequest>(body).unwrap_err();
    assert_eq!(err.to_string(), "invalid UTF-8 at byte 13");
    assert!(serde_json::from_slice::<Vec<QaRequest>>(b"[\xc3]").is_err());
    // A decode error names what it found and where.
    let err = serde_json::from_slice::<QaRequest>(b"{\"question\":1}").unwrap_err();
    assert_eq!(err.to_string(), "expected string, found number at byte 12");
}
