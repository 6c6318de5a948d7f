//! Typed JSON decoding for the serving edge's request bodies.
//!
//! The vendored `serde_json::from_str` streams too — the derived
//! `Deserialize` pulls each field off a `serde::de::Reader` — but it is
//! generic: it matches keys by string comparison, holds each field in an
//! `Option` until the object closes, and formats an error message with the
//! byte offset. This module is the request-side twin of
//! [`crate::serialize`], hand-fitted to [`QaRequest`]: it decodes one
//! request and `Vec<QaRequest>` straight from the body bytes, so a typical
//! request costs one allocation (the question text) and a batch one more
//! (the `Vec`), and its errors allocate nothing. It stays the serving
//! decoder because it is measurably faster on `/answer` and `/batch`
//! bodies (`cargo bench --bench kernel_stages`, the "decode" lines).
//!
//! Conformance contract, pinned by the differential suite in
//! `tests/decode_conformance.rs`: [`QaRequest::decode`] and
//! [`QaRequest::decode_batch`] accept exactly the bodies
//! `serde_json::from_str::<QaRequest>` / `::<Vec<QaRequest>>` accept and
//! produce equal values. Only the error wording differs. In detail:
//!
//! * the body must be UTF-8, and JSON whitespace is the four bytes
//!   space, tab, `\n`, `\r`;
//! * strings take every JSON escape plus surrogate pairs, and raw control
//!   characters pass through;
//! * a number is the longest run of `[0-9+-.eE]` after a leading `-` or
//!   digit, parsed as `i128` when it has no `.`, `e` or `E` and as `f64`
//!   otherwise;
//! * integer fields take an in-range integer or an integral float (cast
//!   with Rust's saturating `as`), and `min_theta` takes either kind;
//! * `null` is `None` for every optional field and an error for `explain`;
//! * unknown keys are parsed (they must be well-formed JSON) and ignored,
//!   and the first of duplicate keys wins: later ones are only parsed.
//!
//! Skipping an unknown value is iterative, as in the vendored reader, so no
//! nesting depth can exhaust the stack. The two decoders share no code:
//! the differential suite compares two independent implementations.

use std::borrow::Cow;

use crate::service::QaRequest;

/// Why a request body was rejected. Allocation-free: a static reason plus
/// the byte offset it was found at, both in its `Display` text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    reason: &'static str,
    at: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.at)
    }
}

impl std::error::Error for DecodeError {}

impl QaRequest {
    /// Decode one request from a JSON body — what
    /// `serde_json::from_str::<QaRequest>` accepts (see the [module
    /// docs](self) for the contract).
    pub fn decode(body: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(body)?;
        let request = d.request()?;
        d.end()?;
        Ok(request)
    }

    /// Decode a JSON array of requests (a `/batch` body) — what
    /// `serde_json::from_str::<Vec<QaRequest>>` accepts.
    pub fn decode_batch(body: &[u8]) -> Result<Vec<Self>, DecodeError> {
        let mut d = Decoder::new(body)?;
        d.skip_ws();
        d.eat(b'[')?;
        let mut requests = Vec::new();
        d.skip_ws();
        if d.peek() == Some(b']') {
            d.pos += 1;
        } else {
            loop {
                requests.push(d.request()?);
                d.skip_ws();
                match d.peek() {
                    Some(b',') => d.pos += 1,
                    Some(b']') => {
                        d.pos += 1;
                        break;
                    }
                    _ => return Err(d.error("expected `,` or `]`")),
                }
            }
        }
        d.end()?;
        Ok(requests)
    }
}

/// A JSON number as the vendored parser classifies it.
#[derive(Clone, Copy)]
enum Number {
    Int(i128),
    Float(f64),
}

/// The fields of [`QaRequest`], as named on the wire.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Field {
    Question,
    TopK,
    MinTheta,
    Decompose,
    Explain,
    RequestId,
    MinEpoch,
}

impl Field {
    const ALL: [Field; 7] = [
        Field::Question,
        Field::TopK,
        Field::MinTheta,
        Field::Decompose,
        Field::Explain,
        Field::RequestId,
        Field::MinEpoch,
    ];

    fn name(self) -> &'static str {
        match self {
            Field::Question => "question",
            Field::TopK => "top_k",
            Field::MinTheta => "min_theta",
            Field::Decompose => "decompose",
            Field::Explain => "explain",
            Field::RequestId => "request_id",
            Field::MinEpoch => "min_epoch",
        }
    }

    fn named(key: &str) -> Option<Field> {
        Field::ALL.into_iter().find(|f| f.name() == key)
    }
}

struct Decoder<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(body: &'a [u8]) -> Result<Self, DecodeError> {
        let text = std::str::from_utf8(body).map_err(|e| DecodeError {
            reason: "body is not valid UTF-8",
            at: e.valid_up_to(),
        })?;
        Ok(Self { text, pos: 0 })
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn error(&self, reason: &'static str) -> DecodeError {
        DecodeError {
            reason,
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), DecodeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(match b {
                b'{' => "expected `{`",
                b'[' => "expected `[`",
                b':' => "expected `:`",
                _ => "expected `\"`",
            }))
        }
    }

    /// Only whitespace may follow the top-level value.
    fn end(&mut self) -> Result<(), DecodeError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing data"))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), DecodeError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Number, DecodeError> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // The run is ASCII, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        let bad = DecodeError {
            reason: "malformed number",
            at: start,
        };
        if is_float {
            text.parse::<f64>().map(Number::Float).map_err(|_| bad)
        } else {
            text.parse::<i128>().map(Number::Int).map_err(|_| bad)
        }
    }

    /// A string, borrowed from the body unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        self.eat(b'"')?;
        let start = self.pos;
        self.skip_unescaped();
        match self.peek() {
            None => Err(self.error("unterminated string")),
            Some(b'"') => {
                self.pos += 1;
                Ok(Cow::Borrowed(&self.text[start..self.pos - 1]))
            }
            Some(_) => {
                let mut out = String::from(&self.text[start..self.pos]);
                self.escaped_tail(&mut out)?;
                Ok(Cow::Owned(out))
            }
        }
    }

    /// Advance over the run up to the next `"` or `\`. Both are ASCII, so
    /// the run never splits a UTF-8 sequence.
    fn skip_unescaped(&mut self) {
        while let Some(b) = self.peek() {
            if b == b'"' || b == b'\\' {
                break;
            }
            self.pos += 1;
        }
    }

    /// The rest of a string from an escape on, appended to `out`; consumes
    /// the closing quote.
    fn escaped_tail(&mut self, out: &mut String) -> Result<(), DecodeError> {
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    self.skip_unescaped();
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// The character an escape stands for, with `pos` on the escape letter;
    /// leaves `pos` on the escape's last byte, as the vendored parser does.
    fn escape(&mut self) -> Result<char, DecodeError> {
        Ok(match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self
                    .hex4(self.pos + 1)
                    .ok_or_else(|| self.error("bad \\u escape"))?;
                if (0xD800..0xDC00).contains(&code) {
                    let low = self
                        .bytes()
                        .get(self.pos + 5..self.pos + 7)
                        .filter(|r| *r == b"\\u")
                        .and_then(|_| self.hex4(self.pos + 7))
                        .filter(|low| (0xDC00..0xE000).contains(low))
                        .ok_or_else(|| self.error("lone surrogate"))?;
                    self.pos += 10;
                    char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                        .expect("a surrogate pair encodes a scalar value")
                } else {
                    let c = char::from_u32(code).ok_or_else(|| self.error("bad \\u escape"))?;
                    self.pos += 4;
                    c
                }
            }
            _ => return Err(self.error("bad escape")),
        })
    }

    /// The four bytes at `at` read as hex — through the same
    /// `from_str_radix` the vendored parser uses, quirks included.
    fn hex4(&self, at: usize) -> Option<u32> {
        let hex = self.bytes().get(at..at + 4)?;
        u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
    }

    /// Parse and discard one well-formed value of any shape. Containers are
    /// tracked on an explicit stack (which allocates only when a skipped
    /// value nests), so depth is bounded by the body, not by the thread's
    /// stack.
    fn skip_value(&mut self) -> Result<(), DecodeError> {
        let mut open: Vec<u8> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                    } else {
                        open.push(b'}');
                        self.key()?;
                        continue;
                    }
                }
                Some(b'[') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                    } else {
                        open.push(b']');
                        continue;
                    }
                }
                _ => self.skip_scalar()?,
            }
            // A value just ended: close the containers it completes, and go
            // on to the next member of the innermost one still open.
            loop {
                let Some(&close) = open.last() else {
                    return Ok(());
                };
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if close == b'}' {
                            self.key()?;
                        }
                        break;
                    }
                    Some(b) if b == close => {
                        self.pos += 1;
                        open.pop();
                    }
                    _ => {
                        return Err(self.error(if close == b'}' {
                            "expected `,` or `}`"
                        } else {
                            "expected `,` or `]`"
                        }))
                    }
                }
            }
        }
    }

    fn skip_scalar(&mut self) -> Result<(), DecodeError> {
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.error("unexpected input")),
        }
    }

    /// An object key and its `:`.
    fn key(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(key)
    }

    /// One `QaRequest` object.
    fn request(&mut self) -> Result<QaRequest, DecodeError> {
        self.skip_ws();
        self.eat(b'{')?;
        let mut request = QaRequest::new(String::new());
        let mut seen = [false; Field::ALL.len()];
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let key = self.key()?;
                match Field::named(&key) {
                    Some(field) if !seen[field as usize] => {
                        seen[field as usize] = true;
                        self.field(field, &mut request)?;
                    }
                    _ => self.skip_value()?,
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("expected `,` or `}`")),
                }
            }
        }
        if !seen[Field::Question as usize] {
            return Err(self.error("missing field `question`"));
        }
        Ok(request)
    }

    fn field(&mut self, field: Field, request: &mut QaRequest) -> Result<(), DecodeError> {
        self.skip_ws();
        match field {
            Field::Question => {
                if self.peek() != Some(b'"') {
                    return Err(self.error("`question` must be a string"));
                }
                request.question = self.string()?.into_owned();
            }
            Field::Explain => request.explain = self.boolean()?,
            Field::Decompose => request.decompose = self.nullable(Self::boolean)?,
            Field::TopK => {
                request.top_k =
                    self.nullable(|d| d.integer(|i| usize::try_from(i).ok(), |f| f as usize))?
            }
            Field::RequestId => {
                request.request_id =
                    self.nullable(|d| d.integer(|i| u64::try_from(i).ok(), |f| f as u64))?
            }
            Field::MinEpoch => {
                request.min_epoch =
                    self.nullable(|d| d.integer(|i| u64::try_from(i).ok(), |f| f as u64))?
            }
            Field::MinTheta => request.min_theta = self.nullable(Self::float)?,
        }
        Ok(())
    }

    /// `null` as `None`, anything else through `value`.
    fn nullable<T>(
        &mut self,
        value: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            return Ok(None);
        }
        value(self).map(Some)
    }

    fn boolean(&mut self) -> Result<bool, DecodeError> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.error("expected a boolean")),
        }
    }

    /// An integer field: an integer in range, or a float with no fractional
    /// part, cast the way the vendored `serde` casts it.
    fn integer<T>(
        &mut self,
        from_int: impl FnOnce(i128) -> Option<T>,
        from_float: impl FnOnce(f64) -> T,
    ) -> Result<T, DecodeError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => {}
            _ => return Err(self.error("expected an integer")),
        }
        let start = self.pos;
        let out_of_range = DecodeError {
            reason: "integer out of range",
            at: start,
        };
        match self.number()? {
            Number::Int(i) => from_int(i).ok_or(out_of_range),
            Number::Float(f) if f.fract() == 0.0 => Ok(from_float(f)),
            Number::Float(_) => Err(DecodeError {
                reason: "expected an integer",
                at: start,
            }),
        }
    }

    fn float(&mut self) -> Result<f64, DecodeError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => {}
            _ => return Err(self.error("expected a number")),
        }
        Ok(match self.number()? {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_as_serde(body: &str) {
        let typed = QaRequest::decode(body.as_bytes());
        let reference = serde_json::from_str::<QaRequest>(body);
        match (&typed, &reference) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{body:?}"),
            (Err(_), Err(_)) => {}
            _ => panic!("{body:?}: typed {typed:?}, serde_json {reference:?}"),
        }
    }

    #[test]
    fn decodes_the_benchmark_body_without_escapes() {
        let request =
            QaRequest::decode(br#"{"question":"what is the population of berlin","request_id":7}"#)
                .expect("valid");
        assert_eq!(
            request,
            QaRequest::new("what is the population of berlin").with_request_id(7)
        );
    }

    #[test]
    fn every_field_and_its_null() {
        same_as_serde(
            r#"{"question":"q","top_k":3,"min_theta":0.5,"decompose":false,"explain":true,"request_id":9,"min_epoch":2}"#,
        );
        same_as_serde(
            r#"{"question":"q","top_k":null,"min_theta":null,"decompose":null,"request_id":null,"min_epoch":null}"#,
        );
        same_as_serde(r#"{"question":"q","explain":null}"#);
        same_as_serde(r#"{"question":null}"#);
        same_as_serde(r#"{"top_k":1}"#);
    }

    #[test]
    fn numbers_lex_and_cast_like_the_vendored_parser() {
        for n in [
            "0",
            "01",
            "-0",
            "1e2",
            "1.5",
            "-1",
            "1.0",
            "18446744073709551615",
            "18446744073709551616",
            "1e400",
            "-1e2",
            "1-2",
            "1..2",
            "1e",
            "99999999999999999999999999999999999999999",
        ] {
            same_as_serde(&format!(r#"{{"question":"q","top_k":{n}}}"#));
            same_as_serde(&format!(r#"{{"question":"q","min_theta":{n}}}"#));
            same_as_serde(&format!(r#"{{"question":"q","request_id":{n}}}"#));
        }
    }

    #[test]
    fn escapes_and_surrogates() {
        for s in [
            r#"a\"b\\c\/d\be\ff\ng\rh\ti"#,
            r#"Aé東"#,
            r#"😀"#,
            r#"\ud83d"#,
            r#"\ud83dx"#,
            r#"\ud83dA"#,
            r#"\ude00"#,
            r#"\u+041"#,
            r#"\u12"#,
            r#"\x"#,
        ] {
            same_as_serde(&format!(r#"{{"question":"{s}"}}"#));
        }
    }

    #[test]
    fn unknown_and_duplicate_keys() {
        same_as_serde(r#"{"x":{"a":[1,{"b":null}],"c":"\n"},"question":"q"}"#);
        same_as_serde(r#"{"question":"first","question":"second"}"#);
        same_as_serde(r#"{"question":"q","top_k":1,"top_k":"not checked"}"#);
        same_as_serde(r#"{"question":"q","top_k":"checked","top_k":1}"#);
        same_as_serde(r#"{"question":"q","x":[1,]}"#);
        same_as_serde(r#"{"question":"q","x":{"a" 1}}"#);
        same_as_serde(r#"{"question":"escaped key"}"#);
    }

    #[test]
    fn batches() {
        for body in [
            "[]",
            " [ ] ",
            r#"[{"question":"a"},{"question":"b","top_k":2}]"#,
            r#"[{"question":"a"},]"#,
            r#"[{"question":"a"} {"question":"b"}]"#,
            r#"[1]"#,
            r#"{"question":"a"}"#,
        ] {
            let typed = QaRequest::decode_batch(body.as_bytes());
            let reference = serde_json::from_str::<Vec<QaRequest>>(body);
            assert_eq!(typed.ok(), reference.ok(), "{body:?}");
        }
    }

    #[test]
    fn deep_unknown_nesting_is_parsed_without_recursion() {
        let depth = 200_000;
        let body = format!(
            r#"{{"question":"q","deep":{}{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        assert_eq!(
            QaRequest::decode(body.as_bytes()).expect("well-formed"),
            QaRequest::new("q")
        );
        let unbalanced = format!(r#"{{"question":"q","deep":{}}}"#, "[".repeat(depth));
        assert!(QaRequest::decode(unbalanced.as_bytes()).is_err());
    }

    #[test]
    fn rejects_non_utf8_and_trailing_data() {
        assert!(QaRequest::decode(b"{\"question\":\"\xff\"}").is_err());
        assert!(QaRequest::decode(br#"{"question":"q"} x"#).is_err());
        assert!(QaRequest::decode(br#"{"question":"q"}  "#).is_ok());
        let err = QaRequest::decode(b"{\"question\":1}").unwrap_err();
        assert_eq!(err.to_string(), "`question` must be a string at byte 12");
    }
}
