//! Tokenization.
//!
//! A small, deterministic tokenizer tuned for factoid questions:
//!
//! * splits on whitespace and punctuation (punctuation is dropped),
//! * lowercases (the store's name index is lowercased too),
//! * splits possessives: `Obama's` → `obama` + `'s`, so mention matching can
//!   see `barack obama` inside `Barack Obama's wife`,
//! * keeps digit runs as single tokens (`390000`, `1961`),
//! * keeps combining marks inside the word they follow, so tokenizing a
//!   token's own text gives that token back (`İ` lowercases to `i` +
//!   U+0307, which must not split into `i` and the rest of the word).
//!
//! Spans are byte offsets into the original string, so the original casing
//! remains recoverable (the heuristic NER needs it).

use serde::{Deserialize, Serialize};

/// One token: lowercased text plus its byte span in the source.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Token {
    /// Lowercased token text (`'s` for possessive markers).
    pub text: String,
    /// Byte offset of the token start in the original string.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
}

/// A tokenized string with helpers for slicing and joining.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenizedText {
    /// The original input.
    pub raw: String,
    /// Tokens in order.
    pub tokens: Vec<Token>,
}

impl TokenizedText {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether there are no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Lowercased token texts.
    pub fn words(&self) -> Vec<&str> {
        self.tokens.iter().map(|t| t.text.as_str()).collect()
    }

    /// The original (un-lowercased) text of token `i`.
    pub fn original(&self, i: usize) -> &str {
        let t = &self.tokens[i];
        &self.raw[t.start..t.end]
    }

    /// Join tokens `range` with single spaces (lowercased canonical form).
    pub fn join(&self, start: usize, end: usize) -> String {
        join_words(self.tokens[start..end].iter().map(|t| t.text.as_str()))
    }

    /// Canonical form of the full token sequence.
    pub fn joined(&self) -> String {
        self.join(0, self.tokens.len())
    }

    /// Materialize tokens `[start, end)` as their own `TokenizedText` into
    /// a caller-owned buffer — equivalent to
    /// `tokenize(&self.join(start, end))` without re-scanning a single
    /// byte. Token texts are already lowercased alphanumeric runs (or
    /// `'`-clitics), which re-tokenize to themselves, so the sub-text can
    /// be assembled directly: `raw` becomes the space-joined canonical
    /// form and every span points into it.
    ///
    /// Like [`tokenize_into`], the buffer's allocations (raw string, token
    /// vec, per-token strings) are reused across calls — this is what lets
    /// the decompose DP probe `O(|q|²)` substrings without re-tokenizing
    /// (or allocating for) any of them.
    pub fn slice_into(&self, start: usize, end: usize, out: &mut TokenizedText) {
        SPARE_TOKENS.with(|pool| {
            let spare = &mut *pool.borrow_mut();
            out.raw.clear();
            let mut used = 0;
            for token in &self.tokens[start..end] {
                if !out.raw.is_empty() {
                    out.raw.push(' ');
                }
                let span_start = out.raw.len();
                out.raw.push_str(&token.text);
                emit_token(
                    &mut out.tokens,
                    &mut used,
                    spare,
                    span_start,
                    out.raw.len(),
                    |text| {
                        text.clear();
                        text.push_str(&token.text);
                    },
                );
            }
            recycle_excess(&mut out.tokens, used, spare);
        });
    }
}

/// Join an iterator of words with single spaces.
pub fn join_words<'a>(words: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::new();
    for w in words {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(w);
    }
    out
}

thread_local! {
    /// Spare `Token`s (with their grown `String`s) recycled between
    /// buffer-reusing calls on this thread. When a reused `TokenizedText`
    /// shrinks (shorter input than last time), the surplus tokens park
    /// here instead of being dropped; the next growth pops them back. This
    /// is what makes `tokenize_into`/`slice_into` allocation-free across
    /// inputs of *varying* length, not just monotonically growing ones.
    static SPARE_TOKENS: std::cell::RefCell<Vec<Token>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Spare tokens retained per thread beyond this are genuinely dropped.
const SPARE_TOKEN_CAP: usize = 64;

/// Lowercase `src` into a cleared `dst` without allocating on the common
/// path. Per-char `char::to_lowercase` matches `str::to_lowercase` for
/// every input except words ending in capital sigma (Σ → final ς only via
/// the string-level rule), so sigma-bearing tokens take the allocating
/// `str::to_lowercase` slow path to stay byte-identical with what
/// `tokenize` has always produced.
fn lowercase_into(dst: &mut String, src: &str) {
    dst.clear();
    if src.contains('\u{03A3}') {
        dst.push_str(&src.to_lowercase());
        return;
    }
    for c in src.chars() {
        if c.is_ascii() {
            dst.push(c.to_ascii_lowercase());
        } else {
            dst.extend(c.to_lowercase());
        }
    }
}

/// Emit one token into a reused slot (refilling its `String` in place), a
/// recycled spare, or a fresh allocation; `fill` writes the text.
fn emit_token(
    tokens: &mut Vec<Token>,
    used: &mut usize,
    spare: &mut Vec<Token>,
    start: usize,
    end: usize,
    fill: impl FnOnce(&mut String),
) {
    if *used < tokens.len() {
        let slot = &mut tokens[*used];
        fill(&mut slot.text);
        slot.start = start;
        slot.end = end;
    } else {
        let mut token = spare.pop().unwrap_or_default();
        fill(&mut token.text);
        token.start = start;
        token.end = end;
        tokens.push(token);
    }
    *used += 1;
}

/// Truncate `tokens` to `used`, parking the surplus in the spare pool
/// (bounded) instead of dropping their allocations.
fn recycle_excess(tokens: &mut Vec<Token>, used: usize, spare: &mut Vec<Token>) {
    while tokens.len() > used {
        let token = tokens.pop().expect("len > used");
        if spare.len() < SPARE_TOKEN_CAP {
            spare.push(token);
        }
    }
}

/// Does `c` continue a word run without starting one? The combining
/// diacritical mark blocks: a mark belongs to the letter before it.
fn is_combining_mark(c: char) -> bool {
    matches!(
        c,
        '\u{0300}'..='\u{036F}'
            | '\u{1AB0}'..='\u{1AFF}'
            | '\u{1DC0}'..='\u{1DFF}'
            | '\u{20D0}'..='\u{20FF}'
            | '\u{FE20}'..='\u{FE2F}'
    )
}

/// Tokenize a string. Deterministic; never fails.
pub fn tokenize(input: &str) -> TokenizedText {
    let mut out = TokenizedText::default();
    tokenize_into(input, &mut out);
    out
}

/// [`tokenize`] into a caller-owned buffer: the raw string, the token vec,
/// and every token's `String` are **cleared and refilled, not reallocated**
/// — after a warmup pass has grown them to the workload's working
/// capacity, repeated calls perform zero heap allocations
/// (`tests/alloc_tokenize.rs` pins this with a counting allocator). This
/// is the serving-path entry point: the engine threads one buffer per
/// [`ScratchSpace`] so request handling stops paying the tokenizer's
/// allocations.
///
/// Lowercasing matches `str::to_lowercase` byte-for-byte: per-character on
/// the allocation-free common path, falling back to the string-level rule
/// for tokens containing capital sigma (the one context-sensitive case).
///
/// [`ScratchSpace`]: ../kbqa_core/engine/struct.ScratchSpace.html
pub fn tokenize_into(input: &str, out: &mut TokenizedText) {
    SPARE_TOKENS.with(|pool| {
        let spare = &mut *pool.borrow_mut();
        out.raw.clear();
        out.raw.push_str(input);
        let mut used = 0;
        let bytes = input.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let c = input[i..].chars().next().expect("in-bounds char");
            if c.is_alphanumeric() {
                let start = i;
                let mut end = i;
                for (off, ch) in input[i..].char_indices() {
                    if ch.is_alphanumeric() || is_combining_mark(ch) {
                        end = i + off + ch.len_utf8();
                    } else {
                        break;
                    }
                }
                emit_token(&mut out.tokens, &mut used, spare, start, end, |text| {
                    lowercase_into(text, &input[start..end])
                });
                i = end;
            } else if c == '\'' {
                // Possessive / contraction marker: attach following letters
                // as a clitic token ('s, 're, …) rather than fusing with
                // the noun.
                let start = i;
                let mut end = i + 1;
                for (off, ch) in input[i + 1..].char_indices() {
                    if ch.is_alphabetic() || (end > i + 1 && is_combining_mark(ch)) {
                        end = i + 1 + off + ch.len_utf8();
                    } else {
                        break;
                    }
                }
                if end > i + 1 {
                    emit_token(&mut out.tokens, &mut used, spare, start, end, |text| {
                        lowercase_into(text, &input[start..end])
                    });
                }
                i = end.max(i + 1);
            } else {
                i += c.len_utf8();
            }
        }
        recycle_excess(&mut out.tokens, used, spare);
    });
}

/// English stopwords relevant to factoid questions. Used when selecting
/// conceptualization context and by the keyword baseline.
pub fn is_stopword(word: &str) -> bool {
    matches!(
        word,
        "a" | "an"
            | "the"
            | "is"
            | "are"
            | "was"
            | "were"
            | "be"
            | "been"
            | "do"
            | "does"
            | "did"
            | "of"
            | "in"
            | "on"
            | "at"
            | "to"
            | "for"
            | "from"
            | "by"
            | "with"
            | "and"
            | "or"
            | "there"
            | "it"
            | "its"
            | "'s"
            | "s"
            | "that"
            | "this"
            | "these"
            | "his"
            | "her"
            | "their"
            | "my"
            | "your"
            | "our"
    )
}

/// Question function words (wh-words and auxiliaries) that shape intent but
/// are not content keywords.
pub fn is_question_word(word: &str) -> bool {
    matches!(
        word,
        "who"
            | "whom"
            | "whose"
            | "what"
            | "which"
            | "when"
            | "where"
            | "why"
            | "how"
            | "many"
            | "much"
            | "name"
            | "list"
            | "give"
            | "tell"
            | "me"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokenization() {
        let t = tokenize("How many people are there in Honolulu?");
        assert_eq!(
            t.words(),
            vec!["how", "many", "people", "are", "there", "in", "honolulu"]
        );
    }

    #[test]
    fn possessive_splits() {
        let t = tokenize("When was Barack Obama's wife born?");
        assert_eq!(
            t.words(),
            vec!["when", "was", "barack", "obama", "'s", "wife", "born"]
        );
    }

    #[test]
    fn digits_survive() {
        let t = tokenize("It's 390000.");
        assert_eq!(t.words(), vec!["it", "'s", "390000"]);
    }

    #[test]
    fn spans_recover_original_case() {
        let t = tokenize("Barack Obama was born in 1961.");
        assert_eq!(t.original(0), "Barack");
        assert_eq!(t.original(1), "Obama");
        assert_eq!(t.original(5), "1961");
    }

    #[test]
    fn join_produces_canonical_form() {
        let t = tokenize("What is   the population, of Honolulu?");
        assert_eq!(t.joined(), "what is the population of honolulu");
        assert_eq!(t.join(3, 4), "population");
        assert_eq!(t.join(0, 0), "");
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("?!,.").is_empty());
        assert_eq!(tokenize("?!,.").len(), 0);
    }

    #[test]
    fn unicode_does_not_panic() {
        let t = tokenize("Tōkyō’s 区 population?");
        assert!(t.len() >= 2);
        assert!(t.words().contains(&"tōkyō"));
    }

    #[test]
    fn combining_marks_stay_in_their_word() {
        // `İ` lowercases to `i` + U+0307; the mark must not split the word,
        // or the token would not tokenize to itself.
        let t = tokenize("where is İSTANBUL, e\u{301}te");
        assert_eq!(
            t.words(),
            vec!["where", "is", "i\u{307}stanbul", "e\u{301}te"]
        );
        assert_eq!(
            tokenize(&t.joined()),
            tokenize("where is i\u{307}stanbul e\u{301}te")
        );
        assert_eq!(tokenize("'İs").words(), vec!["'i\u{307}s"]);
        // A mark with no letter before it begins no word.
        assert!(tokenize("\u{301} \u{301}").is_empty());
    }

    #[test]
    fn hyphen_splits_words() {
        let t = tokenize("vice-president");
        assert_eq!(t.words(), vec!["vice", "president"]);
    }

    #[test]
    fn stopwords_and_question_words() {
        assert!(is_stopword("the"));
        assert!(is_stopword("'s"));
        assert!(!is_stopword("population"));
        assert!(is_question_word("how"));
        assert!(is_question_word("many"));
        assert!(!is_question_word("people"));
    }

    #[test]
    fn apostrophe_without_letters_is_dropped() {
        let t = tokenize("rock ' roll");
        assert_eq!(t.words(), vec!["rock", "roll"]);
    }

    #[test]
    fn greek_final_sigma_matches_str_to_lowercase() {
        // "ΟΔΟΣ" ends in capital sigma: the string-level rule lowercases it
        // to final sigma (ς), and the reusable path must agree — both with
        // str::to_lowercase and between fresh/reused buffers.
        let t = tokenize("ΟΔΟΣ population ΣΣ");
        assert_eq!(t.words()[0], "ΟΔΟΣ".to_lowercase());
        assert_eq!(t.words()[0], "οδο\u{03C2}", "must end in FINAL sigma");
        assert_eq!(t.words()[2], "ΣΣ".to_lowercase());
        let mut reused = TokenizedText::default();
        tokenize_into("ΟΔΟΣ population ΣΣ", &mut reused);
        assert_eq!(reused, t);
    }

    #[test]
    fn tokenize_into_reuse_matches_fresh_tokenization() {
        // One buffer driven across inputs of varying shape and length —
        // including shrinking ones, so stale reused slots must vanish.
        let inputs = [
            "How many people are there in Honolulu?",
            "When was Barack Obama's wife born?",
            "It's 390000.",
            "",
            "?!,.",
            "Tōkyō’s 区 population?",
            "a",
            "vice-president of the United States of America in 1961",
        ];
        let mut buffer = TokenizedText::default();
        for input in inputs {
            tokenize_into(input, &mut buffer);
            assert_eq!(
                buffer,
                tokenize(input),
                "reused buffer diverged on {input:?}"
            );
        }
    }

    #[test]
    fn slice_into_equals_tokenizing_the_joined_range() {
        let inputs = [
            "When was Barack Obama's wife born?",
            "what is   the population, of Honolulu",
            "It's 390000 already",
        ];
        let mut sub = TokenizedText::default();
        for input in inputs {
            let t = tokenize(input);
            for a in 0..=t.len() {
                for b in a..=t.len() {
                    t.slice_into(a, b, &mut sub);
                    assert_eq!(
                        sub,
                        tokenize(&t.join(a, b)),
                        "slice [{a}, {b}) of {input:?} diverged"
                    );
                }
            }
        }
    }
}
