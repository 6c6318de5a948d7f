//! String interning.
//!
//! The RDF dictionary, the taxonomy, the tokenizer and the template store all
//! need a bidirectional `&str` ⇄ dense-id mapping. [`Interner`] provides one
//! with a single owned copy of each string: lookups go through a
//! hash-fingerprint bucket map that is verified against the string table, so
//! we never store each key twice (the classic `HashMap<String, u32>` +
//! `Vec<String>` layout doubles string memory).

use serde::{Deserialize, Serialize};

use crate::hash::{fx_hash, FxHashMap};

/// A monotone string interner producing dense `u32` symbols.
///
/// ```
/// use kbqa_common::interner::Interner;
/// let mut interner = Interner::new();
/// let a = interner.intern("population");
/// let b = interner.intern("population");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "population");
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Interner {
    strings: Vec<Box<str>>,
    /// Fx fingerprint → candidate symbol list. Collisions are resolved by a
    /// string comparison against `strings`; with a 64-bit fingerprint the
    /// candidate lists are almost always singletons.
    #[serde(skip)]
    buckets: FxHashMap<u64, Vec<u32>>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an interner pre-sized for `capacity` distinct strings.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            strings: Vec::with_capacity(capacity),
            buckets: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// Intern `s`, returning its symbol; re-interning returns the same symbol.
    pub fn intern(&mut self, s: &str) -> u32 {
        let fingerprint = fx_hash(s);
        if let Some(candidates) = self.buckets.get(&fingerprint) {
            for &sym in candidates {
                if &*self.strings[sym as usize] == s {
                    return sym;
                }
            }
        }
        let sym = u32::try_from(self.strings.len()).expect("interner overflow");
        self.strings.push(s.into());
        self.buckets.entry(fingerprint).or_default().push(sym);
        sym
    }

    /// Look up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<u32> {
        let candidates = self.buckets.get(&fx_hash(s))?;
        candidates
            .iter()
            .copied()
            .find(|&sym| &*self.strings[sym as usize] == s)
    }

    /// Look up the space-joined form of `words` without allocating a fresh
    /// key: the words are assembled into `buf` (cleared first), which the
    /// caller retains and reuses across lookups. This is the hot-path lookup
    /// of the online engine's template index, where the joined form is
    /// derived per request and must not heap-allocate in the steady state.
    pub fn get_words<'a>(
        &self,
        words: impl IntoIterator<Item = &'a str>,
        buf: &mut String,
    ) -> Option<u32> {
        buf.clear();
        for w in words {
            if !buf.is_empty() {
                buf.push(' ');
            }
            buf.push_str(w);
        }
        self.get(buf)
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: u32) -> &str {
        &self.strings[sym as usize]
    }

    /// Resolve without panicking.
    pub fn try_resolve(&self, sym: u32) -> Option<&str> {
        self.strings.get(sym as usize).map(|s| &**s)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Heap bytes held: the string table, the strings, and the bucket map
    /// with its candidate lists.
    pub fn heap_bytes(&self) -> usize {
        let strings = self.strings.capacity() * std::mem::size_of::<Box<str>>()
            + self.strings.iter().map(|s| s.len()).sum::<usize>();
        let buckets = self.buckets.capacity() * (std::mem::size_of::<(u64, Vec<u32>)>() + 1)
            + self
                .buckets
                .values()
                .map(|v| v.capacity() * 4)
                .sum::<usize>();
        strings + buckets
    }

    /// Iterate `(symbol, string)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, &**s))
    }

    /// Rebuild the bucket map (needed after deserialization, since the map is
    /// skipped during serde to avoid persisting derived state).
    pub fn rebuild_index(&mut self) {
        self.buckets.clear();
        self.buckets.reserve(self.strings.len());
        for (i, s) in self.strings.iter().enumerate() {
            self.buckets
                .entry(fx_hash(&**s))
                .or_default()
                .push(i as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut interner = Interner::new();
        let a = interner.intern("honolulu");
        let b = interner.intern("honolulu");
        let c = interner.intern("obama");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut interner = Interner::new();
        let words = ["how", "many", "people", "are", "there", "in", "$city"];
        let syms: Vec<u32> = words.iter().map(|w| interner.intern(w)).collect();
        for (word, sym) in words.iter().zip(&syms) {
            assert_eq!(interner.resolve(*sym), *word);
        }
    }

    #[test]
    fn get_does_not_insert() {
        let mut interner = Interner::new();
        assert_eq!(interner.get("missing"), None);
        let sym = interner.intern("present");
        assert_eq!(interner.get("present"), Some(sym));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn symbols_are_dense_and_ordered() {
        let mut interner = Interner::new();
        for i in 0..100 {
            let sym = interner.intern(&format!("word-{i}"));
            assert_eq!(sym, i);
        }
    }

    #[test]
    fn empty_string_is_a_valid_key() {
        let mut interner = Interner::new();
        let sym = interner.intern("");
        assert_eq!(interner.resolve(sym), "");
        assert_eq!(interner.get(""), Some(sym));
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut interner = Interner::new();
        let sym = interner.intern("population");
        // Simulate a serde roundtrip dropping the bucket map.
        let mut clone = Interner {
            strings: interner.strings.clone(),
            buckets: Default::default(),
        };
        assert_eq!(clone.get("population"), None);
        clone.rebuild_index();
        assert_eq!(clone.get("population"), Some(sym));
    }

    #[test]
    fn get_words_joins_without_fresh_allocation() {
        let mut interner = Interner::new();
        let sym = interner.intern("how many people are there in $city");
        let mut buf = String::new();
        let words = ["how", "many", "people", "are", "there", "in", "$city"];
        assert_eq!(
            interner.get_words(words.iter().copied(), &mut buf),
            Some(sym)
        );
        assert_eq!(buf, "how many people are there in $city");
        // A miss leaves the assembled key in the buffer but returns None.
        assert_eq!(interner.get_words(["nope"].iter().copied(), &mut buf), None);
        // The buffer is reused: capacity persists, contents are replaced.
        assert_eq!(buf, "nope");
    }

    #[test]
    fn iter_yields_in_symbol_order() {
        let mut interner = Interner::new();
        interner.intern("a");
        interner.intern("b");
        let pairs: Vec<(u32, String)> = interner.iter().map(|(s, w)| (s, w.to_owned())).collect();
        assert_eq!(pairs, vec![(0, "a".to_owned()), (1, "b".to_owned())]);
    }
}
