//! Section files: the container every mapped serving artifact shares.
//!
//! The store snapshot (`store.snap`), the taxonomy (`taxonomy.snap`) and the
//! pattern index (`patterns.snap`) are each one file of flat integer or float
//! columns behind one header and one section table:
//!
//! ```text
//! header   32 B   magic (8 B, one per artifact), version u32, section
//!                 count u32, file length u64, checksum u64 (Fx-64 of every
//!                 byte after the header)
//! table    n×16   (offset u64, byte length u64) per section
//! sections …      each 8-byte aligned, zero-padded between
//! ```
//!
//! Integers and floats are native-endian and offsets are relative to the
//! file start, so a file maps anywhere. [`read_table`] checks the header,
//! the checksum and the table's geometry (alignment, bounds, element width)
//! and returns each section's byte range; what the columns *mean* (offsets
//! monotone, ids below their counts) is checked by the artifact that owns
//! the format, at open, before any lookup runs.
//!
//! A load hashes each file once. The same pass over the file's words feeds
//! two Fx-64 chains: the body checksum the header records, and the
//! whole-file digest a `.fxsum` sidecar and the bundle manifest record.
//! [`read_table`] returns that digest with the ranges, and the opened file
//! keeps it ([`Sections::digest`]), so the sidecar and manifest checks read
//! a number instead of hashing the mapping a second time.
//!
//! [`Sections`] holds such a file either mapped read-only ([`Sections::open`])
//! or as an owned image ([`encode`], what the in-memory builders produce), and
//! hands out the same typed views either way.

use std::fs::File;
use std::hash::Hasher as _;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use kbqa_common::error::{KbqaError, Result};
use kbqa_common::hash::FxHasher;

use crate::mmap::Mmap;

/// Bytes of the fixed header opening every section file.
pub const HEADER_LEN: usize = 32;
const CHECKSUM_OFFSET: usize = 24;

/// Element width of a section.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Elem {
    /// Bytes (UTF-8 text, tags).
    U8,
    /// `u32` ids and offsets.
    U32,
    /// `u64` offsets, fingerprints and `f64` bit patterns.
    U64,
}

impl Elem {
    fn size(self) -> usize {
        match self {
            Elem::U8 => 1,
            Elem::U32 => 4,
            Elem::U64 => 8,
        }
    }
}

/// One kind of section file: its magic, its version and the element width
/// of each of its sections, in file order.
#[derive(Debug)]
pub struct Format {
    /// Prefix of every error about a file of this format.
    pub name: &'static str,
    /// Magic bytes opening the file.
    pub magic: [u8; 8],
    /// Format version; bump on any layout change.
    pub version: u32,
    /// Element width per section.
    pub elems: &'static [Elem],
}

impl Format {
    /// A typed error about a file of this format.
    pub fn error(&self, why: impl std::fmt::Display) -> KbqaError {
        KbqaError::Io(format!("{}: {why}", self.name))
    }
}

/// One section's contents, borrowed for writing.
pub enum Col<'a> {
    /// Raw bytes.
    U8(&'a [u8]),
    /// `u32` values.
    U32(&'a [u32]),
    /// `u64` values.
    U64(&'a [u64]),
    /// `f64` values, stored as their bit patterns.
    F64(&'a [f64]),
}

impl Col<'_> {
    fn elem(&self) -> Elem {
        match self {
            Col::U8(_) => Elem::U8,
            Col::U32(_) => Elem::U32,
            Col::U64(_) | Col::F64(_) => Elem::U64,
        }
    }

    /// The column's bytes in file order (native-endian reinterpretation).
    fn bytes(&self) -> &[u8] {
        fn raw<T>(s: &[T]) -> &[u8] {
            // SAFETY: plain-old-data reinterpretation for writing.
            unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
        }
        match self {
            Col::U8(s) => s,
            Col::U32(s) => raw(s),
            Col::U64(s) => raw(s),
            Col::F64(s) => raw(s),
        }
    }
}

// ---------------------------------------------------------------------------
// Checksumming
// ---------------------------------------------------------------------------

/// Incremental Fx-64 over a byte stream, chunk-boundary independent: feeding
/// the same bytes in any split produces exactly what `FxHasher::write` would
/// produce for the concatenation. This keeps the files' internal checksum
/// and the `.fxsum` sidecar convention on one algorithm.
#[derive(Default)]
pub struct Fx64Stream {
    hasher: FxHasher,
    pending: [u8; 8],
    pending_len: usize,
}

impl Fx64Stream {
    /// Feed more bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.pending_len > 0 {
            let take = bytes.len().min(8 - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            self.hasher.write_u64(u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.hasher
                .write_u64(u64::from_le_bytes(chunk.try_into().expect("chunk of 8")));
        }
        let tail = chunks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// Finish, returning the digest.
    pub fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            // Matches FxHasher::write's tail handling for a final short chunk.
            let pending_len = self.pending_len;
            self.hasher.write(&self.pending[..pending_len]);
        }
        self.hasher.finish()
    }
}

fn digest(bytes: &[u8]) -> u64 {
    let mut stream = Fx64Stream::default();
    stream.update(bytes);
    stream.finish()
}

/// One pass over a file at least a header long, two Fx-64 chains: the body
/// checksum (every byte after the header) and the whole-file digest. The
/// header is a whole number of words, so both chains read the same body
/// words and the same tail; they are independent multiply chains, so the
/// pass costs about what one chain does. [`read_table`] runs it once per
/// load.
///
/// # Panics
///
/// When `bytes` is shorter than [`HEADER_LEN`]; [`read_table`] checks the
/// length first.
pub fn file_digests(bytes: &[u8]) -> (u64, u64) {
    let (header, body) = bytes.split_at(HEADER_LEN);
    let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
    let mut file = FxHasher::default();
    for chunk in header.chunks_exact(8) {
        file.write_u64(word(chunk));
    }
    let mut sum = FxHasher::default();
    let mut chunks = body.chunks_exact(8);
    for chunk in &mut chunks {
        let w = word(chunk);
        sum.write_u64(w);
        file.write_u64(w);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        sum.write(tail);
        file.write(tail);
    }
    (sum.finish(), file.finish())
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

const PAD: [u8; 8] = [0; 8];

fn pad_len(len: usize) -> usize {
    (8 - len % 8) % 8
}

/// The section table and file length for `cols`, every section 8-aligned.
fn layout(format: &Format, cols: &[Col<'_>]) -> (Vec<u8>, Vec<(usize, usize)>, u64) {
    assert_eq!(
        cols.len(),
        format.elems.len(),
        "{}: section count",
        format.name
    );
    let mut ranges = Vec::with_capacity(cols.len());
    let mut table = Vec::with_capacity(cols.len() * 16);
    let mut at = HEADER_LEN + cols.len() * 16;
    for (i, col) in cols.iter().enumerate() {
        debug_assert_eq!(
            col.elem(),
            format.elems[i],
            "{}: section {i} width",
            format.name
        );
        let len = col.bytes().len();
        ranges.push((at, len));
        table.extend_from_slice(&(at as u64).to_ne_bytes());
        table.extend_from_slice(&(len as u64).to_ne_bytes());
        at += len + pad_len(len);
    }
    (table, ranges, at as u64)
}

/// Feed everything after the header — table, then padded sections — to `f`.
fn for_each_body_chunk(table: &[u8], cols: &[Col<'_>], mut f: impl FnMut(&[u8])) {
    f(table);
    for col in cols {
        let bytes = col.bytes();
        f(bytes);
        f(&PAD[..pad_len(bytes.len())]);
    }
}

/// The header for a body of `file_len` bytes in all hashing to `checksum`.
fn header(format: &Format, file_len: u64, checksum: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&format.magic);
    header[8..12].copy_from_slice(&format.version.to_ne_bytes());
    header[12..16].copy_from_slice(&(format.elems.len() as u32).to_ne_bytes());
    header[16..24].copy_from_slice(&file_len.to_ne_bytes());
    header[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&checksum.to_ne_bytes());
    header
}

/// Write `cols` as a file of `format` to `path` — atomically (same-directory
/// temp file, `fsync`, rename), streaming the columns with no second copy —
/// and return the Fx-64 digest of the final file bytes (what a `.fxsum`
/// sidecar records).
pub fn write(format: &Format, cols: &[Col<'_>], path: &Path) -> Result<u64> {
    let (table, _, file_len) = layout(format, cols);
    let mut body = Fx64Stream::default();
    for_each_body_chunk(&table, cols, |chunk| body.update(chunk));
    let header = header(format, file_len, body.finish());
    let mut whole = Fx64Stream::default();
    whole.update(&header);
    for_each_body_chunk(&table, cols, |chunk| whole.update(chunk));
    let file_digest = whole.finish();

    write_atomic(path, |w| {
        w.write_all(&header)?;
        let mut result = Ok(());
        for_each_body_chunk(&table, cols, |chunk| {
            if result.is_ok() {
                result = w.write_all(chunk);
            }
        });
        result
    })?;
    Ok(file_digest)
}

/// Atomically write an already-encoded image to `path` (temp + `fsync` +
/// rename).
pub(crate) fn write_image(bytes: &[u8], path: &Path) -> Result<()> {
    write_atomic(path, |w| w.write_all(bytes))
}

fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp_name);
    let result = (|| -> std::io::Result<()> {
        let mut w = BufWriter::with_capacity(1 << 20, File::create(&tmp)?);
        fill(&mut w)?;
        let file = w.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(result?)
}

/// Encode `cols` as an owned file image of `format`: byte for byte what
/// [`write()`] puts on disk, behind the views a mapped file gets.
pub fn encode(format: &Format, cols: &[Col<'_>]) -> Sections {
    let (table, ranges, file_len) = layout(format, cols);
    let mut words = vec![0u64; file_len as usize / 8];
    let file_digest = {
        // SAFETY: a `u64` buffer viewed as its bytes, for filling.
        let image = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), file_len as usize)
        };
        let mut at = HEADER_LEN;
        for_each_body_chunk(&table, cols, |chunk| {
            image[at..at + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
        });
        let checksum = digest(&image[HEADER_LEN..]);
        image[..HEADER_LEN].copy_from_slice(&header(format, file_len, checksum));
        digest(image)
    };
    Sections {
        backing: Arc::new(Backing::Owned(words)),
        ranges: ranges.into(),
        digest: file_digest,
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Validate a file of `format` — magic, version, section count, length,
/// checksum, and each section's alignment, bounds and element width — and
/// return each section's `(offset, byte length)` with the file's whole-file
/// Fx-64 digest, from the one pass that checked the checksum. Any violation
/// is a typed [`KbqaError::Io`].
pub fn read_table(format: &Format, bytes: &[u8]) -> Result<(Vec<(usize, usize)>, u64)> {
    let count = format.elems.len();
    if bytes.len() < HEADER_LEN + count * 16 {
        return Err(format.error("file shorter than header"));
    }
    if bytes[0..8] != format.magic {
        return Err(format.error("bad magic"));
    }
    let word32 = |at: usize| u32::from_ne_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let word64 = |at: usize| u64::from_ne_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let version = word32(8);
    if version != format.version {
        return Err(format.error(format_args!(
            "unsupported version {version} (expected {})",
            format.version
        )));
    }
    let section_count = word32(12);
    if section_count as usize != count {
        return Err(format.error(format_args!("unexpected section count {section_count}")));
    }
    let file_len = word64(16);
    if file_len != bytes.len() as u64 {
        return Err(format.error(format_args!(
            "length mismatch: header says {file_len}, file is {} (truncated?)",
            bytes.len()
        )));
    }
    let stored = word64(CHECKSUM_OFFSET);
    let (actual, file_digest) = file_digests(bytes);
    if stored != actual {
        return Err(format.error(format_args!(
            "checksum mismatch: header says {stored:016x}, contents hash to {actual:016x}"
        )));
    }
    let mut ranges = Vec::with_capacity(count);
    for (i, elem) in format.elems.iter().enumerate() {
        let at = HEADER_LEN + i * 16;
        let (off, len) = (word64(at) as usize, word64(at + 8) as usize);
        if off % 8 != 0 {
            return Err(format.error(format_args!("section {i} misaligned at {off}")));
        }
        if off.checked_add(len).is_none_or(|end| end > bytes.len()) {
            return Err(format.error(format_args!("section {i} out of bounds")));
        }
        if len % elem.size() != 0 {
            return Err(format.error(format_args!("section {i} has ragged length {len}")));
        }
        ranges.push((off, len));
    }
    Ok((ranges, file_digest))
}

/// Check that `bounds` has `entries + 1` values running monotonically from
/// 0 to `end` — a CSR offset column over `entries` runs of a column `end`
/// long.
pub fn check_bounds<T: Copy + Into<u64>>(
    format: &Format,
    what: &str,
    bounds: &[T],
    entries: usize,
    end: usize,
) -> Result<()> {
    if bounds.len() != entries + 1 {
        return Err(format.error(format_args!(
            "{what}: {} entries, expected {}",
            bounds.len(),
            entries + 1
        )));
    }
    if bounds.first().map(|&b| b.into()) != Some(0)
        || bounds.last().map(|&b| b.into()) != Some(end as u64)
    {
        return Err(format.error(format_args!("{what}: endpoints out of range")));
    }
    if bounds.windows(2).any(|w| w[0].into() > w[1].into()) {
        return Err(format.error(format_args!("{what}: not monotone")));
    }
    Ok(())
}

enum Backing {
    Mapped(Mmap),
    Owned(Vec<u64>),
}

/// A section file whose header, checksum and table geometry passed
/// [`read_table`]: mapped read-only, or an owned image from [`encode`],
/// behind the same typed views. Clones share the bytes.
#[derive(Clone)]
pub struct Sections {
    backing: Arc<Backing>,
    ranges: Arc<[(usize, usize)]>,
    digest: u64,
}

impl Sections {
    /// Map `path` read-only and check it as a file of `format`.
    pub fn open(format: &Format, path: &Path) -> Result<Self> {
        let map = File::open(path)
            .and_then(|file| Mmap::map_file(&file))
            .map_err(|e| format.error(format_args!("open {}: {e}", path.display())))?;
        Self::from_map(format, map).map_err(|e| match e {
            KbqaError::Io(why) => KbqaError::Io(format!("{why} ({})", path.display())),
            other => other,
        })
    }

    /// Check an already-mapped file as a file of `format`.
    pub fn from_map(format: &Format, map: Mmap) -> Result<Self> {
        let (ranges, digest) = read_table(format, map.bytes())?;
        Ok(Self {
            backing: Arc::new(Backing::Mapped(map)),
            ranges: ranges.into(),
            digest,
        })
    }

    /// The Fx-64 digest of the whole file, header included: what its
    /// `.fxsum` sidecar and a bundle manifest record. Computed by the pass
    /// that checked the file, never again.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The whole file, header included.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match &*self.backing {
            Backing::Mapped(map) => map.bytes(),
            Backing::Owned(words) => {
                // SAFETY: a `u64` buffer viewed as its bytes.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
            }
        }
    }

    /// Heap bytes held: the image when owned, nothing when mapped.
    pub fn heap_bytes(&self) -> usize {
        match &*self.backing {
            Backing::Mapped(_) => 0,
            Backing::Owned(words) => words.len() * 8,
        }
    }

    /// Write the file as it stands to `path` (atomically); returns its digest.
    pub fn write_to(&self, path: &Path) -> Result<u64> {
        write_image(self.bytes(), path)?;
        Ok(self.digest)
    }

    /// Section `i`'s bytes.
    #[inline]
    pub fn raw(&self, i: usize) -> &[u8] {
        let (off, len) = self.ranges[i];
        &self.bytes()[off..off + len]
    }

    /// Section `i` as `u32`s.
    #[inline]
    pub fn u32s(&self, i: usize) -> &[u32] {
        cast(self.raw(i))
    }

    /// Section `i` as `u64`s.
    #[inline]
    pub fn u64s(&self, i: usize) -> &[u64] {
        cast(self.raw(i))
    }

    /// Section `i` as `f64`s.
    #[inline]
    pub fn f64s(&self, i: usize) -> &[f64] {
        cast(self.raw(i))
    }
}

impl std::fmt::Debug for Sections {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sections")
            .field("bytes", &self.bytes().len())
            .field("mapped", &matches!(*self.backing, Backing::Mapped(_)))
            .finish()
    }
}

/// View a section's bytes as `T`s (`u32`, `u64` or `f64`).
#[inline]
fn cast<T>(bytes: &[u8]) -> &[T] {
    let size = std::mem::size_of::<T>();
    debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
    debug_assert_eq!(bytes.len() % size, 0);
    // SAFETY: `read_table` checked each section 8-aligned within an 8-aligned
    // buffer (a page-aligned mapping or a `u64` image) and a whole number of
    // elements long; `u32`, `u64` and `f64` have no invalid bit patterns.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Format = Format {
        name: "test file",
        magic: *b"KBQATEST",
        version: 3,
        elems: &[Elem::U8, Elem::U32, Elem::U64],
    };

    #[test]
    fn encoded_image_is_what_write_puts_on_disk_and_reopens() {
        let cols = [
            Col::U8(b"abc"),
            Col::U32(&[1, 2, 3]),
            Col::F64(&[0.5, -2.25]),
        ];
        let image = encode(&TEST, &cols);
        let dir = std::env::temp_dir().join(format!("kbqa-sections-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bin");
        let digest_written = write(&TEST, &cols, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), image.bytes());
        assert_eq!(digest_written, digest(image.bytes()));
        let mapped = Sections::open(&TEST, &path).unwrap();
        assert_eq!(
            (image.digest(), mapped.digest()),
            (digest_written, digest_written)
        );
        std::fs::remove_dir_all(&dir).ok();
        for s in [&image, &mapped] {
            assert_eq!(s.raw(0), b"abc");
            assert_eq!(s.u32s(1), &[1, 2, 3]);
            assert_eq!(s.f64s(2), &[0.5, -2.25]);
        }
        assert_eq!(mapped.heap_bytes(), 0);
        assert_eq!(image.heap_bytes(), image.bytes().len());
        assert!(read_table(&TEST, image.bytes()).is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The fused pass yields what `FxHasher::write` gives the body and
        /// `Fx64Stream` gives the whole file, fed in two arbitrary pieces,
        /// for a body of every length mod 8.
        #[test]
        fn fused_digests_match_one_chain_each(
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
            header in proptest::collection::vec(proptest::prelude::any::<u8>(), HEADER_LEN..HEADER_LEN + 1),
            cut in 0usize..80,
        ) {
            for len in body.len().saturating_sub(7)..=body.len() {
                let bytes: Vec<u8> = header.iter().chain(&body[..len]).copied().collect();
                let mut sum = FxHasher::default();
                sum.write(&bytes[HEADER_LEN..]);
                let mut file = Fx64Stream::default();
                let cut = cut.min(bytes.len());
                file.update(&bytes[..cut]);
                file.update(&bytes[cut..]);
                proptest::prop_assert_eq!(file_digests(&bytes), (sum.finish(), file.finish()));
            }
        }
    }

    #[test]
    fn a_file_of_another_format_is_refused() {
        let image = encode(&TEST, &[Col::U8(b""), Col::U32(&[]), Col::U64(&[])]);
        let other = Format {
            magic: *b"KBQAELSE",
            ..TEST
        };
        match read_table(&other, image.bytes()) {
            Err(KbqaError::Io(why)) => assert!(why.contains("bad magic"), "{why}"),
            res => panic!("expected a typed error, got {res:?}"),
        }
    }
}
