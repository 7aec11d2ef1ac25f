//! The persistent on-disk genome index: 2-bit packed bases, per-base
//! anchor bitmaps, and dense q-gram tables in one versioned, checksummed
//! binary file that a scan can mmap and consume without re-reading FASTA
//! or rebuilding prefilter state.
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! 0      magic  b"CRISPRIX"                                (8 bytes)
//! 8      format version  u32  (currently 1)
//! 12     section count   u32
//! 16     total file length  u64  (trailer included)
//! 24     section table: count × { id u32, pad u32,
//!            offset u64, length u64, checksum u64 }        (32 bytes each)
//! ...    section payloads, each starting 8-byte aligned
//! end-8  whole-file checksum  u64  over bytes [0, len-8)
//! ```
//!
//! Sections (`offset`/`length` bound the payload, `checksum` covers it):
//!
//! * **meta** (id 1): `q u32`, `contig count u32`, then per contig
//!   `{ name length u32, pad u32, sequence length u64, name bytes,
//!   zero-pad to 8 }`. `q = 0` means no q-gram section was written.
//! * **packed** (id 2): per contig, `⌈len/32⌉` words of 2-bit packed
//!   bases in [`PackedSeq`] layout.
//! * **masks** (id 3): per contig, four bitmaps (A, C, G, T order) of
//!   `⌈len/64⌉` words each — the [`BaseMasks`] the PAM-anchor prefilter
//!   intersects, so an indexed scan skips the mask-building pass too.
//! * **qgram** (id 4, present iff `q > 0`): per contig, a dense CSR
//!   table — `4^q + 1` prefix-sum `u32`s then the position `u32`s
//!   ([`DenseQGrams`] layout).
//!
//! # Versioning and checksum policy
//!
//! The format version is a single monotonically bumped integer; a reader
//! accepts exactly the version it was built for and rejects everything
//! else as [`GenomeError::IndexVersion`] — no silent cross-version
//! reinterpretation. Checksums are 64-bit FNV-1a folded a word at a time
//! (with the length mixed in last, so zero-padding truncations cannot
//! alias). Every section carries its own checksum and the file carries a
//! trailing whole-file checksum: a flipped bit anywhere fails validation
//! with a typed error before any payload is interpreted.
//!
//! # mmap safety argument
//!
//! [`GenomeIndex::open`] maps the file `PROT_READ`/`MAP_PRIVATE`, and a
//! scan reads the packed bases and anchor bitmaps where they lie: the
//! index hands out typed `&[u64]` runs ([`GenomeIndex::packed_view`],
//! [`GenomeIndex::masks_view`]) borrowed from the mapping, tied to the
//! index's lifetime, never written through. The views are sound because
//! every word they cover is an aligned, initialized, little-endian
//! `u64`:
//!
//! * the mapping starts on a page boundary, and every section payload
//!   starts 8-byte aligned within the file (validation rejects a packed
//!   or masks section that does not), with per-contig runs a whole
//!   number of words long — so each run is 8-aligned in memory;
//! * the owned store (a built index, or the read fallback) is a
//!   `Vec<u64>`, aligned the same way;
//! * the format is little-endian and so is every target this crate
//!   builds for (a big-endian build fails to compile), so a stored word
//!   read in place is the value the writer wrote;
//! * any bit pattern is a valid `u64`, so no byte of the file can make a
//!   view unsound — a corrupt payload is caught by its checksum.
//!
//! Validation reads the entire file once at open (the whole-file
//! checksum), after which every accessor stays within the bounds the
//! validated header promised. The remaining hazard — another process
//! truncating the file mid-scan delivering `SIGBUS` — is inherent to
//! mmap consumers; runs that cannot rule it out use the read-to-memory
//! fallback ([`GenomeIndex::from_bytes`] on `fs::read`), which is also
//! what non-Unix builds and unmappable files get automatically.

#[cfg(not(target_endian = "little"))]
compile_error!("the genome index is read in place as little-endian words");

use crate::kmer::{DenseQGrams, DENSE_Q_MAX};
use crate::pamindex::{BaseMasks, MaskView};
use crate::{Base, DnaSeq, Genome, GenomeError, PackedSeq, PackedView};
use std::path::Path;

/// File magic: the first eight bytes of every index.
pub const MAGIC: [u8; 8] = *b"CRISPRIX";

/// The one format version this build writes and reads.
pub const VERSION: u32 = 1;

/// Default q for the dense q-gram section.
pub const DEFAULT_Q: usize = 8;

const SECTION_META: u32 = 1;
const SECTION_PACKED: u32 = 2;
const SECTION_MASKS: u32 = 3;
const SECTION_QGRAM: u32 = 4;

const HEADER_LEN: usize = 24;
const TABLE_ENTRY_LEN: usize = 32;
/// Sanity bound on the section count: the format defines four.
const MAX_SECTIONS: u32 = 8;

/// 64-bit FNV-1a folded a word (8 bytes) at a time, with the byte length
/// mixed in last. Word folding keeps validation at memory speed on warm
/// loads; the trailing length step distinguishes inputs that differ only
/// by trailing zero bytes.
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        hash = hash.wrapping_mul(PRIME);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        hash ^= u64::from_le_bytes(word);
        hash = hash.wrapping_mul(PRIME);
    }
    hash ^= bytes.len() as u64;
    hash.wrapping_mul(PRIME)
}

fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("caller checked bounds"))
}

fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("caller checked bounds"))
}

fn corrupt(reason: impl Into<String>) -> GenomeError {
    GenomeError::IndexCorrupt { reason: reason.into() }
}

fn section_name(id: u32) -> &'static str {
    match id {
        SECTION_META => "meta",
        SECTION_PACKED => "packed",
        SECTION_MASKS => "masks",
        SECTION_QGRAM => "qgram",
        _ => "unknown",
    }
}

#[cfg(unix)]
mod mmap_sys {
    //! Minimal read-only mmap bindings. The symbols come from the C
    //! library std already links; no external crate is involved.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MADV_DONTNEED: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only memory mapping, unmapped on drop.
#[cfg(unix)]
struct MappedFile {
    ptr: *mut std::os::raw::c_void,
    len: usize,
}

#[cfg(unix)]
// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and only ever exposed as
// an immutable byte slice; nothing writes through the pointer.
unsafe impl Send for MappedFile {}
#[cfg(unix)]
unsafe impl Sync for MappedFile {}

#[cfg(unix)]
impl MappedFile {
    /// Maps `path` read-only, or `None` when anything along the way
    /// fails (missing file, empty file, exotic filesystem) — callers
    /// fall back to reading the file into memory.
    fn map(path: &Path) -> Option<MappedFile> {
        use std::os::fd::AsRawFd;
        let file = std::fs::File::open(path).ok()?;
        let len = file.metadata().ok()?.len();
        if len == 0 || len > usize::MAX as u64 {
            return None;
        }
        let len = len as usize;
        // SAFETY: a fresh private read-only mapping of a file we hold
        // open; the result is checked against MAP_FAILED before use.
        let ptr = unsafe {
            mmap_sys::mmap(
                std::ptr::null_mut(),
                len,
                mmap_sys::PROT_READ,
                mmap_sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == mmap_sys::map_failed() || ptr.is_null() {
            return None;
        }
        Some(MappedFile { ptr, len })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by
        // self; the slice's lifetime is tied to &self.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }

    fn words(&self) -> &[u64] {
        // SAFETY: as `bytes`, over the whole words of the mapping; mmap
        // returns a page-aligned address, so the words are aligned, and
        // every bit pattern is a valid u64.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u64, self.len / 8) }
    }

    /// Drops the mapping's resident pages. Validation reads every byte of
    /// the file once; afterwards only the ranges a scan reads should stay
    /// resident. Pages fault back in from the file on the next access,
    /// so the mapped bytes are unchanged (advisory: a failure is ignored).
    fn release(&self) {
        // SAFETY: advising the exact region this struct mapped; the
        // mapping is private and read-only, so dropped pages re-read the
        // same file contents.
        unsafe {
            mmap_sys::madvise(self.ptr, self.len, mmap_sys::MADV_DONTNEED);
        }
    }
}

#[cfg(unix)]
impl Drop for MappedFile {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact region this struct mapped.
        unsafe {
            mmap_sys::munmap(self.ptr, self.len);
        }
    }
}

/// Where the index bytes live. Both forms are 8-byte aligned, so the
/// payload words can be borrowed as `&[u64]` in place.
enum Source {
    /// File bytes read (or built) into memory, held as words; `len` is
    /// the byte length (the last word is zero-padded past it).
    Owned { words: Vec<u64>, len: usize },
    /// A live mmap of the file.
    #[cfg(unix)]
    Mapped(MappedFile),
}

impl Source {
    /// Copies `bytes` into an aligned owned store.
    fn copied(bytes: &[u8]) -> Source {
        let mut words = Vec::with_capacity(bytes.len().div_ceil(8));
        push_words(&mut words, bytes);
        Source::Owned { words, len: bytes.len() }
    }

    fn bytes(&self) -> &[u8] {
        match self {
            Source::Owned { words, len } => &word_bytes(words)[..*len],
            #[cfg(unix)]
            Source::Mapped(mapped) => mapped.bytes(),
        }
    }

    /// The whole file as little-endian words (a trailing partial word,
    /// possible only in a file validation then rejects, is left out).
    fn words(&self) -> &[u64] {
        match self {
            Source::Owned { words, .. } => words,
            #[cfg(unix)]
            Source::Mapped(mapped) => mapped.words(),
        }
    }
}

/// Per-contig layout resolved at open time: where the contig's runs
/// start in the file (word indices for the runs scans borrow as words,
/// byte offsets for the q-gram table).
#[derive(Debug, Clone)]
struct ContigMeta {
    name: String,
    len: usize,
    /// File word index of the contig's first packed word.
    packed_word: usize,
    /// File word index of the contig's first mask word (A bitmap).
    masks_word: usize,
    /// Byte offset of the contig's q-gram offsets array (0 when q = 0).
    qgram_start: usize,
    /// Number of position entries in the contig's q-gram table.
    qgram_positions: usize,
}

/// A validated on-disk genome index, opened via mmap or owned bytes.
///
/// Construction validates magic, version, the whole-file checksum, every
/// per-section checksum, and the structural consistency of the decoded
/// layout; accessors afterwards only read within the bounds that
/// validation established. See the module docs for the format.
pub struct GenomeIndex {
    source: Source,
    mapped: bool,
    q: usize,
    contigs: Vec<ContigMeta>,
    total_len: usize,
}

impl std::fmt::Debug for GenomeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenomeIndex")
            .field("mapped", &self.mapped)
            .field("q", &self.q)
            .field("contigs", &self.contigs.len())
            .field("total_len", &self.total_len)
            .field("bytes", &self.source.bytes().len())
            .finish()
    }
}

impl GenomeIndex {
    /// Serializes `genome` into a fresh in-memory index. `q` selects the
    /// dense q-gram section (`0` omits it entirely).
    ///
    /// # Errors
    ///
    /// Only propagates internal validation of the freshly written bytes
    /// — a failure here is a writer bug, surfaced rather than shipped.
    ///
    /// # Panics
    ///
    /// Panics if `q` is neither 0 nor within `1..=`[`DENSE_Q_MAX`].
    pub fn build(genome: &Genome, q: usize) -> Result<GenomeIndex, GenomeError> {
        assert!(
            q == 0 || (1..=DENSE_Q_MAX).contains(&q),
            "q must be 0 (omit) or within 1..={DENSE_Q_MAX}"
        );
        GenomeIndex::from_source(serialize(genome, q), false)
    }

    /// Validates raw index bytes, copied into an aligned word store —
    /// the read fallback path, and the entry point tests feed corrupted
    /// buffers through.
    ///
    /// # Errors
    ///
    /// [`GenomeError::IndexMagic`], [`GenomeError::IndexVersion`],
    /// [`GenomeError::IndexTruncated`], [`GenomeError::IndexChecksum`],
    /// or [`GenomeError::IndexCorrupt`] describing the first violation.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<GenomeIndex, GenomeError> {
        GenomeIndex::from_source(Source::copied(&bytes), false)
    }

    /// Opens an index file: mmap on Unix when possible, otherwise (and
    /// on any mapping failure) a plain read into memory. The result of
    /// either path passes the identical validation.
    ///
    /// # Errors
    ///
    /// I/O errors reading `path`, plus everything
    /// [`GenomeIndex::from_bytes`] rejects.
    pub fn open(path: impl AsRef<Path>) -> Result<GenomeIndex, GenomeError> {
        let path = path.as_ref();
        #[cfg(unix)]
        if let Some(mapped) = MappedFile::map(path) {
            return GenomeIndex::from_source(Source::Mapped(mapped), true);
        }
        let bytes = std::fs::read(path)?;
        GenomeIndex::from_source(Source::copied(&bytes), false)
    }

    /// Writes the index bytes to `path`, crash-safely: the bytes land in
    /// a `.tmp` sibling first, are fsynced, and only then renamed over
    /// `path` — so a crash (or the `index.write` failpoint) mid-write
    /// can never leave a torn index where a valid one is expected.
    ///
    /// # Errors
    ///
    /// I/O errors from the write, fsync, or rename. On any error the
    /// temporary file is removed; a pre-existing `path` is untouched.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), GenomeError> {
        let path = path.as_ref();
        let tmp = {
            // `<path>.tmp` (appended, not substituted) so distinct
            // targets never share a staging file.
            let mut os = path.as_os_str().to_owned();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        let result = (|| -> std::io::Result<()> {
            crispr_failpoint::hit_io("index.write")?;
            let mut file = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut file, self.source.bytes())?;
            // Durability before visibility: the rename must not promote
            // bytes the OS has not committed.
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map_err(GenomeError::from)
    }

    /// The validated file bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.source.bytes()
    }

    /// Whether this index reads through a live mmap (`false`: owned
    /// bytes — built in memory or the read fallback).
    pub fn mapped(&self) -> bool {
        self.mapped
    }

    /// The q-gram section's q, or `None` when the index was written
    /// without one.
    pub fn q(&self) -> Option<usize> {
        (self.q > 0).then_some(self.q)
    }

    /// Number of contigs.
    pub fn contig_count(&self) -> usize {
        self.contigs.len()
    }

    /// Name of contig `ci`.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range.
    pub fn contig_name(&self, ci: usize) -> &str {
        &self.contigs[ci].name
    }

    /// Length in bases of contig `ci`.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range.
    pub fn contig_len(&self, ci: usize) -> usize {
        self.contigs[ci].len
    }

    /// Total bases across all contigs.
    pub fn total_len(&self) -> usize {
        self.total_len
    }

    /// The packed bases of `[start, start + len)` of contig `ci`,
    /// borrowed in place from the index bytes — the chunk read of an
    /// indexed scan: no copy, and the resident cost is the pages the
    /// scan touches. Lanes past `len` in the last word hold the contig's
    /// next bases (see [`PackedView`]).
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range, the base range exceeds the
    /// contig, or `start` is not a multiple of 32 (a packed word
    /// boundary).
    pub fn packed_view(&self, ci: usize, start: usize, len: usize) -> PackedView<'_> {
        let meta = self.range_meta(ci, start, len, 32);
        let first = meta.packed_word + start / 32;
        PackedView::new(&self.source.words()[first..first + len.div_ceil(32)], len)
    }

    /// The per-base anchor bitmaps of `[start, start + len)` of contig
    /// `ci`, borrowed in place like [`GenomeIndex::packed_view`]. Equal
    /// below `len` to `BaseMasks::build` on the same range.
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range, the base range exceeds the
    /// contig, or `start` is not a multiple of 64 (a mask word
    /// boundary).
    pub fn masks_view(&self, ci: usize, start: usize, len: usize) -> MaskView<'_> {
        let meta = self.range_meta(ci, start, len, 64);
        let words = self.source.words();
        let (contig_words, first, count) = (meta.len.div_ceil(64), start / 64, len.div_ceil(64));
        MaskView::new(
            [0, 1, 2, 3].map(|b| {
                let run = meta.masks_word + b * contig_words + first;
                &words[run..run + count]
            }),
            len,
        )
    }

    /// The metadata of contig `ci`, after checking that `[start, start +
    /// len)` lies inside it and `start` is a multiple of `align`.
    fn range_meta(&self, ci: usize, start: usize, len: usize, align: usize) -> &ContigMeta {
        let meta = &self.contigs[ci];
        assert!(
            start.checked_add(len).is_some_and(|end| end <= meta.len),
            "range [{start}, {start}+{len}) out of contig bounds (len {})",
            meta.len
        );
        assert!(start.is_multiple_of(align), "view start {start} is not a multiple of {align}");
        meta
    }

    /// The dense q-gram table of contig `ci`, or `None` when the index
    /// carries no q-gram section.
    ///
    /// # Errors
    ///
    /// [`GenomeError::IndexCorrupt`] when the stored table violates its
    /// CSR invariants or a position falls outside the contig (possible
    /// only through a writer bug — checksums rule out bit rot).
    ///
    /// # Panics
    ///
    /// Panics if `ci` is out of range.
    pub fn contig_qgrams(&self, ci: usize) -> Result<Option<DenseQGrams>, GenomeError> {
        if self.q == 0 {
            return Ok(None);
        }
        let meta = &self.contigs[ci];
        let bytes = self.source.bytes();
        let buckets = 1usize << (2 * self.q);
        let offsets: Vec<u32> =
            (0..=buckets).map(|i| read_u32(bytes, meta.qgram_start + 4 * i)).collect();
        let positions_start = meta.qgram_start + 4 * (buckets + 1);
        let positions: Vec<u32> =
            (0..meta.qgram_positions).map(|i| read_u32(bytes, positions_start + 4 * i)).collect();
        let table = DenseQGrams::from_raw_parts(self.q, offsets, positions)
            .ok_or_else(|| corrupt(format!("q-gram table of contig {ci} breaks CSR invariants")))?;
        if table.positions().iter().any(|&p| p as usize + self.q > meta.len) {
            return Err(corrupt(format!("q-gram position out of contig {ci} bounds")));
        }
        Ok(Some(table))
    }

    /// Materializes the full [`Genome`] by unpacking every contig — the
    /// compatibility path for consumers that need byte-per-base slices
    /// (multi-threaded chunking, modeled platforms). Skips FASTA parsing
    /// entirely; costs one linear unpack.
    ///
    /// # Errors
    ///
    /// [`GenomeError::DuplicateContig`] if the stored metadata repeats a
    /// name (rejected at open, so effectively unreachable).
    pub fn to_genome(&self) -> Result<Genome, GenomeError> {
        let mut genome = Genome::new();
        for ci in 0..self.contigs.len() {
            let seq: DnaSeq = self.packed_view(ci, 0, self.contigs[ci].len).unpack();
            genome.add_contig(self.contigs[ci].name.clone(), seq)?;
        }
        Ok(genome)
    }

    fn from_source(source: Source, mapped: bool) -> Result<GenomeIndex, GenomeError> {
        let (q, contigs, total_len) = validate(source.bytes())?;
        #[cfg(unix)]
        if let Source::Mapped(mapped) = &source {
            mapped.release();
        }
        Ok(GenomeIndex { source, mapped, q, contigs, total_len })
    }
}

/// Appends `bytes` as little-endian words, the last one zero-padded.
fn push_words(out: &mut Vec<u64>, bytes: &[u8]) {
    let mut chunks = bytes.chunks_exact(8);
    out.extend(
        chunks.by_ref().map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8"))),
    );
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        out.push(u64::from_le_bytes(word));
    }
}

/// The bytes of `words` in memory order — the file bytes, since words
/// are little-endian.
fn word_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: the slice covers exactly the words' initialized storage,
    // every byte of a `u64` is a valid `u8` (alignment 1), and it
    // borrows `words`.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
}

/// One section being assembled: id plus payload bytes.
struct SectionBuf {
    id: u32,
    payload: Vec<u8>,
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

fn serialize(genome: &Genome, q: usize) -> Source {
    let mut meta = Vec::new();
    push_u32(&mut meta, q as u32);
    push_u32(&mut meta, genome.contig_count() as u32);
    let mut packed_payload = Vec::new();
    let mut masks_payload = Vec::new();
    let mut qgram_payload = Vec::new();
    for contig in genome.contigs() {
        push_u32(&mut meta, contig.name().len() as u32);
        push_u32(&mut meta, 0);
        push_u64(&mut meta, contig.len() as u64);
        meta.extend_from_slice(contig.name().as_bytes());
        pad8(&mut meta);

        let packed = PackedSeq::from_seq(contig.seq());
        for &word in packed.words() {
            push_u64(&mut packed_payload, word);
        }
        let masks = BaseMasks::build(&packed);
        for base in Base::ALL {
            for &word in masks.mask(base) {
                push_u64(&mut masks_payload, word);
            }
        }
        if q > 0 {
            let table = DenseQGrams::build_from_bases(contig.seq().as_slice(), q);
            for &offset in table.offsets() {
                push_u32(&mut qgram_payload, offset);
            }
            for &pos in table.positions() {
                push_u32(&mut qgram_payload, pos);
            }
        }
    }

    let mut sections = vec![
        SectionBuf { id: SECTION_META, payload: meta },
        SectionBuf { id: SECTION_PACKED, payload: packed_payload },
        SectionBuf { id: SECTION_MASKS, payload: masks_payload },
    ];
    if q > 0 {
        sections.push(SectionBuf { id: SECTION_QGRAM, payload: qgram_payload });
    }

    let table_len = HEADER_LEN + TABLE_ENTRY_LEN * sections.len();
    let mut offsets = Vec::with_capacity(sections.len());
    let mut cursor = table_len;
    for section in &sections {
        cursor = cursor.next_multiple_of(8);
        offsets.push(cursor);
        cursor += section.payload.len();
    }
    let file_len = cursor.next_multiple_of(8) + 8;

    let mut header = Vec::with_capacity(table_len);
    header.extend_from_slice(&MAGIC);
    push_u32(&mut header, VERSION);
    push_u32(&mut header, sections.len() as u32);
    push_u64(&mut header, file_len as u64);
    for (section, &offset) in sections.iter().zip(&offsets) {
        push_u32(&mut header, section.id);
        push_u32(&mut header, 0);
        push_u64(&mut header, offset as u64);
        push_u64(&mut header, section.payload.len() as u64);
        push_u64(&mut header, checksum(&section.payload));
    }
    // The file is assembled straight into aligned words: the header and
    // every payload start on a multiple of 8, so each run is appended
    // zero-padded to a whole word.
    let mut words = Vec::with_capacity(file_len / 8);
    push_words(&mut words, &header);
    for section in &sections {
        push_words(&mut words, &section.payload);
    }
    debug_assert_eq!(words.len() * 8, file_len - 8);
    let trailer = checksum(word_bytes(&words));
    words.push(trailer);
    Source::Owned { words, len: file_len }
}

/// Full validation pass: header, checksums, and structural decode.
/// Returns `(q, contig metas, total bases)`.
#[allow(clippy::type_complexity)]
fn validate(bytes: &[u8]) -> Result<(usize, Vec<ContigMeta>, usize), GenomeError> {
    let have = bytes.len() as u64;
    if bytes.len() < HEADER_LEN {
        return Err(GenomeError::IndexTruncated { needed: HEADER_LEN as u64, have });
    }
    if bytes[..8] != MAGIC {
        return Err(GenomeError::IndexMagic);
    }
    let version = read_u32(bytes, 8);
    if version != VERSION {
        return Err(GenomeError::IndexVersion { found: version, supported: VERSION });
    }
    let section_count = read_u32(bytes, 12);
    if section_count == 0 || section_count > MAX_SECTIONS {
        return Err(corrupt(format!("implausible section count {section_count}")));
    }
    let file_len = read_u64(bytes, 16);
    let table_len = HEADER_LEN + TABLE_ENTRY_LEN * section_count as usize;
    if file_len < (table_len + 8) as u64 {
        return Err(corrupt("declared file length smaller than its own header"));
    }
    if have < file_len {
        return Err(GenomeError::IndexTruncated { needed: file_len, have });
    }
    if have > file_len {
        return Err(corrupt(format!("{} trailing bytes past declared length", have - file_len)));
    }
    // Whole-file checksum first: after this, any remaining inconsistency
    // is a writer bug, not bit rot.
    let trailer = read_u64(bytes, bytes.len() - 8);
    if checksum(&bytes[..bytes.len() - 8]) != trailer {
        return Err(GenomeError::IndexChecksum { section: "file" });
    }

    let mut found: Vec<(u32, usize, usize)> = Vec::new();
    for si in 0..section_count as usize {
        let entry = HEADER_LEN + TABLE_ENTRY_LEN * si;
        let id = read_u32(bytes, entry);
        let offset = read_u64(bytes, entry + 8);
        let len = read_u64(bytes, entry + 16);
        let stored = read_u64(bytes, entry + 24);
        let end = offset.checked_add(len).filter(|&end| end <= file_len - 8);
        let (Some(_), true) = (end, offset >= table_len as u64) else {
            return Err(corrupt(format!("section {} out of file bounds", section_name(id))));
        };
        let payload = &bytes[offset as usize..(offset + len) as usize];
        if checksum(payload) != stored {
            return Err(GenomeError::IndexChecksum { section: section_name(id) });
        }
        if found.iter().any(|&(fid, _, _)| fid == id) {
            return Err(corrupt(format!("duplicate section {}", section_name(id))));
        }
        found.push((id, offset as usize, len as usize));
    }
    let section = |id: u32| -> Result<(usize, usize), GenomeError> {
        found
            .iter()
            .find(|&&(fid, _, _)| fid == id)
            .map(|&(_, off, len)| (off, len))
            .ok_or_else(|| corrupt(format!("missing section {}", section_name(id))))
    };

    // Decode meta, then check the data sections are exactly the size the
    // contig table implies.
    let (meta_off, meta_len) = section(SECTION_META)?;
    let meta_end = meta_off + meta_len;
    if meta_len < 8 {
        return Err(corrupt("meta section too short for its own header"));
    }
    let q = read_u32(bytes, meta_off) as usize;
    if q > DENSE_Q_MAX {
        return Err(corrupt(format!("q {q} exceeds supported maximum {DENSE_Q_MAX}")));
    }
    let contig_count = read_u32(bytes, meta_off + 4) as usize;
    let mut cursor = meta_off + 8;
    let mut contigs = Vec::with_capacity(contig_count.min(1 << 20));
    let mut total_len = 0usize;
    let (packed_off, packed_len) = section(SECTION_PACKED)?;
    let (masks_off, masks_len) = section(SECTION_MASKS)?;
    // Scans borrow these two payloads as words in place.
    for (id, off) in [(SECTION_PACKED, packed_off), (SECTION_MASKS, masks_off)] {
        if !off.is_multiple_of(8) {
            return Err(corrupt(format!("section {} is not 8-byte aligned", section_name(id))));
        }
    }
    let qgram = if q > 0 { Some(section(SECTION_QGRAM)?) } else { None };
    let mut packed_cursor = packed_off;
    let mut masks_cursor = masks_off;
    let mut qgram_cursor = qgram.map_or(0, |(off, _)| off);
    for ci in 0..contig_count {
        if cursor + 16 > meta_end {
            return Err(corrupt(format!("meta ends inside contig {ci} record")));
        }
        let name_len = read_u32(bytes, cursor) as usize;
        let seq_len = read_u64(bytes, cursor + 8);
        if seq_len > usize::MAX as u64 {
            return Err(corrupt(format!("contig {ci} length overflows this platform")));
        }
        let seq_len = seq_len as usize;
        cursor += 16;
        if name_len > 4096 || cursor + name_len > meta_end {
            return Err(corrupt(format!("contig {ci} name runs past the meta section")));
        }
        let name = std::str::from_utf8(&bytes[cursor..cursor + name_len])
            .map_err(|_| corrupt(format!("contig {ci} name is not UTF-8")))?
            .to_string();
        if contigs.iter().any(|c: &ContigMeta| c.name == name) {
            return Err(corrupt(format!("duplicate contig name {name:?}")));
        }
        cursor = (cursor + name_len).next_multiple_of(8);

        let packed_bytes = seq_len.div_ceil(32) * 8;
        let masks_bytes = 4 * seq_len.div_ceil(64) * 8;
        let qgram_start = qgram_cursor;
        let mut qgram_positions = 0usize;
        if let Some((qg_off, qg_len)) = qgram {
            let offsets_bytes = 4 * ((1usize << (2 * q)) + 1);
            if qgram_cursor + offsets_bytes > qg_off + qg_len {
                return Err(corrupt(format!("q-gram section ends inside contig {ci} offsets")));
            }
            qgram_positions = read_u32(bytes, qgram_cursor + offsets_bytes - 4) as usize;
            qgram_cursor += offsets_bytes + 4 * qgram_positions;
            if qgram_cursor > qg_off + qg_len {
                return Err(corrupt(format!("q-gram section ends inside contig {ci} positions")));
            }
        }
        contigs.push(ContigMeta {
            name,
            len: seq_len,
            packed_word: packed_cursor / 8,
            masks_word: masks_cursor / 8,
            qgram_start,
            qgram_positions,
        });
        total_len = total_len
            .checked_add(seq_len)
            .ok_or_else(|| corrupt("total genome length overflows this platform"))?;
        packed_cursor += packed_bytes;
        masks_cursor += masks_bytes;
        if packed_cursor > packed_off + packed_len {
            return Err(corrupt(format!("packed section ends inside contig {ci}")));
        }
        if masks_cursor > masks_off + masks_len {
            return Err(corrupt(format!("masks section ends inside contig {ci}")));
        }
    }
    if cursor != meta_end {
        return Err(corrupt("meta section longer than its contig records"));
    }
    if packed_cursor != packed_off + packed_len {
        return Err(corrupt("packed section longer than its contigs"));
    }
    if masks_cursor != masks_off + masks_len {
        return Err(corrupt("masks section longer than its contigs"));
    }
    if let Some((qg_off, qg_len)) = qgram {
        if qgram_cursor != qg_off + qg_len {
            return Err(corrupt("q-gram section longer than its contigs"));
        }
    }
    Ok((q, contigs, total_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthSpec;

    fn sample_genome() -> Genome {
        SynthSpec::new(3_000).seed(97).contigs(3).generate()
    }

    #[test]
    fn round_trip_preserves_every_payload() {
        let genome = sample_genome();
        let index = GenomeIndex::build(&genome, 4).unwrap();
        assert!(!index.mapped());
        assert_eq!(index.contig_count(), genome.contig_count());
        assert_eq!(index.total_len(), genome.total_len());
        assert_eq!(index.q(), Some(4));
        for (ci, contig) in genome.contigs().iter().enumerate() {
            assert_eq!(index.contig_name(ci), contig.name());
            assert_eq!(index.contig_len(ci), contig.len());
            let packed = PackedSeq::from_seq(contig.seq());
            let len = contig.len();
            assert_eq!(index.packed_view(ci, 0, len).to_packed(), packed, "contig {ci}");
            assert_eq!(index.masks_view(ci, 0, len).to_masks(), BaseMasks::build(&packed));
            assert_eq!(
                index.contig_qgrams(ci).unwrap().unwrap(),
                DenseQGrams::build_from_bases(contig.seq().as_slice(), 4),
                "contig {ci}"
            );
        }
        let back = index.to_genome().unwrap();
        assert_eq!(back, genome);
    }

    #[test]
    fn ranged_views_equal_rebuilt_slices() {
        let genome = sample_genome();
        let index = GenomeIndex::build(&genome, 0).unwrap();
        assert_eq!(index.q(), None);
        assert!(index.contig_qgrams(0).unwrap().is_none());
        let contig = &genome.contigs()[1];
        for (start, len) in [(0, 0), (0, 1), (0, 64), (64, 63), (128, 66), (64, 130), (512, 377)] {
            let expect = PackedSeq::from_bases(&contig.seq().as_slice()[start..start + len]);
            assert_eq!(index.packed_view(1, start, len).to_packed(), expect, "{start}+{len}");
            assert_eq!(
                index.masks_view(1, start, len).to_masks(),
                BaseMasks::build(&expect),
                "{start}+{len}"
            );
        }
        // A packed view may start on any packed word boundary.
        let expect = PackedSeq::from_bases(&contig.seq().as_slice()[32..100]);
        assert_eq!(index.packed_view(1, 32, 68).to_packed(), expect);
    }

    #[test]
    #[should_panic(expected = "not a multiple of 64")]
    fn mask_views_start_on_a_word_boundary() {
        let index = GenomeIndex::build(&sample_genome(), 0).unwrap();
        let _ = index.masks_view(0, 32, 10);
    }

    #[test]
    fn chunk_views_borrow_the_index_and_hide_their_tail() {
        use crate::pamindex::AnchorScanner;
        use crate::IupacCode;
        let genome = sample_genome();
        let built = GenomeIndex::build(&genome, 0).unwrap();
        let dir = std::env::temp_dir().join(format!("crispr-ix-view-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.cgi");
        built.write_to(&path).unwrap();
        let mapped = GenomeIndex::open(&path).unwrap();
        let g = IupacCode::from_ascii(b'G').unwrap();
        let scanner = AnchorScanner::new(vec![(21, g), (22, g)]).unwrap();
        let seq = genome.contigs()[0].seq().as_slice();
        // A mid-contig chunk whose end falls inside a word: the words
        // past its end hold the contig's next bases.
        let (start, len) = (128, 101);
        for index in [&built, &mapped] {
            let bytes = index.as_bytes().as_ptr_range();
            let packed = index.packed_view(0, start, len);
            let masks = index.masks_view(0, start, len);
            // Zero-copy: every word the views cover lies inside the
            // index bytes themselves.
            let mut runs = vec![packed.words()];
            runs.extend(Base::ALL.map(|b| masks.mask(b)));
            for run in runs {
                let words = run.as_ptr_range();
                assert!(bytes.start <= words.start.cast() && words.end.cast() <= bytes.end);
            }
            assert_ne!(packed.words().last().unwrap() >> (2 * (len % 32)), 0, "tail is live data");
            assert_ne!(masks.mask(Base::G).last().unwrap() >> (len % 64), 0, "G past the end");
            // The tail never reaches candidates: the view anchors exactly
            // like an owned copy of the range.
            let expect = PackedSeq::from_bases(&seq[start..start + len]);
            let want: Vec<usize> = scanner.candidates(&expect, 23).iter().collect();
            assert!(!want.is_empty());
            for got in
                [scanner.candidates_from(masks, 23), scanner.candidates_from_blocked(masks, 23)]
            {
                assert_eq!(got.iter().collect::<Vec<_>>(), want);
            }
            assert_eq!(packed.unpack(), expect.unpack());
            assert_eq!(packed.to_packed(), expect);
            assert_eq!(masks.to_masks(), BaseMasks::build(&expect));
        }
        // Mapped and owned indices hand out equal views.
        for ci in 0..genome.contig_count() {
            let len = genome.contigs()[ci].len();
            assert_eq!(
                built.packed_view(ci, 0, len).words(),
                mapped.packed_view(ci, 0, len).words()
            );
            let (a, b) = (built.masks_view(ci, 0, len), mapped.masks_view(ci, 0, len));
            for base in Base::ALL {
                assert_eq!(a.mask(base), b.mask(base));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_maps_and_agrees_with_owned_bytes() {
        let genome = sample_genome();
        let built = GenomeIndex::build(&genome, 3).unwrap();
        let dir = std::env::temp_dir().join(format!("crispr-ix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.cgi");
        built.write_to(&path).unwrap();
        let opened = GenomeIndex::open(&path).unwrap();
        if cfg!(unix) {
            assert!(opened.mapped(), "unix open should mmap");
        }
        assert_eq!(opened.as_bytes(), built.as_bytes());
        assert_eq!(opened.to_genome().unwrap(), genome);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_rejected_typed() {
        let genome = SynthSpec::new(300).seed(5).contigs(2).generate();
        let good = GenomeIndex::build(&genome, 2).unwrap().as_bytes().to_vec();
        // Sampled stride keeps the test fast; the full sweep lives in the
        // fuzz suite.
        for i in (0..good.len()).step_by(7) {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            let err = GenomeIndex::from_bytes(bad)
                .err()
                .unwrap_or_else(|| panic!("flip at {i} accepted"));
            assert!(
                matches!(
                    err,
                    GenomeError::IndexMagic
                        | GenomeError::IndexVersion { .. }
                        | GenomeError::IndexTruncated { .. }
                        | GenomeError::IndexChecksum { .. }
                        | GenomeError::IndexCorrupt { .. }
                ),
                "flip at {i}: unexpected {err}"
            );
        }
    }

    #[test]
    fn truncation_and_header_tampering_yield_specific_errors() {
        let genome = SynthSpec::new(200).seed(6).generate();
        let good = GenomeIndex::build(&genome, 0).unwrap().as_bytes().to_vec();
        assert!(matches!(
            GenomeIndex::from_bytes(good[..10].to_vec()),
            Err(GenomeError::IndexTruncated { .. })
        ));
        assert!(matches!(
            GenomeIndex::from_bytes(good[..good.len() - 1].to_vec()),
            Err(GenomeError::IndexTruncated { .. })
        ));
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(matches!(GenomeIndex::from_bytes(magic), Err(GenomeError::IndexMagic)));
        let mut version = good.clone();
        version[8] = 99;
        assert!(matches!(
            GenomeIndex::from_bytes(version),
            Err(GenomeError::IndexVersion { found: 99, supported: VERSION })
        ));
        let mut body = good.clone();
        let last = body.len() - 9;
        body[last] ^= 0xff;
        assert!(matches!(GenomeIndex::from_bytes(body), Err(GenomeError::IndexChecksum { .. })));
    }

    #[test]
    fn empty_and_single_base_contigs_survive() {
        let mut genome = Genome::new();
        genome.add_contig("empty", DnaSeq::default()).unwrap();
        genome.add_contig("one", "G".parse().unwrap()).unwrap();
        genome.add_contig("some", "GATTACA".parse().unwrap()).unwrap();
        let index = GenomeIndex::build(&genome, 2).unwrap();
        assert_eq!(index.to_genome().unwrap(), genome);
        assert_eq!(index.contig_len(0), 0);
        assert_eq!(index.packed_view(0, 0, 0).to_packed(), PackedSeq::new());
        assert_eq!(index.packed_view(1, 0, 1).unpack().to_string(), "G");
        assert_eq!(index.contig_qgrams(0).unwrap().unwrap().positions().len(), 0);
    }

    #[test]
    fn checksum_distinguishes_zero_padding() {
        assert_ne!(checksum(&[]), checksum(&[0]));
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 16]));
        assert_ne!(checksum(b"abcdefgh"), checksum(b"abcdefg"));
    }
}
