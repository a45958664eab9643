//! Schema-versioned, byte-stable serialization of instance state
//! (DESIGN.md §15).
//!
//! A snapshot is a flat byte container: an 8-byte magic, a `u32`
//! little-endian schema version, then a sequence of tagged, length-framed
//! sections. Everything inside a section is written with the fixed-width
//! little-endian primitives of [`SnapshotWriter`], so two replicas holding
//! equal logical state always produce identical bytes — the property the
//! `snapshot-determinism` CI job and the migration transfer paths both
//! lean on.
//!
//! The section tag enum is schema-pinned exactly like the command enums
//! ([`crate::allocator::command`]): variant order assigns the tag bytes,
//! so appending, reordering, or renaming a variant is a schema change —
//! bump [`SNAPSHOT_SCHEMA_VERSION`], re-pin the section tags in
//! `core/tests/schema_golden.rs`, and refresh the committed version-skew
//! fixture together.
//!
//! Version skew is handled at open time: [`SnapshotReader::open`] accepts
//! any version in `SNAPSHOT_MIN_VERSION..=SNAPSHOT_SCHEMA_VERSION` and
//! exposes it through [`SnapshotReader::version`], letting decoders
//! upgrade older layouts field-by-field (v1 fleet states predate the
//! migration table and upgrade to an empty one). Anything outside the
//! window is a typed [`SnapshotError::UnsupportedVersion`] — never a
//! panic, as the runtime crates' `clippy::panic` denial requires.

/// Magic bytes opening every snapshot container.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"OASISNAP";

/// Wire-schema version of the snapshot container and its section
/// payloads. Variant order of [`SnapshotSection`] assigns the tag bytes,
/// so appending, reordering, or renaming a variant is a schema change:
/// bump this, re-pin the tags in `core/tests/schema_golden.rs`, and
/// refresh the committed v1 fixture test.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 2;

/// Oldest container version the reader still upgrades (v1 predates the
/// fleet migration table).
pub const SNAPSHOT_MIN_VERSION: u32 = 1;

/// Section tags of the snapshot container. Declaration order assigns the
/// tag bytes (starting at 1), mirroring the command-enum discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotSection {
    /// Container-level metadata: what was snapshotted and when (sim-time).
    Meta,
    /// One engine core's logical state; repeated, in registration order.
    Engine,
    /// The fleet allocator state machine ([`crate::allocator::FleetState`]).
    FleetState,
    /// A replay driver's continuation point (arrival cursor, departures).
    ReplayCursor,
}

impl SnapshotSection {
    /// The tag byte (declaration order, starting at 1).
    pub fn tag(self) -> u8 {
        match self {
            SnapshotSection::Meta => 1,
            SnapshotSection::Engine => 2,
            SnapshotSection::FleetState => 3,
            SnapshotSection::ReplayCursor => 4,
        }
    }

    /// Decode a tag byte; `None` for an unknown tag.
    pub fn from_tag(tag: u8) -> Option<SnapshotSection> {
        match tag {
            1 => Some(SnapshotSection::Meta),
            2 => Some(SnapshotSection::Engine),
            3 => Some(SnapshotSection::FleetState),
            4 => Some(SnapshotSection::ReplayCursor),
            _ => None,
        }
    }
}

/// Typed decode failure. Every malformed or version-skewed input maps to
/// one of these; the decoder never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The container does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The container's version is outside the supported window.
    UnsupportedVersion(u32),
    /// The input ended inside the named field.
    Truncated(&'static str),
    /// An unknown section tag byte.
    BadSection(u8),
    /// The next section's tag was not the one the decoder expected.
    SectionMismatch {
        /// Section the decoder was reading toward.
        want: SnapshotSection,
        /// Section actually found.
        got: SnapshotSection,
    },
    /// A field decoded to a value the schema forbids.
    Corrupt(&'static str),
    /// The snapshot was taken from a different run than the one resuming:
    /// the embedded workload digest does not match.
    StreamMismatch {
        /// Digest embedded in the snapshot.
        want: u64,
        /// Digest of the resuming run's workload.
        got: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SnapshotError::BadMagic => write!(f, "not an Oasis snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot schema v{v} (supported: \
                 v{SNAPSHOT_MIN_VERSION}..=v{SNAPSHOT_SCHEMA_VERSION})"
            ),
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated inside {what}"),
            SnapshotError::BadSection(tag) => write!(f, "unknown snapshot section tag {tag}"),
            SnapshotError::SectionMismatch { want, got } => {
                write!(f, "expected snapshot section {want:?}, found {got:?}")
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot field {what} is corrupt"),
            SnapshotError::StreamMismatch { want, got } => write!(
                f,
                "snapshot was taken from a different workload \
                 (digest {want:#x}, resuming run has {got:#x})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Byte-stable snapshot encoder: fixed-width little-endian primitives and
/// length-framed sections over a growable buffer.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// Patch offsets of sections opened but not yet closed (stacked so a
    /// forgotten `end_section` is caught by `finish`'s debug assertion).
    open: Vec<usize>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// A writer with the magic and current schema version already framed.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_SCHEMA_VERSION.to_le_bytes());
        SnapshotWriter {
            buf,
            open: Vec::new(),
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a length-prefixed byte string (`u64` length, then bytes).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Open a length-framed section: writes the tag and a length
    /// placeholder patched by [`end_section`](Self::end_section).
    pub fn begin_section(&mut self, s: SnapshotSection) {
        self.buf.push(s.tag());
        self.open.push(self.buf.len());
        self.buf.extend_from_slice(&0u64.to_le_bytes());
    }

    /// Close the innermost open section, patching its length frame.
    pub fn end_section(&mut self) {
        if let Some(at) = self.open.pop() {
            let len = (self.buf.len() - at - 8) as u64;
            self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        }
    }

    /// Finish, returning the container bytes.
    pub fn finish(self) -> Vec<u8> {
        debug_assert!(self.open.is_empty(), "unclosed snapshot section");
        self.buf
    }
}

/// Cursor over a snapshot container (or one section payload within it).
/// Every accessor returns a typed [`SnapshotError`] on malformed input;
/// nothing here indexes past the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    version: u32,
}

impl<'a> SnapshotReader<'a> {
    /// Open a container: check the magic and accept any schema version in
    /// the supported window.
    pub fn open(bytes: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        let magic = bytes.get(..8).ok_or(SnapshotError::Truncated("magic"))?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let v = bytes
            .get(8..12)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
            .ok_or(SnapshotError::Truncated("version"))?;
        if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_SCHEMA_VERSION).contains(&v) {
            return Err(SnapshotError::UnsupportedVersion(v));
        }
        Ok(SnapshotReader {
            buf: bytes,
            pos: 12,
            version: v,
        })
    }

    /// The container's schema version (decoders branch on this to upgrade
    /// older layouts).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True when the cursor has consumed the whole buffer.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapshotError::Truncated(what))?;
        let b = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated(what))?;
        self.pos = end;
        Ok(b)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, SnapshotError> {
        let b = self.take(2, what)?;
        b.try_into()
            .map(u16::from_le_bytes)
            .map_err(|_| SnapshotError::Truncated(what))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, what)?;
        b.try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| SnapshotError::Truncated(what))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, what)?;
        b.try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| SnapshotError::Truncated(what))
    }

    /// Read a collection length. Every encoded element occupies at least
    /// one byte, so a count exceeding the bytes left in the container is
    /// corrupt — rejected here, *before* a decoder pre-allocates, so a
    /// flipped bit in a length field surfaces as a typed error instead of
    /// driving `Vec::with_capacity` into an allocation abort.
    pub fn count(&mut self, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.u64(what)?;
        if n > self.remaining() as u64 {
            return Err(SnapshotError::Corrupt(what));
        }
        Ok(n as usize)
    }

    /// Read a bool byte; anything other than 0/1 is corrupt.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt(what)),
        }
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        let len = self.u64(what)?;
        let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt(what))?;
        self.take(len, what)
    }

    /// Read the next section header, returning a sub-reader scoped to its
    /// payload. `Ok(None)` at a clean end of input.
    pub fn next_section(
        &mut self,
    ) -> Result<Option<(SnapshotSection, SnapshotReader<'a>)>, SnapshotError> {
        if self.is_exhausted() {
            return Ok(None);
        }
        let tag = self.u8("section tag")?;
        let section = SnapshotSection::from_tag(tag).ok_or(SnapshotError::BadSection(tag))?;
        let payload = self.bytes("section payload")?;
        Ok(Some((
            section,
            SnapshotReader {
                buf: payload,
                pos: 0,
                version: self.version,
            },
        )))
    }

    /// Read the next section, requiring it to be `want`.
    pub fn section(&mut self, want: SnapshotSection) -> Result<SnapshotReader<'a>, SnapshotError> {
        match self.next_section()? {
            Some((got, r)) if got == want => Ok(r),
            Some((got, _)) => Err(SnapshotError::SectionMismatch { want, got }),
            None => Err(SnapshotError::Truncated("section")),
        }
    }
}

/// A component whose logical state round-trips through the snapshot
/// primitives byte-stably: `snapshot_state` must be a pure function of the
/// component's logical state, and `restore_state` followed by
/// `snapshot_state` must reproduce the identical bytes.
///
/// Implementations serialize *logical* state only — clocks, counters,
/// queue contents, in-flight descriptors, retry/dedup sequence state —
/// never topology (links, channel endpoints, configuration), which the
/// builder reconstructs on the restore side.
pub trait Snapshottable {
    /// Append this component's state to `w`.
    fn snapshot_state(&self, w: &mut SnapshotWriter);
    /// Restore from bytes produced by [`snapshot_state`](Self::snapshot_state).
    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u16(65_535);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX / 3);
        w.put_bool(true);
        w.put_bytes(b"oasis");
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(r.version(), SNAPSHOT_SCHEMA_VERSION);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 65_535);
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("d").unwrap(), u64::MAX / 3);
        assert!(r.bool("e").unwrap());
        assert_eq!(r.bytes("f").unwrap(), b"oasis");
        assert!(r.is_exhausted());
    }

    #[test]
    fn sections_frame_and_scope() {
        let mut w = SnapshotWriter::new();
        w.begin_section(SnapshotSection::Meta);
        w.put_u64(42);
        w.end_section();
        w.begin_section(SnapshotSection::Engine);
        w.put_u32(9);
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut meta = r.section(SnapshotSection::Meta).unwrap();
        assert_eq!(meta.u64("x").unwrap(), 42);
        assert!(meta.is_exhausted());
        let (s, mut eng) = r.next_section().unwrap().unwrap();
        assert_eq!(s, SnapshotSection::Engine);
        assert_eq!(eng.u32("y").unwrap(), 9);
        assert!(r.next_section().unwrap().is_none());
    }

    #[test]
    fn section_mismatch_is_typed() {
        let mut w = SnapshotWriter::new();
        w.begin_section(SnapshotSection::Engine);
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(
            r.section(SnapshotSection::Meta),
            Err(SnapshotError::SectionMismatch {
                want: SnapshotSection::Meta,
                got: SnapshotSection::Engine,
            })
        );
    }

    #[test]
    fn bad_magic_and_versions_rejected() {
        assert_eq!(
            SnapshotReader::open(b"NOTASNAP\x01\x00\x00\x00"),
            Err(SnapshotError::BadMagic)
        );
        assert_eq!(
            SnapshotReader::open(&SNAPSHOT_MAGIC[..6]),
            Err(SnapshotError::Truncated("magic"))
        );
        let mut future = Vec::new();
        future.extend_from_slice(&SNAPSHOT_MAGIC);
        future.extend_from_slice(&(SNAPSHOT_SCHEMA_VERSION + 1).to_le_bytes());
        assert_eq!(
            SnapshotReader::open(&future),
            Err(SnapshotError::UnsupportedVersion(
                SNAPSHOT_SCHEMA_VERSION + 1
            ))
        );
        let mut ancient = Vec::new();
        ancient.extend_from_slice(&SNAPSHOT_MAGIC);
        ancient.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            SnapshotReader::open(&ancient),
            Err(SnapshotError::UnsupportedVersion(0))
        );
    }

    #[test]
    fn v1_containers_still_open() {
        let mut v1 = Vec::new();
        v1.extend_from_slice(&SNAPSHOT_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        let r = SnapshotReader::open(&v1).unwrap();
        assert_eq!(r.version(), 1);
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 3);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(r.u64("field"), Err(SnapshotError::Truncated("field")));
        // Absurd length prefixes are typed errors too.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(r.bytes("blob").is_err());
    }

    #[test]
    fn unknown_section_tag_rejected() {
        let mut w = SnapshotWriter::new();
        w.put_u8(99);
        w.put_u64(0);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(r.next_section(), Err(SnapshotError::BadSection(99)));
    }

    #[test]
    fn section_tags_roundtrip() {
        for s in [
            SnapshotSection::Meta,
            SnapshotSection::Engine,
            SnapshotSection::FleetState,
            SnapshotSection::ReplayCursor,
        ] {
            assert_eq!(SnapshotSection::from_tag(s.tag()), Some(s));
        }
        assert_eq!(SnapshotSection::from_tag(0), None);
        assert_eq!(SnapshotSection::from_tag(5), None);
    }
}
