//! The deterministic checkpoint container format.
//!
//! A snapshot is a single byte buffer with a fixed header, a section
//! table and one checksummed payload slice per section:
//!
//! ```text
//! magic   [u8; 8] = "MPICSNAP"
//! version u32     = 1
//! count   u32     = number of sections
//! table   count x { id: u32, offset: u64, len: u64, fnv1a64: u64 }
//! payload concatenated section bytes (offsets are absolute)
//! ```
//!
//! All integers are little-endian; `f64` values travel as their IEEE-754
//! bit patterns, so a restored simulation resumes **bit-identically** —
//! no text round-trip, no locale, no rounding. The format is hand-rolled
//! and dependency-free on purpose: the simulation's state inventory is
//! small and stable, and an explicit byte layout is auditable in a way a
//! derived serializer is not.
//!
//! The payload layout is described **once**, by [`Codec`] impls: each
//! type's `put` and `get` sit side by side, and plain-data structs list
//! their fields a single time (`codec_struct!`) to drive both
//! directions, so the writer and the reader cannot drift apart.
//!
//! | type | encoding |
//! |---|---|
//! | `u32`, `u64` | little-endian |
//! | `usize` | widened to `u64` |
//! | `f64` | `u64` bit pattern |
//! | `bool` | one byte, 0 or 1 |
//! | `VAddr` | its `u64` |
//! | `[T]`, `Vec<T>`, `str`, `String` | `u64` length, then the elements (UTF-8 bytes) |
//! | `[T; N]`, tuples, structs | the elements or fields in order, no prefix |
//! | `Option<T>` | `bool` tag, then the value when present |
//! | `Cow<T>` | as `T` (borrowed when written, owned when read) |
//!
//! The section payloads are composed in `Simulation::snapshot`; the
//! subsystem states they carry (GPMA, particle tiles, cache model,
//! counters, address map, timing report) have their codecs here.
//!
//! [`SnapshotWriter`] builds a buffer section by section;
//! [`SnapshotReader`] validates the header, table and every section
//! checksum up front, then hands out bounds-checked [`SectionReader`]s.
//! Corrupt or truncated input of any shape yields a structured
//! [`SnapshotError`] — decoding never panics (see `tests/snapshot.rs`
//! for the per-section corruption matrix and `tests/fuzz_lite.rs` for
//! corruption behind valid checksums).

use std::borrow::Cow;
use std::fmt;

use mpic_deposit::AddrMap;
use mpic_machine::{CacheLevelState, CacheSimState, CacheStats, PerfCounters, Phase, VAddr};
use mpic_particles::{GpmaState, ParticleSoA, ParticleTile, PendingMove, RankSortStats};

use crate::timings::{RunReport, StepTimings};

/// Leading magic bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"MPICSNAP";

/// Current format version.
pub const VERSION: u32 = 1;

/// Well-known section identifiers.
pub mod section {
    /// Configuration fingerprint (geometry, solver, kernel, dt).
    pub const META: u32 = 1;
    /// The nine guarded field arrays.
    pub const FIELDS: u32 = 2;
    /// Per-tile SoA + GPMA + authoritative bin maps.
    pub const PARTICLES: u32 = 3;
    /// RNG stream position.
    pub const RNG: u32 = 4;
    /// Step loop state: sort-policy counters, window, time, step index.
    pub const DRIVER: u32 = 5;
    /// Per-phase performance counters and cache statistics.
    pub const COUNTERS: u32 = 6;
    /// Behavioural cache-hierarchy state (tags, LRU, streams).
    pub const CACHE: u32 = 7;
    /// Virtual address map and allocator mark.
    pub const ADDRS: u32 = 8;
    /// The accumulated timing report.
    pub const REPORT: u32 = 9;
}

/// Why a snapshot failed to decode. Every variant is a *returned* error:
/// corrupt input of any shape must never panic the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer is shorter than the fixed header.
    TooShort,
    /// The magic bytes are wrong — not a snapshot at all.
    BadMagic,
    /// A version this build does not understand.
    BadVersion(u32),
    /// The section table is truncated or points outside the buffer.
    BadSectionTable,
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// The failing section id.
        section: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent section id.
        section: u32,
    },
    /// A section decoded structurally but its contents are invalid.
    Malformed {
        /// The failing section id.
        section: u32,
        /// What was wrong.
        reason: &'static str,
    },
    /// The snapshot is valid but was taken from an incompatible
    /// configuration (different geometry, kernel, solver or timestep).
    Incompatible {
        /// Which fingerprint field disagreed.
        reason: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than header"),
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadSectionTable => write!(f, "corrupt section table"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "missing section {section}")
            }
            SnapshotError::Malformed { section, reason } => {
                write!(f, "malformed section {section}: {reason}")
            }
            SnapshotError::Incompatible { reason } => {
                write!(f, "incompatible snapshot: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit over a byte slice — small, dependency-free and plenty
/// for detecting accidental corruption (this is an integrity check, not
/// an authentication code).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const HEADER_LEN: usize = 8 + 4 + 4;
const TABLE_ENTRY_LEN: usize = 4 + 8 + 8 + 8;

/// Builds a snapshot buffer section by section.
pub struct SnapshotWriter {
    sections: Vec<(u32, Vec<u8>)>,
    open: bool,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self {
            sections: Vec::new(),
            open: false,
        }
    }

    /// Appends section `id`, whose payload is everything `body` puts.
    ///
    /// # Panics
    ///
    /// Panics if sections nest or `id` repeats — both are writer-side
    /// programming errors, not input-dependent conditions.
    pub fn section(&mut self, id: u32, body: impl FnOnce(&mut Self)) {
        assert!(!self.open, "sections do not nest");
        assert!(
            self.sections.iter().all(|(sid, _)| *sid != id),
            "duplicate section id {id}"
        );
        self.sections.push((id, Vec::new()));
        self.open = true;
        body(self);
        self.open = false;
    }

    /// Appends `v`'s encoding to the open section.
    pub fn put<T: Codec + ?Sized>(&mut self, v: &T) {
        v.put(self);
    }

    fn bytes(&mut self, b: &[u8]) {
        assert!(self.open, "write outside a section");
        self.sections
            .last_mut()
            .expect("open section")
            .1
            .extend_from_slice(b);
    }

    /// Assembles the final buffer: header, table, payload.
    pub fn finish(self) -> Vec<u8> {
        let table_len = self.sections.len() * TABLE_ENTRY_LEN;
        let payload_len: usize = self.sections.iter().map(|(_, b)| b.len()).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + table_len + payload_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = (HEADER_LEN + table_len) as u64;
        for (id, body) in &self.sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(body.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a64(body).to_le_bytes());
            offset += body.len() as u64;
        }
        for (_, body) in &self.sections {
            out.extend_from_slice(body);
        }
        out
    }
}

/// Parses and validates a snapshot buffer, handing out per-section
/// readers. Construction verifies the header, the table bounds and every
/// section checksum, so a reader that exists is structurally sound.
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    /// `(id, offset, len)` per section, bounds- and checksum-verified.
    table: Vec<(u32, usize, usize)>,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the container and builds the section index.
    pub fn new(data: &'a [u8]) -> Result<Self, SnapshotError> {
        if data.len() < HEADER_LEN {
            return Err(SnapshotError::TooShort);
        }
        if data[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let count = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes")) as usize;
        let table_end = HEADER_LEN
            .checked_add(
                count
                    .checked_mul(TABLE_ENTRY_LEN)
                    .ok_or(SnapshotError::BadSectionTable)?,
            )
            .ok_or(SnapshotError::BadSectionTable)?;
        if table_end > data.len() {
            return Err(SnapshotError::BadSectionTable);
        }
        let mut table = Vec::with_capacity(count);
        for i in 0..count {
            let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let id = u32::from_le_bytes(data[e..e + 4].try_into().expect("4 bytes"));
            let offset = u64::from_le_bytes(data[e + 4..e + 12].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(data[e + 12..e + 20].try_into().expect("8 bytes"));
            let sum = u64::from_le_bytes(data[e + 20..e + 28].try_into().expect("8 bytes"));
            let (offset, len) = (
                usize::try_from(offset).map_err(|_| SnapshotError::BadSectionTable)?,
                usize::try_from(len).map_err(|_| SnapshotError::BadSectionTable)?,
            );
            let end = offset
                .checked_add(len)
                .ok_or(SnapshotError::BadSectionTable)?;
            if offset < table_end || end > data.len() {
                return Err(SnapshotError::BadSectionTable);
            }
            if fnv1a64(&data[offset..end]) != sum {
                return Err(SnapshotError::ChecksumMismatch { section: id });
            }
            table.push((id, offset, len));
        }
        Ok(Self { data, table })
    }

    /// A bounds-checked reader over one section's payload.
    pub fn section(&self, id: u32) -> Result<SectionReader<'a>, SnapshotError> {
        let &(_, offset, len) = self
            .table
            .iter()
            .find(|(sid, _, _)| *sid == id)
            .ok_or(SnapshotError::MissingSection { section: id })?;
        Ok(SectionReader {
            id,
            data: &self.data[offset..offset + len],
            pos: 0,
        })
    }

    /// Decodes section `id` as one `T`, which must span the payload
    /// exactly.
    pub fn decode<T: Codec>(&self, id: u32) -> Result<T, SnapshotError> {
        let mut r = self.section(id)?;
        let v = r.get()?;
        if r.remaining() != 0 {
            return Err(r.malformed("bytes left over after the section's value"));
        }
        Ok(v)
    }
}

/// Sequential bounds-checked decoder over one section's bytes. Every
/// read that would pass the end returns [`SnapshotError::Malformed`].
pub struct SectionReader<'a> {
    id: u32,
    data: &'a [u8],
    pos: usize,
}

impl SectionReader<'_> {
    fn malformed(&self, reason: &'static str) -> SnapshotError {
        SnapshotError::Malformed {
            section: self.id,
            reason,
        }
    }

    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| self.malformed("field runs past the section end"))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads one `T`.
    pub fn get<T: Codec>(&mut self) -> Result<T, SnapshotError> {
        T::get(self)
    }
}

/// A value with a fixed place in the snapshot format: `put` appends its
/// encoding, `get` reads it back. Decoding never panics and never
/// allocates more than the section could hold.
pub trait Codec {
    /// The fewest bytes any encoding of `Self` occupies. A decoded
    /// length prefix is checked against it before anything is allocated.
    const MIN_BYTES: usize;

    /// Appends the encoding of `self`.
    fn put(&self, w: &mut SnapshotWriter);

    /// Reads one value back.
    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError>
    where
        Self: Sized;
}

/// [`Codec::MIN_BYTES`] of the field `_field` selects (used by
/// [`codec_struct!`], which names fields but not their types).
pub(crate) const fn field_min<S, T: Codec>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// Implements [`Codec`] for a plain-data struct from one list of its
/// fields in wire order: `put` writes them in that order and `get` reads
/// them back in the same order. A field left off the list does not
/// compile, since `get` builds the struct from the list alone.
macro_rules! codec_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::snapshot::Codec for $ty {
            const MIN_BYTES: usize =
                0 $(+ $crate::snapshot::field_min(|s: &$ty| &s.$field))+;

            fn put(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                $(w.put(&self.$field);)+
            }

            fn get(
                r: &mut $crate::snapshot::SectionReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(Self { $($field: r.get()?,)+ })
            }
        }
    };
}
pub(crate) use codec_struct;

/// Fixed-width little-endian integers.
macro_rules! codec_int {
    ($($t:ty),+) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            fn put(&self, w: &mut SnapshotWriter) {
                w.bytes(&self.to_le_bytes());
            }

            fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
                let bytes = r.take(Self::MIN_BYTES)?;
                Ok(Self::from_le_bytes(bytes.try_into().expect("exact width")))
            }
        }
    )+};
}
codec_int!(u32, u64);

impl Codec for usize {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&(*self as u64));
    }

    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        Self::try_from(r.get::<u64>()?).map_err(|_| r.malformed("count exceeds usize"))
    }
}

impl Codec for f64 {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.to_bits());
    }

    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        r.get().map(Self::from_bits)
    }
}

impl Codec for bool {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut SnapshotWriter) {
        w.bytes(&[u8::from(*self)]);
    }

    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(r.malformed("boolean byte is neither 0 nor 1")),
        }
    }
}

impl Codec for VAddr {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.0);
    }

    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        r.get().map(VAddr)
    }
}

impl<T: Codec> Codec for [T] {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.len());
        for v in self {
            w.put(v);
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut SnapshotWriter) {
        w.put(self.as_slice());
    }

    /// The one length guard of the format: a prefix claiming more
    /// elements than the rest of the section could hold at `T`'s minimum
    /// size is malformed, so a corrupt count never drives an allocation.
    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let len: usize = r.get()?;
        if len
            .checked_mul(T::MIN_BYTES.max(1))
            .is_none_or(|bytes| bytes > r.remaining())
        {
            return Err(r.malformed("vector length exceeds the section"));
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(r.get()?);
        }
        Ok(v)
    }
}

impl Codec for str {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.len());
        w.bytes(self.as_bytes());
    }
}

impl Codec for String {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut SnapshotWriter) {
        w.put(self.as_str());
    }

    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let len: usize = r.get()?;
        let bytes = r.take(len)?.to_vec();
        Self::from_utf8(bytes).map_err(|_| r.malformed("string is not UTF-8"))
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    fn put(&self, w: &mut SnapshotWriter) {
        for v in self {
            w.put(v);
        }
    }

    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let v = (0..N).map(|_| r.get()).collect::<Result<Vec<T>, _>>()?;
        Ok(v.try_into()
            .unwrap_or_else(|_| unreachable!("exactly N elements")))
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.is_some());
        if let Some(v) = self {
            w.put(v);
        }
    }

    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        Ok(if r.get()? { Some(r.get()?) } else { None })
    }
}

impl<B> Codec for Cow<'_, B>
where
    B: ToOwned + Codec + ?Sized,
    B::Owned: Codec,
{
    const MIN_BYTES: usize = B::Owned::MIN_BYTES;

    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&**self);
    }

    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        r.get().map(Cow::Owned)
    }
}

macro_rules! codec_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;

            fn put(&self, w: &mut SnapshotWriter) {
                $(w.put(&self.$i);)+
            }

            fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($(r.get::<$t>()?,)+))
            }
        }
    };
}
codec_tuple!(A.0, B.1);
codec_tuple!(A.0, B.1, C.2);
codec_tuple!(A.0, B.1, C.2, D.3);
codec_tuple!(A.0, B.1, C.2, D.3, E.4);

codec_struct! { PendingMove { particle, old_bin, new_bin } }
codec_struct! { GpmaState {
    local_index, bin_offsets, bin_lengths, bin_free, slot_of, num_particles, num_empty_slots,
    gap_ratio, pending, was_rebuilt_this_step, rebuild_count,
} }
codec_struct! { CacheLevelState { tags, stamps, clock, memo_line, memo_slot } }
codec_struct! { CacheSimState { l1, l2, streams, decay_tick } }
codec_struct! { CacheStats { hits, misses } }
codec_struct! { RankSortStats {
    steps_since_sort, rebuilds_accum, empty_ratio, perf_metric, baseline_perf,
} }
codec_struct! { AddrMap { jx, jy, jz, soa, local_index, rhocell, staging } }
codec_struct! { StepTimings { cycles, particles } }
codec_struct! { RunReport { useful_flops, steps } }

/// Per-phase cycles in [`Phase::ALL`] order, then the FLOP and
/// operation totals.
impl Codec for PerfCounters {
    const MIN_BYTES: usize = 8 * 8 + 6 * 8;

    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&Phase::ALL.map(|p| self.cycles(p)));
        w.put(&(self.flops_issued, self.useful_flops));
        w.put(&(
            self.scalar_ops,
            self.vector_ops,
            self.mopa_ops,
            self.tile_transfers,
        ));
    }

    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let cycles: [f64; 8] = r.get()?;
        let mut c = Self::new();
        for (p, v) in Phase::ALL.into_iter().zip(cycles) {
            c.add_cycles(p, v);
        }
        (c.flops_issued, c.useful_flops) = r.get()?;
        (c.scalar_ops, c.vector_ops, c.mopa_ops, c.tile_transfers) = r.get()?;
        Ok(c)
    }
}

/// The SoA's seven attribute arrays, its liveness bytes and free-slot
/// stack, the bin map, then the GPMA state. Decoding validates the tile
/// as a whole ([`ParticleSoA::from_parts`], [`ParticleTile::from_parts`]):
/// a tile whose parts disagree is malformed, never a later panic.
impl Codec for ParticleTile {
    const MIN_BYTES: usize = 10 * 8 + GpmaState::MIN_BYTES;

    fn put(&self, w: &mut SnapshotWriter) {
        let soa = &self.soa;
        for attr in [&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz, &soa.w] {
            w.put(attr);
        }
        w.put(&soa.alive);
        w.put(soa.free_slots());
        w.put(&self.cells);
        w.put(&self.gpma.export_state());
    }

    fn get(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let (attrs, alive, free, cells, gpma) = r.get()?;
        let soa = ParticleSoA::from_parts(attrs, alive, free).map_err(|e| r.malformed(e))?;
        Self::from_parts(soa, gpma, cells).map_err(|e| r.malformed(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section(section::META, |w| {
            w.put(&42u64);
            w.put(&1.5f64);
            w.put("hello");
        });
        w.section(section::RNG, |w| {
            w.put(&[1u64, 2, 3][..]);
            w.put(&true);
        });
        w.finish()
    }

    #[test]
    fn round_trip_reads_back_every_field() {
        let buf = sample();
        let r = SnapshotReader::new(&buf).expect("valid snapshot");
        let mut meta = r.section(section::META).expect("meta present");
        assert_eq!(meta.get::<u64>().unwrap(), 42);
        assert_eq!(meta.get::<f64>().unwrap().to_bits(), 1.5f64.to_bits());
        assert_eq!(meta.get::<String>().unwrap(), "hello");
        assert_eq!(meta.remaining(), 0);
        let (v, flag): (Vec<u64>, bool) = r.decode(section::RNG).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert!(flag);
    }

    /// Composite codecs round-trip, and a borrowed write reads back as
    /// the owned value with the same bytes.
    #[test]
    fn composite_codecs_round_trip() {
        type Payload = (
            [u32; 3],
            Vec<Option<usize>>,
            Vec<Vec<f64>>,
            Cow<'static, [VAddr]>,
        );
        let value: Payload = (
            [7, 8, 9],
            vec![Some(3), None, Some(usize::MAX >> 1)],
            vec![vec![], vec![-0.0, f64::MIN_POSITIVE]],
            Cow::Borrowed(&[VAddr(64), VAddr(128)]),
        );
        let mut w = SnapshotWriter::new();
        w.section(section::CACHE, |w| w.put(&value));
        let buf = w.finish();
        let got: Payload = SnapshotReader::new(&buf)
            .unwrap()
            .decode(section::CACHE)
            .unwrap();
        assert_eq!((got.0, &got.1, &got.3), (value.0, &value.1, &value.3));
        let bits = |v: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            v.iter()
                .map(|a| a.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&got.2), bits(&value.2));
        assert!(matches!(got.3, Cow::Owned(_)));
    }

    /// `decode` wants the value to span the section exactly: bytes left
    /// over are malformed, not silently ignored.
    #[test]
    fn decode_rejects_trailing_bytes() {
        let buf = sample();
        let r = SnapshotReader::new(&buf).unwrap();
        assert!(matches!(
            r.decode::<(u64, f64)>(section::META),
            Err(SnapshotError::Malformed {
                section: section::META,
                ..
            })
        ));
    }

    #[test]
    fn header_corruption_is_structured() {
        let buf = sample();
        assert_eq!(
            SnapshotReader::new(&buf[..4]).err(),
            Some(SnapshotError::TooShort)
        );
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            SnapshotReader::new(&bad_magic).err(),
            Some(SnapshotError::BadMagic)
        );
        let mut bad_version = buf.clone();
        bad_version[8] = 99;
        assert_eq!(
            SnapshotReader::new(&bad_version).err(),
            Some(SnapshotError::BadVersion(99))
        );
        // Truncating into the payload breaks the table bounds.
        assert!(matches!(
            SnapshotReader::new(&buf[..buf.len() - 3]).err(),
            Some(SnapshotError::BadSectionTable | SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn payload_flip_fails_the_right_sections_checksum() {
        let buf = sample();
        // Flip the last payload byte: that's the RNG section's tail.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert_eq!(
            SnapshotReader::new(&bad).err(),
            Some(SnapshotError::ChecksumMismatch {
                section: section::RNG
            })
        );
    }

    #[test]
    fn missing_section_and_overreads_are_errors() {
        let buf = sample();
        let r = SnapshotReader::new(&buf).expect("valid snapshot");
        assert_eq!(
            r.section(section::FIELDS).err(),
            Some(SnapshotError::MissingSection {
                section: section::FIELDS
            })
        );
        let mut rng = r.section(section::RNG).unwrap();
        let _ = rng.get::<Vec<u64>>().unwrap();
        let _ = rng.get::<bool>().unwrap();
        assert!(matches!(
            rng.get::<u64>().err(),
            Some(SnapshotError::Malformed { .. })
        ));
    }

    /// A length prefix is checked against the element type's minimum
    /// encoded size before anything is allocated: a hostile count fails,
    /// and so does a count one element too long for the bytes present.
    #[test]
    fn hostile_vector_length_is_rejected_without_allocating() {
        let mut w = SnapshotWriter::new();
        w.section(section::FIELDS, |w| w.put(&u64::MAX)); // Claimed element count.
        w.section(section::CACHE, |w| {
            w.put(&3usize); // Claims three 12-byte (u64, u32) pairs...
            w.put(&[(1u64, 2u32), (3, 4)][..]); // ...but holds 8 + 24 bytes.
        });
        let buf = w.finish();
        let r = SnapshotReader::new(&buf).unwrap();
        assert!(matches!(
            r.section(section::FIELDS).unwrap().get::<Vec<f64>>().err(),
            Some(SnapshotError::Malformed { .. })
        ));
        assert_eq!(
            r.section(section::CACHE)
                .unwrap()
                .get::<Vec<(u64, u32)>>()
                .err(),
            Some(SnapshotError::Malformed {
                section: section::CACHE,
                reason: "vector length exceeds the section"
            })
        );
    }

    #[test]
    fn fnv_vector_is_stable() {
        // Pin the checksum function: a silent change would invalidate
        // every snapshot in the wild while still "round-tripping" in
        // fresh tests.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
