//! Byte-level snapshot surgery shared by the integration tests that
//! corrupt a snapshot *behind* valid checksums: split a buffer into its
//! sections, edit a payload, and re-seal the container with fresh
//! per-section checksums so only the semantic decoder can object.

use matrix_pic::core::snapshot::{MAGIC, VERSION};

/// FNV-1a 64 over `bytes` (the container's per-section checksum).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A snapshot's `(section id, payload)` list, in table order.
pub type Sections = Vec<(u32, Vec<u8>)>;

/// The sections of a well-formed snapshot.
pub fn sections(bytes: &[u8]) -> Sections {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let e = 16 + i * 28;
            let id = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
            let (off, len) = (u64_at(e + 4) as usize, u64_at(e + 12) as usize);
            (id, bytes[off..off + len].to_vec())
        })
        .collect()
}

/// Reassembles `sections` into a snapshot whose header, table and
/// checksums are all valid — the inverse of [`sections`].
pub fn seal(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = (16 + 28 * sections.len()) as u64;
    for (id, body) in sections {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(body).to_le_bytes());
        offset += body.len() as u64;
    }
    for (_, body) in sections {
        out.extend_from_slice(body);
    }
    out
}
