//! The persistent artifact container: a framed, checksummed file format
//! for sketch payloads at rest.
//!
//! Everything the workspace serializes for the wire — Welford moments,
//! histograms, t-digests, the weighted importance-sampling sinks — is a
//! self-describing `[tag, version]` payload from [`crate::codec`]. This
//! module gives those payloads a durable home: an **artifact** is a file
//! of such payloads, each wrapped in a length-prefixed, individually
//! checksummed section, under a magic/version header and a whole-file
//! checksum footer that seals it:
//!
//! ```text
//! offset  size  field
//! ──────  ────  ─────────────────────────────────────────────
//! 0       4     magic "SVAF"
//! 4       1     container format version (currently 1)
//!               ┌─ section, repeated ──────────────────────┐
//! ·       1     │ 'S' section marker                       │
//! ·       8     │ payload length N        (u64 LE)         │
//! ·       N     │ payload — a [tag, version] sketch body   │
//! ·       8     │ FNV-1a 64 checksum of the payload        │
//!               └──────────────────────────────────────────┘
//!               ┌─ footer ─────────────────────────────────┐
//! ·       1     │ 'E' end marker                           │
//! ·       8     │ section count           (u64 LE)         │
//! ·       8     │ FNV-1a 64 checksum of every prior byte   │
//!               └──────────────────────────────────────────┘
//! ```
//!
//! [`seal`] writes an artifact and [`Artifact::from_bytes`] reads one, in
//! a single read mode: the footer is mandatory, and truncation anywhere,
//! a flipped byte anywhere, a wrong section count, or trailing bytes all
//! fail with a typed [`CodecError`]. Fleet shard artifacts and serve's
//! replay-cache entries are both such files (written through
//! `serve::cache::KeyedArtifacts`), so a corrupted file can never be
//! mistaken for a result.
//!
//! Every checksum is FNV-1a 64 ([`fnv1a64`]) — tiny, dependency-free, and
//! plenty for detecting at-rest corruption (it is not a cryptographic
//! MAC and does not claim tamper resistance).

use crate::codec::CodecError;

/// The four magic bytes opening every artifact file.
pub const MAGIC: [u8; 4] = *b"SVAF";

/// Current container format version. Bump this — and the golden fixture
/// under `crates/stats/tests/fixtures/` — on any framing change.
pub const FORMAT_VERSION: u8 = 1;

/// Marker byte opening each section frame.
const SECTION_MARKER: u8 = b'S';
/// Marker byte opening the footer.
const END_MARKER: u8 = b'E';

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a 64-bit hash — the checksum and digest function of the
/// artifact layer.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The 5-byte file header (magic + format version) that opens every
/// artifact.
#[must_use]
pub fn header_bytes() -> [u8; 5] {
    [MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], FORMAT_VERSION]
}

/// Wraps one payload in a section frame (`'S'`, length, payload,
/// payload checksum), the unit [`seal`] repeats once per section.
#[must_use]
pub fn frame_section(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 17);
    frame.push(SECTION_MARKER);
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    frame
}

/// The leading type tag of a section payload, when it has one — how a
/// consumer tells a histogram section from a t-digest section.
#[must_use]
pub fn section_tag(payload: &[u8]) -> Option<u8> {
    payload.first().copied()
}

/// Seals `sections` into an in-memory artifact: header, one frame per
/// payload, then the footer.
#[must_use]
pub fn seal<P: AsRef<[u8]>>(sections: impl IntoIterator<Item = P>) -> Vec<u8> {
    let mut bytes = header_bytes().to_vec();
    let mut count = 0u64;
    for payload in sections {
        bytes.extend_from_slice(&frame_section(payload.as_ref()));
        count += 1;
    }
    bytes.push(END_MARKER);
    bytes.extend_from_slice(&count.to_le_bytes());
    // The file checksum covers everything before its own field,
    // including the end marker and section count just written.
    let hash = fnv1a64(&bytes);
    bytes.extend_from_slice(&hash.to_le_bytes());
    bytes
}

/// Validates the file header; returns the cursor position after it.
fn parse_header(bytes: &[u8]) -> Result<usize, CodecError> {
    let magic = bytes.get(..4).ok_or(CodecError::Truncated)?;
    if magic != MAGIC {
        return Err(CodecError::Invalid("artifact magic mismatch"));
    }
    match bytes.get(4) {
        None => Err(CodecError::Truncated),
        Some(&FORMAT_VERSION) => Ok(5),
        Some(&v) => Err(CodecError::Version(v)),
    }
}

/// Reads the section frame whose `'S'` marker sits at `pos`: its
/// checksum-verified payload and the position after the frame.
fn read_frame(bytes: &[u8], pos: usize) -> Result<(&[u8], usize), CodecError> {
    let len_bytes = bytes.get(pos + 1..pos + 9).ok_or(CodecError::Truncated)?;
    let len = u64::from_le_bytes(len_bytes.try_into().expect("8-byte chunk"));
    let body_start = pos + 9;
    let remaining = (bytes.len() - body_start) as u64;
    // The payload plus its 8-byte checksum must fit in the bytes actually
    // present — a corrupted length field fails here, before any slicing
    // sized by it.
    if len.checked_add(8).is_none_or(|need| need > remaining) {
        return Err(CodecError::Truncated);
    }
    let body_end = body_start + len as usize;
    let payload = &bytes[body_start..body_end];
    let stored = u64::from_le_bytes(
        bytes[body_end..body_end + 8]
            .try_into()
            .expect("8-byte chunk"),
    );
    let found = fnv1a64(payload);
    if stored != found {
        return Err(CodecError::Checksum {
            expected: stored,
            found,
        });
    }
    Ok((payload, body_end + 8))
}

/// A fully decoded artifact: every section payload, in file order,
/// each already checksum-verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Section payloads in file order.
    pub sections: Vec<Vec<u8>>,
}

impl Artifact {
    /// Decodes and verifies an artifact.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the file ends before the footer,
    /// [`CodecError::Checksum`] on any section or file checksum mismatch,
    /// [`CodecError::Invalid`] on wrong magic, an unknown marker or a
    /// footer whose section count disagrees, [`CodecError::Version`] on a
    /// container version this build does not understand, and
    /// [`CodecError::Trailing`] on bytes after the footer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut pos = parse_header(bytes)?;
        let mut sections = Vec::new();
        loop {
            match bytes.get(pos) {
                Some(&SECTION_MARKER) => {
                    let (payload, next) = read_frame(bytes, pos)?;
                    sections.push(payload.to_vec());
                    pos = next;
                }
                Some(&END_MARKER) => break,
                Some(_) => return Err(CodecError::Invalid("unknown artifact section marker")),
                None => return Err(CodecError::Truncated),
            }
        }
        let head = bytes.get(pos..pos + 9).ok_or(CodecError::Truncated)?;
        let count = u64::from_le_bytes(head[1..9].try_into().expect("8-byte chunk"));
        if count != sections.len() as u64 {
            return Err(CodecError::Invalid(
                "artifact footer section count mismatch",
            ));
        }
        let stored = u64::from_le_bytes(
            bytes
                .get(pos + 9..pos + 17)
                .ok_or(CodecError::Truncated)?
                .try_into()
                .expect("8-byte chunk"),
        );
        let found = fnv1a64(&bytes[..pos + 9]);
        if stored != found {
            return Err(CodecError::Checksum {
                expected: stored,
                found,
            });
        }
        if pos + 17 != bytes.len() {
            return Err(CodecError::Trailing);
        }
        Ok(Artifact { sections })
    }

    /// The first section whose payload opens with `tag`, if any.
    #[must_use]
    pub fn section_with_tag(&self, tag: u8) -> Option<&[u8]> {
        self.sections
            .iter()
            .map(Vec::as_slice)
            .find(|s| section_tag(s) == Some(tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_round_trip_preserves_sections_in_order() {
        let payloads: Vec<Vec<u8>> = vec![vec![b'W', 1, 7, 8], vec![b'H', 1], Vec::new()];
        let bytes = seal(&payloads);
        let artifact = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(artifact.sections, payloads);
        assert_eq!(artifact.section_with_tag(b'H'), Some(&[b'H', 1][..]));
        assert_eq!(artifact.section_with_tag(b'Z'), None);

        // Empty artifacts are legal too.
        let empty = seal(Vec::<Vec<u8>>::new());
        assert!(Artifact::from_bytes(&empty).unwrap().sections.is_empty());
    }

    #[test]
    fn every_truncation_of_a_sealed_artifact_errors() {
        let bytes = seal([&[b'T', 1, 42][..], &[b'W', 1][..]]);
        for cut in 0..bytes.len() {
            let err = Artifact::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::Invalid(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_mutation_of_a_sealed_artifact_errors() {
        let bytes = seal([&[b'T', 1, 42][..], &[b'W', 1][..]]);
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x5a;
            assert!(
                Artifact::from_bytes(&mutated).is_err(),
                "flipping byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn trailing_bytes_after_the_footer_are_rejected() {
        let mut bytes = seal([&[b'T', 1][..]]);
        bytes.push(0);
        assert_eq!(
            Artifact::from_bytes(&bytes).unwrap_err(),
            CodecError::Trailing
        );
    }

    #[test]
    fn garbage_headers_fail_with_typed_errors() {
        assert_eq!(
            Artifact::from_bytes(&[]).unwrap_err(),
            CodecError::Truncated
        );
        assert_eq!(
            Artifact::from_bytes(b"SVA").unwrap_err(),
            CodecError::Truncated
        );
        assert_eq!(
            Artifact::from_bytes(b"NOPE\x01").unwrap_err(),
            CodecError::Invalid("artifact magic mismatch")
        );
        assert_eq!(
            Artifact::from_bytes(b"SVAF\x63").unwrap_err(),
            CodecError::Version(0x63)
        );
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
