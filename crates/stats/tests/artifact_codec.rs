//! The artifact-container corruption battery.
//!
//! The persistence layer's core promise is that **no damaged artifact is
//! ever mistaken for a result**: every truncation, every flipped byte,
//! every garbage header decodes to a typed [`CodecError`] — never a
//! panic, never a silently wrong payload. This suite attacks the format
//! the way the JSON property suite attacks the JSON codec: a seeded
//! xorshift64* generator (no external proptest dependency) drives
//!
//! * 500 randomized seal → decode round trips over mixed payloads (raw
//!   bytes and real sketch serializations),
//! * truncation at **every byte offset**, with the section boundaries
//!   called out explicitly (a cut there is still an error),
//! * a single-byte mutation sweep over **every byte** of sealed
//!   artifacts under several XOR masks, and
//! * garbage and near-miss headers.
//!
//! Variant expectations are pinned (wrong magic is `Invalid`, future
//! version is `Version`, flipped payload byte is `Checksum`, bytes after
//! the footer are `Trailing`) so error reporting stays stable, not just
//! "some error".

use stats::artifact::{fnv1a64, frame_section, header_bytes, seal, Artifact, FORMAT_VERSION};
use stats::codec::CodecError;
use stats::histogram::Histogram;
use stats::sink::{MergeableSink, Sink, WelfordSink};
use stats::TDigest;

/// xorshift64* — the workspace's standard dependency-free test RNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random section payload: raw bytes half the time, a real sketch
/// serialization the other half — decoding must not care which.
fn gen_payload(rng: &mut Rng) -> Vec<u8> {
    match rng.below(6) {
        0 => Vec::new(),
        1 | 2 => {
            let len = rng.below(200) as usize;
            (0..len).map(|_| rng.next() as u8).collect()
        }
        3 => {
            let mut sink = WelfordSink::new();
            for i in 0..rng.below(50) as usize {
                sink.observe(i, (rng.next() >> 11) as f64 / (1u64 << 53) as f64);
            }
            sink.to_bytes()
        }
        4 => {
            let mut h = Histogram::new(0.0, 1.0, 1 + rng.below(32) as usize);
            for _ in 0..rng.below(50) {
                h.add((rng.next() >> 11) as f64 / (1u64 << 53) as f64);
            }
            h.to_bytes()
        }
        _ => {
            let mut t = TDigest::new(50.0);
            for _ in 0..rng.below(50) {
                t.push((rng.next() >> 11) as f64 / (1u64 << 53) as f64);
            }
            t.to_bytes()
        }
    }
}

fn gen_sections(rng: &mut Rng) -> Vec<Vec<u8>> {
    (0..rng.below(8)).map(|_| gen_payload(rng)).collect()
}

/// Byte offsets where one frame ends and the next begins (header end
/// first, then after each section frame) — the "section boundary" cuts
/// the satellite task names explicitly.
fn boundaries(sections: &[Vec<u8>]) -> Vec<usize> {
    let mut offsets = vec![header_bytes().len()];
    let mut pos = header_bytes().len();
    for s in sections {
        pos += frame_section(s).len();
        offsets.push(pos);
    }
    offsets
}

#[test]
fn five_hundred_seeded_round_trips() {
    for case in 0..500u64 {
        let mut rng = Rng::new(case);
        let sections = gen_sections(&mut rng);
        let sealed = seal(&sections);

        let artifact = Artifact::from_bytes(&sealed)
            .unwrap_or_else(|e| panic!("case {case}: sealed artifact failed to decode: {e}"));
        assert_eq!(
            artifact.sections, sections,
            "case {case}: sealed round trip"
        );
    }
}

#[test]
fn sealed_truncation_at_every_byte_is_a_typed_error() {
    for case in [3u64, 17, 99] {
        let mut rng = Rng::new(case);
        let sealed = seal(gen_sections(&mut rng));
        for cut in 0..sealed.len() {
            let err = Artifact::from_bytes(&sealed[..cut]).expect_err("every prefix must fail");
            // The Display impl must hold for every variant produced.
            assert!(!err.to_string().is_empty());
        }
    }
}

#[test]
fn truncation_at_section_boundaries() {
    let mut rng = Rng::new(7);
    let mut sections = gen_sections(&mut rng);
    sections.push(gen_payload(&mut rng)); // at least one section
    let sealed = seal(&sections);

    for (i, &cut) in boundaries(&sections).iter().enumerate() {
        // Sealed mode: a boundary cut lost the footer — typed error.
        assert!(
            matches!(
                Artifact::from_bytes(&sealed[..cut]),
                Err(CodecError::Truncated)
            ),
            "sealed boundary cut {i} must be Truncated"
        );
    }
}

#[test]
fn single_byte_mutation_sweep_never_parses_and_never_panics() {
    for case in [5u64, 41] {
        let mut rng = Rng::new(case);
        let sealed = seal(gen_sections(&mut rng));
        let mut bytes = sealed.clone();
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                bytes[i] ^= mask;
                let outcome = std::panic::catch_unwind(|| Artifact::from_bytes(&bytes).map(drop));
                let decoded = outcome
                    .unwrap_or_else(|_| panic!("case {case}: byte {i} mask {mask:#x} panicked"));
                assert!(
                    decoded.is_err(),
                    "case {case}: flipping byte {i} with {mask:#x} still decoded"
                );
                bytes[i] ^= mask;
            }
        }
        assert_eq!(bytes, sealed, "sweep restored the artifact");
        assert!(Artifact::from_bytes(&bytes).is_ok());
    }
}

#[test]
fn garbage_headers_are_rejected_with_pinned_variants() {
    // Too short for a header, including empty: Truncated when the magic
    // prefix cannot be ruled out, Invalid once a wrong magic is visible.
    for len in 0..header_bytes().len() {
        let bytes = vec![0x53u8; len]; // 'S' — matches no "SVAF" prefix past byte 0
        let err = Artifact::from_bytes(&bytes).expect_err("short file must fail");
        assert!(
            matches!(err, CodecError::Truncated | CodecError::Invalid(_)),
            "{len}-byte file: got {err}"
        );
    }
    assert!(
        matches!(Artifact::from_bytes(b""), Err(CodecError::Truncated)),
        "an empty file is Truncated"
    );

    // Right length, wrong magic.
    let err = Artifact::from_bytes(b"NOPE\x01").expect_err("bad magic");
    assert!(matches!(err, CodecError::Invalid(_)), "got {err}");

    // Right magic, future container version: the version is named so a
    // newer tool's files produce an actionable message, not "corrupt".
    let mut future = header_bytes().to_vec();
    future[4] = FORMAT_VERSION + 1;
    let err = Artifact::from_bytes(&future).expect_err("future version");
    assert!(
        matches!(err, CodecError::Version(v) if v == FORMAT_VERSION + 1),
        "got {err}"
    );

    // Seeded garbage buffers: arbitrary bytes must never panic and
    // never produce an artifact (a 13-byte random magic match is
    // astronomically unlikely and would still fail framing).
    for case in 0..200u64 {
        let mut rng = Rng::new(0xbad0 + case);
        let len = rng.below(64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let outcome = std::panic::catch_unwind(|| Artifact::from_bytes(&bytes).map(drop));
        let sealed = outcome.unwrap_or_else(|_| panic!("case {case}: garbage input panicked"));
        assert!(sealed.is_err(), "case {case}: garbage decoded as sealed");
    }
}

/// The golden fixture's sections: a Welford state, a histogram, a
/// t-digest (all over the same fixed dyadic sample ramp, so their bytes
/// are platform-independent), and one free-form tagged payload. These
/// inputs are **frozen**: they define what a format-1 file looks like.
fn golden_sections() -> Vec<Vec<u8>> {
    let xs = (0..32).map(|i| f64::from(i) * 0.125 - 2.0);
    let mut welford = WelfordSink::new();
    let mut hist = Histogram::new(-2.0, 2.0, 8);
    let mut digest = TDigest::new(25.0);
    for (i, x) in xs.enumerate() {
        welford.observe(i, x);
        hist.add(x);
        digest.push(x);
    }
    vec![
        welford.to_bytes(),
        hist.to_bytes(),
        digest.to_bytes(),
        b"\x2a\x01free-form tagged payload".to_vec(),
    ]
}

/// Checked-in bytes of a sealed format-1 artifact.
///
/// **Bump rule:** this fixture may only change together with
/// [`FORMAT_VERSION`] (and then the file is *renamed* to
/// `golden_v<N>.svaf`, keeping the old one decodable if the reader keeps
/// compatibility). If this test fails and you did not intentionally bump
/// the container format, you have silently broken every artifact already
/// on disk — fix the code, not the fixture. To regenerate after an
/// intentional bump: `cargo test -p stats --test artifact_codec
/// regenerate_golden_fixture -- --ignored`.
const GOLDEN: &[u8] = include_bytes!("fixtures/golden_v1.svaf");

#[test]
fn golden_fixture_decodes_exactly_and_reencodes_byte_for_byte() {
    assert_eq!(&GOLDEN[..4], b"SVAF", "magic is pinned");
    assert_eq!(
        GOLDEN[4], FORMAT_VERSION,
        "fixture matches the current format version"
    );
    let artifact = Artifact::from_bytes(GOLDEN).expect("golden fixture decodes");
    assert_eq!(
        artifact.sections,
        golden_sections(),
        "decoded sections must match the frozen inputs exactly"
    );
    assert_eq!(
        seal(golden_sections()),
        GOLDEN,
        "re-encoding the frozen inputs must reproduce the fixture byte for byte"
    );
}

#[test]
#[ignore = "rewrites the golden fixture; only run after an intentional FORMAT_VERSION bump"]
fn regenerate_golden_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_v1.svaf");
    std::fs::write(path, seal(golden_sections())).expect("fixture is writable");
}

#[test]
fn corruption_variants_are_the_documented_ones() {
    let sections = vec![b"\x54\x01hello".to_vec(), b"\x48\x01world".to_vec()];
    let sealed = seal(&sections);
    let header_len = header_bytes().len();

    // Flipping a payload byte of the first section trips that section's
    // own checksum, reported with both values.
    let mut flipped = sealed.clone();
    flipped[header_len + 9 + 2] ^= 0x20;
    match Artifact::from_bytes(&flipped) {
        Err(CodecError::Checksum { expected, found }) => assert_ne!(expected, found),
        other => panic!("payload flip: expected Checksum, got {other:?}"),
    }

    // Bytes after the footer are Trailing — a sealed file is exact.
    let mut trailing = sealed.clone();
    trailing.push(0x00);
    assert!(
        matches!(Artifact::from_bytes(&trailing), Err(CodecError::Trailing)),
        "bytes after the footer must be Trailing"
    );

    // A wrong footer section count in a sealed artifact is Invalid.
    let mut miscounted = header_bytes().to_vec();
    for s in &sections {
        miscounted.extend_from_slice(&frame_section(s));
    }
    miscounted.push(b'E');
    miscounted.extend_from_slice(&(99u64).to_le_bytes());
    let check = fnv1a64(&miscounted);
    miscounted.extend_from_slice(&check.to_le_bytes());
    assert!(
        matches!(
            Artifact::from_bytes(&miscounted),
            Err(CodecError::Invalid(_))
        ),
        "wrong section count must be Invalid"
    );
}
