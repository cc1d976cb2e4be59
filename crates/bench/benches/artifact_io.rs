//! Artifact container I/O cost: sealing a shard-sized result, the fully
//! verified decode (per-section + whole-file FNV-1a checks), and the raw
//! checksum throughput that bounds both.
//!
//! The persistence layer runs once per completed shard, so the figure of
//! merit is "cheap next to a shard's Monte Carlo work" — these numbers
//! make the overhead visible instead of assumed.

use stats::artifact::{fnv1a64, seal, Artifact};
use stats::histogram::Histogram;
use stats::sink::{MergeableSink, Sink, WelfordSink};
use stats::TDigest;
use vsbench::microbench::{maybe_write_json, measure};

/// Sketch payloads sized like a real shard result: a Welford state, a
/// 256-bin histogram, and a compression-200 t-digest over 10k samples.
fn shard_sections() -> Vec<Vec<u8>> {
    let mut welford = WelfordSink::new();
    let mut hist = Histogram::new(-4.0, 4.0, 256);
    let mut digest = TDigest::new(200.0);
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..10_000 {
        // xorshift64* — deterministic, dependency-free sample stream.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        let v = 8.0 * u - 4.0;
        welford.observe(i, v);
        hist.add(v);
        digest.push(v);
    }
    vec![welford.to_bytes(), hist.to_bytes(), digest.to_bytes()]
}

fn main() {
    let sections = shard_sections();
    let sealed = seal(&sections);
    let payload_bytes: usize = sections.iter().map(Vec::len).sum();

    let mut results = Vec::new();
    results.push(measure("artifact_seal/shard_result", || {
        let bytes = seal(&sections);
        assert!(!bytes.is_empty());
    }));
    results.push(measure("artifact_decode_verified/shard_result", || {
        let artifact = Artifact::from_bytes(&sealed).expect("sealed bytes decode");
        assert_eq!(artifact.sections.len(), sections.len());
    }));

    let megabyte = vec![0xa5_u8; 1 << 20];
    results.push(measure("fnv1a64_checksum/1MiB", || {
        assert_ne!(fnv1a64(&megabyte), 0);
    }));

    eprintln!(
        "shard payload {payload_bytes} B, sealed container {} B ({} B framing overhead)",
        sealed.len(),
        sealed.len() - payload_bytes
    );
    for m in &results {
        println!(
            "{}: {:.3e} s/iter ({} iters)",
            m.label, m.secs_per_iter, m.iters
        );
    }
    maybe_write_json(&results);
}
