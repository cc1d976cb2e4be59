//! Keyed artifacts on disk, and the replay cache built on them.
//!
//! [`KeyedArtifacts`] is the one way the system keeps a result on disk: a
//! directory of sealed [`stats::artifact`] containers, each named
//! `<prefix>-<fnv1a64(key):016x>.svaf` and opening with a `'K'` section
//! that holds the key itself. A write goes to a temp file that is then
//! renamed into place; a read verifies the seal, the whole-file checksum
//! and the stored key before it returns the sections after the key. A
//! hash collision in the file name is caught by the key comparison;
//! corrupt bytes are caught by the seal. Two stores share this layer, and
//! both start every key with the engine fingerprint
//! ([`spice::ENGINE_FINGERPRINT`]), so bytes another build computed never
//! load: the replay cache here (prefix `run`) and `statvs fleet`'s
//! campaign store (prefix `shard`, in the fleet crate).
//!
//! The replay cache spills finished run results so an identical
//! resubmission — same template, spec, seed, and shard — is served from
//! disk, across process restarts, with `cached: true`.
//!
//! Correctness rests on the workspace determinism contract: a run result
//! is a pure function of its [`ExperimentSpec`], so replaying stored
//! bytes *is* re-running the experiment, only cheaper. The cache is
//! therefore safe to treat as best-effort in both directions:
//!
//! * **store** failures are ignored by the caller (the computed result is
//!   still returned; the next identical run just recomputes), and
//! * **load** is paranoid: *any* read error is a cache miss, never a
//!   served result.
//!
//! The key is [`cache_key`]: the engine fingerprint and every spec field,
//! since a result is a pure function of its spec *for one engine*. After
//! the key, an entry holds an `'R'` section (scalar run accounting), then
//! the tagged sketch payloads exactly as computed
//! (`'W'`/`'H'`/`'T'`/`'I'`/`'G'`).

use crate::store::{ExperimentSpec, RunResult};
use stats::artifact::{fnv1a64, seal, Artifact};
use stats::codec::{self, CodecError, Reader};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Section tag for the key that opens every keyed artifact.
pub const KEY_TAG: u8 = b'K';
/// Section tag for the scalar run accounting.
pub const META_TAG: u8 = b'R';

/// The canonical identity of a run: the engine fingerprint and every
/// [`ExperimentSpec`] field, rendered so two specs share a key iff they
/// are bit-identical (floats by exact bit pattern).
#[must_use]
pub fn cache_key(spec: &ExperimentSpec) -> String {
    let (hlo, hhi, hbins) = spec.histogram;
    let (pshift, pscale) = spec.proposal;
    format!(
        "engine={};circuit={};analysis={};seed={};offset={};len={};total={};\
         sinks={}{}{}{}{};histogram={:016x}:{:016x}:{hbins};tdigest={:016x};\
         proposal={:016x}:{:016x};threshold={:016x}",
        spice::ENGINE_FINGERPRINT,
        spec.circuit,
        spec.analysis,
        spec.seed,
        spec.offset,
        spec.len,
        spec.total.map_or(-1i64, |t| t as i64),
        u8::from(spec.want_welford),
        u8::from(spec.want_histogram),
        u8::from(spec.want_tdigest),
        u8::from(spec.want_wmoments),
        u8::from(spec.want_whistogram),
        hlo.to_bits(),
        hhi.to_bits(),
        spec.tdigest_compression.to_bits(),
        pshift.to_bits(),
        pscale.to_bits(),
        spec.threshold.to_bits(),
    )
}

/// A directory of sealed artifacts, each named by the hash of a key it
/// carries (see the module docs).
#[derive(Debug)]
pub struct KeyedArtifacts {
    dir: PathBuf,
    prefix: &'static str,
}

impl KeyedArtifacts {
    /// Opens (creating if needed) `dir` for artifacts named `<prefix>-…`.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn open(dir: &Path, prefix: &'static str) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(KeyedArtifacts {
            dir: dir.to_path_buf(),
            prefix,
        })
    }

    /// The directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file that holds `key`'s artifact.
    #[must_use]
    pub fn path(&self, key: &[u8]) -> PathBuf {
        self.dir
            .join(format!("{}-{:016x}.svaf", self.prefix, fnv1a64(key)))
    }

    /// Seals `key` followed by `sections` into `key`'s file (temp file +
    /// rename).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write(&self, key: &[u8], sections: Vec<Vec<u8>>) -> io::Result<()> {
        let mut key_section = Vec::new();
        codec::put_header(&mut key_section, KEY_TAG);
        codec::put_bytes(&mut key_section, key);
        let bytes = seal(std::iter::once(key_section).chain(sections));
        let path = self.path(key);
        let tmp = path.with_extension("svaf.tmp");
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, &path)
    }

    /// Reads `key`'s artifact: `Ok(None)` when its file does not exist,
    /// otherwise the sections after the key.
    ///
    /// # Errors
    ///
    /// Why the file cannot be trusted: it is unreadable, fails its seal or
    /// checksum, or carries another key.
    pub fn read(&self, key: &[u8]) -> Result<Option<Artifact>, String> {
        let bytes = match fs::read(self.path(key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable: {e}")),
        };
        let mut artifact = Artifact::from_bytes(&bytes).map_err(|e| format!("broken seal: {e}"))?;
        if artifact.sections.is_empty() {
            return Err("no key section".to_string());
        }
        let stored = stored_key(&artifact.sections.remove(0))
            .map_err(|e| format!("unreadable key section: {e}"))?;
        if stored != key {
            // The file name hash collided with another key, or the file
            // was written for another engine or campaign: never the
            // result asked for.
            return Err("the stored key differs".to_string());
        }
        Ok(Some(artifact))
    }
}

/// Decodes a `'K'` section.
fn stored_key(section: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut r = Reader::with_header(section, KEY_TAG)?;
    let key = r.take_bytes()?;
    r.finish()?;
    Ok(key)
}

/// A directory of sealed run artifacts keyed by canonical spec.
#[derive(Debug)]
pub struct ReplayCache {
    files: KeyedArtifacts,
}

impl ReplayCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn open(dir: &Path) -> io::Result<Self> {
        Ok(ReplayCache {
            files: KeyedArtifacts::open(dir, "run")?,
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        self.files.dir()
    }

    /// Spills one finished result (temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures; callers treat the cache as
    /// best-effort and may ignore them.
    pub fn store(&self, spec: &ExperimentSpec, result: &RunResult) -> io::Result<()> {
        self.files
            .write(cache_key(spec).as_bytes(), entry_sections(result))
    }

    /// Replays a stored result for `spec`, if a fully verified entry
    /// exists. Every failure mode — no file, broken seal, checksum
    /// mismatch, key collision, malformed meta — is a miss (`None`).
    #[must_use]
    pub fn load(&self, spec: &ExperimentSpec) -> Option<RunResult> {
        let artifact = self.files.read(cache_key(spec).as_bytes()).ok().flatten()?;
        result_from_artifact(&artifact).ok()
    }
}

/// Encodes one cache entry's sections after the key.
fn entry_sections(result: &RunResult) -> Vec<Vec<u8>> {
    let mut meta = Vec::new();
    codec::put_header(&mut meta, META_TAG);
    codec::put_u64(&mut meta, result.observed);
    codec::put_u64(&mut meta, result.failures);
    codec::put_u64(&mut meta, result.count);
    codec::put_f64(&mut meta, result.mean);
    codec::put_f64(&mut meta, result.variance);

    let mut sections = vec![meta];
    for bytes in [
        &result.welford_bytes,
        &result.histogram_bytes,
        &result.tdigest_bytes,
        &result.wmoments_bytes,
        &result.whistogram_bytes,
    ]
    .into_iter()
    .flatten()
    {
        sections.push(bytes.clone());
    }
    sections
}

/// Decodes one cache entry's sections after the key.
fn result_from_artifact(artifact: &Artifact) -> Result<RunResult, CodecError> {
    let meta = artifact
        .sections
        .first()
        .ok_or(CodecError::Invalid("cache entry lacks a meta section"))?;
    let mut r = Reader::with_header(meta, META_TAG)?;
    let observed = r.take_u64()?;
    let failures = r.take_u64()?;
    let count = r.take_u64()?;
    let mean = r.take_f64()?;
    let variance = r.take_f64()?;
    r.finish()?;

    let sketch = |tag: u8| artifact.section_with_tag(tag).map(<[u8]>::to_vec);
    Ok(RunResult {
        observed,
        failures,
        count,
        mean,
        variance,
        welford_bytes: sketch(b'W'),
        histogram_bytes: sketch(b'H'),
        tdigest_bytes: sketch(b'T'),
        wmoments_bytes: sketch(b'I'),
        whistogram_bytes: sketch(b'G'),
        cached: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ExperimentSpec {
        ExperimentSpec {
            circuit: "device_idsat".to_string(),
            analysis: "dc".to_string(),
            seed: 3,
            offset: 0,
            len: 20,
            total: Some(100),
            want_welford: true,
            want_histogram: true,
            want_tdigest: false,
            histogram: (0.0, 1.0, 8),
            tdigest_compression: 100.0,
            proposal: (0.0, 1.0),
            threshold: 3.0,
            want_wmoments: false,
            want_whistogram: false,
        }
    }

    fn result() -> RunResult {
        RunResult {
            observed: 19,
            failures: 1,
            count: 19,
            mean: 0.42,
            variance: 0.01,
            welford_bytes: Some(vec![b'W', 1, 9, 9]),
            histogram_bytes: Some(vec![b'H', 1, 3]),
            tdigest_bytes: None,
            wmoments_bytes: None,
            whistogram_bytes: None,
            cached: false,
        }
    }

    fn temp_cache(name: &str) -> ReplayCache {
        let dir = std::env::temp_dir().join(format!("statvs_cache_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ReplayCache::open(&dir).unwrap()
    }

    #[test]
    fn store_then_load_replays_bit_identically_with_cached_true() {
        let cache = temp_cache("roundtrip");
        let spec = spec();
        assert!(cache.load(&spec).is_none(), "cold cache must miss");
        cache.store(&spec, &result()).unwrap();
        let replay = cache.load(&spec).expect("warm cache must hit");
        assert!(replay.cached);
        let expected = RunResult {
            cached: true,
            ..result()
        };
        assert_eq!(replay, expected);

        // A reopened cache over the same directory still hits — the
        // restart scenario.
        let reopened = ReplayCache::open(cache.dir()).unwrap();
        assert_eq!(reopened.load(&spec).unwrap(), expected);
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn any_spec_difference_misses() {
        let cache = temp_cache("misses");
        let base = spec();
        cache.store(&base, &result()).unwrap();
        for f in [
            |s: &mut ExperimentSpec| s.seed += 1,
            |s: &mut ExperimentSpec| s.offset += 1,
            |s: &mut ExperimentSpec| s.len += 1,
            |s: &mut ExperimentSpec| s.total = None,
            |s: &mut ExperimentSpec| s.want_tdigest = true,
            |s: &mut ExperimentSpec| s.histogram = (0.0, 2.0, 8),
            |s: &mut ExperimentSpec| s.threshold = 4.0,
        ] {
            let mut other = base.clone();
            f(&mut other);
            assert!(cache.load(&other).is_none());
        }
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn corruption_is_a_miss_never_a_served_result() {
        let cache = temp_cache("corrupt");
        let spec = spec();
        cache.store(&spec, &result()).unwrap();
        let path = cache.files.path(cache_key(&spec).as_bytes());
        let mut bytes = fs::read(&path).unwrap();
        for i in 0..bytes.len() {
            bytes[i] ^= 0xa5;
            fs::write(&path, &bytes).unwrap();
            assert!(
                cache.load(&spec).is_none(),
                "flipped byte {i} was served from cache"
            );
            bytes[i] ^= 0xa5;
        }
        // Restored bytes hit again — the loop really was exercising the
        // corruption path, not a stale miss.
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load(&spec).is_some());
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn key_collisions_are_detected_by_the_stored_key() {
        let cache = temp_cache("collision");
        let a = spec();
        cache.store(&a, &result()).unwrap();
        // Simulate a (cosmically unlikely) file-name hash collision by
        // renaming a's entry to b's slot.
        let mut b = a.clone();
        b.seed = 77;
        fs::rename(
            cache.files.path(cache_key(&a).as_bytes()),
            cache.files.path(cache_key(&b).as_bytes()),
        )
        .unwrap();
        assert!(
            cache.load(&b).is_none(),
            "a colliding entry with a different key must miss"
        );
        fs::remove_dir_all(cache.dir()).unwrap();
    }
}
