//! Campaign persistence: one keyed, sealed artifact per completed shard,
//! so a killed campaign rerun over the same directory recomputes only the
//! shards that were in flight.
//!
//! A [`CampaignStore`] keeps its shards through [`KeyedArtifacts`], the
//! layer `serve`'s replay cache uses too: each shard is
//! `<dir>/shard-<fnv1a64(key):016x>.svaf`, a sealed [`stats::artifact`]
//! container whose `'K'` key is the campaign [`binding`] followed by the
//! shard's `offset` and `len`. After the key come a `'P'` meta section
//! (shard identity + sample accounting) and the shard's tagged sketch
//! payloads exactly as the worker shipped them (`'W'` Welford, optional
//! `'H'` histogram, optional `'T'` t-digest).
//!
//! Resume is one lookup per planned shard. A missing file means the shard
//! was never saved. A file that fails its seal or carries another key
//! (another campaign or engine, or a file-name hash collision) is an
//! error, which the coordinator reports and recomputes rather than
//! poisoning the merge: determinism makes recomputation merely slow,
//! while trusting corrupt bytes would be silently wrong forever. Because
//! every key names its campaign, campaigns may share a directory; each
//! finds only its own shards, and none overwrites another's.
//!
//! Durability: a shard is written to a temp file and renamed into place,
//! with no fsync. A `SIGKILL` loses only the shards in flight; after a
//! power loss, a torn artifact fails its seal and recomputes.

use crate::coordinator::FleetSpec;
use crate::merge::ShardPayload;
use serve::cache::KeyedArtifacts;
use serve::ENGINE_FINGERPRINT;
use stats::artifact::Artifact;
use stats::codec::{self, CodecError, Reader};
use std::io;
use std::path::{Path, PathBuf};
use vscore::mc::Shard;

/// Section tag for the shard meta (identity + accounting) payload.
pub const SHARD_META_TAG: u8 = b'P';

/// The canonical campaign binding for `spec`: the engine fingerprint and
/// every spec field. Floats are rendered as exact bit patterns so two
/// specs bind equal iff every field is bit-identical; a shard that
/// another campaign or engine saved never loads into this one.
#[must_use]
pub fn binding(spec: &FleetSpec) -> Vec<u8> {
    let mut s = format!(
        "engine={ENGINE_FINGERPRINT};circuit={};analysis={};seed={};total={}",
        spec.circuit,
        spec.analysis.as_deref().unwrap_or("-"),
        spec.seed,
        spec.total
    );
    match spec.histogram {
        Some((lo, hi, bins)) => {
            s.push_str(&format!(
                ";histogram={:016x}:{:016x}:{bins}",
                lo.to_bits(),
                hi.to_bits()
            ));
        }
        None => s.push_str(";histogram=-"),
    }
    match spec.tdigest_compression {
        Some(c) => s.push_str(&format!(";tdigest={:016x}", c.to_bits())),
        None => s.push_str(";tdigest=-"),
    }
    s.into_bytes()
}

/// Encodes a shard payload's sections after the key.
fn payload_sections(payload: &ShardPayload) -> Vec<Vec<u8>> {
    let mut meta = Vec::new();
    codec::put_header(&mut meta, SHARD_META_TAG);
    codec::put_u64(&mut meta, payload.shard.offset as u64);
    codec::put_u64(&mut meta, payload.shard.len as u64);
    codec::put_u64(&mut meta, payload.observed);
    codec::put_u64(&mut meta, payload.failures);
    let mut sections = vec![meta, payload.welford.clone()];
    if let Some(h) = &payload.histogram {
        sections.push(h.clone());
    }
    if let Some(t) = &payload.tdigest {
        sections.push(t.clone());
    }
    sections
}

/// Decodes a shard payload from its sections after the key.
fn payload_from_artifact(artifact: &Artifact) -> Result<ShardPayload, CodecError> {
    let meta = artifact
        .sections
        .first()
        .ok_or(CodecError::Invalid("shard artifact has no meta section"))?;
    let mut r = Reader::with_header(meta, SHARD_META_TAG)?;
    let offset = r.take_u64()? as usize;
    let len = r.take_u64()? as usize;
    let observed = r.take_u64()?;
    let failures = r.take_u64()?;
    r.finish()?;
    let welford = artifact
        .section_with_tag(b'W')
        .ok_or(CodecError::Invalid(
            "shard artifact lacks a welford section",
        ))?
        .to_vec();
    Ok(ShardPayload {
        shard: Shard { offset, len },
        observed,
        failures,
        welford,
        histogram: artifact.section_with_tag(b'H').map(<[u8]>::to_vec),
        tdigest: artifact.section_with_tag(b'T').map(<[u8]>::to_vec),
    })
}

/// The durable half of a campaign: its completed shards as keyed, sealed
/// artifacts in one directory.
#[derive(Debug)]
pub struct CampaignStore {
    files: KeyedArtifacts,
    binding: Vec<u8>,
}

impl CampaignStore {
    /// Opens the store for `spec`'s campaign in `dir`, creating the
    /// directory as needed. Other campaigns' shards in `dir` are left
    /// alone.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn open(dir: &Path, spec: &FleetSpec) -> io::Result<Self> {
        Ok(CampaignStore {
            files: KeyedArtifacts::open(dir, "shard")?,
            binding: binding(spec),
        })
    }

    /// The key of `shard`: the campaign binding, then `offset` and `len`.
    fn key(&self, shard: Shard) -> Vec<u8> {
        let mut key = self.binding.clone();
        key.extend_from_slice(format!(";offset={};len={}", shard.offset, shard.len).as_bytes());
        key
    }

    /// The file that holds `shard`'s artifact.
    #[must_use]
    pub fn path(&self, shard: Shard) -> PathBuf {
        self.files.path(&self.key(shard))
    }

    /// Persists one completed shard (temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn save(&self, payload: &ShardPayload) -> io::Result<()> {
        self.files
            .write(&self.key(payload.shard), payload_sections(payload))
    }

    /// Loads `shard`'s payload: `Ok(None)` when it was never saved.
    ///
    /// # Errors
    ///
    /// Why the artifact cannot be trusted: unreadable, broken seal,
    /// another key, or a payload that does not decode as `shard`'s.
    pub fn load(&self, shard: Shard) -> Result<Option<ShardPayload>, String> {
        let Some(artifact) = self.files.read(&self.key(shard))? else {
            return Ok(None);
        };
        let payload =
            payload_from_artifact(&artifact).map_err(|e| format!("shard payload error: {e}"))?;
        if payload.shard != shard {
            return Err(format!("the artifact holds shard {}", payload.shard));
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::cache::KEY_TAG;
    use stats::artifact::seal;
    use stats::histogram::Histogram;
    use stats::sink::{MergeableSink, Sink, WelfordSink};
    use std::collections::BTreeMap;
    use std::fs;

    fn spec() -> FleetSpec {
        FleetSpec {
            circuit: "device_idsat".to_string(),
            analysis: None,
            seed: 9,
            total: 40,
            histogram: Some((0.0, 1.0, 8)),
            tdigest_compression: None,
        }
    }

    fn payload(offset: usize, values: &[f64]) -> ShardPayload {
        let mut w = WelfordSink::new();
        let mut h = Histogram::new(0.0, 1.0, 8);
        for (i, &v) in values.iter().enumerate() {
            w.observe(offset + i, v);
            h.observe(offset + i, v);
        }
        w.finish();
        Sink::finish(&mut h);
        ShardPayload {
            shard: Shard {
                offset,
                len: values.len(),
            },
            observed: values.len() as u64,
            failures: 0,
            welford: w.to_bytes(),
            histogram: Some(MergeableSink::to_bytes(&h)),
            tdigest: None,
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("statvs_store_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Every file in `dir`, by name, with its bytes.
    fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    fs::read(e.path()).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn save_then_restore_round_trips_bit_exactly() {
        let dir = temp_dir("roundtrip");
        let a = payload(0, &[0.1, 0.4, 0.9]);
        let b = payload(3, &[0.2, 0.6]);
        let store = CampaignStore::open(&dir, &spec()).unwrap();
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        drop(store);

        let store = CampaignStore::open(&dir, &spec()).unwrap();
        assert_eq!(store.load(a.shard), Ok(Some(a)));
        assert_eq!(store.load(b.shard), Ok(Some(b)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaigns_sharing_a_directory_restore_only_their_own_shards() {
        let dir = temp_dir("shared");
        let mut other_spec = spec();
        other_spec.seed += 1;
        let mine = CampaignStore::open(&dir, &spec()).unwrap();
        let other = CampaignStore::open(&dir, &other_spec).unwrap();
        let a = payload(0, &[0.1, 0.2]);
        let b = payload(2, &[0.3, 0.4]);
        mine.save(&a).unwrap();
        mine.save(&b).unwrap();
        let before = files(&dir);

        // The other campaign saves the same shard identity with its own
        // values: a separate file, and mine stay byte-identical.
        let theirs = payload(0, &[0.7, 0.8]);
        other.save(&theirs).unwrap();
        let after = files(&dir);
        assert_eq!(after.len(), 3);
        for (name, bytes) in &before {
            assert_eq!(after.get(name), Some(bytes), "{name} changed");
        }

        assert_eq!(other.load(b.shard), Ok(None));
        assert_eq!(other.load(theirs.shard), Ok(Some(theirs)));
        assert_eq!(mine.load(a.shard), Ok(Some(a)));
        assert_eq!(mine.load(b.shard), Ok(Some(b)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_missing_artifacts_never_load_as_payloads() {
        let dir = temp_dir("skips");
        let store = CampaignStore::open(&dir, &spec()).unwrap();
        let a = payload(0, &[0.1, 0.2]);
        let b = payload(2, &[0.3, 0.4]);
        let c = payload(4, &[0.5, 0.6]);
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        store.save(&c).unwrap();

        // Corrupt b's artifact in place; delete c's outright.
        let b_path = store.path(b.shard);
        let mut bytes = fs::read(&b_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&b_path, &bytes).unwrap();
        fs::remove_file(store.path(c.shard)).unwrap();

        assert_eq!(store.load(a.shard), Ok(Some(a)));
        let reason = store.load(b.shard).unwrap_err();
        assert!(reason.contains("broken seal"), "{reason}");
        assert_eq!(store.load(c.shard), Ok(None), "a missing shard recomputes");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shards_from_another_engine_load_as_errors() {
        let dir = temp_dir("engine");
        let store = CampaignStore::open(&dir, &spec()).unwrap();
        let a = payload(0, &[0.5]);
        store.save(&a).unwrap();

        // Re-label the artifact as another engine's result for the same
        // shard: identical payload sections, a key naming an older engine,
        // resealed so seal and checksum are valid, and left under this
        // shard's file name.
        let path = store.path(a.shard);
        let artifact = Artifact::from_bytes(&fs::read(&path).unwrap()).unwrap();
        let mut r = Reader::with_header(&artifact.sections[0], KEY_TAG).unwrap();
        let key = String::from_utf8(r.take_bytes().unwrap()).unwrap();
        assert!(key.contains(ENGINE_FINGERPRINT), "{key}");
        let mut stale = Vec::new();
        codec::put_header(&mut stale, KEY_TAG);
        codec::put_bytes(
            &mut stale,
            key.replace(ENGINE_FINGERPRINT, "an-older-engine")
                .as_bytes(),
        );
        let mut sections = artifact.sections;
        sections[0] = stale;
        fs::write(&path, seal(&sections)).unwrap();

        assert!(store.load(a.shard).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binding_distinguishes_every_spec_field() {
        let base = spec();
        let mut variants = Vec::new();
        for f in [
            |s: &mut FleetSpec| s.circuit = "x".into(),
            |s: &mut FleetSpec| s.analysis = Some("dc".into()),
            |s: &mut FleetSpec| s.seed += 1,
            |s: &mut FleetSpec| s.total += 1,
            |s: &mut FleetSpec| s.histogram = Some((0.0, 2.0, 8)),
            |s: &mut FleetSpec| s.histogram = None,
            |s: &mut FleetSpec| s.tdigest_compression = Some(50.0),
        ] {
            let mut v = base.clone();
            f(&mut v);
            variants.push(binding(&v));
        }
        let b = binding(&base);
        for v in &variants {
            assert_ne!(&b, v);
        }
    }
}
