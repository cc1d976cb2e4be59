//! Campaign persistence: durable shard artifacts plus the manifest that
//! makes a killed campaign resumable.
//!
//! A [`CampaignStore`] owns one directory:
//!
//! ```text
//! <dir>/manifest.svaf          crash-tolerant journal (vscore::mc::manifest)
//! <dir>/shard-{offset}-{len}.svaf   sealed artifact per completed shard
//! ```
//!
//! Each shard artifact is a **sealed** [`stats::artifact`] container
//! holding a `'P'` meta section (shard identity + sample accounting)
//! followed by the shard's tagged sketch payloads exactly as the worker
//! shipped them (`'W'` Welford, optional `'H'` histogram, `'T'`
//! t-digest). The artifact is written to a temp file and renamed into
//! place, then the manifest records `(offset, len)`, the artifact's file
//! name, and the FNV-1a 64 digest of its complete file bytes — in that
//! order, so a crash at any point leaves either a resumable state or an
//! orphan temp file, never a manifest entry pointing at garbage that
//! would be trusted.
//!
//! On restore, every defense is checked: manifest binding (campaign
//! identity and the engine that computes its shards), file digest,
//! artifact seal, and meta-vs-manifest shard identity. Anything wrong
//! demotes the entry to a *skip* — the shard is recomputed — rather than
//! poisoning the merge, because determinism makes recomputation merely
//! slow, while trusting corrupt bytes would be silently wrong forever.

use crate::coordinator::FleetSpec;
use crate::merge::ShardPayload;
use serve::ENGINE_FINGERPRINT;
use stats::artifact::{fnv1a64, seal, Artifact};
use stats::codec::{self, CodecError, Reader};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use vscore::mc::manifest::{Manifest, ManifestEntry, ManifestError};
use vscore::mc::Shard;

/// Section tag for the shard meta (identity + accounting) payload.
pub const SHARD_META_TAG: u8 = b'P';
/// File name of the manifest inside a campaign directory.
pub const MANIFEST_NAME: &str = "manifest.svaf";

/// Why the campaign store could not persist or recover state.
#[derive(Debug)]
pub enum StoreError {
    /// A file operation failed.
    Io(std::io::Error),
    /// The manifest refused to open or append (corrupt, or bound to a
    /// different campaign).
    Manifest(ManifestError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "campaign store i/o error: {e}"),
            StoreError::Manifest(e) => write!(f, "campaign store: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ManifestError> for StoreError {
    fn from(e: ManifestError) -> Self {
        StoreError::Manifest(e)
    }
}

/// A manifest entry that could not be restored and will be recomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreSkip {
    /// The artifact file name the manifest pointed at.
    pub artifact: String,
    /// Why it was rejected.
    pub reason: String,
}

/// What a restore recovered: trustworthy payloads plus the entries it
/// refused.
#[derive(Debug, Default)]
pub struct Restored {
    /// Fully verified shard payloads, ready to merge.
    pub payloads: Vec<ShardPayload>,
    /// Entries demoted to recomputation, with reasons.
    pub skipped: Vec<RestoreSkip>,
}

/// The canonical campaign binding for `spec` — the identity the manifest
/// is locked to: the engine fingerprint and every spec field. Floats are
/// rendered as exact bit patterns so two specs bind equal iff every field
/// is bit-identical; a campaign journaled by another engine refuses to
/// resume rather than mix its shards with this engine's.
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

/// Encodes a shard payload as sealed-artifact sections.
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

/// Decodes a shard payload back out of a verified artifact.
fn payload_from_artifact(artifact: &Artifact) -> Result<ShardPayload, CodecError> {
    let meta = artifact
        .sections
        .first()
        .ok_or(CodecError::Invalid("shard artifact has no sections"))?;
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

/// The durable half of a campaign: a directory of sealed shard artifacts
/// indexed by a crash-tolerant manifest.
#[derive(Debug)]
pub struct CampaignStore {
    dir: PathBuf,
    manifest: Manifest,
}

impl CampaignStore {
    /// Opens (or initializes) the campaign store in `dir` for `spec`,
    /// creating the directory and manifest as needed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on directory/file failures;
    /// [`StoreError::Manifest`] when an existing manifest is corrupt or
    /// bound to a *different* campaign — resuming someone else's shards
    /// is refused, never silently merged.
    pub fn open(dir: &Path, spec: &FleetSpec) -> Result<Self, StoreError> {
        fs::create_dir_all(dir)?;
        let manifest = Manifest::open_or_create(&dir.join(MANIFEST_NAME), &binding(spec))?;
        Ok(CampaignStore {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// Opens the store that owns `manifest_path` (its parent directory).
    ///
    /// # Errors
    ///
    /// As [`CampaignStore::open`].
    pub fn open_manifest(manifest_path: &Path, spec: &FleetSpec) -> Result<Self, StoreError> {
        let dir = manifest_path.parent().unwrap_or(Path::new("."));
        fs::create_dir_all(dir)?;
        let manifest = Manifest::open_or_create(manifest_path, &binding(spec))?;
        Ok(CampaignStore {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// The campaign directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest path inside the campaign directory.
    #[must_use]
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_NAME)
    }

    /// Persists one completed shard durably: sealed artifact via temp
    /// file + rename, then the fsynced manifest entry.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if any write, rename, or manifest append fails.
    pub fn save(&mut self, payload: &ShardPayload) -> Result<(), StoreError> {
        let name = format!("shard-{}-{}.svaf", payload.shard.offset, payload.shard.len);
        let bytes = seal(payload_sections(payload));
        let tmp = self.dir.join(format!("{name}.tmp"));
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, self.dir.join(&name))?;
        self.manifest.record(ManifestEntry {
            offset: payload.shard.offset,
            len: payload.shard.len,
            digest: fnv1a64(&bytes),
            artifact: name,
        })?;
        Ok(())
    }

    /// Recovers every trustworthy shard payload the manifest knows about.
    /// Entries whose artifact is missing, corrupt, digest-mismatched, or
    /// inconsistent with the manifest are returned as skips (to be
    /// recomputed), never as payloads.
    #[must_use]
    pub fn restore(&self) -> Restored {
        let mut out = Restored::default();
        for entry in self.manifest.entries() {
            match self.restore_entry(entry) {
                Ok(payload) => out.payloads.push(payload),
                Err(reason) => out.skipped.push(RestoreSkip {
                    artifact: entry.artifact.clone(),
                    reason,
                }),
            }
        }
        out
    }

    /// Verifies and decodes one manifest entry's artifact.
    fn restore_entry(&self, entry: &ManifestEntry) -> Result<ShardPayload, String> {
        let path = self.dir.join(&entry.artifact);
        let bytes = fs::read(&path).map_err(|e| format!("unreadable artifact: {e}"))?;
        let found = fnv1a64(&bytes);
        if found != entry.digest {
            return Err(format!(
                "digest mismatch: manifest {:#018x}, file {found:#018x}",
                entry.digest
            ));
        }
        let artifact =
            Artifact::from_bytes(&bytes).map_err(|e| format!("artifact decode error: {e}"))?;
        let payload =
            payload_from_artifact(&artifact).map_err(|e| format!("shard payload error: {e}"))?;
        if payload.shard.offset != entry.offset || payload.shard.len != entry.len {
            return Err(format!(
                "shard identity mismatch: manifest says ({}, {}), artifact says {}",
                entry.offset, entry.len, payload.shard
            ));
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::histogram::Histogram;
    use stats::sink::{MergeableSink, Sink, WelfordSink};

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

    #[test]
    fn save_then_restore_round_trips_bit_exactly() {
        let dir = temp_dir("roundtrip");
        let a = payload(0, &[0.1, 0.4, 0.9]);
        let b = payload(3, &[0.2, 0.6]);
        let mut store = CampaignStore::open(&dir, &spec()).unwrap();
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        drop(store);

        let store = CampaignStore::open(&dir, &spec()).unwrap();
        let restored = store.restore();
        assert!(restored.skipped.is_empty());
        assert_eq!(restored.payloads, vec![a, b]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_different_campaign_cannot_adopt_the_store() {
        let dir = temp_dir("binding");
        let mut store = CampaignStore::open(&dir, &spec()).unwrap();
        store.save(&payload(0, &[0.5])).unwrap();
        drop(store);

        let mut other = spec();
        other.seed = 10;
        assert!(matches!(
            CampaignStore::open(&dir, &other),
            Err(StoreError::Manifest(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_missing_artifacts_become_skips_not_payloads() {
        let dir = temp_dir("skips");
        let mut store = CampaignStore::open(&dir, &spec()).unwrap();
        let a = payload(0, &[0.1, 0.2]);
        let b = payload(2, &[0.3, 0.4]);
        let c = payload(4, &[0.5, 0.6]);
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        store.save(&c).unwrap();

        // Corrupt b's artifact in place; delete c's outright.
        let b_path = dir.join("shard-2-2.svaf");
        let mut bytes = fs::read(&b_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&b_path, &bytes).unwrap();
        fs::remove_file(dir.join("shard-4-2.svaf")).unwrap();

        let restored = store.restore();
        assert_eq!(restored.payloads, vec![a]);
        assert_eq!(restored.skipped.len(), 2);
        assert!(restored.skipped[0].reason.contains("digest mismatch"));
        assert!(restored.skipped[1].reason.contains("unreadable"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_manifest_bound_by_another_engine_refuses_to_resume() {
        let dir = temp_dir("engine");
        fs::create_dir_all(&dir).unwrap();
        // The same campaign, journaled by an engine of another epoch.
        let stale = String::from_utf8(binding(&spec()))
            .unwrap()
            .replace(ENGINE_FINGERPRINT, "an-older-engine");
        assert_ne!(stale.as_bytes(), binding(&spec()));
        drop(Manifest::open_or_create(&dir.join(MANIFEST_NAME), stale.as_bytes()).unwrap());

        assert!(matches!(
            CampaignStore::open(&dir, &spec()),
            Err(StoreError::Manifest(ManifestError::Codec(
                CodecError::Mismatch(_)
            )))
        ));
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
