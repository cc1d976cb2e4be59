//! `statvs export` over the file a campaign store writes: a sealed shard
//! artifact decodes to CSV rows, key first, while a shard artifact that
//! lost its footer or was cut mid-section is refused with exit status 1.

use fleet::{CampaignStore, FleetSpec, ShardPayload};
use serve::ENGINE_FINGERPRINT;
use stats::sink::{MergeableSink, Sink, WelfordSink};
use std::path::Path;
use std::process::{Command, Output};
use vscore::mc::Shard;

/// Runs the compiled `statvs export` on one file.
fn export(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_statvs"))
        .arg("export")
        .arg(path)
        .output()
        .expect("statvs runs")
}

#[test]
fn store_artifacts_export_and_damaged_shards_are_refused() {
    let dir = std::env::temp_dir().join(format!("statvs-export-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = FleetSpec {
        circuit: "device_idsat".to_string(),
        analysis: None,
        seed: 7,
        total: 100,
        histogram: None,
        tdigest_compression: None,
    };
    let mut welford = WelfordSink::new();
    for i in 0..100 {
        welford.observe(i, i as f64);
    }
    let store = CampaignStore::open(&dir, &spec).expect("store opens");
    store
        .save(&ShardPayload {
            shard: Shard {
                offset: 0,
                len: 100,
            },
            observed: 100,
            failures: 0,
            welford: welford.to_bytes(),
            histogram: None,
            tdigest: None,
        })
        .expect("shard persists");

    // The shard's file name is the hash of its key: take it from the
    // directory, where it is the only file.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("store directory lists")
        .map(|e| e.expect("directory entry").path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    let shard = &files[0];
    let out = export(shard);
    let csv = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "shard export failed: {out:?}");
    assert!(
        csv.lines()
            .any(|l| l.starts_with("0,key,key,") && l.contains(ENGINE_FINGERPRINT)),
        "{csv}"
    );
    assert!(csv.contains("1,shard_meta,offset,0\n"), "{csv}");
    assert!(csv.contains("1,shard_meta,len,100\n"), "{csv}");
    assert!(csv.contains("2,welford,count,100\n"), "{csv}");

    // Footerless: every section frame is intact, only the 17-byte footer
    // is gone. Mid-section: the cut falls inside the Welford frame.
    let bytes = std::fs::read(shard).expect("shard artifact reads");
    for (name, cut) in [("footerless", bytes.len() - 17), ("cut", bytes.len() - 30)] {
        let damaged = dir.join(format!("{name}.svaf"));
        std::fs::write(&damaged, &bytes[..cut]).expect("damaged copy writes");
        let out = export(&damaged);
        assert_eq!(out.status.code(), Some(1), "{name}: {out:?}");
        assert!(out.stdout.is_empty(), "{name} printed rows");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("is not a readable artifact"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
