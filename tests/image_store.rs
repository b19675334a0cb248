//! Integration tests for the copy-on-write image store: structural sharing
//! across clones and overlays, manifest <-> flat round-trips through the
//! content-addressed blob pool, corruption detection, and a property test
//! that the memoized Merkle fingerprint always matches a from-scratch
//! recomputation.

mod common;

use marshal_image::{BlobStore, FsImage, Node, StoreError};
use marshal_qcheck::{cases, Rng};

/// A representative image: nested dirs, plain + executable files, a symlink,
/// and a size limit.
fn sample_image() -> FsImage {
    let mut img = FsImage::new();
    img.mkdir_p("/etc/init.d").unwrap();
    img.write_file("/etc/hostname", b"firemarshal").unwrap();
    img.write_exec("/usr/bin/bench", &vec![0xAAu8; 4096])
        .unwrap();
    img.write_file("/usr/share/data.bin", &vec![0x55u8; 8192])
        .unwrap();
    img.symlink("/etc/init.d/S99run", "/usr/bin/bench").unwrap();
    img.set_size_limit(Some(1 << 20));
    img
}

fn blob_of<'a>(img: &'a FsImage, path: &str) -> &'a marshal_image::Blob {
    match img.node(path) {
        Some(Node::File { data, .. }) => data,
        other => panic!("expected file at {path}, got {other:?}"),
    }
}

#[test]
fn clone_shares_payloads_until_mutated() {
    let base = sample_image();
    let mut child = base.clone();

    // Unmutated: every payload is the same allocation, not a copy.
    assert!(blob_of(&base, "/usr/bin/bench").ptr_eq(blob_of(&child, "/usr/bin/bench")));
    assert!(blob_of(&base, "/usr/share/data.bin").ptr_eq(blob_of(&child, "/usr/share/data.bin")));

    // Mutating one path breaks sharing only along that path.
    child.write_file("/usr/share/data.bin", b"changed").unwrap();
    assert!(!blob_of(&base, "/usr/share/data.bin").ptr_eq(blob_of(&child, "/usr/share/data.bin")));
    assert!(blob_of(&base, "/usr/bin/bench").ptr_eq(blob_of(&child, "/usr/bin/bench")));
    // The base is untouched.
    assert_eq!(
        base.read_file("/usr/share/data.bin").unwrap(),
        &[0x55u8; 8192][..]
    );
}

#[test]
fn overlay_preserves_sharing_for_untouched_files() {
    let base = sample_image();
    let mut upper = FsImage::new();
    upper.write_file("/overlayed.txt", b"new file").unwrap();
    let mut merged = base.clone();
    merged.apply_overlay(&upper);
    // Files the overlay never touched still share the base's allocations.
    assert!(blob_of(&base, "/usr/bin/bench").ptr_eq(blob_of(&merged, "/usr/bin/bench")));
    assert_eq!(merged.read_file("/overlayed.txt").unwrap(), b"new file");
}

#[test]
fn manifest_round_trips_and_dedupes() {
    let root = common::tmpdir("imgstore-roundtrip");
    let store = BlobStore::new(root.join("objects"));
    let img = sample_image();

    let (manifest, stats) = store.write_manifest(&img).unwrap();
    assert!(manifest.starts_with(marshal_image::store::MANIFEST_MAGIC));
    assert!(stats.blobs_written > 0);

    let back = store.read_manifest(&manifest).unwrap();
    assert_eq!(back.fingerprint(), img.fingerprint());
    assert_eq!(back.size_limit(), img.size_limit());
    assert_eq!(back.to_bytes(), img.to_bytes());

    // Writing the same image again shares every blob instead of rewriting.
    let (_, stats2) = store.write_manifest(&img).unwrap();
    assert_eq!(stats2.blobs_written, 0, "second write must dedupe fully");
    assert_eq!(
        stats2.blobs_shared,
        stats.blobs_written + stats.blobs_shared
    );
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn load_image_reads_sealed_manifests_only() {
    let root = common::tmpdir("imgstore-legacy");
    let store = BlobStore::new(root.join("objects"));
    let img = sample_image();

    let (manifest, _) = store.write_manifest(&img).unwrap();
    let sealed = root.join("level.img");
    marshal_depgraph::persist::write_sealed(&sealed, &manifest).unwrap();
    assert_eq!(
        store.load_image(&sealed).unwrap().fingerprint(),
        img.fingerprint()
    );
    // A pre-existing workdir's flat MIMG level, or a manifest without its
    // seal, reads as damage: the level rebuilds once.
    for bytes in [img.to_bytes(), manifest] {
        std::fs::write(&sealed, bytes).unwrap();
        let err = store.load_image(&sealed).unwrap_err();
        assert!(matches!(err, StoreError::Damaged(_)), "{err}");
    }
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn missing_blob_is_reported_with_path_and_fingerprint() {
    let root = common::tmpdir("imgstore-missing");
    let store = BlobStore::new(root.join("objects"));
    let img = sample_image();
    let (manifest, _) = store.write_manifest(&img).unwrap();

    let victim = store.blob_path(blob_of(&img, "/usr/bin/bench").fingerprint());
    std::fs::remove_file(&victim).unwrap();

    match store.read_manifest(&manifest) {
        Err(StoreError::MissingBlob { path, fp }) => {
            assert_eq!(path, victim);
            assert_eq!(fp, blob_of(&img, "/usr/bin/bench").fingerprint());
        }
        other => panic!("expected MissingBlob, got {other:?}"),
    }
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn corrupt_blob_is_detected_on_read() {
    let root = common::tmpdir("imgstore-corrupt");
    let store = BlobStore::new(root.join("objects"));
    let img = sample_image();
    let (manifest, _) = store.write_manifest(&img).unwrap();

    let victim = store.blob_path(blob_of(&img, "/usr/share/data.bin").fingerprint());
    std::fs::write(&victim, b"bitrot").unwrap();

    match store.read_manifest(&manifest) {
        Err(StoreError::CorruptBlob { path, expected, .. }) => {
            assert_eq!(path, victim);
            assert_eq!(expected, blob_of(&img, "/usr/share/data.bin").fingerprint());
        }
        other => panic!("expected CorruptBlob, got {other:?}"),
    }
    std::fs::remove_dir_all(root).unwrap();
}

/// Applies a random mutation to the image; paths are drawn from a small
/// alphabet so sequences revisit (and overwrite, shadow, remove) earlier
/// entries, exercising memo invalidation along shared paths.
fn random_mutation(rng: &mut Rng, img: &mut FsImage) {
    let dirs = ["/a", "/a/b", "/c", "/c/d/e", "/f"];
    let names = ["x", "y", "z"];
    let dir = *rng.pick(&dirs);
    let name = *rng.pick(&names);
    let path = format!("{dir}/{name}");
    match rng.below(5) {
        0 => {
            let data = rng.bytes_in(0, 64);
            let _ = img.write_file(&path, &data);
        }
        1 => {
            let data = rng.bytes_in(1, 32);
            let _ = img.write_exec(&path, &data);
        }
        2 => {
            let target = *rng.pick(&dirs);
            let _ = img.symlink(&path, target);
        }
        3 => {
            let target = *rng.pick(&dirs);
            let _ = img.mkdir_p(target);
        }
        _ => {
            img.remove(&path);
        }
    }
}

#[test]
fn memoized_fingerprint_matches_recomputation_under_random_mutations() {
    cases(48, |rng: &mut Rng| {
        let mut img = FsImage::new();
        // Clones taken mid-sequence keep sharing subtrees with `img`, so the
        // memo must be invalidated precisely along each mutated path.
        let mut snapshot = img.clone();
        let steps = rng.range_usize(1, 24);
        for step in 0..steps {
            random_mutation(rng, &mut img);
            if rng.below(4) == 0 {
                snapshot = img.clone();
            }
            // Ground truth: a freshly deserialized tree has no memos and
            // computes every fingerprint from scratch.
            let fresh = FsImage::from_bytes(&img.to_bytes()).unwrap();
            assert_eq!(
                img.fingerprint(),
                fresh.fingerprint(),
                "memoized fingerprint diverged at step {step}"
            );
        }
        let fresh_snapshot = FsImage::from_bytes(&snapshot.to_bytes()).unwrap();
        assert_eq!(snapshot.fingerprint(), fresh_snapshot.fingerprint());
    });
}

#[test]
fn manifest_round_trip_preserves_fingerprint_property() {
    let root = common::tmpdir("imgstore-prop");
    let store = BlobStore::new(root.join("objects"));
    cases(16, |rng: &mut Rng| {
        let mut img = FsImage::new();
        for _ in 0..rng.range_usize(1, 16) {
            random_mutation(rng, &mut img);
        }
        let (manifest, _) = store.write_manifest(&img).unwrap();
        let back = store.read_manifest(&manifest).unwrap();
        assert_eq!(back.fingerprint(), img.fingerprint());
        assert_eq!(back.to_bytes(), img.to_bytes());
    });
    std::fs::remove_dir_all(root).unwrap();
}
