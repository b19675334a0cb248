//! Image-store throughput over a deep inheritance chain: a large base image
//! extended by eight single-file levels, persisted level by level the way
//! `marshal build` does. Compares the flat baseline (serialize + hash +
//! rewrite the whole image per level) against the content-addressed store
//! (memoized Merkle fingerprints, blob dedup, manifest per level), cold and
//! after a leaf-only incremental change. Appends the bytes, wall time and
//! incremental byte ratio of each phase and strategy to `BENCH_image.json`
//! at the workspace root.

use marshal_bench::{append_bench_rows, scratch, Row};
use marshal_depgraph::Fingerprint;
use marshal_image::{BlobStore, FsImage};
use marshal_qcheck::Rng;

/// Inheritance depth beyond the base; the acceptance bar is measured here.
const DEPTH: usize = 8;
/// Base payload: 24 x 256 KiB files, ~6 MiB — a small rootfs.
const BASE_FILES: usize = 24;
const BASE_FILE_SIZE: usize = 256 * 1024;
/// Each level adds ~1 KiB, the shape of a config-tweak child workload.
const LEVEL_FILE_SIZE: usize = 1024;

fn base_image(rng: &mut Rng) -> FsImage {
    let mut img = FsImage::new();
    for i in 0..BASE_FILES {
        img.write_file(
            &format!("/usr/lib/base{i:02}.so"),
            &rng.bytes(BASE_FILE_SIZE),
        )
        .expect("write base file");
    }
    img.write_exec("/sbin/init", &rng.bytes(64 * 1024))
        .expect("write init");
    img
}

/// The chain: level 0 is the base; each deeper level clones its parent and
/// adds one small file, exactly like a child workload's overlay.
fn build_chain(base: &FsImage, rng: &mut Rng) -> Vec<FsImage> {
    let mut levels = Vec::with_capacity(DEPTH + 1);
    levels.push(base.clone());
    for d in 1..=DEPTH {
        let mut img = levels[d - 1].clone();
        img.write_file(
            &format!("/opt/level{d}/payload.bin"),
            &rng.bytes(LEVEL_FILE_SIZE),
        )
        .expect("write level file");
        levels.push(img);
    }
    levels
}

/// Flat baseline: each level is serialized in full, hashed in full for the
/// input-hash, and rewritten in full. Returns bytes hashed + bytes written.
fn persist_flat(levels: &[FsImage], dir: &std::path::Path) -> u64 {
    std::fs::create_dir_all(dir).expect("flat dir");
    let mut bytes = 0u64;
    for (i, img) in levels.iter().enumerate() {
        let flat = img.to_bytes();
        std::hint::black_box(Fingerprint::of(&flat));
        bytes += flat.len() as u64; // hashed
        std::fs::write(dir.join(format!("level{i}.img")), &flat).expect("write flat level");
        bytes += flat.len() as u64; // written
    }
    bytes
}

/// CAS store: each level becomes a manifest over deduped blobs; memoized
/// fingerprints mean only payloads new to the store are hashed. Returns
/// bytes hashed + bytes written (new blobs count for both, manifests for
/// both, shared blobs for neither).
fn persist_cas(levels: &[FsImage], store: &BlobStore, dir: &std::path::Path) -> u64 {
    std::fs::create_dir_all(dir).expect("cas dir");
    let mut bytes = 0u64;
    for (i, img) in levels.iter().enumerate() {
        std::hint::black_box(img.fingerprint());
        let (manifest, stats) = store.write_manifest(img).expect("write manifest");
        std::fs::write(dir.join(format!("level{i}.img")), &manifest).expect("write manifest file");
        bytes += 2 * stats.bytes_written + 2 * manifest.len() as u64;
    }
    bytes
}

fn main() {
    let root = scratch("image-chain");
    let mut rng = Rng::new(0x0131_a9e5);
    let base = base_image(&mut rng);
    let levels = build_chain(&base, &mut rng);

    println!(
        "== image chain persist (base ~{} MiB, depth {DEPTH}, +{LEVEL_FILE_SIZE} B per level) ==",
        (BASE_FILES * BASE_FILE_SIZE) >> 20
    );
    let store = BlobStore::new(root.join("objects"));
    // Each persist pass: (variant, bytes hashed + bytes written, wall ns).
    let mut measured = Vec::new();
    let mut run = |phase: &str, strategy: &str, persist: &dyn Fn() -> u64| {
        let t0 = std::time::Instant::now();
        let bytes = persist();
        let nanos = t0.elapsed().as_nanos();
        println!(
            "  {phase:<12} {strategy:<5} {:>10.2} MiB hashed+written  {:>10.2} ms",
            bytes as f64 / (1024.0 * 1024.0),
            nanos as f64 / 1e6
        );
        measured.push((format!("{phase}/{strategy}/depth={DEPTH}"), bytes, nanos));
        bytes
    };

    // Cold: the whole chain persisted into empty directories.
    run("cold", "flat", &|| {
        persist_flat(&levels, &root.join("flat"))
    });
    run("cold", "cas", &|| {
        persist_cas(&levels, &store, &root.join("levels"))
    });

    // Incremental: one leaf-level file changes; only the leaf level's task
    // reruns, so only the leaf level is re-persisted.
    let mut leaf = levels[DEPTH].clone();
    leaf.write_file(
        &format!("/opt/level{DEPTH}/payload.bin"),
        &rng.bytes(LEVEL_FILE_SIZE),
    )
    .expect("mutate leaf");
    let leaf_only = std::slice::from_ref(&leaf);
    let flat_inc = run("incremental", "flat", &|| {
        persist_flat(leaf_only, &root.join("flat"))
    });
    let cas_inc = run("incremental", "cas", &|| {
        persist_cas(leaf_only, &store, &root.join("levels"))
    });

    let ratio = flat_inc as f64 / cas_inc as f64;
    println!("  incremental flat/cas byte ratio at depth {DEPTH}: {ratio:.1}x");
    assert!(
        ratio >= 5.0,
        "CAS must move >=5x fewer bytes than flat on a leaf change \
         (flat {flat_inc} B, cas {cas_inc} B, ratio {ratio:.1}x)"
    );
    let rows: Vec<Row> = measured
        .iter()
        .flat_map(|(variant, bytes, nanos)| {
            let row = |metric, value, unit| Row::new("image_chain", variant, metric, value, unit);
            [
                row("bytes_hashed_written", *bytes as f64, "bytes"),
                row("wall_ns", *nanos as f64, "ns"),
                row("incremental_ratio", ratio, "ratio"),
            ]
        })
        .collect();
    append_bench_rows("BENCH_image.json", &rows);
    let _ = std::fs::remove_dir_all(root);
}
