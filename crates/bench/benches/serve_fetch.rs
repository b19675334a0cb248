//! Artifact-distribution benchmark: cold vs. warm delta fetch of a
//! depth-8 inheritance chain from a `marshal serve` root.
//!
//! Cold: an empty client pool fetches every level — all manifests plus
//! every blob. Warm: after one leaf-level change on the server, the same
//! client fetches the new leaf — and because blobs are content-addressed
//! and batched by what the client is missing, only the changed leaf blob
//! crosses the wire. The delta ratio is the whole point of distributing
//! manifests instead of flat images.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use marshal_bench::{append_bench_rows, Row};
use marshal_core::ImageStore;
use marshal_depgraph::Fingerprint;
use marshal_image::FsImage;
use marshal_netstore::server::ServeRoot;
use marshal_netstore::{LoopbackTransport, RemoteStore, RetryPolicy, Transport};

const DEPTH: usize = 8;
const FILE_BYTES: usize = 32 * 1024;

struct Measured {
    phase: &'static str,
    levels: u64,
    blobs: u64,
    bytes: u64,
    nanos: u128,
}

/// Synthetic but stable per-level input fingerprints, standing in for the
/// build's level-task input hashes.
fn input_fp(tag: &str) -> Fingerprint {
    Fingerprint::of(format!("serve-fetch-input:{tag}").as_bytes())
}

/// Populates a depth-8 chain in `workdir`: each level inherits the parent
/// image and adds one 32 KiB payload file, exactly like an inheritance
/// chain of workloads layering content.
fn populate_chain(workdir: &Path) -> FsImage {
    let store = ImageStore::new(workdir);
    let mut img = FsImage::new();
    img.mkdir_p("/data").unwrap();
    for level in 0..DEPTH {
        let payload = vec![level as u8 ^ 0xA5; FILE_BYTES];
        img.write_file(&format!("/data/level{level}.bin"), &payload)
            .unwrap();
        store
            .store_with_input(
                &format!("chain/l{level}"),
                Some(input_fp(&format!("l{level}"))),
                img.clone(),
            )
            .unwrap();
    }
    img
}

/// A client over an in-process loopback to `root` (the daemon's request
/// handler without sockets — the protocol work with zero network noise).
fn loopback_client(root: &Arc<ServeRoot>) -> RemoteStore {
    let root = Arc::clone(root);
    let factory: marshal_netstore::client::TransportFactory = Box::new(move || {
        Ok(Box::new(LoopbackTransport::new(Arc::clone(&root))) as Box<dyn Transport>)
    });
    RemoteStore::with_factory("loopback", factory, RetryPolicy::fast())
}

/// Fetches every chain level (plus `extra` leaf tags) into `client_work`,
/// returning what moved.
fn fetch_chain(
    root: &Arc<ServeRoot>,
    client_work: &Path,
    tags: &[String],
    phase: &'static str,
) -> Measured {
    let store = ImageStore::new(client_work);
    let client = loopback_client(root);
    let start = Instant::now();
    let mut levels = 0u64;
    for tag in tags {
        let manifest = client
            .fetch_level(store.blobs(), input_fp(tag))
            .expect("fetch")
            .expect("remote has the level");
        assert!(marshal_image::sniff_manifest(&manifest));
        levels += 1;
    }
    let nanos = start.elapsed().as_nanos();
    let s = client.summary();
    Measured {
        phase,
        levels,
        blobs: s.blobs_fetched,
        bytes: s.bytes_fetched,
        nanos,
    }
}

fn main() {
    let root_dir = marshal_bench::scratch("serve-fetch");
    let server_work = root_dir.join("server");
    let leaf = populate_chain(&server_work);
    let serve_root = Arc::new(ServeRoot::new(&server_work));

    let all_tags: Vec<String> = (0..DEPTH).map(|l| format!("l{l}")).collect();

    // Cold: empty pool, everything crosses the wire.
    let client_work = root_dir.join("client");
    let cold = fetch_chain(&serve_root, &client_work, &all_tags, "cold");
    assert_eq!(cold.levels, DEPTH as u64);
    assert!(cold.blobs >= DEPTH as u64, "one payload blob per level");

    // Change one leaf file on the server and publish the new leaf level.
    {
        let store = ImageStore::new(&server_work);
        let mut changed = leaf;
        changed
            .write_file("/data/level7.bin", &vec![0x3Cu8; FILE_BYTES])
            .unwrap();
        store
            .store_with_input("chain/l7b", Some(input_fp("l7b")), changed)
            .unwrap();
    }

    // Warm: the client pool already holds everything except the changed
    // leaf payload — only that blob (plus the manifest) should move.
    let warm = fetch_chain(&serve_root, &client_work, &[String::from("l7b")], "warm");
    assert_eq!(
        warm.blobs, 1,
        "a one-file leaf change transfers exactly one blob"
    );
    assert!(
        warm.bytes < cold.bytes / 4,
        "delta fetch moves a fraction of the cold transfer \
         (warm {} vs cold {} bytes)",
        warm.bytes,
        cold.bytes
    );

    let delta_ratio = cold.bytes as f64 / warm.bytes.max(1) as f64;
    println!("== serve_fetch: cold vs warm delta (depth-{DEPTH} chain) ==");
    println!("  phase   levels  blobs      bytes        wall");
    for m in [&cold, &warm] {
        println!(
            "  {:<7} {:>6} {:>6} {:>10} {:>9.3} ms",
            m.phase,
            m.levels,
            m.blobs,
            m.bytes,
            m.nanos as f64 / 1e6
        );
    }
    println!("  cold/warm byte ratio: {delta_ratio:.1}x");
    let rows: Vec<Row> = [cold, warm]
        .iter()
        .flat_map(|m| {
            let variant = format!("{}/depth={DEPTH}", m.phase);
            let row = |metric, value, unit| Row::new("serve_fetch", &*variant, metric, value, unit);
            [
                row("levels_fetched", m.levels as f64, "levels"),
                row("blobs_fetched", m.blobs as f64, "blobs"),
                row("bytes_fetched", m.bytes as f64, "bytes"),
                row("wall_ns", m.nanos as f64, "ns"),
                row("cold_warm_ratio", delta_ratio, "ratio"),
            ]
        })
        .collect();
    append_bench_rows("BENCH_serve.json", &rows);
    let _ = std::fs::remove_dir_all(root_dir);
}
