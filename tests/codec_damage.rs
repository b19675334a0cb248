//! Damage to a binary artifact is an error, never a panic.
//!
//! Every binary decoder reads through `marshal_trace::bytes::Reader`. For
//! one valid sample of each of the seven formats (`MEXE`, `MIMG`, `MMAN`,
//! `MKRN`, `MBBN`, the boot snapshot and `MCKP`) and of the `cpio`
//! initramfs archive, every truncation and a trailing byte must fail to
//! decode, and every 4- or 8-byte window overwritten with `0xFF` — a
//! length near `u64::MAX` wherever it lands on one — must return. Two
//! end-to-end cases follow the same damage in through the user-facing
//! paths: a spec's `img` file and a file a guest execs.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use marshal_core::{CheckpointLoad, CheckpointStore};
use marshal_depgraph::{persist, Fingerprint};
use marshal_firmware::{build_firmware, link_boot_binary, BootBinary, FirmwareBuild};
use marshal_image::{cpio, BlobStore, FsImage};
use marshal_isa::{abi, assemble, MexeFile};
use marshal_linux::{build_kernel, InitramfsSpec, KernelArtifact, KernelConfig, KernelSource};
use marshal_sim_functional::guest::{exec_timed, GuestOs};
use marshal_sim_functional::{BootSnapshot, SimConfig, SimError, SimKind};

/// Decodes the intact sample, the sample with a trailing byte and every
/// truncation of it (each must be an error), and every 4- and 8-byte
/// `0xFF` window over it (each must return).
fn assert_damage_is_contained<T, E>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
    assert!(decode(bytes).is_ok(), "the intact sample decodes");
    assert!(decode(&[bytes, &[0]].concat()).is_err(), "trailing byte");
    for cut in 0..bytes.len() {
        assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
    }
    assert_windows_return(bytes, 0xFF, decode);
}

/// Decodes `bytes` with every 4- and 8-byte window overwritten with
/// `fill`; each must return, error or not.
fn assert_windows_return<T, E>(bytes: &[u8], fill: u8, decode: impl Fn(&[u8]) -> Result<T, E>) {
    for width in [4, 8] {
        for at in 0..=bytes.len() - width {
            let mut damaged = bytes.to_vec();
            damaged[at..at + width].fill(fill);
            let returned = catch_unwind(AssertUnwindSafe(|| {
                let _ = decode(&damaged);
            }));
            assert!(
                returned.is_ok(),
                "{width}-byte {fill:#04x} window at {at} panicked"
            );
        }
    }
}

fn image() -> FsImage {
    let mut img = FsImage::new();
    img.write_file("/etc/hostname", b"node0").unwrap();
    img.write_exec("/bin/bench", b"\x13\x05\x10\x00").unwrap();
    img.symlink("/bin/sh", "bench").unwrap();
    img.mkdir_p("/output").unwrap();
    img
}

fn kernel() -> KernelArtifact {
    let config = KernelConfig::riscv_defconfig();
    let src = KernelSource::custom("pfa-linux", "5.7.0-pfa", vec!["pfa".into()]);
    let initramfs = InitramfsSpec::new().build(&config, &src).unwrap();
    build_kernel(&src, &config, &initramfs).unwrap()
}

fn snapshot() -> BootSnapshot {
    BootSnapshot {
        serial: "OpenSBI v0.9\n".to_owned(),
        image: image(),
        cycles: 1234,
        instructions: 0,
        last_exit: -1,
        switch_root_target: Some("/dev/vda".to_owned()),
        systemd: true,
    }
}

#[test]
fn mexe_damage_is_contained() {
    let mut exe = MexeFile::new(0x1_0000);
    exe.push_segment(0x1_0000, vec![0x13, 0, 0, 0]);
    exe.push_segment(0x2_0000, b"data".to_vec());
    exe.define_symbol("_start", 0x1_0000);
    assert_damage_is_contained(&exe.to_bytes(), MexeFile::from_bytes);
}

#[test]
fn mimg_damage_is_contained() {
    assert_damage_is_contained(&image().to_bytes(), FsImage::from_bytes);
}

/// `cpio` spells its lengths as eight hex digits, so besides the `0xFF`
/// windows every window of `f`s — the largest length a header can spell
/// wherever it lands on one — must return too.
#[test]
fn cpio_damage_is_contained() {
    let archive = cpio::pack(&image());
    assert_damage_is_contained(&archive, cpio::unpack);
    assert_windows_return(&archive, b'f', cpio::unpack);
}

#[test]
fn mman_damage_is_contained() {
    let root = common::tmpdir("codec-mman");
    let store = BlobStore::new(root.join("objects"));
    let (manifest, _) = store.write_manifest(&image()).unwrap();
    assert_damage_is_contained(&manifest, |b| store.read_manifest(b));
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn mkrn_damage_is_contained() {
    assert_damage_is_contained(&kernel().to_bytes(), KernelArtifact::from_bytes);
}

#[test]
fn mbbn_damage_is_contained() {
    let fw = build_firmware(&FirmwareBuild::default()).unwrap();
    let boot = link_boot_binary(&fw, &kernel()).unwrap();
    assert_damage_is_contained(&boot.to_bytes(), BootBinary::from_bytes);
}

#[test]
fn snapshot_damage_is_contained() {
    assert_damage_is_contained(&snapshot().to_bytes(), BootSnapshot::from_bytes);
}

/// The payload under the seal: the seal itself would catch the damage
/// before the `MCKP` decoder saw it.
#[test]
fn mckp_damage_is_contained() {
    let root = common::tmpdir("codec-mckp");
    let key = Fingerprint(7);
    let store = CheckpointStore::new(&root);
    store
        .save(key, Fingerprint(1), Some(Fingerprint(2)), &snapshot())
        .unwrap();
    let path = store.path_for(key);
    let payload = persist::read_sealed(&path).unwrap();
    assert_damage_is_contained(&payload, |b| {
        persist::write_sealed(&path, b).unwrap();
        // A fresh store: the saving one keeps the snapshot in memory.
        match CheckpointStore::new(&root).load(key) {
            CheckpointLoad::Hit(snap) => Ok(snap),
            CheckpointLoad::Miss => Err("miss".to_owned()),
            CheckpointLoad::Corrupt { detail, .. } => Err(detail),
        }
    });
    std::fs::remove_dir_all(root).unwrap();
}

/// `MIMG` bytes whose last entry claims a data length near `u64::MAX`.
fn corrupt_length_image() -> Vec<u8> {
    let mut img = FsImage::new();
    img.write_file("/marker", b"x").unwrap();
    let mut bytes = img.to_bytes();
    let len = bytes.len();
    bytes[len - 9..len - 1].fill(0xFF);
    bytes
}

#[test]
fn build_with_a_corrupt_length_img_file_fails_cleanly() {
    let root = common::tmpdir("codec-img");
    let dir = root.join("user-workloads");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("bad.img"), corrupt_length_image()).unwrap();
    let spec = dir.join("w.json");
    std::fs::write(
        &spec,
        r#"{"name":"w","base":"br-base.json","img":"bad.img"}"#,
    )
    .unwrap();
    let (code, log) = common::run_cli(&root, &["build", spec.to_str().unwrap()]);
    assert_eq!(code, 1, "{log:?}");
    assert!(
        log.iter()
            .any(|l| l.contains("img `bad.img`") && l.contains("truncated image")),
        "{log:?}"
    );
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn guest_exec_of_a_malformed_mexe_is_a_bad_artifact() {
    // A guest program writes a MEXE whose one segment claims a length near
    // u64::MAX; exec'ing that file must fail as a bad artifact.
    let writer = assemble(
        r#"
        .data
path:   .asciiz "/bad"
body:   .ascii  "MEXE"
        .word   1
        .dword  0x10000
        .word   1, 0
        .dword  0x10000, -2
        .ascii  "tail"
        .text
_start:
        la      a0, path
        li      a1, 1          # O_WRONLY
        li      a7, 1024       # OPEN
        ecall
        mv      t0, a0
        la      a1, body
        li      a2, 48
        li      a7, 64         # WRITE
        ecall
        mv      a0, t0
        li      a7, 57         # CLOSE
        ecall
        li      a0, 0
        li      a7, 93         # EXIT
        ecall
"#,
        abi::USER_BASE,
    )
    .unwrap();
    let mut os = GuestOs::new(FsImage::new(), &SimConfig::new(SimKind::Qemu));
    let (code, _) = exec_timed(&mut (), &writer, &["/writer".to_owned()], &mut os).unwrap();
    assert_eq!(code, 0);
    assert_eq!(os.image.read_file("/bad").unwrap().len(), 48);
    match os.load_program("/bad") {
        Err(SimError::BadArtifact(m)) => assert!(m.contains("truncated"), "{m}"),
        other => panic!("expected a bad artifact, got {other:?}"),
    }
}
