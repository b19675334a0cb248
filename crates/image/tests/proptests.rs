//! Property-based tests on the filesystem-image substrate: format
//! roundtrips and overlay algebra.
//!
//! Uses the in-repo `marshal-qcheck` harness (offline build environment);
//! every case derives from a fixed seed and replays deterministically.

use marshal_image::format::ImageFormatError;
use marshal_image::{cpio, FsImage};
use marshal_qcheck::{cases, Rng};

/// A random file tree as (path, contents, exec) triples.
fn arb_tree(rng: &mut Rng) -> Vec<(String, Vec<u8>, bool)> {
    (0..rng.range_usize(0, 12))
        .map(|_| {
            let parts: Vec<String> = (0..rng.range_usize(1, 4))
                .map(|_| rng.string_of("abcdefghijklmnopqrstuvwxyz0123456789", 1, 7))
                .collect();
            let path = format!("/{}", parts.join("/"));
            (path, rng.bytes_in(0, 64), rng.bool())
        })
        .collect()
}

fn build_image(tree: &[(String, Vec<u8>, bool)]) -> FsImage {
    let mut img = FsImage::new();
    for (path, data, exec) in tree {
        // Later entries may conflict with earlier directories; skip those —
        // the generator does not guarantee tree-consistency.
        let result = if *exec {
            img.write_exec(path, data)
        } else {
            img.write_file(path, data)
        };
        let _ = result;
    }
    img
}

#[test]
fn mimg_roundtrip() {
    cases(128, |rng| {
        let img = build_image(&arb_tree(rng));
        let back = FsImage::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(img, back);
    });
}

#[test]
fn cpio_roundtrip() {
    cases(128, |rng| {
        let img = build_image(&arb_tree(rng));
        let back = cpio::unpack(&cpio::pack(&img)).unwrap();
        assert_eq!(img, back);
    });
}

#[test]
fn serialisation_is_deterministic() {
    cases(128, |rng| {
        let tree = arb_tree(rng);
        let a = build_image(&tree).to_bytes();
        let b = build_image(&tree).to_bytes();
        assert_eq!(a, b);
    });
}

/// One random damage to a valid encoding: a flipped byte, an 8-byte
/// window saturated to `0xFF` or to hex `f`s (the largest length a binary
/// or a `cpio` header can spell), a truncation or an extension. Returns
/// the damaged bytes and whether they must fail to decode.
fn damage(rng: &mut Rng, valid: &[u8]) -> (Vec<u8>, bool) {
    let mut bytes = valid.to_vec();
    let at = rng.range_usize(0, bytes.len());
    match rng.below(4) {
        0 => bytes[at] ^= rng.range_u64(1, 256) as u8,
        1 => {
            let end = (at + 8).min(bytes.len());
            bytes[at..end].fill(*rng.pick(&[0xFF, b'f']));
        }
        2 => {
            bytes.truncate(at);
            return (bytes, true);
        }
        _ => {
            bytes.extend(rng.bytes_in(1, 16));
            return (bytes, true);
        }
    }
    (bytes, false)
}

/// A decoder under test.
type Decode = fn(&[u8]) -> Result<FsImage, ImageFormatError>;

/// Damaged `MIMG` and `cpio` encodings of random trees never panic their
/// parsers; truncated or extended ones are always rejected. Most cases
/// must get past the magic, so the length fields behind it are what gets
/// damaged.
#[test]
fn parser_never_panics() {
    let mut past_magic = 0;
    cases(256, |rng| {
        let img = build_image(&arb_tree(rng));
        let encodings: [(&str, Vec<u8>, Decode); 2] = [
            ("MIMG", img.to_bytes(), FsImage::from_bytes),
            ("cpio", cpio::pack(&img), cpio::unpack),
        ];
        for (format, valid, decode) in encodings {
            let (damaged, must_fail) = damage(rng, &valid);
            let decoded = decode(&damaged);
            assert!(
                !(must_fail && decoded.is_ok()),
                "{format}: a truncated or extended encoding decoded"
            );
            if decoded != Err(ImageFormatError::BadMagic) {
                past_magic += 1;
            }
        }
    });
    assert!(
        past_magic > 400,
        "only {past_magic} of 512 cases got past the magic"
    );
}

/// Overlay is idempotent: applying the same upper twice changes nothing.
#[test]
fn overlay_idempotent() {
    cases(128, |rng| {
        let mut once = build_image(&arb_tree(rng));
        let upper_img = build_image(&arb_tree(rng));
        once.apply_overlay(&upper_img);
        let mut twice = once.clone();
        twice.apply_overlay(&upper_img);
        assert_eq!(once, twice);
    });
}

/// Overlay wins: every file of the upper layer is present afterwards
/// with the upper's contents.
#[test]
fn overlay_upper_wins() {
    cases(128, |rng| {
        let mut merged = build_image(&arb_tree(rng));
        let upper_img = build_image(&arb_tree(rng));
        merged.apply_overlay(&upper_img);
        for (path, node) in upper_img.walk() {
            if let marshal_image::Node::File { data, .. } = node {
                assert_eq!(merged.read_file(&path).unwrap(), &data[..], "{}", path);
            }
        }
    });
}

/// Sizes are additive-consistent: total_size equals the sum over walk().
#[test]
fn total_size_matches_walk() {
    cases(128, |rng| {
        let img = build_image(&arb_tree(rng));
        let sum: u64 = img
            .walk()
            .iter()
            .map(|(_, n)| match n {
                marshal_image::Node::File { data, .. } => data.len() as u64,
                marshal_image::Node::Symlink(t) => t.len() as u64,
                marshal_image::Node::Dir(_) => 0,
            })
            .sum();
        assert_eq!(img.total_size(), sum);
    });
}
