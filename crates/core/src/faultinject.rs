//! Deterministic fault injection for robustness testing.
//!
//! Reproducibility is FireMarshal's core promise, and it must extend to
//! failure behaviour: a crash that depends on who corrupted what, when, is
//! not debuggable. This module corrupts build artifacts — boot binaries,
//! disk images, state databases — under a seeded PRNG, so every fault a
//! test (or `examples/bringup.rs`) injects replays bit-for-bit from its
//! seed.
//!
//! ```rust,no_run
//! use marshal_core::faultinject::{FaultKind, Injector};
//! let mut inj = Injector::new(0xdeadbeef);
//! inj.corrupt_file("work/images/hello/boot.bin".as_ref(), FaultKind::BitFlip)
//!     .unwrap();
//! ```

use std::path::Path;

use marshal_qcheck::Rng;

pub use marshal_netstore::{FaultPlan, FaultTransport, NetFaultKind};

/// What kind of damage to inflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one random bit.
    BitFlip,
    /// Cut the file at a random offset (a torn write).
    Truncate,
    /// Overwrite a random 16-byte window with random bytes.
    Garbage,
    /// Duplicate a random line (state-database style duplicate-entry
    /// corruption; on binary data this still just inserts bytes).
    DuplicateLine,
    /// A torn mid-run write: the file keeps its intact header but loses a
    /// random amount of its tail — what a crash during a guest-init image
    /// flush leaves behind. Unlike [`FaultKind::Truncate`], the cut always
    /// lands in the second half, modelling a write that got partway.
    TornWrite,
}

/// A record of one injected fault, for test diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// What was done.
    pub kind: FaultKind,
    /// Byte offset the fault was applied at.
    pub offset: usize,
    /// Size of the file before injection.
    pub original_len: usize,
}

/// A seeded fault injector: the same seed and call sequence injects the
/// same faults.
#[derive(Debug)]
pub struct Injector {
    rng: Rng,
}

impl Injector {
    /// Creates an injector from a seed.
    pub fn new(seed: u64) -> Injector {
        Injector {
            rng: Rng::new(seed),
        }
    }

    /// A network [`FaultPlan`] seeded from this injector's stream, so
    /// wire-level chaos replays from the same master seed as on-disk
    /// corruption.
    pub fn net_plan(&mut self, kind: NetFaultKind, skip_first: u64, max_faults: u64) -> FaultPlan {
        FaultPlan::new(kind, skip_first, max_faults, self.rng.next_u64())
    }

    /// Corrupts bytes in memory, returning what was done.
    ///
    /// Empty inputs gain garbage bytes instead (every fault kind must
    /// change the data — "no fault" would silently weaken tests).
    pub fn corrupt_bytes(&mut self, data: &mut Vec<u8>, kind: FaultKind) -> InjectedFault {
        let original_len = data.len();
        if data.is_empty() {
            data.extend_from_slice(&self.rng.bytes(8));
            return InjectedFault {
                kind,
                offset: 0,
                original_len,
            };
        }
        let offset = self.rng.range_usize(0, data.len());
        match kind {
            FaultKind::BitFlip => {
                let bit = 1u8 << self.rng.range_u64(0, 8);
                data[offset] ^= bit;
            }
            FaultKind::Truncate => {
                data.truncate(offset);
            }
            FaultKind::Garbage => {
                let window = self.rng.bytes(16);
                for (i, b) in window.iter().enumerate() {
                    if offset + i < data.len() {
                        data[offset + i] = *b;
                    }
                }
            }
            FaultKind::TornWrite => {
                // Keep at least half the file but drop at least one byte:
                // header intact, tail torn. (A 1-byte file just loses its
                // byte — every kind must change the data.)
                let lo = (data.len() / 2).max(1);
                let cut = if lo >= data.len() {
                    data.len() - 1
                } else {
                    torn_cut(data, lo, self.rng.range_usize(lo, data.len()))
                };
                data.truncate(cut);
                return InjectedFault {
                    kind,
                    offset: cut,
                    original_len,
                };
            }
            FaultKind::DuplicateLine => {
                // Duplicate the line containing `offset` (or a byte window
                // when the data has no newlines).
                let start = data[..offset]
                    .iter()
                    .rposition(|b| *b == b'\n')
                    .map_or(0, |p| p + 1);
                let end = data[offset..]
                    .iter()
                    .position(|b| *b == b'\n')
                    .map_or(data.len(), |p| offset + p + 1);
                let line: Vec<u8> = data[start..end].to_vec();
                let mut out = data[..end].to_vec();
                out.extend_from_slice(&line);
                out.extend_from_slice(&data[end..]);
                *data = out;
            }
        }
        InjectedFault {
            kind,
            offset,
            original_len,
        }
    }

    /// Corrupts a file on disk in place.
    ///
    /// # Errors
    ///
    /// Describes the failing path on I/O errors.
    pub fn corrupt_file(&mut self, path: &Path, kind: FaultKind) -> Result<InjectedFault, String> {
        let mut data = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let fault = self.corrupt_bytes(&mut data, kind);
        std::fs::write(path, data).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(fault)
    }

    /// Tears a serialized image (or any artifact) mid-write: the crash-
    /// during-`guest-init` scenario the init-system idempotency path must
    /// recover from.
    ///
    /// # Errors
    ///
    /// Describes the failing path on I/O errors.
    pub fn tear_image_write(&mut self, path: &Path) -> Result<InjectedFault, String> {
        self.corrupt_file(path, FaultKind::TornWrite)
    }
}

/// Moves a torn-write cut in `lo..data.len()` off line boundaries.
///
/// A line-oriented reader (journals, the state database) sees a write
/// torn next to a `\n` as a clean, shorter file of whole records: cut
/// just after a newline, nothing partial remains; cut just before one,
/// the last record is whole and merely unterminated. So when the data
/// has lines, the cut moves to the nearest position — forward first,
/// then back, never below `lo` — that falls strictly inside a record.
/// Data without such a position (no newline, or records too short past
/// `lo`) keeps `cut`.
fn torn_cut(data: &[u8], lo: usize, cut: usize) -> usize {
    let inside = |c: &usize| data[*c - 1] != b'\n' && data[*c] != b'\n';
    if !data.contains(&b'\n') || inside(&cut) {
        return cut;
    }
    (cut..data.len())
        .find(inside)
        .or_else(|| (lo..cut).rev().find(inside))
        .unwrap_or(cut)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_is_deterministic() {
        let run = |seed: u64| {
            let mut inj = Injector::new(seed);
            let mut data = (0u8..200).collect::<Vec<u8>>();
            let faults = vec![
                inj.corrupt_bytes(&mut data, FaultKind::BitFlip),
                inj.corrupt_bytes(&mut data, FaultKind::Garbage),
                inj.corrupt_bytes(&mut data, FaultKind::Truncate),
            ];
            (data, faults)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn every_kind_changes_the_data() {
        let mut inj = Injector::new(7);
        for kind in [
            FaultKind::BitFlip,
            FaultKind::Truncate,
            FaultKind::Garbage,
            FaultKind::DuplicateLine,
            FaultKind::TornWrite,
        ] {
            for _ in 0..32 {
                let original: Vec<u8> = inj.rng.bytes_in(1, 64);
                let mut data = original.clone();
                inj.corrupt_bytes(&mut data, kind);
                assert_ne!(data, original, "{kind:?} must alter the bytes");
            }
        }
    }

    #[test]
    fn empty_input_still_faulted() {
        let mut inj = Injector::new(1);
        let mut data = Vec::new();
        inj.corrupt_bytes(&mut data, FaultKind::Truncate);
        assert!(!data.is_empty());
    }

    #[test]
    fn duplicate_line_duplicates_a_line() {
        let mut inj = Injector::new(3);
        let mut data = b"alpha\nbravo\ncharlie\n".to_vec();
        inj.corrupt_bytes(&mut data, FaultKind::DuplicateLine);
        let text = String::from_utf8(data).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        lines.dedup();
        assert_eq!(lines.len(), 3, "one line appears twice: {text:?}");
    }

    #[test]
    fn torn_write_keeps_header_loses_tail() {
        let mut inj = Injector::new(5);
        for _ in 0..64 {
            let original: Vec<u8> = inj.rng.bytes_in(2, 256);
            let mut data = original.clone();
            let fault = inj.corrupt_bytes(&mut data, FaultKind::TornWrite);
            assert!(data.len() < original.len(), "tail torn off");
            assert!(
                data.len() >= original.len() / 2,
                "header (first half) survives"
            );
            assert_eq!(data[..], original[..data.len()], "prefix is intact");
            assert_eq!(fault.offset, data.len());
        }
    }

    #[test]
    fn torn_write_never_cuts_on_a_line_boundary() {
        // Journal-shaped data: a torn write must leave a torn final
        // record, never a clean shorter file of whole lines.
        let data: Vec<u8> = (0..40)
            .flat_map(|i| format!("{{\"seq\":{i},\"kind\":\"span\"}}\n").into_bytes())
            .collect();
        for seed in 0..10_000 {
            let mut torn = data.clone();
            let fault = Injector::new(seed).corrupt_bytes(&mut torn, FaultKind::TornWrite);
            assert!(torn.len() < data.len() && torn.len() >= data.len() / 2);
            assert_eq!(fault.offset, torn.len());
            assert!(
                torn.last() != Some(&b'\n') && data[torn.len()] != b'\n',
                "seed {seed} cut on a line boundary at {}",
                torn.len()
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("marshal-fi-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("artifact");
        std::fs::write(&p, b"some artifact bytes").unwrap();
        let mut inj = Injector::new(11);
        let fault = inj.corrupt_file(&p, FaultKind::BitFlip).unwrap();
        assert_eq!(fault.original_len, 19);
        assert_ne!(std::fs::read(&p).unwrap(), b"some artifact bytes");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
