//! Boot-state snapshots for launch checkpointing.
//!
//! A [`BootSnapshot`] captures the complete machine-observable state of a
//! Linux launch at the post-init seam — after firmware, kernel, initramfs
//! handoff, root mount, and init-system bring-up, immediately before the
//! workload payload runs. Restoring one and running the payload phase is
//! observationally identical to a cold boot: the serial log, mounted image,
//! instruction/cycle counters, and init state are all part of the snapshot.
//!
//! Snapshots are only captured when the boot phase retired **zero** user
//! instructions ([`crate::boot::simulate_linux`] enforces
//! this). That invariant is what makes a restore bit-exact even for the
//! cycle-exact simulator: its timing pipeline is only ever touched by
//! retired user instructions, so a zero-instruction boot leaves it in the
//! same (cold) state a restore starts from.
//!
//! Persistence, content-addressed keying, checksums, and corruption
//! quarantine live in `marshal-core`; this module only defines the state
//! itself and its portable byte encoding.

use marshal_image::FsImage;
use marshal_trace::bytes::{Reader, Writer};

/// Snapshot magic: "MSNP".
const MAGIC: &[u8; 4] = b"MSNP";
/// Encoding version.
const VERSION: u32 = 1;

/// Machine state at the post-init point of a Linux boot.
#[derive(Debug, Clone, PartialEq)]
pub struct BootSnapshot {
    /// Serial console contents accumulated during boot.
    pub serial: String,
    /// The mounted root filesystem at payload start.
    pub image: FsImage,
    /// Guest cycle counter at payload start.
    pub cycles: u64,
    /// User instructions retired during boot (always 0 for a snapshot
    /// eligible for persistence; see the module docs).
    pub instructions: u64,
    /// Exit code of the most recently executed boot program.
    pub last_exit: i64,
    /// Root device requested by the initramfs `switch_root` call.
    pub switch_root_target: Option<String>,
    /// Whether the init system was detected as systemd at boot time (the
    /// payload phase chooses its console lines by this).
    pub systemd: bool,
}

impl BootSnapshot {
    /// Encodes the snapshot as a self-describing byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(MAGIC)
            .u32(VERSION)
            .u64(self.cycles)
            .u64(self.instructions)
            .u64(self.last_exit as u64)
            .u8(u8::from(self.systemd));
        match &self.switch_root_target {
            Some(t) => w.u8(1).field32(t.as_bytes()),
            None => w.u8(0),
        };
        w.field64(self.serial.as_bytes())
            .field64(&self.image.to_bytes());
        w.into_bytes()
    }

    /// Decodes a snapshot previously produced by [`BootSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// A description of the first structural problem found. Any truncation,
    /// bad magic, unknown version or trailing byte is an error — callers
    /// treat a failed decode as a corrupt checkpoint and fall back to a
    /// cold boot.
    pub fn from_bytes(bytes: &[u8]) -> Result<BootSnapshot, String> {
        let mut r = Reader::new(bytes);
        r.magic(MAGIC)?;
        let version = r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported snapshot version {version}"));
        }
        let cycles = r.u64()?;
        let instructions = r.u64()?;
        let last_exit = r.u64()? as i64;
        let systemd = r.u8()? != 0;
        let switch_root_target = match r.u8()? {
            0 => None,
            1 => Some(r.str32()?.to_owned()),
            other => return Err(format!("bad switch-root tag {other}")),
        };
        let serial = r.str64()?.to_owned();
        let image =
            FsImage::from_bytes(r.field64()?).map_err(|e| format!("embedded image: {e}"))?;
        r.finish()?;
        Ok(BootSnapshot {
            serial,
            image,
            cycles,
            instructions,
            last_exit,
            switch_root_target,
            systemd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BootSnapshot {
        let mut image = FsImage::new();
        image.write_file("/etc/hostname", b"buildroot\n").unwrap();
        image.write_file("/etc/kernel-release", b"5.7.0\n").unwrap();
        BootSnapshot {
            serial: "OpenSBI v0.9\n[    0.000100] Linux version 5.7\n".to_owned(),
            image,
            cycles: 123_456,
            instructions: 0,
            last_exit: 0,
            switch_root_target: Some("/dev/vda".to_owned()),
            systemd: false,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let snap = sample();
        let decoded = BootSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, decoded);
        assert_eq!(snap.image.fingerprint(), decoded.image.fingerprint());
    }

    #[test]
    fn roundtrip_without_switch_root() {
        let mut snap = sample();
        snap.switch_root_target = None;
        snap.systemd = true;
        assert_eq!(snap, BootSnapshot::from_bytes(&snap.to_bytes()).unwrap());
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = sample().to_bytes();
        for cut in [0, 3, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                BootSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(BootSnapshot::from_bytes(&bytes).is_err());
        let mut bytes = sample().to_bytes();
        bytes[4] = 0xEE;
        assert!(BootSnapshot::from_bytes(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(BootSnapshot::from_bytes(&bytes).is_err());
    }
}
