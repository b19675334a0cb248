//! # marshal-qcheck
//!
//! Deterministic, dependency-free randomness and a small property-test
//! harness for the FireMarshal workspace.
//!
//! The build environment is fully offline, so the workspace cannot pull
//! `proptest`/`rand` from crates.io. This crate supplies the two pieces the
//! repo actually needs:
//!
//! - [`Rng`]: a seeded splitmix64 generator with convenience samplers
//!   (ranges, byte vectors, character-class strings). Every sequence is a
//!   pure function of the seed, which is exactly what the fault-injection
//!   harness and the reproducibility story of the paper demand.
//! - [`cases`]: a property-test runner that derives one [`Rng`] per case
//!   from a fixed master seed and reports the failing case index + seed on
//!   panic, so failures replay exactly.
//! - [`scratch_dir`]: a fresh, empty directory for one test.
//!
//! ## Example
//!
//! ```rust
//! use marshal_qcheck::{cases, Rng};
//!
//! cases(64, |rng: &mut Rng| {
//!     let n = rng.range_u64(1, 1000);
//!     assert_eq!(n.to_string().parse::<u64>().unwrap(), n);
//! });
//! ```

#![warn(missing_docs)]

/// Master seed for [`cases`]. Fixed so test runs are reproducible; individual
/// cases mix in their index.
pub const MASTER_SEED: u64 = 0x05ca_1ab1_e0dd_ba11;

/// A deterministic splitmix64 pseudo-random generator.
///
/// Not cryptographic — it is a reproducibility tool: the same seed always
/// yields the same stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0)");
        // Multiply-shift: fine for test distributions.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform value in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// A uniform signed value in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add(self.below(span) as i64)
    }

    /// A uniform usize in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// An arbitrary 64-bit value (full range).
    pub fn any_u64(&mut self) -> u64 {
        self.next_u64()
    }

    /// An arbitrary signed 64-bit value (full range).
    pub fn any_i64(&mut self) -> i64 {
        self.next_u64() as i64
    }

    /// A coin flip.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A single arbitrary byte.
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() & 0xff) as u8
    }

    /// `len` arbitrary bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.byte()).collect()
    }

    /// A byte vector with length uniform in `[min, max)`.
    pub fn bytes_in(&mut self, min: usize, max: usize) -> Vec<u8> {
        let len = self.range_usize(min, max);
        self.bytes(len)
    }

    /// Picks a uniformly random element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "Rng::pick on empty slice");
        &xs[self.range_usize(0, xs.len())]
    }

    /// A string whose characters are drawn from `charset`, with length
    /// uniform in `[min, max)`.
    pub fn string_of(&mut self, charset: &str, min: usize, max: usize) -> String {
        let chars: Vec<char> = charset.chars().collect();
        let len = self.range_usize(min, max);
        (0..len).map(|_| *self.pick(&chars)).collect()
    }

    /// A lowercase `[a-z]` identifier-ish string with length in `[min, max)`.
    pub fn lowercase(&mut self, min: usize, max: usize) -> String {
        self.string_of("abcdefghijklmnopqrstuvwxyz", min, max)
    }

    /// A printable-ASCII string (space through `~`) with length in
    /// `[min, max)` — the stand-in for proptest's `\PC` regex class.
    pub fn printable(&mut self, min: usize, max: usize) -> String {
        let len = self.range_usize(min, max);
        (0..len)
            .map(|_| char::from(self.range_u64(0x20, 0x7f) as u8))
            .collect()
    }
}

/// Runs `n` property-test cases, each with its own deterministically derived
/// [`Rng`]. On panic, re-panics with the case index and seed so the failure
/// replays with `Rng::new(seed)`.
pub fn cases<F: FnMut(&mut Rng)>(n: usize, mut f: F) {
    for i in 0..n {
        // Derive a well-mixed per-case seed.
        let seed = Rng::new(MASTER_SEED ^ (i as u64).wrapping_mul(0x9e37_79b9)).next_u64();
        let mut rng = Rng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property failed at case {i}/{n} (replay seed {seed:#x}): {msg}");
        }
    }
}

/// A fresh, empty directory under the system temp dir for one test. The
/// name carries `tag`, the process id and a per-process sequence number, so
/// tests running concurrently never share a directory.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let name = format!("marshal-{tag}-{}-{seq}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(Rng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let s = rng.range_i64(-5, 5);
            assert!((-5..5).contains(&s));
            let len = rng.bytes_in(0, 8).len();
            assert!(len < 8);
        }
    }

    #[test]
    fn strings_use_charset() {
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            let s = rng.lowercase(1, 9);
            assert!(!s.is_empty() && s.len() < 9);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let p = rng.printable(0, 64);
            assert!(p.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn cases_reports_failing_seed() {
        let result = std::panic::catch_unwind(|| {
            cases(10, |rng| {
                // Always fails; message must carry the replay seed.
                assert!(rng.range_u64(0, 10) > 100, "impossible");
            });
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("replay seed"), "{msg}");
        assert!(msg.contains("case 0/10"), "{msg}");
    }

    #[test]
    fn pick_and_bool_cover_values() {
        let mut rng = Rng::new(3);
        let mut saw = [false; 3];
        let xs = [0usize, 1, 2];
        for _ in 0..200 {
            saw[*rng.pick(&xs)] = true;
        }
        assert_eq!(saw, [true; 3]);
        let mut t = false;
        let mut f = false;
        for _ in 0..64 {
            if rng.bool() {
                t = true;
            } else {
                f = true;
            }
        }
        assert!(t && f);
    }
}
