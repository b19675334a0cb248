//! Branch predictors: Gshare, TAGE, bimodal, static — plus a return
//! address stack for `call`/`ret` pairs.
//!
//! The SPEC2017 case study (§IV-B, Fig. 6) compares "an older branch
//! predictor from BOOM v2 (based on Gshare)" against "the more recent
//! TAGE-based predictor" on identical workloads; these are those two
//! predictors.
//!
//! # Folded history
//!
//! Each TAGE table hashes the newest `len` bits of global history into its
//! index and tag by *folding*: XORing together consecutive `chunk`-bit
//! slices of those `len` bits (bit `i` lands on bit `i % chunk`). Instead of
//! refolding on every lookup, every table keeps its folds as circular-shift
//! registers, as real TAGE hardware does, and updates them in O(1) when a
//! bit enters the history:
//!
//! ```text
//! f = (f << 1) | taken        // every bit moves up one position
//! f ^= out << (len % chunk)   // drop the bit leaving the window
//! f ^= f >> chunk             // rotate bit `chunk` back into bit 0
//! f &= (1 << chunk) - 1
//! ```
//!
//! where `out` is history bit `len - 1` before the shift. Shifting the
//! history moves bit `i` to `i + 1`, i.e. from fold position `i % chunk` to
//! `(i + 1) % chunk`: a one-bit rotation of the fold. The bit leaving the
//! window would land on `len % chunk`, so XORing it there cancels it. The
//! register therefore equals the from-scratch fold after every update.
//! A table's index fold (10 bits) and tag fold (11 bits) share one `u64`,
//! so one such sequence updates both.
//!
//! # Resolving a branch
//!
//! [`Predictor`] is an enum over the four kinds, so the pipeline calls the
//! one it has without a virtual call, and [`Predictor::mispredicts`]
//! resolves a batch's branches with one dispatch. TAGE makes one pass over
//! its tables per branch: it hashes the branch with each table's folds,
//! keeps the hashes in locals, sets a bit per table in a `hits` mask (the
//! entry carries the branch's tag) and a `free` mask (the entry is not
//! useful), and advances the folds. The provider is the highest bit of
//! `hits` and the allocation target the lowest bit of `free` above it;
//! the predictions are those of a table-by-table search.

use crate::config::BpredConfig;

/// The direction predictor of a [`Pipeline`](crate::pipeline::Pipeline),
/// dispatched statically over the four kinds.
#[derive(Debug, Clone)]
pub enum Predictor {
    /// Always-taken or never-taken.
    Static(StaticPredictor),
    /// PC-indexed 2-bit counters.
    Bimodal(BimodalPredictor),
    /// Global history XOR PC.
    Gshare(GsharePredictor),
    /// Tagged tables over geometric history lengths.
    Tage(TagePredictor),
}

impl Predictor {
    /// Builds the predictor described by a [`BpredConfig`].
    pub fn new(config: &BpredConfig) -> Predictor {
        match *config {
            BpredConfig::AlwaysTaken => Predictor::Static(StaticPredictor::new(true)),
            BpredConfig::NeverTaken => Predictor::Static(StaticPredictor::new(false)),
            BpredConfig::Bimodal { table_bits } => {
                Predictor::Bimodal(BimodalPredictor::new(table_bits))
            }
            BpredConfig::Gshare {
                history_bits,
                table_bits,
            } => Predictor::Gshare(GsharePredictor::new(history_bits, table_bits)),
            BpredConfig::Tage {
                tables,
                table_bits,
                min_history,
                max_history,
            } => Predictor::Tage(TagePredictor::new(
                tables,
                table_bits,
                min_history,
                max_history,
            )),
        }
    }

    /// Predicts the direction of the branch at `pc`, then trains with the
    /// resolved outcome `taken`. Returns the prediction.
    #[inline]
    pub fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        match self {
            Predictor::Static(p) => p.taken,
            Predictor::Bimodal(p) => p.resolve(pc, taken),
            Predictor::Gshare(p) => p.resolve(pc, taken),
            Predictor::Tage(p) => p.resolve(pc, taken),
        }
    }

    /// Resolves a run of conditional branches, `(pc, taken)` in program
    /// order, with one dispatch for the run; returns how many it
    /// mispredicted.
    pub fn mispredicts(&mut self, branches: &[(u64, bool)]) -> u64 {
        fn count(branches: &[(u64, bool)], mut resolve: impl FnMut(u64, bool) -> bool) -> u64 {
            branches
                .iter()
                .map(|&(pc, taken)| u64::from(resolve(pc, taken) != taken))
                .sum()
        }
        match self {
            Predictor::Static(p) => count(branches, |_, _| p.taken),
            Predictor::Bimodal(p) => count(branches, |pc, taken| p.resolve(pc, taken)),
            Predictor::Gshare(p) => count(branches, |pc, taken| p.resolve(pc, taken)),
            Predictor::Tage(p) => p.mispredicts(branches),
        }
    }

    /// The predictor's display name (the [`BpredConfig::name`] it was
    /// built from).
    pub fn name(&self) -> &'static str {
        match self {
            Predictor::Static(StaticPredictor { taken: true }) => "always-taken",
            Predictor::Static(StaticPredictor { taken: false }) => "never-taken",
            Predictor::Bimodal(_) => "bimodal",
            Predictor::Gshare(_) => "gshare",
            Predictor::Tage(_) => "tage",
        }
    }
}

/// Saturating 2-bit counter helpers.
#[inline]
fn counter_taken(c: u8) -> bool {
    c >= 2
}

/// Counts `c` up towards 3 when `taken`, else down towards 0. Arithmetic
/// rather than a branch on the outcome, which the host cannot predict.
#[inline]
fn counter_update(c: u8, taken: bool) -> u8 {
    c + u8::from(taken & (c < 3)) - u8::from(!taken & (c > 0))
}

/// Always-taken / never-taken.
#[derive(Debug, Clone)]
pub struct StaticPredictor {
    taken: bool,
}

impl StaticPredictor {
    /// Creates a static predictor.
    pub fn new(taken: bool) -> StaticPredictor {
        StaticPredictor { taken }
    }
}

/// PC-indexed table of 2-bit counters.
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    counters: Vec<u8>,
    mask: u64,
}

impl BimodalPredictor {
    /// Creates a bimodal predictor with `2^table_bits` counters.
    pub fn new(table_bits: u32) -> BimodalPredictor {
        let size = 1usize << table_bits;
        BimodalPredictor {
            counters: vec![1; size], // weakly not-taken
            mask: (size - 1) as u64,
        }
    }

    /// Predicts the branch at `pc`, then trains with `taken`.
    #[inline]
    pub fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        let c = &mut self.counters[((pc >> 2) & self.mask) as usize];
        let predicted = counter_taken(*c);
        *c = counter_update(*c, taken);
        predicted
    }
}

/// Gshare: global history XOR PC indexes a table of 2-bit counters.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    counters: Vec<u8>,
    history: u64,
    history_mask: u64,
    table_mask: u64,
}

impl GsharePredictor {
    /// Creates a Gshare predictor.
    pub fn new(history_bits: u32, table_bits: u32) -> GsharePredictor {
        let size = 1usize << table_bits;
        GsharePredictor {
            counters: vec![1; size],
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
            table_mask: (size - 1) as u64,
        }
    }

    /// Predicts the branch at `pc`, then trains with `taken`.
    #[inline]
    pub fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        let i = (((pc >> 2) ^ self.history) & self.table_mask) as usize;
        let c = &mut self.counters[i];
        let predicted = counter_taken(*c);
        *c = counter_update(*c, taken);
        self.history = ((self.history << 1) | taken as u64) & self.history_mask;
        predicted
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    tag: u16,
    counter: i8, // -4..=3; >= 0 means taken
    useful: u8,
}

/// Where a table's two folds sit in its one register: the 10-bit index
/// fold in bits 0..10 and the 11-bit tag fold from bit [`TAG_FOLD`] up.
const TAG_FOLD: u32 = 32;

/// The bits of both folds.
const FOLDS: u64 = 0x3ff | 0x7ff << TAG_FOLD;

/// One tagged TAGE table: its history window, where that window's folds
/// change, its salts and where its entries start in [`TagePredictor`]'s
/// shared array. Its folds live in [`TagePredictor::folds`].
///
/// Index and tag use *different* chunk widths (like the circular shift
/// registers of real TAGE), so a history pattern that aliases in the index
/// fold still disambiguates through the tag. Both folds share one `u64`
/// (see [`TAG_FOLD`]), as do both salts, so one shift-and-XOR sequence
/// updates the two registers and one XOR applies them to a branch.
#[derive(Debug, Clone, Copy)]
struct TaggedTable {
    history_len: u32,
    /// Where the bit leaving the window lands in each fold:
    /// `len % 10` and `TAG_FOLD + len % 11`.
    out: u64,
    /// The index salt and the tag salt, placed like the folds.
    salts: u64,
    /// The table's first entry in the shared array.
    first: usize,
}

impl TaggedTable {
    fn new(table: usize, size: usize, history_len: u32) -> TaggedTable {
        let (index_salt, tag_salt) = ((table as u64).wrapping_mul(0x9e37), (table as u64) << 7);
        TaggedTable {
            history_len,
            out: 1 << (history_len % 10) | 1 << (TAG_FOLD + history_len % 11),
            salts: index_salt | tag_salt << TAG_FOLD,
            first: table * size,
        }
    }

    /// The entry (in the shared array) and the tag of a branch whose hash
    /// under this table's folds is `hashed`; `mask` is the table size less
    /// one.
    #[inline]
    fn entry(&self, hashed: u64, mask: u64) -> (usize, u16) {
        let tag = ((hashed >> TAG_FOLD) & 0x3ff) as u16 | 1;
        (self.first + (hashed & mask) as usize, tag)
    }

    /// `folds` after the newest outcome shifts in (`taken` is 0 or a 1 at
    /// the bottom of each fold) and the window's oldest bit shifts out of
    /// `history`: the update of the module docs, once per fold.
    #[inline]
    fn push(&self, folds: u64, taken: u64, history: &[u64; 2]) -> u64 {
        let oldest = self.history_len - 1;
        let out = history[(oldest >> 6) as usize & 1] >> (oldest & 63) & 1;
        let mut f = (folds << 1) | taken;
        // A select the host cannot predict: keep it a conditional move.
        f ^= std::hint::select_unpredictable(out == 1, self.out, 0);
        f ^= (f >> 10) & 1 | (f >> 11) & 1 << TAG_FOLD;
        f & FOLDS
    }
}

/// The most tagged tables a [`TagePredictor`] takes: one bit each in the
/// masks a TAGE lookup selects with.
pub const MAX_TAGE_TABLES: u32 = 64;

/// A TAGE predictor: a bimodal base plus tagged tables indexed with
/// geometrically growing history lengths. The longest matching table
/// provides the prediction; allocation on mispredict steals weak entries.
#[derive(Debug, Clone)]
pub struct TagePredictor {
    base: BimodalPredictor,
    tables: Vec<TaggedTable>,
    /// Each table's index and tag folds, in one register per table.
    folds: Vec<u64>,
    /// Every tagged table's entries, table after table.
    entries: Vec<TageEntry>,
    /// Entries per table, less one.
    mask: u64,
    /// Global history, newest outcome in bit 0 of the first word (lengths
    /// are at most 127).
    history: [u64; 2],
}

impl TagePredictor {
    /// Creates a TAGE predictor.
    ///
    /// # Panics
    ///
    /// Panics if `tables` exceeds [`MAX_TAGE_TABLES`] or `table_bits`
    /// exceeds 32.
    pub fn new(tables: u32, table_bits: u32, min_history: u32, max_history: u32) -> TagePredictor {
        assert!(
            tables <= MAX_TAGE_TABLES,
            "TAGE takes at most {MAX_TAGE_TABLES} tagged tables, not {tables}"
        );
        assert!(
            table_bits <= TAG_FOLD,
            "TAGE tables take at most 2^{TAG_FOLD} entries, not 2^{table_bits}"
        );
        let size = 1usize << table_bits;
        let tables = tables.max(1);
        // Geometric history series from min to max.
        let tagged: Vec<TaggedTable> = (0..tables)
            .map(|i| {
                let f = if tables == 1 {
                    0.0
                } else {
                    i as f64 / (tables - 1) as f64
                };
                let len = (min_history as f64 * (max_history as f64 / min_history as f64).powf(f))
                    .round() as u32;
                TaggedTable::new(i as usize, size, len.clamp(1, 127))
            })
            .collect();
        TagePredictor {
            base: BimodalPredictor::new(table_bits),
            folds: vec![0; tagged.len()],
            tables: tagged,
            entries: vec![TageEntry::default(); tables as usize * size],
            mask: (size - 1) as u64,
            history: [0; 2],
        }
    }

    /// Each tagged table's history length, shortest first.
    pub fn history_lengths(&self) -> Vec<u32> {
        self.tables.iter().map(|t| t.history_len).collect()
    }

    /// Predicts the branch at `pc`, then trains with `taken`.
    pub fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        taken ^ (self.mispredicts(&[(pc, taken)]) == 1)
    }

    /// Resolves `(pc, taken)` branches in program order; returns how many
    /// it mispredicted.
    ///
    /// The run keeps the tables and their folds in locals. The paper's
    /// four tables get arrays of four, which lets the compiler unroll the
    /// table loop and keep the folds in registers.
    fn mispredicts(&mut self, branches: &[(u64, bool)]) -> u64 {
        match *self.tables {
            [a, b, c, d] => {
                let folds = [self.folds[0], self.folds[1], self.folds[2], self.folds[3]];
                self.run(&[a, b, c, d], folds, [0; 4], branches)
            }
            _ => {
                let tables = std::mem::take(&mut self.tables);
                let folds = self.folds.clone();
                let hashes = vec![0; tables.len()];
                let mispredicts = self.run(&tables, folds, hashes, branches);
                self.tables = tables;
                mispredicts
            }
        }
    }

    /// [`TagePredictor::mispredicts`] with everything a branch touches in
    /// locals: `tables`, `folds` (a copy of [`TagePredictor::folds`]) and
    /// the global history, written back at the end, and `hashes` as
    /// scratch.
    #[inline(always)]
    fn run<F: AsMut<[u64]>>(
        &mut self,
        tables: &[TaggedTable],
        mut folds: F,
        mut hashes: F,
        branches: &[(u64, bool)],
    ) -> u64 {
        let mut pass = Pass {
            tables,
            folds: folds.as_mut(),
            hashes: hashes.as_mut(),
            history: self.history,
            entries: &mut self.entries,
            base: &mut self.base,
            mask: self.mask,
        };
        let mispredicts = branches
            .iter()
            .map(|&(pc, taken)| u64::from(pass.step(pc, taken) != taken))
            .sum();
        self.history = pass.history;
        self.folds.copy_from_slice(pass.folds);
        mispredicts
    }
}

/// A [`TagePredictor`] taken apart for a run of branches.
struct Pass<'a> {
    tables: &'a [TaggedTable],
    folds: &'a mut [u64],
    hashes: &'a mut [u64],
    history: [u64; 2],
    entries: &'a mut [TageEntry],
    base: &'a mut BimodalPredictor,
    /// Entries per table, less one.
    mask: u64,
}

impl Pass<'_> {
    /// Predicts the branch at `pc` and trains with `taken`.
    ///
    /// One pass over the tables hashes the branch with each table's folds,
    /// keeps the hash in `hashes`, and sets a bit per table in two masks:
    /// the entry carries the branch's tag (`hits`), and that entry is not
    /// useful (`free`). The same pass advances the table's folds, as
    /// nothing reads them again for this branch. The provider is the
    /// highest hit and the allocation target the lowest free table above
    /// it.
    #[inline(always)]
    fn step(&mut self, pc: u64, taken: bool) -> bool {
        // The pc bits the index hashes below the tag's, placed like the
        // folds.
        let key = (pc >> 2) & 0xffff_ffff | (pc >> 6) << TAG_FOLD;
        let mask = self.mask;
        let bit = u64::from(taken) * (1 | 1 << TAG_FOLD);
        let (mut hits, mut free, mut provider_slot) = (0u64, 0u64, 0);
        let tables = self
            .tables
            .iter()
            .zip(&mut *self.folds)
            .zip(&mut *self.hashes);
        for (i, ((t, fold), hashed)) in tables.enumerate() {
            *hashed = key ^ *fold ^ t.salts;
            let (slot, tag) = t.entry(*hashed, mask);
            let e = self.entries[slot];
            let hit = e.tag == tag;
            hits |= u64::from(hit) << i;
            free |= u64::from(e.useful == 0) << i;
            // Longest history table with a tag match provides.
            provider_slot = std::hint::select_unpredictable(hit, slot, provider_slot);
            *fold = t.push(*fold, bit, &self.history);
        }
        let provider = hits.checked_ilog2().map(|p| p as usize);
        let predicted = match provider {
            Some(_) => {
                let e = &mut self.entries[provider_slot];
                let predicted = e.counter >= 0;
                let right = predicted == taken;
                // Saturating counts, in arithmetic rather than branches on
                // the outcome: -4..=3 for the counter, 0..=3 for `useful`.
                e.counter +=
                    i8::from(taken & (e.counter < 3)) - i8::from(!taken & (e.counter > -4));
                e.useful = counter_update(e.useful, right);
                predicted
            }
            None => self.base.resolve(pc, taken),
        };

        // Allocate a new entry in a longer-history table on a mispredict.
        if predicted != taken {
            let longer = provider.map_or(u64::MAX, |p| u64::MAX << p << 1);
            let target = free & longer;
            if target != 0 {
                let i = target.trailing_zeros() as usize;
                let (slot, tag) = self.tables[i].entry(self.hashes[i], mask);
                self.entries[slot] = TageEntry {
                    tag,
                    counter: if taken { 0 } else { -1 },
                    useful: 0,
                };
            } else {
                // Decay usefulness so future allocations can succeed.
                for (i, (t, &hashed)) in self.tables.iter().zip(&*self.hashes).enumerate() {
                    if longer >> i & 1 == 1 {
                        let e = &mut self.entries[t.entry(hashed, mask).0];
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }

        // Advance global history.
        self.history = [
            self.history[0] << 1 | u64::from(taken),
            self.history[1] << 1 | self.history[0] >> 63,
        ];
        predicted
    }
}

/// A return-address stack for predicting `ret` targets: a fixed ring that
/// overwrites its oldest entry when a push finds it full.
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    ring: Box<[u64]>,
    /// Slot the next push writes.
    top: usize,
    len: usize,
}

impl Default for ReturnAddressStack {
    fn default() -> ReturnAddressStack {
        ReturnAddressStack::new(16)
    }
}

impl ReturnAddressStack {
    /// Creates a RAS with the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ReturnAddressStack {
        assert!(capacity > 0, "return-address stack needs a slot");
        ReturnAddressStack {
            ring: vec![0; capacity].into_boxed_slice(),
            top: 0,
            len: 0,
        }
    }

    /// Pushes a return address (on `call`). A full stack drops its oldest
    /// entry.
    pub fn push(&mut self, addr: u64) {
        self.ring[self.top] = addr;
        self.top = (self.top + 1) % self.ring.len();
        self.len = (self.len + 1).min(self.ring.len());
    }

    /// Pops a predicted return target (on `ret`), newest first.
    pub fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.top = (self.top + self.ring.len() - 1) % self.ring.len();
        Some(self.ring[self.top])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measures accuracy of a predictor on a synthetic branch trace.
    fn accuracy(p: &mut Predictor, trace: &[(u64, bool)]) -> f64 {
        let correct = trace
            .iter()
            .filter(|(pc, taken)| p.resolve(*pc, *taken) == *taken)
            .count();
        correct as f64 / trace.len() as f64
    }

    fn loop_trace(iters: usize, body: usize) -> Vec<(u64, bool)> {
        // A loop branch taken (body-1) times then not-taken, repeated.
        let mut t = Vec::new();
        for _ in 0..iters {
            for i in 0..body {
                t.push((0x1000, i != body - 1));
            }
        }
        t
    }

    /// A pattern whose period exceeds bimodal's ability but fits in global
    /// history: alternating T,T,N.
    fn pattern_trace(n: usize) -> Vec<(u64, bool)> {
        (0..n).map(|i| (0x2000u64, i % 3 != 2)).collect()
    }

    #[test]
    fn static_predictors() {
        let mut t = Predictor::new(&BpredConfig::AlwaysTaken);
        assert!(t.resolve(0, false));
        assert!(t.resolve(0, false));
        let mut n = Predictor::new(&BpredConfig::NeverTaken);
        assert!(!n.resolve(0, true));
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut p = Predictor::Bimodal(BimodalPredictor::new(10));
        let trace: Vec<(u64, bool)> = (0..100).map(|_| (0x40u64, true)).collect();
        assert!(accuracy(&mut p, &trace) > 0.95);
    }

    #[test]
    fn gshare_learns_patterns_bimodal_cannot() {
        let trace = pattern_trace(3000);
        let mut bimodal = Predictor::Bimodal(BimodalPredictor::new(12));
        let mut gshare = Predictor::Gshare(GsharePredictor::new(12, 12));
        let acc_b = accuracy(&mut bimodal, &trace);
        let acc_g = accuracy(&mut gshare, &trace);
        assert!(
            acc_g > acc_b + 0.15,
            "gshare {acc_g:.3} should beat bimodal {acc_b:.3}"
        );
        assert!(
            acc_g > 0.95,
            "gshare should nail a period-3 pattern: {acc_g:.3}"
        );
    }

    #[test]
    fn tage_beats_gshare_on_long_history() {
        // A loop with a trip count of 24: predicting the exit needs 24 bits
        // of history. Gshare's 12-bit history saturates (iterations 12..23
        // all look identical), so it mispredicts every exit; TAGE's long
        // tables learn the full trip count.
        let trace = loop_trace(2_000, 24);
        let mut gshare = Predictor::Gshare(GsharePredictor::new(12, 12));
        let mut tage = Predictor::Tage(TagePredictor::new(4, 10, 4, 64));
        let acc_g = accuracy(&mut gshare, &trace);
        let acc_t = accuracy(&mut tage, &trace);
        assert!(
            acc_t > acc_g,
            "tage {acc_t:.3} should beat gshare {acc_g:.3} on a 24-trip loop"
        );
        assert!(acc_t > 0.97, "tage should learn the trip count: {acc_t:.3}");
    }

    #[test]
    fn tage_handles_loops() {
        let trace = loop_trace(200, 8);
        let mut tage = Predictor::Tage(TagePredictor::new(4, 10, 4, 64));
        let acc = accuracy(&mut tage, &trace);
        assert!(acc > 0.9, "tage loop accuracy {acc:.3}");
    }

    /// The from-scratch fold the circular-shift registers replace.
    fn scratch_fold(history: u128, len: u32, chunk: u32) -> u64 {
        let mut h = history & ((1u128 << len) - 1);
        let mut folded = 0u64;
        while h != 0 {
            folded ^= (h & ((1u128 << chunk) - 1)) as u64;
            h >>= chunk;
        }
        folded
    }

    #[test]
    fn folds_equal_scratch_folds_after_every_update() {
        // Six tables take the general path, the paper's four the unrolled
        // one.
        for (tables, min, max, lengths) in [
            (6, 1, 127, &[1, 3, 7, 18, 48, 127][..]),
            (4, 4, 64, &[4, 10, 25, 64]),
        ] {
            let mut tage = TagePredictor::new(tables, 10, min, max);
            assert_eq!(tage.history_lengths(), lengths);
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for step in 0..2_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                tage.resolve(x & 0xfffc, x >> 63 == 1);
                let history = u128::from(tage.history[1]) << 64 | u128::from(tage.history[0]);
                for (t, &folds) in tage.tables.iter().zip(&tage.folds) {
                    let len = t.history_len;
                    assert_eq!(
                        folds & 0x3ff,
                        scratch_fold(history, len, 10),
                        "index fold, len {len}, step {step}"
                    );
                    assert_eq!(
                        folds >> TAG_FOLD,
                        scratch_fold(history, len, 11),
                        "tag fold, len {len}, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn predictors_deterministic() {
        let trace = pattern_trace(500);
        let run = || {
            let mut p = Predictor::new(&BpredConfig::default_tage());
            trace
                .iter()
                .map(|(pc, taken)| p.resolve(*pc, *taken))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ras_predicts_returns() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_bounded_depth() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // evicts 1
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_overflow_keeps_newest_entries_across_wraps() {
        let mut ras = ReturnAddressStack::new(3);
        for addr in 1..=10 {
            ras.push(addr);
        }
        assert_eq!(ras.pop(), Some(10));
        ras.push(11);
        assert_eq!(ras.pop(), Some(11));
        assert_eq!(ras.pop(), Some(9));
        assert_eq!(ras.pop(), Some(8));
        assert_eq!(ras.pop(), None);
        ras.push(12);
        assert_eq!(ras.pop(), Some(12));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn build_matches_config() {
        for cfg in [
            BpredConfig::AlwaysTaken,
            BpredConfig::NeverTaken,
            BpredConfig::Bimodal { table_bits: 8 },
            BpredConfig::default_gshare(),
            BpredConfig::default_tage(),
        ] {
            let p = Predictor::new(&cfg);
            assert_eq!(p.name(), cfg.name());
        }
    }
}
