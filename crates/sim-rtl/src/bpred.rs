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

use crate::config::BpredConfig;

/// A direction predictor for conditional branches.
pub trait DirectionPredictor {
    /// Predicts the direction of the branch at `pc`, then trains with the
    /// resolved outcome `taken`. Returns the prediction.
    fn resolve(&mut self, pc: u64, taken: bool) -> bool;

    /// The predictor's display name.
    fn name(&self) -> &'static str;
}

/// Saturating 2-bit counter helpers.
fn counter_taken(c: u8) -> bool {
    c >= 2
}

fn counter_update(c: u8, taken: bool) -> u8 {
    if taken {
        (c + 1).min(3)
    } else {
        c.saturating_sub(1)
    }
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

impl DirectionPredictor for StaticPredictor {
    fn resolve(&mut self, _pc: u64, _taken: bool) -> bool {
        self.taken
    }
    fn name(&self) -> &'static str {
        if self.taken {
            "always-taken"
        } else {
            "never-taken"
        }
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
}

impl DirectionPredictor for BimodalPredictor {
    fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        let c = &mut self.counters[((pc >> 2) & self.mask) as usize];
        let predicted = counter_taken(*c);
        *c = counter_update(*c, taken);
        predicted
    }
    fn name(&self) -> &'static str {
        "bimodal"
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
}

impl DirectionPredictor for GsharePredictor {
    fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        let i = (((pc >> 2) ^ self.history) & self.table_mask) as usize;
        let c = &mut self.counters[i];
        let predicted = counter_taken(*c);
        *c = counter_update(*c, taken);
        self.history = ((self.history << 1) | taken as u64) & self.history_mask;
        predicted
    }
    fn name(&self) -> &'static str {
        "gshare"
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    tag: u16,
    counter: i8, // -4..=3; >= 0 means taken
    useful: u8,
}

/// A `len`-bit history window folded into `CHUNK` bits, kept as a
/// circular-shift register (see the module docs).
#[derive(Debug, Clone, Copy)]
struct FoldedHistory<const CHUNK: u32> {
    value: u64,
    /// Fold position the bit leaving the window lands on: `len % CHUNK`.
    out_shift: u32,
}

impl<const CHUNK: u32> FoldedHistory<CHUNK> {
    fn new(len: u32) -> FoldedHistory<CHUNK> {
        FoldedHistory {
            value: 0,
            out_shift: len % CHUNK,
        }
    }

    /// Shifts `taken` into the window and `out` (the window's oldest bit
    /// before the shift) out of it.
    fn push(&mut self, taken: u64, out: u64) {
        let mut f = (self.value << 1) | taken;
        f ^= out << self.out_shift;
        f ^= f >> CHUNK;
        self.value = f & ((1 << CHUNK) - 1);
    }
}

/// One tagged TAGE table, the folds of its history window, and where the
/// branch being resolved falls in it.
///
/// Index and tag use *different* chunk widths (like the circular shift
/// registers of real TAGE), so a history pattern that aliases in the index
/// fold still disambiguates through the tag.
#[derive(Debug, Clone)]
struct TaggedTable {
    entries: Vec<TageEntry>,
    history_len: u32,
    index_fold: FoldedHistory<10>,
    tag_fold: FoldedHistory<11>,
    index_salt: u64,
    tag_salt: u64,
    /// The entry index of the branch being resolved.
    slot: usize,
    /// The tag of the branch being resolved.
    tag: u16,
}

impl TaggedTable {
    fn new(table: usize, size: usize, history_len: u32) -> TaggedTable {
        TaggedTable {
            entries: vec![TageEntry::default(); size],
            history_len,
            index_fold: FoldedHistory::new(history_len),
            tag_fold: FoldedHistory::new(history_len),
            index_salt: (table as u64).wrapping_mul(0x9e37),
            tag_salt: (table as u64) << 7,
            slot: 0,
            tag: 0,
        }
    }

    /// Maps the branch at `pc` to its slot and tag under the current folds.
    fn look_up(&mut self, pc: u64) {
        let mask = self.entries.len() as u64 - 1;
        self.slot = (((pc >> 2) ^ self.index_fold.value ^ self.index_salt) & mask) as usize;
        self.tag = ((((pc >> 2) >> 4) ^ self.tag_fold.value ^ self.tag_salt) & 0x3ff) as u16 | 1;
    }

    /// Whether the branch's slot carries its tag.
    fn hits(&self) -> bool {
        self.entries[self.slot].tag == self.tag
    }

    /// The branch's slot.
    fn entry(&mut self) -> &mut TageEntry {
        &mut self.entries[self.slot]
    }
}

/// A TAGE predictor: a bimodal base plus tagged tables indexed with
/// geometrically growing history lengths. The longest matching table
/// provides the prediction; allocation on mispredict steals weak entries.
#[derive(Debug, Clone)]
pub struct TagePredictor {
    base: BimodalPredictor,
    tables: Vec<TaggedTable>,
    /// Global history, newest outcome in bit 0 (lengths are at most 127).
    history: u128,
}

impl TagePredictor {
    /// Creates a TAGE predictor.
    pub fn new(tables: u32, table_bits: u32, min_history: u32, max_history: u32) -> TagePredictor {
        let size = 1usize << table_bits;
        let tables = tables.max(1);
        // Geometric history series from min to max.
        let tagged = (0..tables)
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
            tables: tagged,
            history: 0,
        }
    }

    /// Each tagged table's history length, shortest first.
    pub fn history_lengths(&self) -> Vec<u32> {
        self.tables.iter().map(|t| t.history_len).collect()
    }
}

impl DirectionPredictor for TagePredictor {
    fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        for t in &mut self.tables {
            t.look_up(pc);
        }
        // Longest history table with a tag match provides.
        let provider = self.tables.iter().rposition(TaggedTable::hits);
        let predicted = match provider {
            Some(p) => {
                let e = self.tables[p].entry();
                let predicted = e.counter >= 0;
                e.counter = if taken {
                    (e.counter + 1).min(3)
                } else {
                    (e.counter - 1).max(-4)
                };
                if predicted == taken {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
                predicted
            }
            None => self.base.resolve(pc, taken),
        };

        // Allocate a new entry in a longer-history table on a mispredict.
        if predicted != taken {
            let longer = &mut self.tables[provider.map_or(0, |p| p + 1)..];
            match longer.iter_mut().find(|t| t.entries[t.slot].useful == 0) {
                Some(t) => {
                    let tag = t.tag;
                    *t.entry() = TageEntry {
                        tag,
                        counter: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                }
                // Decay usefulness so future allocations can succeed.
                None => {
                    for t in longer {
                        let e = t.entry();
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }

        // Advance global history and every table's folds.
        let bit = taken as u64;
        for t in &mut self.tables {
            let out = (self.history >> (t.history_len - 1)) as u64 & 1;
            t.index_fold.push(bit, out);
            t.tag_fold.push(bit, out);
        }
        self.history = (self.history << 1) | taken as u128;
        predicted
    }

    fn name(&self) -> &'static str {
        "tage"
    }
}

/// Builds the predictor described by a [`BpredConfig`].
pub fn build_predictor(config: &BpredConfig) -> Box<dyn DirectionPredictor + Send> {
    match config {
        BpredConfig::AlwaysTaken => Box::new(StaticPredictor::new(true)),
        BpredConfig::NeverTaken => Box::new(StaticPredictor::new(false)),
        BpredConfig::Bimodal { table_bits } => Box::new(BimodalPredictor::new(*table_bits)),
        BpredConfig::Gshare {
            history_bits,
            table_bits,
        } => Box::new(GsharePredictor::new(*history_bits, *table_bits)),
        BpredConfig::Tage {
            tables,
            table_bits,
            min_history,
            max_history,
        } => Box::new(TagePredictor::new(
            *tables,
            *table_bits,
            *min_history,
            *max_history,
        )),
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
    fn accuracy(p: &mut dyn DirectionPredictor, trace: &[(u64, bool)]) -> f64 {
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
        let mut t = StaticPredictor::new(true);
        assert!(t.resolve(0, false));
        assert!(t.resolve(0, false));
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut p = BimodalPredictor::new(10);
        let trace: Vec<(u64, bool)> = (0..100).map(|_| (0x40u64, true)).collect();
        assert!(accuracy(&mut p, &trace) > 0.95);
    }

    #[test]
    fn gshare_learns_patterns_bimodal_cannot() {
        let trace = pattern_trace(3000);
        let mut bimodal = BimodalPredictor::new(12);
        let mut gshare = GsharePredictor::new(12, 12);
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
        let mut gshare = GsharePredictor::new(12, 12);
        let mut tage = TagePredictor::new(4, 10, 4, 64);
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
        let mut tage = TagePredictor::new(4, 10, 4, 64);
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
        let mut tage = TagePredictor::new(6, 10, 1, 127);
        assert_eq!(tage.history_lengths(), [1, 3, 7, 18, 48, 127]);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            tage.resolve(x & 0xfffc, x >> 63 == 1);
            for t in &tage.tables {
                let len = t.history_len;
                assert_eq!(
                    t.index_fold.value,
                    scratch_fold(tage.history, len, 10),
                    "index fold, len {len}, step {step}"
                );
                assert_eq!(
                    t.tag_fold.value,
                    scratch_fold(tage.history, len, 11),
                    "tag fold, len {len}, step {step}"
                );
            }
        }
    }

    #[test]
    fn predictors_deterministic() {
        let trace = pattern_trace(500);
        let run = || {
            let mut p = build_predictor(&BpredConfig::default_tage());
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
            let p = build_predictor(&cfg);
            assert_eq!(p.name(), cfg.name());
        }
    }
}
