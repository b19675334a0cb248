//! Property-based tests on the micro-architectural models: cache
//! invariants, predictor sanity, and remote-memory accounting, plus the
//! fast models checked against naive references (TAGE with from-scratch
//! history folds and as a per-table transcription, LRU caches as recency
//! lists, the batch charging kernel as a per-instruction pipeline).
//!
//! Uses the in-repo `marshal-qcheck` harness (offline build environment);
//! every case derives from a fixed seed and replays deterministically.

use marshal_isa::interp::{RetireKind, Retired};
use marshal_qcheck::cases;
use marshal_sim_functional::syscall::Timing;
use marshal_sim_rtl::bpred::{
    BimodalPredictor, GsharePredictor, Predictor, ReturnAddressStack, TagePredictor,
};
use marshal_sim_rtl::cache::{Access, Cache, CacheStats};
use marshal_sim_rtl::config::{
    BpredConfig, CacheConfig, CoreConfig, HardwareConfig, RemoteMemConfig,
};
use marshal_sim_rtl::pfa::{PfaStats, RemoteMemory, RemoteMode, RemoteTimings};
use marshal_sim_rtl::pipeline::{PerfCounters, Pipeline, Record};

/// Misses never exceed accesses; stats count every access.
#[test]
fn cache_miss_bounds() {
    cases(128, |rng| {
        let addrs: Vec<u64> = (0..rng.range_usize(1, 200))
            .map(|_| rng.range_u64(0, 1_000_000))
            .collect();
        let mut c = Cache::new(CacheConfig::l1_16k());
        for a in &addrs {
            c.access(*a);
        }
        let s = c.stats();
        assert!(s.misses <= s.accesses);
        assert_eq!(s.accesses, addrs.len() as u64);
    });
}

/// A working set that fits entirely in the cache reaches steady-state
/// all-hits.
#[test]
fn cache_small_working_set_hits() {
    cases(64, |rng| {
        let lines = rng.range_u64(1, 32);
        let mut c = Cache::new(CacheConfig::l1_16k());
        let addrs: Vec<u64> = (0..lines).map(|i| i * 64).collect();
        for a in &addrs {
            c.access(*a);
        }
        for a in &addrs {
            assert_eq!(c.access(*a), Access::Hit);
        }
    });
}

/// Caches are deterministic: the same trace gives the same stats.
#[test]
fn cache_deterministic() {
    cases(64, |rng| {
        let addrs: Vec<u64> = (0..rng.range_usize(1, 100))
            .map(|_| rng.any_u64())
            .collect();
        let run = || {
            let mut c = Cache::new(CacheConfig::l1_16k());
            for a in &addrs {
                c.access(*a);
            }
            c.stats()
        };
        assert_eq!(run(), run());
    });
}

/// Every predictor predicts deterministically and trains without
/// panicking on arbitrary traces.
#[test]
fn predictors_total_and_deterministic() {
    cases(64, |rng| {
        let trace: Vec<(u64, bool)> = (0..rng.range_usize(1, 300))
            .map(|_| (rng.range_u64(0, 1024), rng.bool()))
            .collect();
        for cfg in [
            BpredConfig::AlwaysTaken,
            BpredConfig::NeverTaken,
            BpredConfig::Bimodal { table_bits: 8 },
            BpredConfig::default_gshare(),
            BpredConfig::default_tage(),
        ] {
            let run = |trace: &[(u64, bool)]| {
                let mut p = Predictor::new(&cfg);
                trace
                    .iter()
                    .map(|(pc, taken)| p.resolve(pc * 4, *taken))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(&trace), run(&trace), "{cfg:?}");
        }
    });
}

/// On a perfectly biased branch every adaptive predictor converges to
/// at least 90% accuracy.
#[test]
fn adaptive_predictors_learn_bias() {
    cases(64, |rng| {
        let taken = rng.bool();
        let pc = rng.range_u64(0, 4096);
        let mut predictors = [
            Predictor::Bimodal(BimodalPredictor::new(10)),
            Predictor::Gshare(GsharePredictor::new(12, 12)),
            Predictor::Tage(TagePredictor::new(4, 10, 4, 64)),
        ];
        for p in &mut predictors {
            let mut correct = 0;
            for _ in 0..200 {
                if p.resolve(pc * 4, taken) == taken {
                    correct += 1;
                }
            }
            assert!(correct >= 180, "{} got {correct}/200", p.name());
        }
    });
}

/// Remote memory: fault count equals the number of distinct pages
/// touched, independent of access order or repetition.
#[test]
fn remote_faults_count_unique_pages() {
    cases(64, |rng| {
        let offsets: Vec<u64> = (0..rng.range_usize(1, 300))
            .map(|_| rng.range_u64(0, 64 * 4096))
            .collect();
        let mode = if rng.bool() {
            RemoteMode::Pfa
        } else {
            RemoteMode::SoftwarePaging
        };
        let mut m = RemoteMemory::new(mode, RemoteTimings::default(), 4096);
        let mut unique = std::collections::BTreeSet::new();
        for off in &offsets {
            m.access(*off);
            unique.insert(off / 4096);
        }
        assert_eq!(m.stats().faults, unique.len() as u64);
        assert_eq!(m.resident_pages(), unique.len());
    });
}

/// The PFA's critical path is never longer than software paging for
/// the same trace.
#[test]
fn pfa_never_slower() {
    cases(64, |rng| {
        let offsets: Vec<u64> = (0..rng.range_usize(1, 200))
            .map(|_| rng.range_u64(0, 256 * 4096))
            .collect();
        let t = RemoteTimings::default();
        let mut sw = RemoteMemory::new(RemoteMode::SoftwarePaging, t, 4096);
        let mut hw = RemoteMemory::new(RemoteMode::Pfa, t, 4096);
        let sw_total: u64 = offsets.iter().map(|o| sw.access(*o)).sum();
        let hw_total: u64 = offsets.iter().map(|o| hw.access(*o)).sum();
        assert!(hw_total <= sw_total);
    });
}

/// TAGE as a direct transcription of the algorithm: every lookup refolds
/// the history from scratch, and training re-derives the provider.
struct ScratchTage {
    base: Vec<u8>,
    /// Per table: `(tag, counter, useful)` entries.
    tables: Vec<Vec<(u16, i8, u8)>>,
    lengths: Vec<u32>,
    mask: u64,
    history: u128,
}

impl ScratchTage {
    fn new(lengths: Vec<u32>, table_bits: u32) -> ScratchTage {
        let size = 1usize << table_bits;
        ScratchTage {
            base: vec![1; size],
            tables: vec![vec![(0, 0, 0); size]; lengths.len()],
            lengths,
            mask: (size - 1) as u64,
            history: 0,
        }
    }

    fn fold(&self, bits: u32, chunk: u32) -> u64 {
        let mut h = self.history & ((1u128 << bits) - 1);
        let mut folded = 0u64;
        while h != 0 {
            folded ^= (h & ((1u128 << chunk) - 1)) as u64;
            h >>= chunk;
        }
        folded
    }

    fn index_and_tag(&self, pc: u64, t: usize) -> (usize, u16) {
        let len = self.lengths[t];
        let index = (((pc >> 2) ^ self.fold(len, 10) ^ (t as u64).wrapping_mul(0x9e37)) & self.mask)
            as usize;
        let tag = ((((pc >> 2) >> 4) ^ self.fold(len, 11) ^ (t as u64) << 7) & 0x3ff) as u16 | 1;
        (index, tag)
    }

    fn provider(&self, pc: u64) -> Option<(usize, usize)> {
        (0..self.tables.len()).rev().find_map(|t| {
            let (index, tag) = self.index_and_tag(pc, t);
            (self.tables[t][index].0 == tag).then_some((t, index))
        })
    }

    fn predict(&self, pc: u64) -> bool {
        match self.provider(pc) {
            Some((t, i)) => self.tables[t][i].1 >= 0,
            None => self.base[((pc >> 2) & self.mask) as usize] >= 2,
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let provider = self.provider(pc);
        let predicted = self.predict(pc);
        match provider {
            Some((t, i)) => {
                let e = &mut self.tables[t][i];
                e.1 = if taken {
                    (e.1 + 1).min(3)
                } else {
                    (e.1 - 1).max(-4)
                };
                e.2 = if predicted == taken {
                    (e.2 + 1).min(3)
                } else {
                    e.2.saturating_sub(1)
                };
            }
            None => {
                let c = &mut self.base[((pc >> 2) & self.mask) as usize];
                *c = if taken {
                    (*c + 1).min(3)
                } else {
                    c.saturating_sub(1)
                };
            }
        }
        if predicted != taken {
            let start = provider.map_or(0, |(t, _)| t + 1);
            let free = (start..self.tables.len()).find(|&t| {
                let (index, _) = self.index_and_tag(pc, t);
                self.tables[t][index].2 == 0
            });
            match free {
                Some(t) => {
                    let (index, tag) = self.index_and_tag(pc, t);
                    self.tables[t][index] = (tag, if taken { 0 } else { -1 }, 0);
                }
                None => {
                    for t in start..self.tables.len() {
                        let (index, _) = self.index_and_tag(pc, t);
                        let e = &mut self.tables[t][index];
                        e.2 = e.2.saturating_sub(1);
                    }
                }
            }
        }
        self.history = (self.history << 1) | taken as u128;
    }
}

/// A branch stream over a few PCs: mostly patterned (loop exits, period-k
/// patterns) with random noise, so tagged entries hit and allocate.
fn branch_stream(rng: &mut marshal_qcheck::Rng, len: usize) -> Vec<(u64, bool)> {
    let pcs: Vec<u64> = (0..rng.range_usize(1, 12))
        .map(|_| rng.range_u64(0, 1 << 16) * 4)
        .collect();
    let period = rng.range_usize(2, 40);
    (0..len)
        .map(|i| {
            let pc = pcs[i % pcs.len()];
            let taken = if rng.below(8) == 0 {
                rng.bool()
            } else {
                (i / pcs.len()) % period != period - 1
            };
            (pc, taken)
        })
        .collect()
}

/// The incremental TAGE (circular-shift folds, one lookup per branch)
/// predicts exactly what the from-scratch reference predicts, for history
/// lengths of 1, multiples of the 10- and 11-bit fold widths, and 127.
#[test]
fn tage_matches_scratch_fold_reference() {
    // (tables, table_bits, min_history, max_history)
    let geometries = [
        (1, 6, 1, 1),
        (1, 8, 10, 10),
        (1, 8, 11, 11),
        (2, 8, 20, 22),
        (3, 7, 30, 33),
        (2, 9, 110, 121),
        (1, 10, 127, 127),
        (4, 10, 4, 64),
        (6, 10, 1, 127),
        (3, 8, 11, 300),
    ];
    let mut lengths: Vec<u32> = geometries
        .iter()
        .flat_map(|&(n, b, lo, hi)| TagePredictor::new(n, b, lo, hi).history_lengths())
        .collect();
    lengths.sort_unstable();
    for len in [1, 10, 11, 20, 22, 30, 33, 110, 121, 127] {
        assert!(lengths.contains(&len), "history length {len} not covered");
    }
    cases(48, |rng| {
        let random = (
            rng.range_u64(1, 7) as u32,
            rng.range_u64(4, 11) as u32,
            rng.range_u64(1, 40) as u32,
            rng.range_u64(40, 160) as u32,
        );
        let len = rng.range_usize(1, 3_000);
        let stream = branch_stream(rng, len);
        for (n, b, lo, hi) in geometries.iter().copied().chain([random]) {
            let mut fast = TagePredictor::new(n, b, lo, hi);
            let mut reference = ScratchTage::new(fast.history_lengths(), b);
            for (i, &(pc, taken)) in stream.iter().enumerate() {
                let expected = reference.predict(pc);
                reference.update(pc, taken);
                assert_eq!(
                    fast.resolve(pc, taken),
                    expected,
                    "geometry {:?}, branch {i}",
                    (n, b, lo, hi)
                );
            }
        }
    });
}

/// LRU as recency lists: each set holds its lines most recent first.
struct NaiveLru {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_bytes: u64,
}

impl NaiveLru {
    fn access(&mut self, addr: u64) -> Access {
        let line = addr / self.line_bytes;
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(line % n) as usize];
        let hit = match set.iter().position(|&l| l == line) {
            Some(i) => {
                set.remove(i);
                true
            }
            None => false,
        };
        set.insert(0, line);
        set.truncate(self.ways);
        if hit {
            Access::Hit
        } else {
            Access::Miss
        }
    }
}

/// The flat, memoized cache agrees access by access with a naive LRU
/// model, across geometries and with `flush` interleaved.
#[test]
fn cache_matches_naive_lru() {
    cases(96, |rng| {
        let config = CacheConfig {
            sets: 1 << rng.range_u64(0, 7),
            ways: rng.range_u64(1, 9) as u32,
            line_bytes: 1 << rng.range_u64(0, 8),
            hit_latency: 1,
        };
        let mut cache = Cache::new(config);
        let mut naive = NaiveLru {
            sets: vec![Vec::new(); config.sets as usize],
            ways: config.ways as usize,
            line_bytes: config.line_bytes as u64,
        };
        let span = config.capacity() * rng.range_u64(1, 4);
        let mut addr = rng.range_u64(0, span);
        let (mut accesses, mut misses) = (0, 0);
        for i in 0..rng.range_usize(1, 2_000) {
            match rng.below(16) {
                0 => {
                    cache.flush();
                    for set in &mut naive.sets {
                        set.clear();
                    }
                    continue;
                }
                1..=5 => {} // repeat the last address
                6..=10 => addr = addr.wrapping_add(rng.range_u64(0, 16)),
                11 => addr = rng.any_u64(),
                _ => addr = rng.range_u64(0, span),
            }
            let expected = naive.access(addr);
            assert_eq!(
                cache.access(addr),
                expected,
                "{config:?} access {i} @ {addr:#x}"
            );
            accesses += 1;
            misses += u64::from(expected == Access::Miss);
        }
        assert_eq!(cache.stats().accesses, accesses);
        assert_eq!(cache.stats().misses, misses);
    });
}

/// A `len`-bit history window folded into `CHUNK` bits, as a
/// circular-shift register: one per fold, the layout before the two folds
/// shared a register.
#[derive(Clone, Copy)]
struct RefFold<const CHUNK: u32> {
    value: u64,
    out_shift: u32,
}

impl<const CHUNK: u32> RefFold<CHUNK> {
    fn new(len: u32) -> RefFold<CHUNK> {
        RefFold {
            value: 0,
            out_shift: len % CHUNK,
        }
    }

    fn push(&mut self, taken: u64, out: u64) {
        let mut f = (self.value << 1) | taken;
        f ^= out << self.out_shift;
        f ^= f >> CHUNK;
        self.value = f & ((1 << CHUNK) - 1);
    }
}

/// One table of [`RefTage`]: its own entries, and the slot and tag of the
/// branch being resolved written into it before they are read back.
struct RefTable {
    entries: Vec<(u16, i8, u8)>,
    history_len: u32,
    index_fold: RefFold<10>,
    tag_fold: RefFold<11>,
    index_salt: u64,
    tag_salt: u64,
    slot: usize,
    tag: u16,
}

impl RefTable {
    fn look_up(&mut self, pc: u64) {
        let mask = self.entries.len() as u64 - 1;
        self.slot = (((pc >> 2) ^ self.index_fold.value ^ self.index_salt) & mask) as usize;
        self.tag = ((((pc >> 2) >> 4) ^ self.tag_fold.value ^ self.tag_salt) & 0x3ff) as u16 | 1;
    }

    fn hits(&self) -> bool {
        self.entries[self.slot].0 == self.tag
    }
}

/// TAGE resolved table by table, as before the hit and free masks: every
/// table's slot and tag are stored, the provider is found with
/// `rposition` and the allocation target with `find`.
struct RefTage {
    base: Vec<u8>,
    base_mask: u64,
    tables: Vec<RefTable>,
    history: u128,
}

impl RefTage {
    fn new(tables: u32, table_bits: u32, min_history: u32, max_history: u32) -> RefTage {
        let size = 1usize << table_bits;
        let tables = tables.max(1);
        let tagged = (0..tables)
            .map(|i| {
                let f = if tables == 1 {
                    0.0
                } else {
                    i as f64 / (tables - 1) as f64
                };
                let len = (min_history as f64 * (max_history as f64 / min_history as f64).powf(f))
                    .round() as u32;
                let len = len.clamp(1, 127);
                RefTable {
                    entries: vec![(0, 0, 0); size],
                    history_len: len,
                    index_fold: RefFold::new(len),
                    tag_fold: RefFold::new(len),
                    index_salt: (i as u64).wrapping_mul(0x9e37),
                    tag_salt: (i as u64) << 7,
                    slot: 0,
                    tag: 0,
                }
            })
            .collect();
        RefTage {
            base: vec![1; size],
            base_mask: (size - 1) as u64,
            tables: tagged,
            history: 0,
        }
    }

    fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        for t in &mut self.tables {
            t.look_up(pc);
        }
        let provider = self.tables.iter().rposition(RefTable::hits);
        let predicted = match provider {
            Some(p) => {
                let t = &mut self.tables[p];
                let e = &mut t.entries[t.slot];
                let predicted = e.1 >= 0;
                e.1 = if taken {
                    (e.1 + 1).min(3)
                } else {
                    (e.1 - 1).max(-4)
                };
                if predicted == taken {
                    e.2 = (e.2 + 1).min(3);
                } else {
                    e.2 = e.2.saturating_sub(1);
                }
                predicted
            }
            None => {
                let c = &mut self.base[((pc >> 2) & self.base_mask) as usize];
                let predicted = *c >= 2;
                *c = if taken {
                    (*c + 1).min(3)
                } else {
                    c.saturating_sub(1)
                };
                predicted
            }
        };
        if predicted != taken {
            let longer = &mut self.tables[provider.map_or(0, |p| p + 1)..];
            match longer.iter_mut().find(|t| t.entries[t.slot].2 == 0) {
                Some(t) => {
                    let (slot, tag) = (t.slot, t.tag);
                    t.entries[slot] = (tag, if taken { 0 } else { -1 }, 0);
                }
                None => {
                    for t in longer {
                        let slot = t.slot;
                        t.entries[slot].2 = t.entries[slot].2.saturating_sub(1);
                    }
                }
            }
        }
        let bit = taken as u64;
        for t in &mut self.tables {
            let out = (self.history >> (t.history_len - 1)) as u64 & 1;
            t.index_fold.push(bit, out);
            t.tag_fold.push(bit, out);
        }
        self.history = (self.history << 1) | taken as u128;
        predicted
    }
}

/// A TAGE geometry of 1 to 8 tables with history lengths up to 127
/// (longer requests clamp to 127).
fn tage_geometry(rng: &mut marshal_qcheck::Rng) -> (u32, u32, u32, u32) {
    let lo = rng.range_u64(1, 60) as u32;
    (
        rng.range_u64(1, 9) as u32,
        rng.range_u64(3, 11) as u32,
        lo,
        rng.range_u64(lo as u64, 200) as u32,
    )
}

/// The mask-based TAGE predicts what the per-table transcription predicts,
/// branch by branch, and its batch pass counts the same mispredicts over
/// runs of any length.
#[test]
fn tage_matches_per_table_reference() {
    cases(64, |rng| {
        let (n, b, lo, hi) = tage_geometry(rng);
        let len = rng.range_usize(1, 4_000);
        let stream = branch_stream(rng, len);
        let mut fast = TagePredictor::new(n, b, lo, hi);
        let mut reference = RefTage::new(n, b, lo, hi);
        let lengths: Vec<u32> = reference.tables.iter().map(|t| t.history_len).collect();
        assert_eq!(fast.history_lengths(), lengths);
        let mut expected = 0;
        for (i, &(pc, taken)) in stream.iter().enumerate() {
            let predicted = reference.resolve(pc, taken);
            expected += u64::from(predicted != taken);
            assert_eq!(
                fast.resolve(pc, taken),
                predicted,
                "geometry {:?}, branch {i}",
                (n, b, lo, hi)
            );
        }
        let mut batched = Predictor::new(&BpredConfig::Tage {
            tables: n,
            table_bits: b,
            min_history: lo,
            max_history: hi,
        });
        let mut mispredicts = 0;
        let mut rest = &stream[..];
        while !rest.is_empty() {
            let (run, tail) = rest.split_at(rng.range_usize(0, rest.len() + 1));
            mispredicts += batched.mispredicts(run);
            rest = tail;
        }
        assert_eq!(mispredicts, expected, "geometry {:?}", (n, b, lo, hi));
    });
}

/// The direction predictor of a [`RefPipeline`]: TAGE as [`RefTage`], the
/// others as themselves.
enum RefPredictor {
    Tage(RefTage),
    Other(Predictor),
}

/// The timing pipeline charged one instruction at a time, with the
/// counters and cache statistics bumped per record: the charging body
/// before the batch kernel.
struct RefPipeline {
    core: CoreConfig,
    dram_latency: u64,
    predictor: RefPredictor,
    ras: ReturnAddressStack,
    icache: Cache,
    dcache: Cache,
    l2: Option<Cache>,
    remote: Option<RemoteMemory>,
    counters: PerfCounters,
}

impl RefPipeline {
    fn new(hw: &HardwareConfig) -> RefPipeline {
        let remote = match &hw.remote {
            RemoteMemConfig::None => None,
            RemoteMemConfig::SoftwarePaging(t) => {
                Some(RemoteMemory::new(RemoteMode::SoftwarePaging, *t, 4096))
            }
            RemoteMemConfig::Pfa(t) => Some(RemoteMemory::new(RemoteMode::Pfa, *t, 4096)),
        };
        let predictor = match hw.bpred {
            BpredConfig::Tage {
                tables,
                table_bits,
                min_history,
                max_history,
            } => RefPredictor::Tage(RefTage::new(tables, table_bits, min_history, max_history)),
            ref other => RefPredictor::Other(Predictor::new(other)),
        };
        RefPipeline {
            core: hw.core,
            dram_latency: hw.dram_latency,
            predictor,
            ras: ReturnAddressStack::default(),
            icache: Cache::new(hw.icache),
            dcache: Cache::new(hw.dcache),
            l2: hw.l2.map(Cache::new),
            remote,
            counters: PerfCounters::default(),
        }
    }

    fn miss_beyond_l1(&mut self, addr: u64) -> u64 {
        match &mut self.l2 {
            Some(l2) => match l2.access(addr) {
                Access::Hit => l2.config().hit_latency,
                Access::Miss => l2.config().hit_latency + self.dram_latency,
            },
            None => self.dram_latency,
        }
    }

    fn retire(&mut self, r: &Retired, is_remote: bool) {
        let mut cycles = 1u64;
        let mut kernel_extra = 0u64;
        self.counters.instructions += 1;
        if self.icache.access(r.pc) == Access::Miss {
            cycles += self.miss_beyond_l1(r.pc);
        }
        match r.kind {
            RetireKind::Alu | RetireKind::Csr | RetireKind::System => {}
            RetireKind::Mul => {
                self.counters.mul_ops += 1;
                cycles += self.core.mul_latency - 1;
            }
            RetireKind::Div => {
                self.counters.div_ops += 1;
                cycles += self.core.div_latency - 1;
            }
            RetireKind::Load { addr } | RetireKind::Store { addr } => {
                if matches!(r.kind, RetireKind::Load { .. }) {
                    self.counters.loads += 1;
                } else {
                    self.counters.stores += 1;
                }
                if is_remote {
                    if let Some(remote) = &mut self.remote {
                        let stall = remote.access(addr);
                        self.counters.remote_stall_cycles += stall;
                        if remote.mode() == RemoteMode::SoftwarePaging {
                            kernel_extra += stall;
                        } else {
                            cycles += stall;
                        }
                    }
                }
                if self.dcache.access(addr) == Access::Miss {
                    cycles += self.miss_beyond_l1(addr);
                } else {
                    cycles += self.dcache.config().hit_latency - 1;
                }
            }
            RetireKind::Branch { taken, .. } => {
                self.counters.branches += 1;
                let predicted = match &mut self.predictor {
                    RefPredictor::Tage(p) => p.resolve(r.pc, taken),
                    RefPredictor::Other(p) => p.resolve(r.pc, taken),
                };
                if predicted != taken {
                    self.counters.mispredicts += 1;
                    cycles += self.core.mispredict_penalty;
                }
            }
            RetireKind::Jump { call, .. } => {
                if call {
                    self.ras.push(r.pc + 4);
                }
            }
            RetireKind::JumpReg { target, call, ret } => {
                self.counters.indirect_jumps += 1;
                let mut predicted = false;
                if ret {
                    if self.ras.pop() == Some(target) {
                        predicted = true;
                        self.counters.ras_hits += 1;
                    }
                } else if call {
                    self.ras.push(r.pc + 4);
                }
                if !predicted {
                    cycles += self.core.jalr_penalty;
                }
            }
        }
        self.counters.user_cycles += cycles;
        self.counters.kernel_cycles += kernel_extra;
        self.counters.cycles += cycles + kernel_extra;
    }

    fn syscall(&mut self, sys: u64) {
        use marshal_isa::abi::sys as s;
        self.counters.syscalls += 1;
        let extra = match sys {
            s::WRITE => 300,
            s::READ => 250,
            s::OPEN => 1000,
            s::CLOSE => 200,
            s::EXIT => 100,
            s::ARGC | s::ARGV => 50,
            s::MMAP_REMOTE => 1500,
            s::TRACE => 100,
            _ => 400,
        };
        let cost = self.core.syscall_base_cost + extra;
        self.counters.kernel_cycles += cost;
        self.counters.cycles += cost;
    }

    fn stats(&self) -> Stats {
        Stats {
            counters: self.counters,
            icache: self.icache.stats(),
            dcache: self.dcache.stats(),
            l2: self.l2.as_ref().map(Cache::stats),
            pfa: self.remote.as_ref().map(RemoteMemory::stats),
        }
    }
}

/// Everything a node's report reads from its pipeline.
#[derive(Debug, PartialEq)]
struct Stats {
    counters: PerfCounters,
    icache: CacheStats,
    dcache: CacheStats,
    l2: Option<CacheStats>,
    pfa: Option<PfaStats>,
}

fn stats(p: &Pipeline) -> Stats {
    Stats {
        counters: *p.counters(),
        icache: p.icache_stats(),
        dcache: p.dcache_stats(),
        l2: p.l2_stats(),
        pfa: p.pfa_stats(),
    }
}

/// One event of the stream the interpreter reports.
#[derive(Debug, Clone, Copy)]
enum Event {
    Retire(Retired, bool),
    Syscall(u64),
}

/// The base of the guest's remote-memory window in [`event_stream`].
const REMOTE_BASE: u64 = 0x4000_0000;

/// A stream of every kind of event: code that runs straight through
/// I-lines and jumps between a few regions (one at pc 0, one that runs
/// across 2^56 and one above it, where pcs take the record's escape),
/// loads and stores over a small and a large working set, the remote
/// window and the operand edges 0, 2^56 - 1, 2^56 and `u64::MAX`, calls
/// and returns that hit and miss the return-address stack (at edge and
/// misaligned `jalr` targets too), branches in patterns, and syscalls.
fn event_stream(rng: &mut marshal_qcheck::Rng, len: usize) -> Vec<Event> {
    let regions = [
        0,
        0x1_0000u64,
        0x2_3f00,
        0x80_0000,
        (1 << 56) - 64,
        1 << 60,
        0x7f00_0000_0000,
    ];
    let mut pc = regions[1];
    let mut calls = Vec::new();
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let addr = match rng.below(5) {
            0 => rng.range_u64(0x10_0000, 0x10_0000 + 2048),
            1 => rng.range_u64(0x20_0000, 0x20_0000 + (1 << 20)),
            2 => REMOTE_BASE + rng.range_u64(0, 16 * 4096),
            3 => *rng.pick(&[0, (1 << 56) - 1, 1 << 56, u64::MAX]),
            _ => rng.range_u64(0, 1 << 40),
        };
        let remote = (REMOTE_BASE..REMOTE_BASE + (16 << 12)).contains(&addr) || rng.below(16) == 0;
        let mut next = pc.wrapping_add(4);
        let kind = match rng.below(20) {
            0..=4 => RetireKind::Alu,
            5 => RetireKind::Mul,
            6 => RetireKind::Div,
            7 => RetireKind::Csr,
            8 => RetireKind::System,
            9..=10 => RetireKind::Load { addr },
            11 => RetireKind::Store { addr },
            12..=14 => {
                let taken = if rng.below(8) == 0 {
                    rng.bool()
                } else {
                    i % 7 != 6
                };
                RetireKind::Branch {
                    taken,
                    target: pc.wrapping_sub(64),
                }
            }
            15 => {
                let call = rng.bool();
                if call {
                    calls.push(pc.wrapping_add(4));
                }
                next = *rng.pick(&regions) + rng.range_u64(0, 64) * 4;
                RetireKind::Jump { target: next, call }
            }
            16 => {
                let call = rng.bool();
                let ret = !call && rng.below(4) != 0;
                let target = match (ret, calls.pop()) {
                    (true, Some(back)) if rng.below(8) != 0 => back,
                    (_, back) => {
                        calls.extend(back);
                        *rng.pick(&[0, 1 << 56, u64::MAX, 0x1_0001, pc.wrapping_add(6)])
                    }
                };
                if call {
                    calls.push(pc.wrapping_add(4));
                }
                next = *rng.pick(&regions) + rng.range_u64(0, 64) * 4;
                RetireKind::JumpReg { target, call, ret }
            }
            _ => {
                use marshal_isa::abi::sys;
                let other = rng.any_u64();
                let number = *rng.pick(&[
                    sys::WRITE,
                    sys::READ,
                    sys::OPEN,
                    sys::CLOSE,
                    sys::EXIT,
                    sys::ARGC,
                    sys::ARGV,
                    sys::MMAP_REMOTE,
                    sys::TRACE,
                    other,
                ]);
                out.push(Event::Syscall(number));
                continue;
            }
        };
        out.push(Event::Retire(
            Retired {
                pc,
                next_pc: next,
                kind,
            },
            remote,
        ));
        pc = next;
    }
    out
}

/// A hardware configuration: a core with or without an L2, a predictor
/// of any kind, and no remote memory, software paging or the PFA.
fn hardware(rng: &mut marshal_qcheck::Rng) -> HardwareConfig {
    let base = match rng.below(3) {
        0 => HardwareConfig::rocket(),
        1 => HardwareConfig::boom_gshare(),
        _ => HardwareConfig::boom_tage(),
    };
    let (tables, table_bits, min_history, max_history) = tage_geometry(rng);
    let bpred = match rng.below(6) {
        0 => BpredConfig::AlwaysTaken,
        1 => BpredConfig::NeverTaken,
        2 => BpredConfig::Bimodal { table_bits: 6 },
        3 => BpredConfig::default_gshare(),
        4 => BpredConfig::default_tage(),
        _ => BpredConfig::Tage {
            tables,
            table_bits,
            min_history,
            max_history,
        },
    };
    let t = RemoteTimings::default();
    let remote = match rng.below(3) {
        0 => RemoteMemConfig::None,
        1 => RemoteMemConfig::SoftwarePaging(t),
        _ => RemoteMemConfig::Pfa(t),
    };
    let mut hw = base.with_bpred(bpred).with_remote(remote);
    if rng.below(4) == 0 {
        // Small L1s, so the stream's working sets miss and evict.
        hw.icache.sets = 4;
        hw.dcache.sets = 4;
    }
    hw
}

/// The batch kernel charges exactly what the per-instruction body
/// charges: on every counter and every cache, L2 and PFA statistic, for
/// batches split anywhere between events, with `cycles()` read between
/// batches, and for the same stream fed one event at a time. The batches
/// are encoded as the interpreter encodes them ([`Record::straight`] where
/// it applies, else [`Record::encode`]); one at a time, every instruction
/// goes through [`Record::encode`]. So each kind, flag, escape and operand
/// edge of the record is read back by the one reader, the kernel.
#[test]
fn batch_kernel_matches_per_instruction_reference() {
    cases(96, |rng| {
        let hw = hardware(rng);
        let len = rng.range_usize(1, 6_000);
        let events = event_stream(rng, len);
        let mut reference = RefPipeline::new(&hw);
        let mut batched = Pipeline::new(&hw);
        let mut single = Pipeline::new(&hw);
        let mut records = Vec::new();
        let mut pending = 0;
        for (i, event) in events.iter().enumerate() {
            match *event {
                Event::Retire(r, remote) => {
                    reference.retire(&r, remote);
                    single.retire(&r, remote);
                    match Record::straight(&r, remote) {
                        Some(rec) => records.push(rec),
                        None => Record::encode(&r, remote, |rec| records.push(rec)),
                    }
                }
                Event::Syscall(sys) => {
                    reference.syscall(sys);
                    single.syscall(sys);
                    records.push(Record::syscall(sys));
                }
            }
            pending += 1;
            let last = i + 1 == events.len();
            if last || rng.below(64) == 0 {
                batched.charge(&records);
                records.clear();
                assert_eq!(
                    batched.cycles(),
                    Some(reference.counters.cycles),
                    "{hw:?}, cycles after event {i} ({pending} in the batch)"
                );
                assert_eq!(stats(&batched), reference.stats(), "{hw:?}, event {i}");
                pending = 0;
            }
        }
        assert_eq!(stats(&single), reference.stats(), "{hw:?}, one at a time");
    });
}
