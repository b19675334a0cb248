//! Property-based tests on the micro-architectural models: cache
//! invariants, predictor sanity, and remote-memory accounting, plus the
//! fast models checked against naive references (TAGE with from-scratch
//! history folds, LRU caches as recency lists).
//!
//! Uses the in-repo `marshal-qcheck` harness (offline build environment);
//! every case derives from a fixed seed and replays deterministically.

use marshal_qcheck::cases;
use marshal_sim_rtl::bpred::{
    build_predictor, BimodalPredictor, DirectionPredictor, GsharePredictor, TagePredictor,
};
use marshal_sim_rtl::cache::{Access, Cache};
use marshal_sim_rtl::config::{BpredConfig, CacheConfig};
use marshal_sim_rtl::pfa::{RemoteMemory, RemoteMode, RemoteTimings};

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
                let mut p = build_predictor(&cfg);
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
        let mut predictors: Vec<Box<dyn DirectionPredictor>> = vec![
            Box::new(BimodalPredictor::new(10)),
            Box::new(GsharePredictor::new(12, 12)),
            Box::new(TagePredictor::new(4, 10, 4, 64)),
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
