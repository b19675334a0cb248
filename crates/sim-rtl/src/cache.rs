//! Set-associative caches with LRU replacement.

use crate::config::CacheConfig;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line fetched from the next level.
    Miss,
}

/// Per-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One way of a set. `lru` is the access tick of the way's last use; 0
/// marks an invalid way (ticks start at 1).
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    lru: u64,
}

/// A set-associative cache model (tags only — data lives in the functional
/// memory).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Every set's ways, set after set.
    ways: Vec<Way>,
    assoc: usize,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    /// The line of the last access. It is the most recently used way of
    /// its set, so repeating it hits without changing the LRU order.
    last_line: Option<u64>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if sets or line size are not powers of two, or ways is zero.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0, "cache needs at least one way");
        Cache {
            config,
            ways: vec![Way::default(); config.sets as usize * config.ways as usize],
            assoc: config.ways as usize,
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: config.sets.trailing_zeros(),
            set_mask: config.sets as u64 - 1,
            last_line: None,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses `addr`, updating LRU state and statistics.
    pub fn access(&mut self, addr: u64) -> Access {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        if self.last_line == Some(line) {
            return Access::Hit;
        }
        self.last_line = Some(line);
        self.tick += 1;
        let first = (line & self.set_mask) as usize * self.assoc;
        let tag = line >> self.set_bits;
        let set = &mut self.ways[first..first + self.assoc];
        if let Some(way) = set.iter_mut().find(|w| w.lru != 0 && w.tag == tag) {
            way.lru = self.tick;
            return Access::Hit;
        }
        self.stats.misses += 1;
        // Fill the first invalid way, else the least-recently-used one.
        let victim = set.iter_mut().min_by_key(|w| w.lru).expect("ways > 0");
        *victim = Way {
            tag,
            lru: self.tick,
        };
        Access::Miss
    }

    /// Invalidates all lines (keeps statistics).
    pub fn flush(&mut self) {
        self.ways.fill(Way::default());
        self.last_line = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert_eq!(c.access(0x100), Access::Miss);
        assert_eq!(c.access(0x100), Access::Hit);
        assert_eq!(c.access(0x13f), Access::Hit); // same line
        assert_eq!(c.access(0x140), Access::Miss); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut c = small();
        // Three lines mapping to the same set (sets=4, line=64 → set stride 256).
        let a = 0x0000;
        let b = 0x0400;
        let d = 0x0800;
        assert_eq!(c.access(a), Access::Miss);
        assert_eq!(c.access(b), Access::Miss);
        assert_eq!(c.access(a), Access::Hit); // a is now MRU
        assert_eq!(c.access(d), Access::Miss); // evicts b
        assert_eq!(c.access(a), Access::Hit);
        assert_eq!(c.access(b), Access::Miss); // b was evicted
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        let mut c = Cache::new(CacheConfig::l1_16k());
        let lines = c.config().capacity() / c.config().line_bytes as u64;
        for round in 0..3 {
            for i in 0..lines / 2 {
                let access = c.access(i * 64);
                if round > 0 {
                    assert_eq!(access, Access::Hit, "line {i} round {round}");
                }
            }
        }
    }

    #[test]
    fn streaming_misses() {
        let mut c = Cache::new(CacheConfig::l1_16k());
        let lines = 4 * c.config().capacity() / 64;
        for i in 0..lines {
            c.access(i * 64);
        }
        // Pure streaming: every access a distinct line → all misses.
        assert_eq!(c.stats().misses, c.stats().accesses);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.access(0);
        c.flush();
        assert_eq!(c.access(0), Access::Miss);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_bytes: 64,
            hit_latency: 1,
        });
    }
}
