//! # distws-cachesim
//!
//! A set-associative LRU data-cache model.
//!
//! Table II of the paper reports L1d miss rates measured with hardware
//! counters; the scheduler-dependent differences come from tasks losing
//! cache warmth when they (or random neighbours) migrate between nodes.
//! We reproduce that mechanism by giving each simulated worker its own
//! L1 model and replaying every task's data accesses against the cache
//! of the worker that actually executed it: a task stolen to a remote
//! place naturally starts cold there, and a victim whose tasks are
//! stolen at random (DistWS-NS) loses reuse it would otherwise have had.
//!
//! Addresses are formed from `(ObjectId, byte offset)`; distinct
//! objects never alias.

#![forbid(unsafe_code)]

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache line size in bytes (power of two).
    pub line_bytes: u64,
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// 32 KiB, 8-way, 64-byte lines — the Opteron-era L1d of the
    /// paper's testbed (and most x86 cores since).
    pub fn l1d() -> Self {
        CacheConfig {
            line_bytes: 64,
            sets: 64,
            ways: 8,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.line_bytes * self.sets as u64 * self.ways as u64
    }
}

/// Outcome counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Line-granular accesses.
    pub accesses: u64,
    /// Misses among them.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in percent (0 if no accesses).
    pub fn miss_rate_pct(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    /// Monotone LRU stamp: larger = more recently used.
    stamp: u64,
}

/// One set-associative LRU cache instance (one per simulated worker).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two());
        assert!(cfg.sets.is_power_of_two());
        assert!(cfg.ways > 0);
        Cache {
            cfg,
            lines: vec![Line::default(); (cfg.sets * cfg.ways) as usize],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Touch one line containing `addr`; returns `true` on hit.
    pub fn touch_line(&mut self, addr: u64) -> bool {
        let line_addr = addr / self.cfg.line_bytes;
        let set = (line_addr & (self.cfg.sets as u64 - 1)) as usize;
        let tag = line_addr >> self.cfg.sets.trailing_zeros();
        self.clock += 1;
        self.stats.accesses += 1;

        let base = set * self.cfg.ways as usize;
        let ways = &mut self.lines[base..base + self.cfg.ways as usize];
        // Hit?
        for l in ways.iter_mut() {
            if l.valid && l.tag == tag {
                l.stamp = self.clock;
                return true;
            }
        }
        // Miss: fill LRU victim.
        self.stats.misses += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.stamp } else { 0 })
            .expect("ways > 0");
        victim.valid = true;
        victim.tag = tag;
        victim.stamp = self.clock;
        false
    }

    /// Replay a contiguous access of `bytes` at `(obj, offset)`,
    /// touching every covered line. Returns the number of misses.
    ///
    /// Long sweeps take a closed-form path that is bit-exact with the
    /// line-by-line replay (same stats, same final line/stamp state —
    /// property-tested below) but costs O(sets × ways) instead of
    /// O(lines): the engine replays every task's footprint, so
    /// megabyte accesses dominated the simulator's dispatch phase.
    pub fn access(&mut self, obj: u64, offset: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        // Object id forms the high address bits; objects never alias.
        let base = (obj << 40).wrapping_add(offset);
        let first = base / self.cfg.line_bytes;
        let last = (base + bytes - 1) / self.cfg.line_bytes;
        let lines = last - first + 1;
        if lines >= 4 * self.cfg.sets as u64 * self.cfg.ways as u64 {
            return self.sweep_fast(first, lines);
        }
        let mut misses = 0;
        for line in first..=last {
            if !self.touch_line(line * self.cfg.line_bytes) {
                misses += 1;
            }
        }
        misses
    }

    /// Closed-form contiguous sweep over line addresses
    /// `first .. first + lines`, exactly equivalent to calling
    /// [`Self::touch_line`] once per line in ascending order.
    ///
    /// Within one sweep every touched line is distinct, so a hit can
    /// only match a line resident *before* the sweep, and pre-sweep
    /// stamps are all smaller than any stamp the sweep assigns. Per
    /// set that means the first `ways` touches each consume exactly
    /// one pre-sweep way (a hit refreshes it, a miss evicts the LRU /
    /// first-invalid one) — simulated verbatim — after which the set
    /// holds only sweep lines and the remaining touches are guaranteed
    /// misses cycling through the ways in their fill order, which is
    /// computed arithmetically.
    fn sweep_fast(&mut self, first: u64, lines: u64) -> u64 {
        let sets = self.cfg.sets as u64;
        let ways = self.cfg.ways as usize;
        let set_shift = self.cfg.sets.trailing_zeros();
        let clock0 = self.clock;
        let mut misses = 0u64;
        // Per-set scratch: the slot filled/refreshed by phase-1 touch q.
        let mut slot_order = [0usize; 64];
        let mut order_buf: Vec<usize> = Vec::new();
        let order: &mut [usize] = if ways <= slot_order.len() {
            &mut slot_order[..ways]
        } else {
            order_buf.resize(ways, 0);
            &mut order_buf[..]
        };

        for s in 0..sets {
            // Sweep offset of this set's first touch.
            let j0 = (s + sets - (first % sets)) % sets;
            if j0 >= lines {
                continue;
            }
            let k = (lines - j0).div_ceil(sets); // touches to this set
            let base = (s as usize) * ways;
            let set_lines = &mut self.lines[base..base + ways];

            // Phase 1: the first min(k, ways) touches, replayed exactly.
            let p = (k as usize).min(ways);
            for (q, slot) in order.iter_mut().enumerate().take(p) {
                let line_addr = first + j0 + q as u64 * sets;
                let tag = line_addr >> set_shift;
                let clock = clock0 + j0 + q as u64 * sets + 1;
                let hit = set_lines.iter().position(|l| l.valid && l.tag == tag);
                if let Some(i) = hit {
                    set_lines[i].stamp = clock;
                }
                *slot = match hit {
                    Some(i) => i,
                    None => {
                        misses += 1;
                        let (i, _) = set_lines
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, l)| if l.valid { l.stamp } else { 0 })
                            .expect("ways > 0");
                        set_lines[i] = Line {
                            tag,
                            valid: true,
                            stamp: clock,
                        };
                        i
                    }
                };
            }

            // Phase 2: guaranteed misses cycling through the ways in
            // phase-1 fill order; only each slot's last touch survives.
            if k as usize > ways {
                let m = k - ways as u64;
                misses += m;
                for (x, &slot) in order.iter().enumerate() {
                    let x = x as u64;
                    if x >= m {
                        break;
                    }
                    let r = x + (m - 1 - x) / ways as u64 * ways as u64;
                    let q = ways as u64 + r;
                    let line_addr = first + j0 + q * sets;
                    set_lines[slot] = Line {
                        tag: line_addr >> set_shift,
                        valid: true,
                        stamp: clock0 + j0 + q * sets + 1,
                    };
                }
            }
        }
        self.clock = clock0 + lines;
        self.stats.accesses += lines;
        self.stats.misses += misses;
        misses
    }

    /// Invalidate everything (e.g. to model a context wipe).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_access_hits() {
        let mut c = Cache::new(CacheConfig::l1d());
        assert_eq!(c.access(1, 0, 64), 1); // cold miss
        assert_eq!(c.access(1, 0, 64), 0); // warm hit
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn spanning_access_touches_every_line() {
        let mut c = Cache::new(CacheConfig::l1d());
        // 300 bytes starting at offset 10 crosses ceil((10+300)/64)=5 lines.
        assert_eq!(c.access(2, 10, 300), 5);
        assert_eq!(c.stats().accesses, 5);
    }

    #[test]
    fn distinct_objects_do_not_alias() {
        let mut c = Cache::new(CacheConfig::l1d());
        c.access(1, 0, 64);
        assert_eq!(c.access(2, 0, 64), 1, "object 2 must miss cold");
        assert_eq!(c.access(1, 0, 64), 0, "object 1 must still be warm");
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cfg = CacheConfig::l1d();
        let mut c = Cache::new(cfg);
        let big = cfg.capacity() * 4;
        // Two sequential sweeps over 4× capacity: second sweep must
        // still miss everywhere (LRU evicted the head long ago).
        let m1 = c.access(7, 0, big);
        let m2 = c.access(7, 0, big);
        assert_eq!(m1, big / cfg.line_bytes);
        assert_eq!(m2, big / cfg.line_bytes);
    }

    #[test]
    fn small_working_set_fits() {
        let cfg = CacheConfig::l1d();
        let mut c = Cache::new(cfg);
        let small = cfg.capacity() / 4;
        c.access(3, 0, small);
        assert_eq!(
            c.access(3, 0, small),
            0,
            "quarter-capacity set must be fully resident"
        );
    }

    #[test]
    fn flush_forces_cold_misses() {
        let mut c = Cache::new(CacheConfig::l1d());
        c.access(1, 0, 512);
        c.flush();
        assert_eq!(c.access(1, 0, 512), 8);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Tiny direct-mapped-ish cache: 1 set, 2 ways, 64B lines.
        let mut c = Cache::new(CacheConfig {
            line_bytes: 64,
            sets: 1,
            ways: 2,
        });
        c.access(1, 0, 1); // A miss
        c.access(2, 0, 1); // B miss
        c.access(1, 0, 1); // A hit (B is now LRU)
        assert_eq!(c.access(3, 0, 1), 1); // C evicts B
        assert_eq!(c.access(1, 0, 1), 0); // A survives
        assert_eq!(c.access(2, 0, 1), 1); // B gone
    }

    #[test]
    fn zero_byte_access_is_noop() {
        let mut c = Cache::new(CacheConfig::l1d());
        assert_eq!(c.access(1, 0, 0), 0);
        assert_eq!(c.stats().accesses, 0);
    }

    /// Line-by-line reference replay of `access`, bypassing the
    /// closed-form sweep path.
    fn access_ref(c: &mut Cache, obj: u64, offset: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let base = (obj << 40).wrapping_add(offset);
        let first = base / c.cfg.line_bytes;
        let last = (base + bytes - 1) / c.cfg.line_bytes;
        let mut misses = 0;
        for line in first..=last {
            if !c.touch_line(line * c.cfg.line_bytes) {
                misses += 1;
            }
        }
        misses
    }

    /// The closed-form sweep must be bit-exact with the line-by-line
    /// replay: same miss counts, same counters, same final line/stamp
    /// state — over random mixes of short and long accesses on several
    /// geometries.
    #[test]
    fn fast_sweep_is_bit_exact_with_reference() {
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for cfg in [
            CacheConfig::l1d(),
            CacheConfig {
                line_bytes: 64,
                sets: 8,
                ways: 2,
            },
            CacheConfig {
                line_bytes: 32,
                sets: 16,
                ways: 4,
            },
        ] {
            let mut fast = Cache::new(cfg);
            let mut refc = Cache::new(cfg);
            for i in 0..200 {
                let obj = next() % 3;
                let offset = next() % (cfg.capacity() * 2);
                // Mix tiny touches with sweeps far beyond capacity so
                // both the slow and the closed-form path are exercised,
                // interleaved, against warm and cold state.
                let bytes = match i % 4 {
                    0 => next() % 256,
                    1 => cfg.capacity() / 2 + next() % cfg.capacity(),
                    _ => 4 * cfg.capacity() + next() % (8 * cfg.capacity()),
                };
                let mf = fast.access(obj, offset, bytes);
                let mr = access_ref(&mut refc, obj, offset, bytes);
                assert_eq!(mf, mr, "miss count diverged (cfg {cfg:?}, step {i})");
                assert_eq!(fast.stats, refc.stats, "stats diverged at step {i}");
                assert_eq!(fast.clock, refc.clock, "clock diverged at step {i}");
                assert_eq!(fast.lines, refc.lines, "line state diverged at step {i}");
            }
        }
    }
}
