//! A set of workers the engine can search by place in time that does
//! not grow with the cluster.
//!
//! Two levels: one bit per global worker, and above it a population
//! count per place plus one bit per place that is set while the count
//! is non-zero. "Is anyone in place `p`?" is a load, "who is first in
//! `p`?" scans the one or two words `p` covers, and "which places after
//! `p` hold anyone?" walks set bits of the summary — `places / 64` words
//! at worst, one when the answer is near.

use distws_core::{ClusterConfig, GlobalWorkerId, PlaceId};

pub(crate) struct WorkerIndex {
    workers_per_place: u32,
    /// Bit `w`: global worker `w` is a member.
    members: Vec<u64>,
    /// Members per place.
    population: Vec<u32>,
    /// Bit `p`: `population[p] > 0`.
    occupied: Vec<u64>,
}

/// Set bits of `bits` in `[start, end)`, ascending.
fn ones_in(bits: &[u64], start: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
    let words = if start < end {
        start / 64..(end - 1) / 64 + 1
    } else {
        0..0
    };
    words.flat_map(move |wd| {
        let lo = wd * 64;
        let mut m = bits[wd];
        if start > lo {
            m &= !0u64 << (start - lo);
        }
        if end < lo + 64 {
            m &= (1u64 << (end - lo)) - 1;
        }
        std::iter::from_fn(move || {
            (m != 0).then(|| {
                let i = lo + m.trailing_zeros() as usize;
                m &= m - 1;
                i
            })
        })
    })
}

impl WorkerIndex {
    /// The empty set over `cluster`'s workers.
    pub(crate) fn empty(cluster: &ClusterConfig) -> Self {
        let places = cluster.places as usize;
        WorkerIndex {
            workers_per_place: cluster.workers_per_place,
            members: vec![0; (cluster.total_workers() as usize).div_ceil(64)],
            population: vec![0; places],
            occupied: vec![0; places.div_ceil(64)],
        }
    }

    /// Every worker of `cluster`.
    pub(crate) fn full(cluster: &ClusterConfig) -> Self {
        let mut all = Self::empty(cluster);
        for w in 0..cluster.total_workers() {
            all.set(GlobalWorkerId(w), true);
        }
        all
    }

    /// Add (`on`) or remove worker `w`.
    #[inline]
    pub(crate) fn set(&mut self, w: GlobalWorkerId, on: bool) {
        let i = w.index();
        let mask = 1u64 << (i % 64);
        let word = &mut self.members[i / 64];
        if (*word & mask != 0) == on {
            return;
        }
        *word ^= mask;
        let p = (w.0 / self.workers_per_place) as usize;
        let place = 1u64 << (p % 64);
        if on {
            self.population[p] += 1;
            self.occupied[p / 64] |= place;
        } else {
            self.population[p] -= 1;
            if self.population[p] == 0 {
                self.occupied[p / 64] &= !place;
            }
        }
    }

    /// Members in `place`.
    #[cfg(test)]
    fn population(&self, place: PlaceId) -> u32 {
        self.population[place.index()]
    }

    /// Members in `place`, ascending.
    pub(crate) fn iter_in(&self, place: PlaceId) -> impl Iterator<Item = GlobalWorkerId> + '_ {
        let wpp = self.workers_per_place as usize;
        let start = place.index() * wpp;
        // An empty place costs no word scan.
        let end = if self.population[place.index()] == 0 {
            start
        } else {
            start + wpp
        };
        ones_in(&self.members, start, end).map(|w| GlobalWorkerId(w as u32))
    }

    /// The lowest-numbered member in `place`.
    pub(crate) fn first_in(&self, place: PlaceId) -> Option<GlobalWorkerId> {
        self.iter_in(place).next()
    }

    /// Places other than `place` that hold a member, in ring order
    /// `[place + 1, n) ++ [0, place)`.
    pub(crate) fn places_after(&self, place: PlaceId) -> impl Iterator<Item = PlaceId> + '_ {
        let at = place.index();
        ones_in(&self.occupied, at + 1, self.population.len())
            .chain(ones_in(&self.occupied, 0, at))
            .map(|p| PlaceId(p as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distws_core::rng::SplitMix64;

    /// The index against a `Vec<bool>` searched linearly, after every
    /// step of a random `set` stream.
    fn agrees_with_linear_scans(places: u32, wpp: u32, seed: u64) {
        let cluster = ClusterConfig::new(places, wpp);
        let n = cluster.total_workers() as usize;
        let wpp = wpp as usize;
        let mut rng = SplitMix64::new(seed);
        // Start from whichever of the two constructors the seed picks.
        let full = seed % 2 == 1;
        let mut index = if full {
            WorkerIndex::full(&cluster)
        } else {
            WorkerIndex::empty(&cluster)
        };
        let mut model = vec![full; n];
        let in_place = |model: &[bool], p: usize| -> Vec<GlobalWorkerId> {
            (p * wpp..(p + 1) * wpp)
                .filter(|&w| model[w])
                .map(|w| GlobalWorkerId(w as u32))
                .collect()
        };
        for step in 0..(6 * n).clamp(64, 1_500) {
            // Mostly flips of single workers; now and then drain or
            // fill a whole place so the summary bit goes both ways.
            let w = rng.below(n as u64) as usize;
            match rng.below(16) {
                0 => (w / wpp * wpp..(w / wpp + 1) * wpp).for_each(|w| {
                    model[w] = false;
                    index.set(GlobalWorkerId(w as u32), false);
                }),
                1 => (w / wpp * wpp..(w / wpp + 1) * wpp).for_each(|w| {
                    model[w] = true;
                    index.set(GlobalWorkerId(w as u32), true);
                }),
                _ => {
                    let on = rng.below(2) == 1;
                    model[w] = on;
                    index.set(GlobalWorkerId(w as u32), on);
                }
            }
            let label = format!("{places}x{wpp} seed {seed} step {step}");
            let mut holds = Vec::new();
            for p in 0..places as usize {
                let want = in_place(&model, p);
                let place = PlaceId(p as u32);
                assert_eq!(index.population(place) as usize, want.len(), "{label}");
                assert_eq!(index.first_in(place), want.first().copied(), "{label}");
                assert_eq!(index.iter_in(place).collect::<Vec<_>>(), want, "{label}");
                holds.push(!want.is_empty());
            }
            // From both ends of the ring (no wrap, all wrap) and from
            // somewhere in between.
            for p in [0, places - 1, rng.below(places as u64) as u32] {
                let want: Vec<PlaceId> = (p + 1..places)
                    .chain(0..p)
                    .filter(|&q| holds[q as usize])
                    .map(PlaceId)
                    .collect();
                assert_eq!(
                    index.places_after(PlaceId(p)).collect::<Vec<_>>(),
                    want,
                    "{label} after {p}"
                );
            }
        }
    }

    #[test]
    fn index_agrees_with_linear_scans_on_ragged_shapes() {
        // 5×24 and 3×5: place ranges straddle words and do not divide
        // 64; 128×16: four places a word, two summary words; 130×1: the
        // summary itself straddles; 1×1: nothing to wrap around to.
        for (places, wpp) in [(5, 24), (3, 5), (128, 16), (1, 1), (130, 1)] {
            for seed in 0..4 {
                agrees_with_linear_scans(places, wpp, seed);
            }
        }
    }
}
