//! Timeout/backoff policy for remote steal probes.
//!
//! On a reliable interconnect a steal probe always answers, so the
//! thief can block on the reply. Under loss or place failure the reply
//! may never come: the thief waits [`RetryPolicy::timeout_ns`], then
//! either retries the same victim after an exponential backoff with
//! jitter (while its retry budget lasts) or falls through to the next
//! victim in the steal order. The same policy is shared by the
//! discrete-event simulator (virtual time) and the socket cluster
//! (wall-clock time, via `distws_cluster::clock`) so both degrade the
//! same way.

use crate::protocol::STEAL_RETRY_BUDGET;
use distws_core::SplitMix64;

/// Timeout, backoff and retry-budget parameters for one remote probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long a thief waits for a steal reply before declaring the
    /// probe lost. Should comfortably exceed one network round trip.
    pub timeout_ns: u64,
    /// Backoff before retry `n` is `base << (n-1)`, capped at
    /// [`Self::backoff_max_ns`].
    pub backoff_base_ns: u64,
    /// Upper bound on the exponential backoff.
    pub backoff_max_ns: u64,
    /// Uniform random extra `[0, jitter_ns]` added to every backoff so
    /// synchronized thieves don't re-collide.
    pub jitter_ns: u64,
    /// Retries against the *same* victim after the first timeout
    /// before giving up and moving to the next victim. 0 disables
    /// retrying (timeout once, move on).
    pub budget: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Tuned to the default CostModel: one-way latency 5 µs, so a
        // probe round trip is ~10 µs; time out at 3× that.
        RetryPolicy {
            timeout_ns: 30_000,
            backoff_base_ns: 10_000,
            backoff_max_ns: 160_000,
            jitter_ns: 5_000,
            budget: STEAL_RETRY_BUDGET,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay before retry `attempt` (1-based): exponential in
    /// the attempt number, capped, plus uniform jitter drawn from
    /// `rng`. Draws from `rng` only when `jitter_ns > 0`.
    pub fn backoff_ns(&self, attempt: u32, rng: &mut SplitMix64) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        let exp = self
            .backoff_base_ns
            .saturating_mul(1u64 << shift)
            .min(self.backoff_max_ns);
        let jitter = if self.jitter_ns > 0 {
            rng.below(self.jitter_ns + 1)
        } else {
            0
        };
        exp + jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy {
            jitter_ns: 0,
            ..Default::default()
        };
        let mut rng = SplitMix64::new(1);
        assert_eq!(p.backoff_ns(1, &mut rng), 10_000);
        assert_eq!(p.backoff_ns(2, &mut rng), 20_000);
        assert_eq!(p.backoff_ns(3, &mut rng), 40_000);
        assert_eq!(p.backoff_ns(10, &mut rng), 160_000, "capped");
        assert_eq!(p.backoff_ns(64, &mut rng), 160_000, "shift saturates");
    }

    #[test]
    fn jitter_is_bounded_and_seeded() {
        let p = RetryPolicy::default();
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for attempt in 1..=6u32 {
            let x = p.backoff_ns(attempt, &mut a);
            let y = p.backoff_ns(attempt, &mut b);
            assert_eq!(x, y, "same seed, same backoff");
            let exp = (p.backoff_base_ns << (attempt - 1)).min(p.backoff_max_ns);
            assert!((exp..=exp + p.jitter_ns).contains(&x));
        }
    }

    #[test]
    fn zero_jitter_draws_nothing() {
        let p = RetryPolicy {
            jitter_ns: 0,
            ..Default::default()
        };
        let mut rng = SplitMix64::new(3);
        let before = rng.clone();
        let _ = p.backoff_ns(2, &mut rng);
        assert_eq!(rng, before, "no random draw without jitter");
    }

    #[test]
    fn huge_base_cannot_overflow_past_the_cap() {
        // A pathological base would overflow `base << shift` long
        // before the cap applied; saturating_mul must clamp instead.
        let p = RetryPolicy {
            backoff_base_ns: u64::MAX / 2,
            backoff_max_ns: u64::MAX - 1,
            jitter_ns: 1,
            ..Default::default()
        };
        let mut rng = SplitMix64::new(9);
        for attempt in [1, 2, 33, 100, u32::MAX] {
            let b = p.backoff_ns(attempt, &mut rng);
            // A wrapping multiply would collapse the delay to ~0;
            // saturation keeps it at least the base, and from the
            // first doubling onward pinned at the cap.
            assert!(b >= p.backoff_base_ns, "attempt {attempt} wrapped: {b}");
            if attempt >= 2 {
                assert!(
                    b >= p.backoff_max_ns,
                    "attempt {attempt} under-backed-off: {b}"
                );
            }
        }
    }

    #[test]
    fn max_backoff_clamp_is_exact_at_the_boundary() {
        // The cap applies the moment the doubling crosses it — not one
        // attempt later.
        let p = RetryPolicy {
            backoff_base_ns: 10_000,
            backoff_max_ns: 35_000, // between attempt 2 (20k) and 3 (40k)
            jitter_ns: 0,
            ..Default::default()
        };
        let mut rng = SplitMix64::new(5);
        assert_eq!(p.backoff_ns(2, &mut rng), 20_000, "below the cap: exact");
        assert_eq!(p.backoff_ns(3, &mut rng), 35_000, "first capped attempt");
        assert_eq!(p.backoff_ns(4, &mut rng), 35_000, "stays at the cap");
    }

    #[test]
    fn jitter_streams_differ_across_seeds_but_replay_within_one() {
        let p = RetryPolicy::default();
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = SplitMix64::new(seed);
            (1..=8u32).map(|a| p.backoff_ns(a, &mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42), "fixed seed replays exactly");
        assert_ne!(
            draw(42),
            draw(43),
            "different seeds must desynchronize thieves"
        );
    }

    #[test]
    fn budget_zero_means_no_retry_budget_consumed() {
        // budget counts retries *after* the first timeout; a zero
        // budget still permits the initial attempt, so the backoff for
        // attempt 1 must be well-defined (the engine asks for it when
        // deciding whether to re-queue).
        let p = RetryPolicy {
            budget: 0,
            jitter_ns: 0,
            ..Default::default()
        };
        let mut rng = SplitMix64::new(11);
        assert_eq!(p.backoff_ns(1, &mut rng), p.backoff_base_ns);
    }
}
