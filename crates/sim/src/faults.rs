//! Place-level faults and the chaos fault-spec grammar.
//!
//! [`FaultConfig`] is the engine-facing description of everything that
//! can go wrong in a run: a network [`FaultPlan`] (drops, duplication,
//! jitter, spikes, partitions), fail-stop place kills with optional
//! restarts, straggler (slow-place) multipliers, and the
//! timeout/backoff [`RetryPolicy`] thieves use against it. The engine
//! has one code path for all of it: under an empty config (the
//! default), or one whose faults never fire, every message is
//! delivered and every place alive, so no timeout, lease or recovery
//! is reached and the run is byte-identical to a fault-free one.
//!
//! [`FaultSpec`] is the parsed form of the `--faults` command-line
//! grammar (see `docs/faults.md`). Times may be given as absolute
//! durations (`40us`) or as a percentage of the fault-free makespan
//! (`40%`), which is resolved against a baseline run; probabilistic
//! intensities scale with the chaos sweep level.

use distws_core::PlaceId;
use distws_netsim::{FaultPlan, LinkFault, Partition};
use distws_sched::RetryPolicy;

/// Engine-facing fault description for one run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Network faults, applied inside every cross-place transmit.
    pub net: FaultPlan,
    /// Fail-stop kills: `(place, virtual time)`. Place 0 must not be
    /// killed (it hosts the root activity and the recovery fallback).
    pub kills: Vec<(PlaceId, u64)>,
    /// Hard (SIGKILL-style) kills: the place dies silently, so its
    /// tasks are recovered only after silence detection *plus* the
    /// lease grace (`detect_ns + lease_timeout_ns`) instead of the
    /// EOF-announced `detect_ns` of a graceful kill. Place 0 must not
    /// be killed.
    pub hard_kills: Vec<(PlaceId, u64)>,
    /// Restarts of previously killed places: `(place, virtual time)`.
    pub restarts: Vec<(PlaceId, u64)>,
    /// Straggler multipliers: `(place, factor ≥ 1.0)` applied to every
    /// task duration executed at that place.
    pub slow: Vec<(PlaceId, f64)>,
    /// Timeout/backoff policy for remote steal probes.
    pub retry: RetryPolicy,
    /// Delay between a failure and its detection — recovered tasks
    /// re-arrive this long after the kill.
    pub detect_ns: u64,
    /// How long a victim retains ownership of migrated tasks before
    /// reclaiming them when the migration payload is lost in flight.
    pub lease_timeout_ns: u64,
    /// Seed of the fault random streams (network drop/dup/jitter and
    /// backoff jitter). Independent of the scheduling seed.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            net: FaultPlan::default(),
            kills: Vec::new(),
            hard_kills: Vec::new(),
            restarts: Vec::new(),
            slow: Vec::new(),
            retry: RetryPolicy::default(),
            detect_ns: 50_000,
            lease_timeout_ns: 100_000,
            seed: 0xFA17,
        }
    }
}

#[cfg(test)]
impl FaultConfig {
    // Whether this config injects nothing (level 0 of a chaos sweep).
    // The retry/detection knobs alone don't count: with every message
    // delivered and every place alive no timeout or lease can fire.
    fn is_empty(&self) -> bool {
        self.net.is_empty()
            && self.kills.is_empty()
            && self.hard_kills.is_empty()
            && self.restarts.is_empty()
            && self.slow.iter().all(|(_, f)| *f == 1.0)
    }
}

impl FaultConfig {
    /// Validate against a cluster of `places` places.
    pub fn validate(&self, places: u32) -> Result<(), String> {
        for (p, _) in self.kills.iter().chain(&self.hard_kills) {
            if p.0 == 0 {
                return Err("place 0 hosts the root activity and cannot be killed".into());
            }
            if p.0 >= places {
                return Err(format!("kill target {} out of range (< {places})", p.0));
            }
        }
        for (p, t) in &self.restarts {
            let killed_earlier = self
                .kills
                .iter()
                .chain(&self.hard_kills)
                .any(|(kp, kt)| kp == p && kt < t);
            if !killed_earlier {
                return Err(format!("restart of place {} without an earlier kill", p.0));
            }
        }
        for (p, f) in &self.slow {
            if p.0 >= places {
                return Err(format!("slow target {} out of range (< {places})", p.0));
            }
            if !(*f >= 1.0 && f.is_finite()) {
                return Err(format!("slow factor {f} must be ≥ 1.0"));
            }
        }
        Ok(())
    }
}

/// A duration that may be relative to the fault-free makespan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeSpec {
    /// Absolute virtual nanoseconds.
    Ns(u64),
    /// Percent of the fault-free makespan (resolved by `repro chaos`
    /// against a baseline run).
    Pct(f64),
}

impl TimeSpec {
    /// Resolve against a baseline makespan.
    pub fn resolve(&self, makespan_ns: u64) -> u64 {
        match *self {
            TimeSpec::Ns(ns) => ns,
            TimeSpec::Pct(p) => (makespan_ns as f64 * p / 100.0) as u64,
        }
    }
}

fn parse_time(s: &str) -> Result<TimeSpec, String> {
    let s = s.trim();
    if let Some(p) = s.strip_suffix('%') {
        let v: f64 = p.parse().map_err(|_| format!("bad percentage in '{s}'"))?;
        if !(0.0..=1_000.0).contains(&v) {
            return Err(format!("percentage {v} out of range"));
        }
        return Ok(TimeSpec::Pct(v));
    }
    for (suffix, mul) in [
        ("ns", 1u64),
        ("us", 1_000),
        ("ms", 1_000_000),
        ("s", 1_000_000_000),
    ] {
        if let Some(num) = s.strip_suffix(suffix) {
            // "s" also matches "ns"/"us"/"ms" tails; skip those.
            if suffix == "s" && (num.ends_with('n') || num.ends_with('u') || num.ends_with('m')) {
                continue;
            }
            let v: u64 = num
                .trim()
                .parse()
                .map_err(|_| format!("bad duration in '{s}'"))?;
            return Ok(TimeSpec::Ns(v.saturating_mul(mul)));
        }
    }
    Err(format!(
        "duration '{s}' needs a unit (ns/us/ms/s) or '%' of baseline makespan"
    ))
}

fn parse_prob(s: &str) -> Result<f64, String> {
    let v: f64 = s
        .trim()
        .parse()
        .map_err(|_| format!("bad probability '{s}'"))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("probability {v} must be in [0, 1]"));
    }
    Ok(v)
}

fn parse_place(s: &str) -> Result<u32, String> {
    s.trim().parse().map_err(|_| format!("bad place id '{s}'"))
}

fn parse_edge(s: &str) -> Result<(u32, u32), String> {
    let (a, b) = s
        .split_once('-')
        .ok_or_else(|| format!("edge '{s}' must be 'A-B'"))?;
    Ok((parse_place(a)?, parse_place(b)?))
}

/// Parsed `--faults` specification. Comma-separated clauses:
///
/// | clause | meaning |
/// |---|---|
/// | `drop=P` | drop every message with probability `P` |
/// | `drop=A-B:P` | drop probability `P` on edge `A-B` (both directions) |
/// | `dup=P` | duplicate delivered messages with probability `P` |
/// | `jitter=DUR` | add uniform `[0, DUR]` latency per message |
/// | `spike=P:DUR` | with probability `P`, add `DUR` latency |
/// | `partition=A-B@T1..T2` | cut link `A-B` during `[T1, T2)` |
/// | `kill=P@T` | fail-stop place `P` at time `T` (never place 0) |
/// | `kill!=P@T` | hard-kill (SIGKILL): silent death, recovery waits out silence detection + lease grace |
/// | `restart=P@T` | restart a killed place `P` at time `T` |
/// | `slow=P:F` | multiply place `P` task durations by `F ≥ 1` |
///
/// `DUR`/`T` are `<int>ns|us|ms|s` or `<num>%` of the fault-free
/// makespan.
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Default drop probability.
    pub drop: f64,
    /// Per-edge drop overrides (applied in both directions).
    pub drop_edges: Vec<(u32, u32, f64)>,
    /// Duplication probability.
    pub dup: f64,
    /// Per-message jitter bound.
    pub jitter: Option<TimeSpec>,
    /// Latency spike `(probability, extra)`.
    pub spike: Option<(f64, TimeSpec)>,
    /// Link partitions `(a, b, from, until)`.
    pub partitions: Vec<(u32, u32, TimeSpec, TimeSpec)>,
    /// Fail-stop kills `(place, at)`.
    pub kills: Vec<(u32, TimeSpec)>,
    /// Hard (SIGKILL) kills `(place, at)`.
    pub hard_kills: Vec<(u32, TimeSpec)>,
    /// Restarts `(place, at)`.
    pub restarts: Vec<(u32, TimeSpec)>,
    /// Straggler factors `(place, factor)`.
    pub slow: Vec<(u32, f64)>,
}

impl FaultSpec {
    /// Parse the comma-separated clause list.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for clause in s.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, val) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause '{clause}' must be key=value"))?;
            match key.trim() {
                "drop" => {
                    if let Some((edge, p)) = val.split_once(':') {
                        let (a, b) = parse_edge(edge)?;
                        spec.drop_edges.push((a, b, parse_prob(p)?));
                    } else {
                        spec.drop = parse_prob(val)?;
                    }
                }
                "dup" => spec.dup = parse_prob(val)?,
                "jitter" => spec.jitter = Some(parse_time(val)?),
                "spike" => {
                    let (p, d) = val
                        .split_once(':')
                        .ok_or_else(|| format!("spike '{val}' must be 'P:DUR'"))?;
                    spec.spike = Some((parse_prob(p)?, parse_time(d)?));
                }
                "partition" => {
                    let (edge, window) = val
                        .split_once('@')
                        .ok_or_else(|| format!("partition '{val}' must be 'A-B@T1..T2'"))?;
                    let (a, b) = parse_edge(edge)?;
                    let (t1, t2) = window
                        .split_once("..")
                        .ok_or_else(|| format!("partition window '{window}' must be 'T1..T2'"))?;
                    spec.partitions
                        .push((a, b, parse_time(t1)?, parse_time(t2)?));
                }
                "kill" | "kill!" => {
                    let hard = key.trim() == "kill!";
                    let (p, t) = val
                        .split_once('@')
                        .ok_or_else(|| format!("kill '{val}' must be 'P@T'"))?;
                    let p = parse_place(p)?;
                    if p == 0 {
                        return Err("cannot kill place 0 (hosts the root activity)".into());
                    }
                    if hard {
                        spec.hard_kills.push((p, parse_time(t)?));
                    } else {
                        spec.kills.push((p, parse_time(t)?));
                    }
                }
                "restart" => {
                    let (p, t) = val
                        .split_once('@')
                        .ok_or_else(|| format!("restart '{val}' must be 'P@T'"))?;
                    spec.restarts.push((parse_place(p)?, parse_time(t)?));
                }
                "slow" => {
                    let (p, f) = val
                        .split_once(':')
                        .ok_or_else(|| format!("slow '{val}' must be 'P:F'"))?;
                    let factor: f64 = f
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad slow factor '{f}'"))?;
                    if !(factor >= 1.0 && factor.is_finite()) {
                        return Err(format!("slow factor {factor} must be ≥ 1.0"));
                    }
                    spec.slow.push((parse_place(p)?, factor));
                }
                other => return Err(format!("unknown fault clause '{other}'")),
            }
        }
        Ok(spec)
    }

    /// Whether any time in the spec is makespan-relative (needs a
    /// fault-free baseline run to resolve).
    pub fn needs_baseline(&self) -> bool {
        let pct = |t: &TimeSpec| matches!(t, TimeSpec::Pct(_));
        self.jitter.as_ref().is_some_and(pct)
            || self.spike.as_ref().is_some_and(|(_, d)| pct(d))
            || self.partitions.iter().any(|(_, _, a, b)| pct(a) || pct(b))
            || self.kills.iter().any(|(_, t)| pct(t))
            || self.hard_kills.iter().any(|(_, t)| pct(t))
            || self.restarts.iter().any(|(_, t)| pct(t))
    }

    /// Resolve into an engine [`FaultConfig`]: percent times against
    /// `baseline_makespan_ns`, probabilistic intensities scaled by
    /// `level` in `[0, 1]`. Structural faults (kills, restarts,
    /// partitions, stragglers) are binary: present at any `level > 0`,
    /// absent at `level == 0`; the straggler factor interpolates
    /// between 1 and its full value.
    pub fn resolve(&self, baseline_makespan_ns: u64, level: f64, seed: u64) -> FaultConfig {
        let level = level.clamp(0.0, 1.0);
        let mut net = FaultPlan {
            default: LinkFault {
                drop_p: self.drop * level,
                dup_p: self.dup * level,
                jitter_ns: self
                    .jitter
                    .map(|j| (j.resolve(baseline_makespan_ns) as f64 * level) as u64)
                    .unwrap_or(0),
                spike_p: self.spike.map(|(p, _)| p * level).unwrap_or(0.0),
                spike_ns: self
                    .spike
                    .map(|(_, d)| d.resolve(baseline_makespan_ns))
                    .unwrap_or(0),
            }
            .clamped(),
            ..FaultPlan::default()
        };
        for &(a, b, p) in &self.drop_edges {
            let mut link = net.default;
            link.drop_p = (p * level).clamp(0.0, distws_netsim::fault::MAX_PROB);
            net.set_edge(PlaceId(a), PlaceId(b), link);
            net.set_edge(PlaceId(b), PlaceId(a), link);
        }
        let mut cfg = FaultConfig {
            net,
            seed,
            ..FaultConfig::default()
        };
        if level > 0.0 {
            for &(a, b, t1, t2) in &self.partitions {
                cfg.net.partitions.push(Partition {
                    a: PlaceId(a),
                    b: PlaceId(b),
                    from_ns: t1.resolve(baseline_makespan_ns),
                    until_ns: t2.resolve(baseline_makespan_ns),
                });
            }
            for &(p, t) in &self.kills {
                cfg.kills
                    .push((PlaceId(p), t.resolve(baseline_makespan_ns)));
            }
            for &(p, t) in &self.hard_kills {
                cfg.hard_kills
                    .push((PlaceId(p), t.resolve(baseline_makespan_ns)));
            }
            for &(p, t) in &self.restarts {
                cfg.restarts
                    .push((PlaceId(p), t.resolve(baseline_makespan_ns)));
            }
            for &(p, f) in &self.slow {
                cfg.slow.push((PlaceId(p), 1.0 + (f - 1.0) * level));
            }
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_spec() {
        let s = FaultSpec::parse(
            "drop=0.02, drop=1-3:0.2, dup=0.01, jitter=2us, spike=0.05:40us, \
             partition=0-2@10%..20%, kill=3@50%, restart=3@80%, slow=1:2.5",
        )
        .unwrap();
        assert_eq!(s.drop, 0.02);
        assert_eq!(s.drop_edges, vec![(1, 3, 0.2)]);
        assert_eq!(s.dup, 0.01);
        assert_eq!(s.jitter, Some(TimeSpec::Ns(2_000)));
        assert_eq!(s.spike, Some((0.05, TimeSpec::Ns(40_000))));
        assert_eq!(s.partitions.len(), 1);
        assert_eq!(s.kills, vec![(3, TimeSpec::Pct(50.0))]);
        assert_eq!(s.restarts, vec![(3, TimeSpec::Pct(80.0))]);
        assert_eq!(s.slow, vec![(1, 2.5)]);
        assert!(s.needs_baseline());
    }

    #[test]
    fn hard_kill_parses_separately() {
        let s = FaultSpec::parse("kill=1@10us, kill!=2@20us, restart=2@40us").unwrap();
        assert_eq!(s.kills, vec![(1, TimeSpec::Ns(10_000))]);
        assert_eq!(s.hard_kills, vec![(2, TimeSpec::Ns(20_000))]);
        let cfg = s.resolve(0, 1.0, 1);
        assert_eq!(cfg.hard_kills, vec![(PlaceId(2), 20_000)]);
        // A restart after a hard kill validates (hard kills count as
        // kills for the restart-ordering rule).
        assert!(cfg.validate(4).is_ok());
        // A hard kill alone makes the config non-empty.
        let only = FaultSpec::parse("kill!=1@5us").unwrap().resolve(0, 1.0, 1);
        assert!(!only.is_empty());
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(FaultSpec::parse("kill=0@10us").is_err(), "place 0");
        assert!(
            FaultSpec::parse("kill!=0@10us").is_err(),
            "hard kill place 0"
        );
        assert!(
            FaultSpec::parse("kill!=3").is_err(),
            "hard kill missing @time"
        );
        assert!(FaultSpec::parse("drop=1.5").is_err(), "prob > 1");
        assert!(FaultSpec::parse("jitter=100").is_err(), "unitless time");
        assert!(FaultSpec::parse("slow=1:0.5").is_err(), "factor < 1");
        assert!(FaultSpec::parse("frobnicate=1").is_err(), "unknown clause");
        assert!(FaultSpec::parse("kill=3").is_err(), "missing @time");
    }

    #[test]
    fn empty_spec_resolves_to_empty_config() {
        let cfg = FaultSpec::parse("").unwrap().resolve(1_000_000, 1.0, 1);
        assert!(cfg.is_empty());
        // Any spec at level 0 is also empty.
        let cfg0 = FaultSpec::parse("drop=0.05,kill=2@10us,slow=1:3.0")
            .unwrap()
            .resolve(1_000_000, 0.0, 1);
        assert!(cfg0.is_empty());
    }

    #[test]
    fn level_scales_probabilities_and_gates_structural_faults() {
        let spec = FaultSpec::parse("drop=0.04,kill=2@10us,slow=1:3.0").unwrap();
        let half = spec.resolve(1_000_000, 0.5, 1);
        assert!((half.net.default.drop_p - 0.02).abs() < 1e-12);
        assert_eq!(half.kills, vec![(PlaceId(2), 10_000)]);
        assert_eq!(half.slow, vec![(PlaceId(1), 2.0)], "factor interpolates");
        let full = spec.resolve(1_000_000, 1.0, 1);
        assert_eq!(full.slow, vec![(PlaceId(1), 3.0)]);
    }

    #[test]
    fn percent_times_resolve_against_baseline() {
        let spec = FaultSpec::parse("kill=1@50%").unwrap();
        assert!(spec.needs_baseline());
        let cfg = spec.resolve(2_000_000, 1.0, 1);
        assert_eq!(cfg.kills, vec![(PlaceId(1), 1_000_000)]);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = FaultConfig::default();
        cfg.kills.push((PlaceId(9), 10));
        assert!(cfg.validate(4).is_err(), "out of range");
        let mut cfg = FaultConfig::default();
        cfg.restarts.push((PlaceId(2), 10));
        assert!(cfg.validate(4).is_err(), "restart without kill");
        let mut cfg = FaultConfig::default();
        cfg.kills.push((PlaceId(2), 10));
        cfg.restarts.push((PlaceId(2), 20));
        assert!(cfg.validate(4).is_ok());
    }

    #[test]
    fn edge_drop_applies_both_directions() {
        let spec = FaultSpec::parse("drop=1-3:0.2").unwrap();
        let cfg = spec.resolve(0, 1.0, 1);
        assert_eq!(cfg.net.link(PlaceId(1), PlaceId(3)).drop_p, 0.2);
        assert_eq!(cfg.net.link(PlaceId(3), PlaceId(1)).drop_p, 0.2);
        assert_eq!(cfg.net.link(PlaceId(0), PlaceId(1)).drop_p, 0.0);
    }
}
