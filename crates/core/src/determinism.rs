//! The E1 determinism campaign harness.
//!
//! Reproduces the paper's §5 validation: "Scenarios in which one or more
//! of the delays could change to 50 %, 75 %, 150 %, or 200 % of their
//! nominal values were simulated. The data sequences on each SB's I/Os
//! were monitored for the first 100 local clock cycles and compared with
//! the data sequences associated with the nominal delay settings. In all
//! simulations — over 16,000 of them — all data sequences were found to
//! match exactly. However, when the synchro-tokens control logic was
//! bypassed …, the data sequences were observed to be nondeterministic."
//!
//! A [`DelayConfig`] assigns a percentage to every delay knob in a
//! [`SystemSpec`] (per-SB clock period, per-ring per-direction wire
//! delay, per-channel FIFO stage delay). The campaign enumerates
//! one-factor-at-a-time corners exhaustively and fills the remaining
//! budget with seeded random multi-factor configurations, comparing each
//! run's per-SB I/O digests against the nominal run.
//!
//! The configuration list is enumerated *up front* by
//! [`enumerate_configs`], so the campaign is a bag of independent jobs:
//! [`run_campaign_threads`] fans them across worker threads via
//! [`crate::campaign::run_jobs`] and merges in canonical config order,
//! making the report byte-identical to the sequential runner.

use crate::campaign::{effective_threads, run_jobs, CampaignStats};
use crate::compiled_system::AnySystem;
use crate::spec::{SbId, SystemSpec};
use crate::system::{RunOutcome, System};
use st_sim::time::SimDuration;
use st_sim::SimRng;
use std::fmt;
use std::fmt::Write as _;

/// The paper's delay multipliers, in percent.
pub const PAPER_SCALES: [u64; 5] = [50, 75, 100, 150, 200];

/// A complete assignment of delay scalings to a system's knobs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DelayConfig {
    /// Percentage per SB clock period.
    pub clock_pct: Vec<u64>,
    /// Percentage per ring: `(forward, back)` wire delays.
    pub ring_pct: Vec<(u64, u64)>,
    /// Percentage per channel FIFO stage delay.
    pub fifo_pct: Vec<u64>,
}

impl DelayConfig {
    /// The all-nominal configuration for `spec`.
    pub fn nominal(spec: &SystemSpec) -> Self {
        DelayConfig {
            clock_pct: vec![100; spec.sbs.len()],
            ring_pct: vec![(100, 100); spec.rings.len()],
            fifo_pct: vec![100; spec.channels.len()],
        }
    }

    /// Number of independently scalable delay knobs.
    pub fn knobs(&self) -> usize {
        self.clock_pct.len() + 2 * self.ring_pct.len() + self.fifo_pct.len()
    }

    /// Sets knob `k` (in the order clocks, ring-fwd/back pairs, FIFOs).
    pub fn set_knob(&mut self, k: usize, pct: u64) {
        let nc = self.clock_pct.len();
        let nr = self.ring_pct.len();
        if k < nc {
            self.clock_pct[k] = pct;
        } else if k < nc + 2 * nr {
            let r = (k - nc) / 2;
            if (k - nc).is_multiple_of(2) {
                self.ring_pct[r].0 = pct;
            } else {
                self.ring_pct[r].1 = pct;
            }
        } else {
            self.fifo_pct[k - nc - 2 * nr] = pct;
        }
    }

    /// Applies the scalings to a copy of `spec`.
    pub fn apply(&self, spec: &SystemSpec) -> SystemSpec {
        let mut s = spec.clone();
        for (sb, pct) in s.sbs.iter_mut().zip(&self.clock_pct) {
            sb.period = sb.period.percent(*pct);
        }
        for (ring, (fwd, back)) in s.rings.iter_mut().zip(&self.ring_pct) {
            ring.delay_fwd = ring.delay_fwd.percent(*fwd);
            ring.delay_back = ring.delay_back.percent(*back);
        }
        for (ch, pct) in s.channels.iter_mut().zip(&self.fifo_pct) {
            ch.stage_delay = ch.stage_delay.percent(*pct);
        }
        s
    }

    /// A deterministic 64-bit fingerprint (used to seed bypass-mode
    /// metastability per configuration, mirroring how real silicon's
    /// resolution depends on its analog operating point).
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Multipliers to draw from (default: the paper's five).
    pub scales: Vec<u64>,
    /// Local cycles to compare per SB (paper: 100).
    pub compare_cycles: u64,
    /// Total number of non-nominal runs (paper: > 16,000).
    pub runs: usize,
    /// Seed for the random configuration sampler.
    pub seed: u64,
    /// Build the bypassed (nondeterministic baseline) system instead.
    pub bypass: bool,
    /// Simulated-time budget per run.
    pub max_time: SimDuration,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            scales: PAPER_SCALES.to_vec(),
            compare_cycles: 100,
            runs: 200,
            seed: 0xE1,
            bypass: false,
            max_time: SimDuration::us(3000),
        }
    }
}

/// One run's comparison against nominal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunComparison {
    /// The configuration exercised.
    pub config: DelayConfig,
    /// Whether every SB's first `compare_cycles` I/O rows matched nominal.
    pub matched: bool,
    /// First divergent cycle per SB (`None` = no divergence).
    pub divergences: Vec<Option<u64>>,
    /// Whether the run completed (`false` = deadlock/timeout).
    pub completed: bool,
}

/// Aggregate campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// Total non-nominal runs executed.
    pub total: usize,
    /// Runs whose sequences matched nominal exactly.
    pub matches: usize,
    /// Details of every mismatching run (kept small on a passing
    /// campaign).
    pub mismatches: Vec<RunComparison>,
    /// Runs that failed to complete.
    pub incomplete: usize,
}

impl CampaignResult {
    /// True when every completed run matched.
    pub fn all_match(&self) -> bool {
        self.mismatches.is_empty() && self.incomplete == 0
    }

    /// Fraction of runs that matched nominal.
    pub fn match_rate(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.matches as f64 / self.total as f64
    }

    /// Canonical textual report of the campaign outcome.
    ///
    /// A pure function of the run results — no wall-clock times, thread
    /// counts or machine-dependent data — so sequential and parallel
    /// campaigns over the same configuration list produce byte-identical
    /// reports (asserted by the `campaign` integration tests).
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{self}");
        for m in &self.mismatches {
            let _ = writeln!(
                out,
                "mismatch (completed={}) divergences={:?} clock={:?} ring={:?} fifo={:?}",
                m.completed,
                m.divergences,
                m.config.clock_pct,
                m.config.ring_pct,
                m.config.fifo_pct,
            );
        }
        out
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs: {} matched nominal ({:.2} %), {} mismatched, {} incomplete",
            self.total,
            self.matches,
            100.0 * self.match_rate(),
            self.mismatches.len(),
            self.incomplete
        )
    }
}

/// A function that builds a ready-to-run system from a (scaled) spec and
/// a seed. See [`crate::scenarios::build_e1`] / `build_e1_bypass`.
///
/// `Sync` because campaign workers on different threads share one build
/// function; each call still builds a fully independent [`System`].
pub type BuildFn<'a> = dyn Fn(SystemSpec, u64) -> System + Sync + 'a;

/// Backend-polymorphic build function: returns an [`AnySystem`], so a
/// campaign can run on the compiled fast path (see
/// [`crate::scenarios::build_e1_backend`]). [`BuildFn`] campaigns are
/// forwarded through this with the event backend.
pub type AnyBuildFn<'a> = dyn Fn(SystemSpec, u64) -> AnySystem + Sync + 'a;

/// Enumerates the campaign's configuration list in canonical order:
/// exhaustive one-factor-at-a-time corners first, then seeded random
/// multi-factor configurations, `cfg.runs` entries in total.
///
/// Pure function of `(base, cfg)` — the list (and its order) is what
/// makes sequential and parallel campaigns comparable byte-for-byte.
pub fn enumerate_configs(base: &SystemSpec, cfg: &CampaignConfig) -> Vec<DelayConfig> {
    let knobs = DelayConfig::nominal(base).knobs();
    let mut configs = Vec::with_capacity(cfg.runs);
    'outer: for k in 0..knobs {
        for &pct in &cfg.scales {
            if pct == 100 {
                continue;
            }
            if configs.len() >= cfg.runs {
                break 'outer;
            }
            let mut c = DelayConfig::nominal(base);
            c.set_knob(k, pct);
            configs.push(c);
        }
    }
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    while configs.len() < cfg.runs {
        let mut c = DelayConfig::nominal(base);
        for k in 0..knobs {
            let pct = cfg.scales[rng.below(cfg.scales.len() as u64) as usize];
            c.set_knob(k, pct);
        }
        configs.push(c);
    }
    configs
}

/// Runs one configuration and returns its per-SB traces' comparison with
/// the supplied nominal digests, plus the run's kernel counters
/// `(events fired, wakes delivered)`.
fn run_one(
    base: &SystemSpec,
    config: &DelayConfig,
    cfg: &CampaignConfig,
    build: &AnyBuildFn<'_>,
    nominal: &[crate::iotrace::SbIoTrace],
) -> (RunComparison, u64, u64) {
    let spec = config.apply(base);
    let seed = if cfg.bypass { config.fingerprint() } else { 0 };
    let mut sys = build(spec, seed);
    let outcome = sys.run_to_verdict(cfg.compare_cycles, cfg.max_time);
    let completed = matches!(outcome, Ok(RunOutcome::Reached));
    let mut divergences = Vec::with_capacity(base.sbs.len());
    let mut matched = completed;
    let cycles = cfg.compare_cycles as usize;
    for (i, reference) in nominal.iter().enumerate() {
        let trace = sys.io_trace(SbId(i));
        let d = reference.first_divergence(trace);
        // With no divergence over the common prefix, the traces agree on
        // the first `cycles` rows exactly when both hold that many.
        matched &= d.is_none() && trace.len().min(reference.len()) >= cycles;
        divergences.push(d);
    }
    let cmp = RunComparison {
        config: config.clone(),
        matched,
        divergences,
        completed,
    };
    (cmp, sys.events_fired(), sys.wakes_delivered())
}

/// Runs the full campaign sequentially: nominal reference, exhaustive
/// one-factor corners, then seeded random multi-factor configurations up
/// to `cfg.runs`. Equivalent to [`run_campaign_threads`] with one thread.
pub fn run_campaign(
    base: &SystemSpec,
    cfg: &CampaignConfig,
    build: &BuildFn<'_>,
) -> CampaignResult {
    run_campaign_threads(base, cfg, build, 1).0
}

/// Runs the full campaign fanned across `threads` worker threads.
///
/// The nominal reference runs first on the calling thread; its I/O
/// digests are then shared read-only with every worker. Each worker
/// builds its own [`System`] per configuration, so per-run determinism is
/// untouched, and results merge in canonical config order — the returned
/// [`CampaignResult`] is **identical** to the sequential runner's at any
/// thread count. [`CampaignStats`] carries the wall-clock and throughput
/// counters, which *are* machine-dependent.
pub fn run_campaign_threads(
    base: &SystemSpec,
    cfg: &CampaignConfig,
    build: &BuildFn<'_>,
    threads: usize,
) -> (CampaignResult, CampaignStats) {
    run_campaign_threads_any(base, cfg, &|s, seed| build(s, seed).into(), threads)
}

/// Backend-polymorphic variant of [`run_campaign_threads`]: the build
/// function chooses the engine per run (typically
/// `SystemBuilder::build_backend` with a fixed [`crate::Backend`]).
/// Because both backends are byte-identical, the [`CampaignResult`] is
/// independent of the backend choice — only the wall-clock in
/// [`CampaignStats`] changes.
pub fn run_campaign_threads_any(
    base: &SystemSpec,
    cfg: &CampaignConfig,
    build: &AnyBuildFn<'_>,
    threads: usize,
) -> (CampaignResult, CampaignStats) {
    let started = std::time::Instant::now();

    // Reference run.
    let nominal_cfg = DelayConfig::nominal(base);
    let seed = if cfg.bypass {
        nominal_cfg.fingerprint()
    } else {
        0
    };
    let mut nominal_sys = build(nominal_cfg.apply(base), seed);
    let outcome = nominal_sys.run_to_verdict(cfg.compare_cycles, cfg.max_time);
    assert!(
        matches!(outcome, Ok(RunOutcome::Reached)),
        "nominal run failed: {outcome:?}"
    );
    let nominal: Vec<_> = (0..base.sbs.len())
        .map(|i| nominal_sys.io_trace(SbId(i)).clone())
        .collect();
    let mut events_fired = nominal_sys.events_fired();
    let mut wakes = nominal_sys.wakes_delivered();
    drop(nominal_sys);

    let configs = enumerate_configs(base, cfg);
    let outcomes = run_jobs(&configs, threads, |_, config| {
        run_one(base, config, cfg, build, &nominal)
    });

    let mut result = CampaignResult::default();
    for (cmp, ev, wk) in outcomes {
        events_fired += ev;
        wakes += wk;
        result.total += 1;
        if !cmp.completed {
            result.incomplete += 1;
        }
        if cmp.matched {
            result.matches += 1;
        } else {
            result.mismatches.push(cmp);
        }
    }
    let stats = CampaignStats {
        runs: result.total + 1,
        threads: effective_threads(threads).clamp(1, configs.len().max(1)),
        wall_seconds: started.elapsed().as_secs_f64(),
        events_fired,
        wakes,
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{SequenceSource, SinkCollect};
    use crate::scenarios::{build_e1, build_e1_bypass, e1_spec, producer_consumer_spec};
    use crate::spec::SbId;
    use crate::system::SystemBuilder;

    #[test]
    fn short_matching_trace_is_a_mismatch() {
        // Traces capped at 30 rows match the nominal ones row for row,
        // but no run shows the 60 compared cycles.
        let spec = e1_spec();
        let cfg = CampaignConfig {
            runs: 8,
            compare_cycles: 60,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&spec, &cfg, &|s, seed| build_e1(s, seed, 30));
        assert_eq!((result.matches, result.mismatches.len()), (0, 8));
        for run in &result.mismatches {
            assert!(run.completed && run.divergences.iter().all(Option::is_none));
        }
    }

    #[test]
    fn knob_indexing_covers_every_field() {
        let spec = e1_spec();
        let mut c = DelayConfig::nominal(&spec);
        assert_eq!(c.knobs(), 3 + 6 + 6);
        for k in 0..c.knobs() {
            c.set_knob(k, 50);
        }
        assert!(c.clock_pct.iter().all(|p| *p == 50));
        assert!(c.ring_pct.iter().all(|p| *p == (50, 50)));
        assert!(c.fifo_pct.iter().all(|p| *p == 50));
        let scaled = c.apply(&spec);
        assert_eq!(scaled.sbs[0].period, spec.sbs[0].period.percent(50));
        assert_eq!(
            scaled.rings[1].delay_back,
            spec.rings[1].delay_back.percent(50)
        );
        assert_eq!(
            scaled.channels[5].stage_delay,
            spec.channels[5].stage_delay.percent(50)
        );
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let spec = e1_spec();
        let a = DelayConfig::nominal(&spec);
        let mut b = DelayConfig::nominal(&spec);
        b.set_knob(0, 150);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), DelayConfig::nominal(&spec).fingerprint());
    }

    #[test]
    fn small_synchro_campaign_matches_everywhere() {
        let spec = e1_spec();
        let cfg = CampaignConfig {
            runs: 40,
            compare_cycles: 60,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&spec, &cfg, &|s, seed| build_e1(s, seed, 60));
        assert_eq!(result.total, 40);
        assert!(
            result.all_match(),
            "synchro-tokens must be deterministic: {result}"
        );
    }

    #[test]
    fn small_bypass_campaign_diverges() {
        let spec = e1_spec();
        let cfg = CampaignConfig {
            runs: 30,
            compare_cycles: 60,
            bypass: true,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&spec, &cfg, &|s, seed| build_e1_bypass(s, seed, 60));
        assert!(
            !result.mismatches.is_empty(),
            "bypass mode should be nondeterministic: {result}"
        );
    }

    #[test]
    fn pair_campaign_with_custom_logic() {
        // The harness works for any topology/logic combination.
        let spec = producer_consumer_spec();
        let cfg = CampaignConfig {
            runs: 12,
            compare_cycles: 80,
            ..CampaignConfig::default()
        };
        let build = |s: SystemSpec, _seed: u64| {
            SystemBuilder::new(s)
                .unwrap()
                .with_logic(SbId(0), SequenceSource::new(1, 1))
                .with_logic(SbId(1), SinkCollect::new())
                .with_trace_limit(80)
                .build()
        };
        let result = run_campaign(&spec, &cfg, &build);
        assert!(result.all_match(), "{result}");
    }

    #[test]
    fn config_enumeration_is_deterministic() {
        let spec = e1_spec();
        let cfg = CampaignConfig {
            runs: 70,
            ..CampaignConfig::default()
        };
        let a = enumerate_configs(&spec, &cfg);
        assert_eq!(a.len(), 70, "exactly cfg.runs configs");
        assert_eq!(a, enumerate_configs(&spec, &cfg), "same inputs, same list");
        // One-factor corners come first: 15 knobs × 4 non-nominal scales.
        let nominal = DelayConfig::nominal(&spec);
        let off_nominal_knobs = |c: &DelayConfig| {
            let count = |xs: &[u64]| xs.iter().filter(|p| **p != 100).count();
            count(&c.clock_pct)
                + c.ring_pct
                    .iter()
                    .map(|(f, b)| usize::from(*f != 100) + usize::from(*b != 100))
                    .sum::<usize>()
                + count(&c.fifo_pct)
        };
        assert_eq!(nominal.knobs() * 4, 60);
        assert!(a[..60].iter().all(|c| off_nominal_knobs(c) == 1));
        assert_eq!(a[0].clock_pct[0], 50, "first corner scales the first knob");
    }

    #[test]
    fn threaded_campaign_matches_sequential_result() {
        let spec = e1_spec();
        let cfg = CampaignConfig {
            runs: 10,
            compare_cycles: 40,
            ..CampaignConfig::default()
        };
        let build = |s: SystemSpec, seed: u64| build_e1(s, seed, 40);
        let seq = run_campaign(&spec, &cfg, &build);
        let (par, stats) = run_campaign_threads(&spec, &cfg, &build, 3);
        assert_eq!(seq.report(), par.report());
        assert_eq!(stats.runs, 11, "10 configs + the nominal reference");
        assert!(stats.events_fired > 0);
        assert!(stats.wall_seconds > 0.0);
    }

    #[test]
    fn result_display_reports_rates() {
        let r = CampaignResult {
            total: 10,
            matches: 9,
            mismatches: vec![],
            incomplete: 1,
        };
        let s = r.to_string();
        assert!(s.contains("10 runs"));
        assert!(s.contains("90.00 %"));
        assert!(!r.all_match());
    }
}
