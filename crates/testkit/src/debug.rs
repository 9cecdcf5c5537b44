//! The §4.2 debug & test features, end to end.
//!
//! "System clocks can be stopped while TCK is in Interlocked Mode by
//! holding tokens indefinitely in the Test SB and waiting for all of the
//! recycle counters in the system to reach zero and deterministically
//! stop the local clocks. The granularity of these natural breakpoints
//! can be increased — all the way to single stepping if desired … After
//! the system clocks have been stopped, the asynchronous scan chains can
//! be used to deterministically read and write system state."
//!
//! [`TestAccess`] drives those flows against a live
//! [`System`]: every control action passes
//! through a real [`TapPort`] transaction (instruction + data register
//! scan), then is dispatched to the wrapper hardware hooks.

use crate::player::TapPort;
use crate::registers::Instruction;
use st_sim::time::SimDuration;
use synchro_tokens::compiled_system::AnySystem;
use synchro_tokens::spec::{NodeParams, RingId, SbId, SystemSpec};
use synchro_tokens::system::System;
use synchro_tokens::{run_configs, Backend, RunLimits, Stop};

/// The Test SB's TCK relationship to the token fabric (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TckMode {
    /// Tokens passing through the Test SB may stop the clock; tester ↔
    /// mission-mode data exchange is deterministic. "Best suited for
    /// on-tester debug and production test."
    #[default]
    Interlocked,
    /// TCK and token flow do not affect each other; communication with
    /// mission-mode logic is nondeterministic. "Appropriate for
    /// off-tester usage of TAP public instructions and for mission mode."
    Independent,
}

/// Outcome of a breakpoint request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakpointReport {
    /// SBs whose clocks were parked when the system went quiet.
    pub stopped: Vec<SbId>,
    /// Local cycle count of every SB at the breakpoint.
    pub cycles: Vec<u64>,
}

/// One shmoo point: a candidate clock period and whether the system's
/// I/O sequences still matched the golden reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmooPoint {
    /// The period under test.
    pub period: SimDuration,
    /// True when every SB's trace matched the golden run.
    pub pass: bool,
    /// Setup-time violations the swept SB took at this period.
    pub violations: u64,
}

/// Result of a frequency shmoo (§4.2: "clock frequency shmooing to find
/// critical paths within SBs").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShmooResult {
    /// Points in the order swept (fastest first or as given).
    pub points: Vec<ShmooPoint>,
}

impl ShmooResult {
    /// The shortest period that still passed, if any.
    pub fn min_passing_period(&self) -> Option<SimDuration> {
        self.points
            .iter()
            .filter(|p| p.pass)
            .map(|p| p.period)
            .min()
    }

    /// The longest period that failed, if any (brackets the critical
    /// path from below).
    pub fn max_failing_period(&self) -> Option<SimDuration> {
        self.points
            .iter()
            .filter(|p| !p.pass)
            .map(|p| p.period)
            .max()
    }
}

/// Tester-side access to a synchro-tokens system through its Test SB.
#[derive(Debug)]
pub struct TestAccess {
    tap: TapPort,
    test_sb: SbId,
    mode: TckMode,
}

impl TestAccess {
    /// Attaches to the designated Test SB with the given IDCODE.
    pub fn new(test_sb: SbId, idcode: u32) -> Self {
        let mut tap = TapPort::new(idcode);
        tap.reset();
        TestAccess {
            tap,
            test_sb,
            mode: TckMode::Interlocked,
        }
    }

    /// Switches the TCK mode.
    pub fn set_mode(&mut self, mode: TckMode) {
        self.mode = mode;
    }

    /// Current TCK mode.
    pub fn mode(&self) -> TckMode {
        self.mode
    }

    /// The underlying TAP (for raw transactions).
    pub fn tap(&mut self) -> &mut TapPort {
        &mut self.tap
    }

    /// Reads the device IDCODE over the TAP.
    pub fn read_idcode(&mut self) -> u32 {
        let v = self.tap.transact(Instruction::IdCode, 0);
        u32::try_from(v & 0xFFFF_FFFF).expect("32-bit idcode")
    }

    /// Requests a deterministic breakpoint: parks every token currently
    /// held by the Test SB's nodes and runs until all other clocks stop.
    ///
    /// In [`TckMode::Independent`] the token fabric is unaffected and the
    /// report is empty (the paper: "the operation of TCK and the flow of
    /// tokens through the Test SB have no effect on each other").
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the settling run.
    pub fn breakpoint(
        &mut self,
        sys: &mut System,
        max_time: SimDuration,
    ) -> Result<BreakpointReport, st_sim::SimError> {
        // The request travels through the TAP like real tester traffic.
        self.tap.transact(Instruction::TokenHold, 1);
        if self.mode == TckMode::Independent {
            return Ok(BreakpointReport {
                stopped: Vec::new(),
                cycles: (0..sys.spec().sbs.len())
                    .map(|i| sys.cycles(SbId(i)))
                    .collect(),
            });
        }
        sys.set_hold_tokens(self.test_sb, true);
        // Run until the system goes quiescent (all clocks parked except
        // possibly the Test SB's, which never starves itself).
        sys.run_for(max_time)?;
        Ok(BreakpointReport {
            stopped: sys.stopped_sbs(),
            cycles: (0..sys.spec().sbs.len())
                .map(|i| sys.cycles(SbId(i)))
                .collect(),
        })
    }

    /// Releases a breakpoint: tokens flow again and stopped clocks
    /// restart asynchronously.
    pub fn resume(&mut self, sys: &mut System) {
        self.tap.transact(Instruction::TokenHold, 0);
        if self.mode == TckMode::Interlocked {
            sys.set_hold_tokens(self.test_sb, false);
        }
    }

    /// Single-steps the system: releases tokens until every non-test SB
    /// has advanced by at least `cycles` local cycles, then re-engages
    /// the breakpoint.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn single_step(
        &mut self,
        sys: &mut System,
        cycles: u64,
        max_time: SimDuration,
    ) -> Result<BreakpointReport, st_sim::SimError> {
        let start: Vec<u64> = (0..sys.spec().sbs.len())
            .map(|i| sys.cycles(SbId(i)))
            .collect();
        self.resume(sys);
        let deadline = sys.now() + max_time;
        // Fine-grained settling so the step resolution approaches a few
        // local cycles.
        let step = SimDuration::ns(200);
        while sys.now() < deadline {
            sys.run_for(step)?;
            let done = (0..sys.spec().sbs.len())
                .all(|i| SbId(i) == self.test_sb || sys.cycles(SbId(i)) >= start[i] + cycles);
            if done {
                break;
            }
        }
        self.breakpoint(sys, max_time)
    }

    /// Writes the hold/recycle registers of one node over the TAP
    /// (§4.2: the registers are scan-accessible for performance tuning).
    pub fn write_node_params(
        &mut self,
        sys: &mut System,
        sb: SbId,
        ring: RingId,
        params: NodeParams,
    ) {
        self.tap
            .transact(Instruction::HoldReg, u64::from(params.hold));
        self.tap
            .transact(Instruction::RecycleReg, u64::from(params.recycle));
        let hold = self
            .tap
            .registers()
            .register(Instruction::HoldReg)
            .update_value();
        let recycle = self
            .tap
            .registers()
            .register(Instruction::RecycleReg)
            .update_value();
        sys.set_node_params(
            sb,
            ring,
            NodeParams::new(
                u32::try_from(hold).expect("hold fits"),
                u32::try_from(recycle).expect("recycle fits"),
            ),
        );
    }

    /// Reads 64 bits of architectural state out through the ScanState
    /// register (the self-timed internal scan chain).
    pub fn scan_state_word(&mut self, word: u64) -> u64 {
        self.tap
            .registers()
            .register_mut(Instruction::ScanState)
            .set_capture(word);
        self.tap.transact(Instruction::ScanState, 0)
    }
}

/// Runs a frequency shmoo over one SB: rebuilds the system at each
/// candidate period (the frequency-control register in real silicon),
/// runs `cycles` local cycles, and compares every SB's I/O trace digest
/// with the golden reference obtained from `spec` as-is.
///
/// Determinism makes this meaningful: the traces are invariant under
/// period scaling *until* the SB's modelled critical path is violated,
/// so the pass/fail edge locates the critical path, exactly as §4.2
/// promises.
///
/// The points are independent single-threaded simulations, so after the
/// golden run they fan out across
/// [`run_jobs`](synchro_tokens::campaign::run_jobs) worker threads
/// (`ST_THREADS` applies); results merge in sweep order, keeping the
/// [`ShmooResult`] byte-identical at any thread count.
pub fn shmoo(
    spec: &SystemSpec,
    sb: SbId,
    periods: &[SimDuration],
    cycles: u64,
    build: &(dyn Fn(SystemSpec, u64) -> System + Sync),
) -> ShmooResult {
    let build = |s, seed| build(s, seed).into();
    let threads = synchro_tokens::campaign::default_threads();
    let hooks = synchro_tokens::RunHooks::default();
    shmoo_any_hooked(spec, sb, periods, cycles, &build, threads, hooks)
        .unwrap_or_else(|_| unreachable!("no cancel token was installed"))
}

/// Backend-polymorphic, jobified [`shmoo`]: the build function returns
/// an [`AnySystem`], so sweeps can run on the compiled fast-path backend
/// (`SystemBuilder::build_backend`), and an explicit thread count and
/// [`RunHooks`](synchro_tokens::RunHooks) let a long shmoo run as a
/// *service job* — cancelled cooperatively between points and observed
/// via the progress callback (`st-serve`'s worker pool uses exactly
/// this entry point). Both backends are byte-identical, so the
/// [`ShmooResult`] does not depend on the backend choice.
///
/// # Errors
///
/// Returns [`Cancelled`](synchro_tokens::Cancelled) with the completed
/// points (in sweep order) when the hook's token trips before the last
/// point is claimed.
pub fn shmoo_any_hooked(
    spec: &SystemSpec,
    sb: SbId,
    periods: &[SimDuration],
    cycles: u64,
    build: &(dyn Fn(SystemSpec, u64) -> AnySystem + Sync),
    threads: usize,
    hooks: synchro_tokens::RunHooks<'_>,
) -> Result<ShmooResult, synchro_tokens::Cancelled<ShmooPoint>> {
    let golden: Vec<u64> = {
        let mut sys = build(spec.clone(), 0);
        sys.run_until_cycles(cycles, SimDuration::us(5000))
            .expect("golden run");
        (0..spec.sbs.len())
            .map(|i| sys.io_trace(SbId(i)).digest())
            .collect()
    };
    let points =
        synchro_tokens::campaign::run_jobs_hooked(periods, threads, hooks, |_, &period| {
            let mut s = spec.clone();
            s.sbs[sb.0].period = period;
            let mut sys = build(s, 0);
            let completed = matches!(
                sys.run_until_cycles(cycles, SimDuration::us(5000)),
                Ok(synchro_tokens::system::RunOutcome::Reached)
            );
            let digests: Vec<u64> = (0..spec.sbs.len())
                .map(|i| sys.io_trace(SbId(i)).digest())
                .collect();
            ShmooPoint {
                period,
                pass: completed && digests == golden,
                violations: sys.timing_violations(sb),
            }
        })?;
    Ok(ShmooResult { points })
}

/// One cell of a shmoo *grid*: a candidate period evaluated under one
/// workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmooGridPoint {
    /// The candidate period applied to the swept SB.
    pub period: SimDuration,
    /// The workload seed of this cell.
    pub seed: u64,
    /// Whether the run completed with traces identical to this seed's
    /// golden reference at the nominal period.
    pub pass: bool,
    /// Setup-time violations taken by the swept SB.
    pub violations: u64,
}

/// A frequency shmoo replicated over N workload seeds, batched: every
/// candidate period is evaluated under every seed, and the seeds of
/// one period lower into shared [`BatchedSystem`] lockstep groups
/// (they share a spec — only their data differs), so the event-loop
/// cost per period is paid per group instead of per seed. The goldens
/// batch the same way at the nominal period.
///
/// `make` builds the workload for `(spec, seed)` — it must attach
/// logic whose *send pattern* is seed-independent for the lanes to
/// stay in lockstep (data-dependent sends still work; the engine
/// splits the group and the sweep is merely slower). The cells run
/// through [`run_configs`] on one worker, in batches of at most
/// [`DEFAULT_BATCH_LIMIT`] cells, so a period's seeds share one group
/// whenever the seed count divides that cap; builders outside the
/// batched envelope fall back to scalar compiled runs with identical
/// results. Every cell runs whole cycles ([`Stop::WholeCycles`])
/// because it reports the swept SB's timing violations.
///
/// Points come back period-major (`periods[0]` × every seed, then
/// `periods[1]`, …), byte-identical to per-cell scalar sweeps.
///
/// [`BatchedSystem`]: synchro_tokens::BatchedSystem
/// [`DEFAULT_BATCH_LIMIT`]: synchro_tokens::DEFAULT_BATCH_LIMIT
pub fn shmoo_grid(
    spec: &SystemSpec,
    sb: SbId,
    periods: &[SimDuration],
    seeds: &[u64],
    cycles: u64,
    make: &(dyn Fn(SystemSpec, u64) -> synchro_tokens::SystemBuilder + Sync),
) -> Vec<ShmooGridPoint> {
    use synchro_tokens::system::RunOutcome;
    let limits = RunLimits {
        cycles,
        budget: SimDuration::us(5000),
        stop: Stop::WholeCycles,
    };
    // Every (period, seed) cell of `columns`, period-major: grouping by
    // spec puts each period's seed lanes in their own lockstep group.
    // Reports `(reached, per-SB digests, violations)`.
    let run_columns = |columns: &[SimDuration]| {
        let cell = |i: usize| {
            let mut s = spec.clone();
            s.sbs[sb.0].period = columns[i / seeds.len()];
            make(s, seeds[i % seeds.len()])
        };
        let hooks = synchro_tokens::RunHooks::default();
        let count = columns.len() * seeds.len();
        run_configs(
            count,
            cell,
            Backend::Compiled,
            limits,
            1,
            hooks,
            |_, run| {
                let digests: Vec<u64> = (0..spec.sbs.len())
                    .map(|i| run.trace_digest(SbId(i)))
                    .collect();
                let completed = matches!(run.outcome, Ok(RunOutcome::Reached));
                (completed, digests, run.timing_violations(sb))
            },
        )
        .unwrap_or_else(|_| unreachable!("no cancel token was installed"))
    };
    let results = run_columns(periods);
    // When the sweep includes the nominal period (the usual shmoo
    // shape), that column doubles as the per-seed golden batch;
    // otherwise the goldens run as one extra batch at the nominal spec.
    let nominal = spec.sbs[sb.0].period;
    let goldens: Vec<Vec<u64>> = match periods.iter().position(|&p| p == nominal) {
        Some(p) => results[p * seeds.len()..(p + 1) * seeds.len()]
            .iter()
            .map(|(_, digests, _)| digests.clone())
            .collect(),
        None => run_columns(&[nominal])
            .into_iter()
            .map(|(_, digests, _)| digests)
            .collect(),
    };
    results
        .into_iter()
        .enumerate()
        .map(|(i, (completed, digests, violations))| {
            let (p, s) = (i / seeds.len(), i % seeds.len());
            ShmooGridPoint {
                period: periods[p],
                seed: seeds[s],
                pass: completed && digests == goldens[s],
                violations,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchro_tokens::scenarios::{build_e1, e1_spec, MixerLogic};
    use synchro_tokens::system::RunOutcome;

    const ALPHA: SbId = SbId(0);

    #[test]
    fn interlocked_breakpoint_stops_the_whole_system() {
        let mut sys = build_e1(e1_spec(), 0, 50);
        sys.run_until_cycles(50, SimDuration::us(2000)).unwrap();
        let mut access = TestAccess::new(ALPHA, 0xABCD_0001);
        let report = access.breakpoint(&mut sys, SimDuration::us(100)).unwrap();
        // Alpha (the Test SB) holds its tokens; beta and gamma starve
        // and deterministically stop.
        assert!(report.stopped.contains(&SbId(1)), "{report:?}");
        assert!(report.stopped.contains(&SbId(2)), "{report:?}");
        // Nothing moves while broken.
        let frozen = report.cycles.clone();
        sys.run_for(SimDuration::us(50)).unwrap();
        for (i, f) in frozen.iter().enumerate().skip(1) {
            assert_eq!(sys.cycles(SbId(i)), *f, "sb{i} crept at breakpoint");
        }
    }

    #[test]
    fn breakpoints_are_deterministic() {
        let observe = || {
            let mut sys = build_e1(e1_spec(), 0, 50);
            sys.run_until_cycles(50, SimDuration::us(2000)).unwrap();
            let mut access = TestAccess::new(ALPHA, 1);
            let report = access.breakpoint(&mut sys, SimDuration::us(100)).unwrap();
            report.cycles
        };
        assert_eq!(observe(), observe(), "breakpoint cycle counts must repeat");
    }

    #[test]
    fn independent_mode_does_not_touch_the_fabric() {
        let mut sys = build_e1(e1_spec(), 0, 50);
        sys.run_until_cycles(50, SimDuration::us(2000)).unwrap();
        let mut access = TestAccess::new(ALPHA, 1);
        access.set_mode(TckMode::Independent);
        let report = access.breakpoint(&mut sys, SimDuration::us(20)).unwrap();
        assert!(report.stopped.is_empty());
        // Clocks keep running.
        let before = sys.cycles(SbId(1));
        sys.run_for(SimDuration::us(10)).unwrap();
        assert!(sys.cycles(SbId(1)) > before);
    }

    #[test]
    fn resume_restarts_stopped_clocks() {
        let mut sys = build_e1(e1_spec(), 0, 50);
        sys.run_until_cycles(50, SimDuration::us(2000)).unwrap();
        let mut access = TestAccess::new(ALPHA, 1);
        access.breakpoint(&mut sys, SimDuration::us(100)).unwrap();
        let frozen = sys.cycles(SbId(1));
        access.resume(&mut sys);
        let out = sys
            .run_until_cycles(frozen + 50, SimDuration::us(2000))
            .unwrap();
        assert_eq!(out, RunOutcome::Reached);
    }

    #[test]
    fn single_step_advances_by_small_increments() {
        let mut sys = build_e1(e1_spec(), 0, 50);
        sys.run_until_cycles(50, SimDuration::us(2000)).unwrap();
        let mut access = TestAccess::new(ALPHA, 1);
        let b0 = access.breakpoint(&mut sys, SimDuration::us(100)).unwrap();
        let b1 = access
            .single_step(&mut sys, 4, SimDuration::us(200))
            .unwrap();
        for i in 1..3 {
            let delta = b1.cycles[i] - b0.cycles[i];
            assert!(
                (4..60).contains(&delta),
                "sb{i} stepped by {delta}, want a small increment"
            );
        }
    }

    #[test]
    fn scan_reads_and_writes_logic_state_at_a_breakpoint() {
        let mut sys = build_e1(e1_spec(), 0, 50);
        sys.run_until_cycles(50, SimDuration::us(2000)).unwrap();
        let mut access = TestAccess::new(ALPHA, 1);
        access.breakpoint(&mut sys, SimDuration::us(100)).unwrap();
        // Read beta's architectural state through the scan register.
        let (counter, acc) = sys.logic::<MixerLogic>(SbId(1)).state();
        let read = access.scan_state_word(counter);
        assert_eq!(read, counter);
        // Write modified state back in (deterministic injection).
        sys.logic_mut::<MixerLogic>(SbId(1))
            .set_state(counter + 100, acc);
        assert_eq!(sys.logic::<MixerLogic>(SbId(1)).state().0, counter + 100);
    }

    #[test]
    fn tap_idcode_accessible_in_any_mode() {
        let mut access = TestAccess::new(ALPHA, 0x1234_5679);
        assert_eq!(access.read_idcode(), 0x1234_5679);
        access.set_mode(TckMode::Independent);
        assert_eq!(access.read_idcode(), 0x1234_5679);
        assert_eq!(access.mode(), TckMode::Independent);
    }

    #[test]
    fn node_param_writes_go_through_the_tap() {
        let mut sys = build_e1(e1_spec(), 0, 50);
        let mut access = TestAccess::new(ALPHA, 1);
        let before = sys.node(SbId(0), RingId(0)).unwrap().params();
        let new = NodeParams::new(before.hold + 1, before.recycle + 2);
        access.write_node_params(&mut sys, SbId(0), RingId(0), new);
        assert_eq!(sys.node(SbId(0), RingId(0)).unwrap().params(), new);
        assert!(access.tap().update_log().contains(&Instruction::RecycleReg));
    }

    #[test]
    fn shmoo_finds_the_injected_critical_path() {
        // Give beta a 6 ns critical path; sweep its period across it.
        let mut spec = e1_spec();
        spec.sbs[1].logic_delay = SimDuration::ns(6);
        let periods: Vec<SimDuration> = [4u64, 5, 6, 8, 10, 12]
            .iter()
            .map(|n| SimDuration::ns(*n))
            .collect();
        let result = shmoo(&spec, SbId(1), &periods, 60, &|s, seed| {
            build_e1(s, seed, 60)
        });
        // Periods >= 6 ns pass; shorter ones corrupt data and fail.
        for p in &result.points {
            let expect = p.period >= SimDuration::ns(6);
            assert_eq!(p.pass, expect, "period {} wrong verdict", p.period);
            if !expect {
                assert!(p.violations > 0);
            }
        }
        assert_eq!(result.min_passing_period(), Some(SimDuration::ns(6)));
        assert_eq!(result.max_failing_period(), Some(SimDuration::ns(5)));
    }

    #[test]
    fn shmoo_grid_matches_per_cell_scalar_runs() {
        use synchro_tokens::SystemBuilder;
        let mut spec = e1_spec();
        spec.sbs[1].logic_delay = SimDuration::ns(6);
        let periods: Vec<SimDuration> = [4u64, 6, 10].iter().map(|n| SimDuration::ns(*n)).collect();
        let seeds = [0u64, 7, 9, 21];
        let make = |s: SystemSpec, seed: u64| -> SystemBuilder {
            let n = s.sbs.len();
            let mut b = SystemBuilder::new(s)
                .expect("valid spec")
                .with_seed(seed)
                .with_trace_limit(60);
            for i in 0..n {
                b = b.with_logic(SbId(i), MixerLogic::new(seed ^ (0x1000 * i as u64)));
            }
            b
        };
        let grid = shmoo_grid(&spec, SbId(1), &periods, &seeds, 60, &make);
        assert_eq!(grid.len(), periods.len() * seeds.len());
        for (ci, cell) in grid.iter().enumerate() {
            assert_eq!(cell.period, periods[ci / seeds.len()], "period-major order");
            assert_eq!(cell.seed, seeds[ci % seeds.len()]);
            // Scalar reference for this cell: golden at the nominal
            // period, candidate run at the cell's period.
            let mut golden =
                make(spec.clone(), cell.seed).build_backend(synchro_tokens::Backend::Compiled);
            golden.run_until_cycles(60, SimDuration::us(5000)).unwrap();
            let mut s = spec.clone();
            s.sbs[1].period = cell.period;
            let mut sys = make(s, cell.seed).build_backend(synchro_tokens::Backend::Compiled);
            let completed = matches!(
                sys.run_until_cycles(60, SimDuration::us(5000)),
                Ok(synchro_tokens::system::RunOutcome::Reached)
            );
            let pass = completed
                && (0..spec.sbs.len())
                    .all(|i| sys.io_trace(SbId(i)).digest() == golden.io_trace(SbId(i)).digest());
            assert_eq!(cell.pass, pass, "cell {ci} verdict");
            assert_eq!(
                cell.violations,
                sys.timing_violations(SbId(1)),
                "cell {ci} violations"
            );
            // The injected 6 ns critical path decides every seed alike.
            assert_eq!(cell.pass, cell.period >= SimDuration::ns(6));
        }
    }

    #[test]
    fn shmoo_grid_nominal_column_reuses_goldens() {
        // When the swept periods include the nominal period, that
        // column doubles as the golden batch. The verdicts must be
        // identical to per-cell scalar golden-vs-candidate runs.
        use synchro_tokens::SystemBuilder;
        let mut spec = e1_spec();
        spec.sbs[1].logic_delay = SimDuration::ns(6);
        let nominal = spec.sbs[1].period;
        let periods = vec![SimDuration::ns(4), nominal, SimDuration::ns(6)];
        let seeds = [3u64, 11];
        let make = |s: SystemSpec, seed: u64| -> SystemBuilder {
            let n = s.sbs.len();
            let mut b = SystemBuilder::new(s)
                .expect("valid spec")
                .with_seed(seed)
                .with_trace_limit(60);
            for i in 0..n {
                b = b.with_logic(SbId(i), MixerLogic::new(seed ^ (0x1000 * i as u64)));
            }
            b
        };
        let grid = shmoo_grid(&spec, SbId(1), &periods, &seeds, 60, &make);
        assert_eq!(grid.len(), periods.len() * seeds.len());
        for (ci, cell) in grid.iter().enumerate() {
            let mut golden =
                make(spec.clone(), cell.seed).build_backend(synchro_tokens::Backend::Compiled);
            golden.run_until_cycles(60, SimDuration::us(5000)).unwrap();
            let mut s = spec.clone();
            s.sbs[1].period = cell.period;
            let mut sys = make(s, cell.seed).build_backend(synchro_tokens::Backend::Compiled);
            let completed = matches!(
                sys.run_until_cycles(60, SimDuration::us(5000)),
                Ok(synchro_tokens::system::RunOutcome::Reached)
            );
            let pass = completed
                && (0..spec.sbs.len())
                    .all(|i| sys.io_trace(SbId(i)).digest() == golden.io_trace(SbId(i)).digest());
            assert_eq!(cell.pass, pass, "cell {ci} verdict");
            // The nominal column passes by construction.
            if cell.period == nominal {
                assert!(cell.pass, "nominal cell {ci} must pass");
            }
        }
    }

    #[test]
    fn shmoo_is_repeatable_across_parallel_runs() {
        // The points fan across run_jobs worker threads (default count:
        // one per core on this machine); the merged result must be
        // byte-identical on every invocation regardless of completion
        // interleaving.
        let mut spec = e1_spec();
        spec.sbs[1].logic_delay = SimDuration::ns(6);
        let periods: Vec<SimDuration> = [4u64, 5, 6, 7, 8, 9, 10, 11, 12]
            .iter()
            .map(|n| SimDuration::ns(*n))
            .collect();
        let sweep = || {
            shmoo(&spec, SbId(1), &periods, 60, &|s, seed| {
                build_e1(s, seed, 60)
            })
        };
        let first = sweep();
        assert_eq!(first, sweep(), "shmoo result must be deterministic");
        assert_eq!(first.points.len(), periods.len());
    }
}
