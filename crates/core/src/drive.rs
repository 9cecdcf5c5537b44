//! The chunk loop behind every cycle-bounded run.
//!
//! [`System`](crate::System), [`CompiledSystem`](crate::CompiledSystem)
//! and [`BatchedSystem`](crate::BatchedSystem) all drive
//! `run_until_cycles` and `run_to_verdict` through [`drive`]: advance
//! simulated time one chunk at a time, checking after each chunk
//! whether every SB reached the target, the system went quiescent, or
//! the budget ran out. Where the chunk boundaries fall is observable —
//! a run stops at a boundary, so the end time, the cycles past the
//! target and every statistic depend on it — which is why the one
//! [`ChunkRule`] lives here and nowhere else.

use crate::spec::{SbId, SystemSpec};
use crate::system::RunOutcome;
use st_sim::prelude::*;

/// How a cycle-bounded run sizes its chunks of simulated time.
///
/// * `run_until_cycles` uses fixed chunks of
///   `max_period × max(cycles, 16)`, measured from wherever the run
///   starts. Checkpoints and SEU strike points land on these
///   boundaries, so they are part of its contract.
/// * A verdict run whose trace limit lies in `1..=cycles` sizes each
///   chunk by the cycles still missing: `max_period × (cycles −
///   min_cycles)`. Every trace is full once the slowest SB reaches
///   `cycles`, so nothing simulated later could change a trace or the
///   outcome. Any other trace limit keeps the fixed rule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkRule {
    cycles: u64,
    max_period: SimDuration,
    by_missing: bool,
}

impl ChunkRule {
    /// The rule for a run of `spec` to `cycles`; `verdict_trace_limit`
    /// is the engine's trace limit for a verdict run, `None` for
    /// `run_until_cycles`.
    pub(crate) fn new(spec: &SystemSpec, cycles: u64, verdict_trace_limit: Option<usize>) -> Self {
        ChunkRule {
            cycles,
            max_period: spec
                .sbs
                .iter()
                .map(|s| s.period)
                .max()
                .unwrap_or(SimDuration::ns(10)),
            by_missing: verdict_trace_limit.is_some_and(|l| (1..=cycles).contains(&(l as u64))),
        }
    }

    /// The end of the next chunk for a run at `now` whose slowest SB
    /// has `min_cycles` (below the target) cycles, capped at `deadline`.
    fn boundary(&self, now: SimTime, min_cycles: u64, deadline: SimTime) -> SimTime {
        let span = if self.by_missing {
            self.cycles - min_cycles
        } else {
            self.cycles.max(16)
        };
        (now + self.max_period * span).min(deadline)
    }
}

/// The engine surface [`drive`] needs.
pub(crate) trait Drive {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Local cycles of the slowest SB.
    fn min_cycles(&self) -> u64;
    /// Runs to `until`; `true` when nothing is left in flight.
    fn run_chunk(&mut self, until: SimTime) -> Result<bool, SimError>;
    /// SBs whose clocks are parked.
    fn stopped_sbs(&self) -> Vec<SbId>;
}

/// Runs `sys` chunk by chunk under `rule` until every SB reaches the
/// rule's cycle target (`Reached`), a chunk ends quiescent short of it
/// (`Deadlock`), or `deadline` passes (`TimedOut`). `pending` is a
/// chunk end to finish first, for a lane group split off mid-chunk.
pub(crate) fn drive(
    sys: &mut impl Drive,
    rule: ChunkRule,
    deadline: SimTime,
    mut pending: Option<SimTime>,
) -> Result<RunOutcome, SimError> {
    loop {
        let until = match pending.take() {
            Some(until) => until,
            None => {
                if sys.min_cycles() >= rule.cycles {
                    return Ok(RunOutcome::Reached);
                }
                if sys.now() >= deadline {
                    return Ok(RunOutcome::TimedOut);
                }
                rule.boundary(sys.now(), sys.min_cycles(), deadline)
            }
        };
        let quiescent = sys.run_chunk(until)?;
        if sys.min_cycles() >= rule.cycles {
            return Ok(RunOutcome::Reached);
        }
        if quiescent {
            // Nothing left in flight: every clock is parked for good.
            return Ok(RunOutcome::Deadlock {
                stopped: sys.stopped_sbs(),
            });
        }
    }
}
