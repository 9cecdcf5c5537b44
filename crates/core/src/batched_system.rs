//! Batched lane-parallel backend: N configurations in one engine.
//!
//! Campaigns over synchro-token systems (shmoo grids, chaos sweeps,
//! seed replications) run thousands of *near-identical* configurations.
//! Under the paper's determinism property each configuration's whole
//! behaviour is a pure function of its spec — so lanes built from the
//! *same* spec make exactly the same control-flow decisions at exactly
//! the same instants. [`BatchedSystem`] runs them on the compiled
//! engine's lanes instantiation (see `engine.rs`): one lockstep group
//! per spec shares the event loop, clock machinery, FIFO occupancy and
//! token-ring FSMs, and keeps only the logics, trace words and FIFO
//! words per lane. A group records each trace row's shape once and
//! hashes nothing; the first [`BatchedSystem::trace_digest`] folds all
//! its lanes in one pass, and [`BatchedSystem::io_trace`] builds a
//! lane's trace only when asked.
//! [`CompiledSystem`] is the same engine at exactly one inline lane.
//!
//! # Group formation and divergence
//!
//! Lanes are grouped at build time by *full spec equality* (plus trace
//! limit), at most [`DEFAULT_BATCH_LIMIT`] lanes per group; lanes
//! carrying a fault plan start as singleton groups (their jitter
//! perturbs event timing immediately, so they share nothing). Within a
//! group the only way per-lane data can influence control flow is the
//! logic's *send decision* on a rising edge; on the first disagreement
//! the group **splits** by send pattern, and every split is counted
//! ([`BatchedSystem::splits`]). Splitting is permanent and exact: a
//! split lane's observable behaviour is byte-identical to its scalar
//! run from the first divergent edge onward, because the cloned control
//! state *is* the scalar state.
//!
//! # Equivalence
//!
//! Every lane is **observationally byte-identical** to the scalar
//! [`CompiledSystem`] run of its builder (which is itself
//! byte-identical to the event backend): I/O trace rows, cycle counts,
//! edge times, clock/FIFO statistics, end times, outcomes, and even
//! the processed-event counts match exactly. `tests/batched_equiv.rs`
//! enforces this differentially under proptest, including adversarial
//! divergence schedules and per-lane fault plans.
//!
//! # Support envelope
//!
//! The compiled envelope. [`BatchedSystem::build`] hands the builders
//! back untouched when any lane is outside it, so callers fall back to
//! scalar backends without rebuilding.
//!
//! [`CompiledSystem`]: crate::CompiledSystem
//! [`DEFAULT_BATCH_LIMIT`]: crate::campaign::DEFAULT_BATCH_LIMIT

use crate::campaign::DEFAULT_BATCH_LIMIT;
use crate::checkpoint::{Checkpoint, CheckpointError, DecodedCheckpoint};
use crate::drive::{drive, ChunkRule};
use crate::engine::{supports, Group, GroupRun, Lanes};
use crate::iotrace::SbIoTrace;
use crate::logic::SyncLogic;
use crate::node::NodeFsm;
use crate::spec::{ChannelId, RingId, SbId, SystemSpec};
use crate::system::{RunOutcome, SystemBuilder};
use st_sim::prelude::*;
use std::borrow::Cow;

/// N configurations lowered into shared-control lockstep groups.
///
/// Build with [`BatchedSystem::build`]; lane indices follow the builder
/// order of the `Vec` passed in. Every accessor takes a lane index
/// first and answers exactly what the scalar
/// [`CompiledSystem`](crate::CompiledSystem) for that lane's builder
/// would.
pub struct BatchedSystem {
    groups: Vec<Group<Lanes>>,
    /// Lane → (group index, slot within group), kept fresh after every
    /// run/split.
    lane_loc: Vec<(usize, usize)>,
    /// Divergence splits so far: groups split off an existing group.
    splits: usize,
}

impl std::fmt::Debug for BatchedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedSystem")
            .field("lanes", &self.lane_loc.len())
            .field("groups", &self.groups.len())
            .finish()
    }
}

impl BatchedSystem {
    /// Lowers the builders into lockstep groups of at most
    /// [`DEFAULT_BATCH_LIMIT`] (64) lanes, one FIFO-occupancy bitmask
    /// word.
    ///
    /// # Errors
    ///
    /// Hands every builder back untouched when the batch is empty or
    /// any lane is outside the compiled support envelope, so callers
    /// fall back to the scalar backends without rebuilding.
    #[allow(clippy::result_large_err)]
    pub fn build(builders: Vec<SystemBuilder>) -> Result<BatchedSystem, Vec<SystemBuilder>> {
        if builders.is_empty() || !builders.iter().all(supports) {
            return Err(builders);
        }
        // Greedy grouping in lane order: a lane joins the first open
        // group with an identical spec and trace limit; faulted lanes
        // always open a singleton group.
        let mut buckets: Vec<(Vec<SystemBuilder>, Vec<usize>, bool)> = Vec::new();
        for (lane, b) in builders.into_iter().enumerate() {
            let shareable = b.faults.is_none();
            let found = if shareable {
                buckets.iter().position(|(bs, _, open)| {
                    *open
                        && bs.len() < DEFAULT_BATCH_LIMIT
                        && bs[0].spec == b.spec
                        && bs[0].trace_limit == b.trace_limit
                })
            } else {
                None
            };
            match found {
                Some(i) => {
                    buckets[i].0.push(b);
                    buckets[i].1.push(lane);
                }
                None => buckets.push((vec![b], vec![lane], shareable)),
            }
        }
        let groups: Vec<Group<Lanes>> = buckets
            .into_iter()
            .map(|(mut bs, lanes, _)| Group::lower(&mut bs, lanes.into_boxed_slice()))
            .collect();
        let mut sys = BatchedSystem {
            groups,
            lane_loc: Vec::new(),
            splits: 0,
        };
        sys.relocate();
        Ok(sys)
    }

    fn relocate(&mut self) {
        let n: usize = self.groups.iter().map(|g| g.ids().len()).sum();
        self.lane_loc = vec![(usize::MAX, usize::MAX); n];
        for (gi, g) in self.groups.iter().enumerate() {
            for (slot, &lane) in g.ids().iter().enumerate() {
                self.lane_loc[lane] = (gi, slot);
            }
        }
    }

    /// Adds a group split off an existing one (the one place splits are
    /// counted) and returns its index.
    fn adopt_split(&mut self, group: Group<Lanes>) -> usize {
        self.splits += 1;
        self.groups.push(group);
        self.groups.len() - 1
    }

    /// Total lanes across all groups.
    pub fn lanes(&self) -> usize {
        self.lane_loc.len()
    }

    /// Current lockstep group count (grows on divergence splits); the
    /// batch occupancy metric is `lanes() / group_count()`.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Divergence splits so far: each split-off group counts one, so
    /// `group_count()` is the groups formed at build plus `splits()`.
    pub fn splits(&self) -> usize {
        self.splits
    }

    /// Runs every lane until it has executed `cycles` local cycles,
    /// deadlocks, or exhausts `max_time` — the scalar
    /// `run_until_cycles` chunk loop, per group, with divergence
    /// splits resuming at the exact chunk boundary the scalar run
    /// would use. Returns one outcome per lane, byte-equal to the
    /// scalar backends' outcomes.
    pub fn run_until_cycles(&mut self, cycles: u64, max_time: SimDuration) -> Vec<RunOutcome> {
        self.drive_lanes(cycles, max_time, false)
    }

    /// A verdict run of every lane (see
    /// [`System::run_to_verdict`](crate::System::run_to_verdict)): the
    /// per-lane outcomes and traces of
    /// [`run_until_cycles`](Self::run_until_cycles), with an
    /// unspecified end state.
    pub fn run_to_verdict(&mut self, cycles: u64, max_time: SimDuration) -> Vec<RunOutcome> {
        self.drive_lanes(cycles, max_time, true)
    }

    fn drive_lanes(
        &mut self,
        cycles: u64,
        max_time: SimDuration,
        verdict: bool,
    ) -> Vec<RunOutcome> {
        struct Work {
            gi: usize,
            rule: ChunkRule,
            deadline: SimTime,
            pending: Option<SimTime>,
        }
        let mut work: Vec<Work> = self
            .groups
            .iter()
            .enumerate()
            .map(|(gi, g)| Work {
                gi,
                rule: ChunkRule::new(g.spec(), cycles, verdict.then_some(g.trace_limit())),
                deadline: g.now() + max_time,
                pending: None,
            })
            .collect();
        let mut outcomes: Vec<Option<RunOutcome>> = vec![None; self.groups.len()];
        while let Some(w) = work.pop() {
            let mut run = GroupRun {
                group: &mut self.groups[w.gi],
                splits: Vec::new(),
            };
            let outcome = drive(&mut run, w.rule, w.deadline, w.pending)
                .expect("the batched engine never fails");
            let splits = run.splits;
            outcomes[w.gi] = Some(outcome);
            for (child, until) in splits {
                // A split-off subgroup first finishes the chunk it
                // split in, then continues its own loop under the
                // parent's rule and deadline.
                let gi = self.adopt_split(child);
                outcomes.push(None);
                work.push(Work {
                    gi,
                    pending: Some(until),
                    ..w
                });
            }
        }
        self.relocate();
        self.lane_loc
            .iter()
            .map(|&(gi, _)| outcomes[gi].clone().expect("every group was driven"))
            .collect()
    }

    #[inline]
    fn at(&self, lane: usize) -> (&Group<Lanes>, usize) {
        let (gi, slot) = self.lane_loc[lane];
        (&self.groups[gi], slot)
    }

    /// The specification lane `lane` was built from.
    pub fn spec(&self, lane: usize) -> &SystemSpec {
        self.at(lane).0.spec()
    }

    /// Local cycles elapsed in `sb` of lane `lane`.
    pub fn cycles(&self, lane: usize, sb: SbId) -> u64 {
        self.at(lane).0.cycles(sb)
    }

    /// The I/O trace of `sb` in lane `lane`. A group stores its lanes'
    /// traces together, so this builds the lane's trace on each call;
    /// compare lanes by [`trace_digest`](Self::trace_digest) instead.
    pub fn io_trace(&self, lane: usize, sb: SbId) -> Cow<'_, SbIoTrace> {
        let (g, slot) = self.at(lane);
        g.lane_trace(slot, sb)
    }

    /// `io_trace(lane, sb).digest()` without building the trace: the
    /// first read folds all the group's lanes at once; later ones reuse it.
    pub fn trace_digest(&self, lane: usize, sb: SbId) -> u64 {
        let (g, slot) = self.at(lane);
        g.lane_digest(slot, sb)
    }

    /// The configuration hash of the builder lane `lane` was lowered
    /// from — identical to what the scalar engines compute for the
    /// same builder. Computed on the lane's first read (lowering does
    /// not hash), then kept.
    pub fn spec_hash(&self, lane: usize) -> [u8; 16] {
        let (g, slot) = self.at(lane);
        g.lane_hash(slot)
    }

    /// Extracts lane `lane`'s complete state as a **compiled-backend**
    /// [`Checkpoint`] — byte-identical to the checkpoint the scalar
    /// [`CompiledSystem`](crate::CompiledSystem) of the lane's builder
    /// would produce at the same point. The checkpoint resumes through
    /// `CompiledSystem::resume` (or `AnySystem::resume`); there is no
    /// whole-batch checkpoint — lanes fork out of a batch one at a
    /// time, which is exactly the prefix-sharing campaign shape.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] when a logic attached to the
    /// lane does not implement
    /// [`SyncLogic::save_state`].
    pub fn checkpoint(&self, lane: usize) -> Result<Checkpoint, CheckpointError> {
        self.snapshot(lane).map(|s| s.encode())
    }

    /// Lane `lane`'s state as [`checkpoint`](Self::checkpoint) would
    /// encode it, held decoded: equal to `checkpoint(lane)?.decode()`.
    ///
    /// # Errors
    ///
    /// As [`checkpoint`](Self::checkpoint).
    pub fn snapshot(&self, lane: usize) -> Result<DecodedCheckpoint, CheckpointError> {
        let (g, slot) = self.at(lane);
        g.lane_snapshot(slot)
    }

    /// The final state of lane `lane`'s logic on `sb`, downcast.
    ///
    /// # Panics
    ///
    /// Panics if the logic attached there is not a `T`.
    pub fn logic<T: SyncLogic>(&self, lane: usize, sb: SbId) -> &T {
        let (g, slot) = self.at(lane);
        g.lane_logic(slot, sb)
    }

    /// The node FSM of `sb` on `ring` in lane `lane`, if present.
    /// Node FSMs are control state: lanes sharing a group answer
    /// identically (which is exactly why they can share).
    pub fn node(&self, lane: usize, sb: SbId, ring: RingId) -> Option<&NodeFsm> {
        self.at(lane).0.node(sb, ring)
    }

    /// Mutable node access for lane `lane` (debug hooks, SEU
    /// injection). Mutating one lane's FSM is control-flow divergence
    /// by definition, so the lane is first split out of its group.
    pub fn node_mut(&mut self, lane: usize, sb: SbId, ring: RingId) -> Option<&mut NodeFsm> {
        self.isolate_lane(lane);
        let (gi, _) = self.lane_loc[lane];
        self.groups[gi].node_mut(sb, ring)
    }

    /// Splits `lane` into its own singleton group (no-op when it
    /// already is one).
    fn isolate_lane(&mut self, lane: usize) {
        let (gi, slot) = self.lane_loc[lane];
        let n = self.groups[gi].ids().len();
        if n == 1 {
            return;
        }
        let rest: Vec<usize> = (0..n).filter(|&s| s != slot).collect();
        for child in self.groups[gi].partition_into(&[rest, vec![slot]]) {
            self.adopt_split(child);
        }
        self.relocate();
    }

    /// SBs of lane `lane` whose clocks are currently parked.
    pub fn stopped_sbs(&self, lane: usize) -> Vec<SbId> {
        self.at(lane).0.stopped_sbs()
    }

    /// Clock statistics of `sb` in lane `lane`: (edges, stops).
    pub fn clock_stats(&self, lane: usize, sb: SbId) -> (u64, u64) {
        self.at(lane).0.clock_stats(sb)
    }

    /// FIFO statistics of `channel` in lane `lane`:
    /// (pushes, pops, overruns, underruns).
    pub fn fifo_stats(&self, lane: usize, channel: ChannelId) -> (u64, u64, u64, u64) {
        self.at(lane).0.fifo_stats(channel)
    }

    /// Words lane `lane`'s logic on `sb` attempted to send on blocked
    /// channels.
    pub fn dropped_words(&self, lane: usize, sb: SbId) -> u64 {
        self.at(lane).0.dropped_words(sb)
    }

    /// Setup-time violations taken by `sb` in lane `lane`.
    pub fn timing_violations(&self, lane: usize, sb: SbId) -> u64 {
        self.at(lane).0.timing_violations(sb)
    }

    /// Wall-clock times of `sb`'s rising edges in lane `lane`.
    pub fn edge_times(&self, lane: usize, sb: SbId) -> &[SimTime] {
        self.at(lane).0.edge_times(sb)
    }

    /// Lane `lane`'s current simulated time.
    pub fn now(&self, lane: usize) -> SimTime {
        self.at(lane).0.now()
    }

    /// Typed events processed on lane `lane`'s behalf — equal to the
    /// scalar compiled engine's count for the same builder (the group
    /// dispatches each shared event once, and it stands for the event
    /// every member lane's scalar run would dispatch).
    pub fn events_processed(&self, lane: usize) -> u64 {
        self.at(lane).0.events_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled_system::Backend;
    use crate::logic::{SequenceSource, SinkCollect};
    use crate::spec::NodeParams;

    fn pair_spec() -> SystemSpec {
        let mut s = SystemSpec::default();
        let a = s.add_sb("tx", SimDuration::ns(10));
        let b = s.add_sb("rx", SimDuration::ns(10));
        let r = s.add_ring(a, b, NodeParams::new(4, 12), SimDuration::ns(30));
        s.add_channel(a, b, r, 16, 4, SimDuration::ns(1));
        s
    }

    fn pair_builder(start: u64) -> SystemBuilder {
        SystemBuilder::new(pair_spec())
            .expect("valid spec")
            .with_logic(SbId(0), SequenceSource::new(start, 1))
            .with_logic(SbId(1), SinkCollect::new())
    }

    #[test]
    fn identical_spec_lanes_share_one_group() {
        let sys = BatchedSystem::build((0..5).map(|i| pair_builder(100 + i)).collect())
            .expect("supported");
        assert_eq!(sys.lanes(), 5);
        assert_eq!(sys.group_count(), 1);
    }

    #[test]
    fn unsupported_specs_hand_the_builders_back() {
        let mut spec = pair_spec();
        spec.sbs[0].period = SimDuration::fs(1500); // below the bundle delay
        let b = SystemBuilder::new(spec).unwrap();
        let back = BatchedSystem::build(vec![b]).expect_err("outside the envelope");
        assert_eq!(back.len(), 1);
        assert!(BatchedSystem::build(Vec::new()).is_err());
    }

    #[test]
    fn lanes_match_the_scalar_compiled_backend() {
        let mut batch = BatchedSystem::build((0..4).map(|i| pair_builder(100 + 7 * i)).collect())
            .expect("supported");
        let outcomes = batch.run_until_cycles(200, SimDuration::us(100));
        for (lane, outcome) in outcomes.iter().enumerate() {
            let mut scalar = pair_builder(100 + 7 * lane as u64).build_backend(Backend::Compiled);
            let scalar_outcome = scalar.run_until_cycles(200, SimDuration::us(100)).unwrap();
            assert_eq!(*outcome, scalar_outcome, "lane {lane}");
            assert_eq!(batch.now(lane), scalar.now(), "lane {lane}");
            for i in 0..2 {
                let sb = SbId(i);
                assert_eq!(batch.cycles(lane, sb), scalar.cycles(sb), "lane {lane}");
                assert_eq!(
                    *batch.io_trace(lane, sb),
                    *scalar.io_trace(sb),
                    "lane {lane} sb {i}"
                );
                assert_eq!(batch.edge_times(lane, sb), scalar.edge_times(sb));
            }
            assert_eq!(
                batch.fifo_stats(lane, ChannelId(0)),
                scalar.fifo_stats(ChannelId(0))
            );
            assert_eq!(batch.events_processed(lane), scalar.events_fired());
            let sink: &SinkCollect = batch.logic(lane, SbId(1));
            let sink_scalar: &SinkCollect = scalar.logic(SbId(1));
            assert_eq!(sink.received, sink_scalar.received);
        }
    }
}
