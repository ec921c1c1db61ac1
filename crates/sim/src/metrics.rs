//! Execution-path event counters, for benchmarks and CI gates.
//!
//! The sharded executor's value proposition is that the single-threaded
//! merge replays only *order-dependent* events, with everything else
//! batch-folded in the parallel precompute passes. These counters make
//! that claim measurable: `sim_throughput` snapshots them around each run
//! and emits merged/folded/surfaced counts next to wall-clock, and the CI
//! gate fails if a streaming workload starts replaying per-line again.
//!
//! The counters live in the [`ObsRegistry`](cheetah_obs::ObsRegistry) a
//! run carries in [`MachineConfig::obs`](crate::MachineConfig); read them
//! with [`snapshot_of`]. Counters stay deliberately **outside**
//! [`crate::RunReport`]: reports are bit-identical between the sharded
//! executor and the reference per-op loop
//! ([`Machine::run_reference`](crate::Machine::run_reference)), while
//! these counts describe the execution *strategy* and legitimately differ
//! between them.

use cheetah_obs::{Counter, ObsHandle};

/// Counter name for individually merge-ordered events.
pub const MERGED_EVENTS: &str = "sim.merged_events";
/// Counter name for batch-folded accesses.
pub const FOLDED_EVENTS: &str = "sim.folded_events";
/// Counter name for observer-surfaced accesses.
pub const SURFACED_EVENTS: &str = "sim.surfaced_events";
/// Counter name for sharded classify-pass wall nanoseconds.
pub const CLASSIFY_NS: &str = "sim.classify_ns";
/// Counter name for sharded precompute-pass wall nanoseconds.
pub const PRECOMPUTE_NS: &str = "sim.precompute_ns";
/// Counter name for sharded merge-pass wall nanoseconds.
pub const MERGE_NS: &str = "sim.merge_ns";
/// Counter name for footprint contract violations: accesses a sharded
/// phase classified outside every declared extent (or against the declared
/// owner/write mode). Each one falls back to the fully-ordered directory
/// path, so reports stay correct — but a non-zero count means some
/// stream's [`Footprint::Bounded`](crate::Footprint) under-approximated
/// its accesses and `cheetah-analyze --lint` will flag the workload.
pub const FOOTPRINT_VIOLATIONS: &str = "sim.footprint_violations";
/// Counter name for schedule-policy selections: residue events ordered by
/// a perturbed [`SchedulePolicy`](crate::SchedulePolicy) instead of the
/// observed timestamp order. Zero for observed-schedule runs.
pub const SCHED_SELECTIONS: &str = "sched.selections";
/// Counter name for residue events a perturbed schedule actually
/// *reordered*: the chosen worker's event was not the globally earliest
/// ready event. `reordered / selections` measures how far a seed strays
/// from the observed interleaving.
pub const SCHED_REORDERED: &str = "sched.reordered_events";

/// Counter snapshot of one registry; see [`snapshot_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecMetrics {
    /// Events processed *individually* in global order: every access the
    /// per-op loop runs, and in sharded runs each directory event, each walked
    /// hit-run read, each heap pop and each surfaced access the merge
    /// replays one by one.
    pub merged_events: u64,
    /// Accesses folded in batches without individual global-order
    /// processing: precomputed private accesses absorbed into event leads
    /// and settled hit-run reads folded in O(1) per run.
    pub folded_events: u64,
    /// Accesses surfaced to the observer (sample delivery and
    /// every-access observers); a subset of the work counted in
    /// `merged_events` for sharded runs.
    pub surfaced_events: u64,
    /// Wall-clock nanoseconds spent in sharded phases' footprint
    /// classification pass.
    pub classify_ns: u64,
    /// Wall-clock nanoseconds spent in sharded phases' parallel
    /// precompute-and-fold pass.
    pub precompute_ns: u64,
    /// Wall-clock nanoseconds spent in sharded phases' deterministic merge.
    pub merge_ns: u64,
    /// Accesses that violated their stream's declared footprint contract
    /// during sharded classification (see [`FOOTPRINT_VIOLATIONS`]).
    pub footprint_violations: u64,
    /// Residue events ordered by a perturbed schedule policy (see
    /// [`SCHED_SELECTIONS`]).
    pub sched_selections: u64,
    /// Residue events a perturbed schedule moved off the observed order
    /// (see [`SCHED_REORDERED`]).
    pub sched_reordered: u64,
}

impl ExecMetrics {
    /// Element-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &ExecMetrics) -> ExecMetrics {
        ExecMetrics {
            merged_events: self.merged_events - earlier.merged_events,
            folded_events: self.folded_events - earlier.folded_events,
            surfaced_events: self.surfaced_events - earlier.surfaced_events,
            classify_ns: self.classify_ns - earlier.classify_ns,
            precompute_ns: self.precompute_ns - earlier.precompute_ns,
            merge_ns: self.merge_ns - earlier.merge_ns,
            footprint_violations: self.footprint_violations - earlier.footprint_violations,
            sched_selections: self.sched_selections - earlier.sched_selections,
            sched_reordered: self.sched_reordered - earlier.sched_reordered,
        }
    }
}

/// Reads the current counter values from `obs`'s registry.
pub fn snapshot_of(obs: &ObsHandle) -> ExecMetrics {
    ExecMetrics {
        merged_events: obs.counter(MERGED_EVENTS).get(),
        folded_events: obs.counter(FOLDED_EVENTS).get(),
        surfaced_events: obs.counter(SURFACED_EVENTS).get(),
        classify_ns: obs.counter(CLASSIFY_NS).get(),
        precompute_ns: obs.counter(PRECOMPUTE_NS).get(),
        merge_ns: obs.counter(MERGE_NS).get(),
        footprint_violations: obs.counter(FOOTPRINT_VIOLATIONS).get(),
        sched_selections: obs.counter(SCHED_SELECTIONS).get(),
        sched_reordered: obs.counter(SCHED_REORDERED).get(),
    }
}

/// Pre-resolved counter handles for one run's registry: the execution
/// paths look the handles up once per run/phase instead of taking the
/// registry lock per event batch.
#[derive(Debug, Clone)]
pub(crate) struct SimCounters {
    merged: Counter,
    folded: Counter,
    surfaced: Counter,
    classify_ns: Counter,
    precompute_ns: Counter,
    merge_ns: Counter,
    violations: Counter,
    sched_selections: Counter,
    sched_reordered: Counter,
}

impl SimCounters {
    pub(crate) fn of(obs: &ObsHandle) -> SimCounters {
        SimCounters {
            merged: obs.counter(MERGED_EVENTS),
            folded: obs.counter(FOLDED_EVENTS),
            surfaced: obs.counter(SURFACED_EVENTS),
            classify_ns: obs.counter(CLASSIFY_NS),
            precompute_ns: obs.counter(PRECOMPUTE_NS),
            merge_ns: obs.counter(MERGE_NS),
            violations: obs.counter(FOOTPRINT_VIOLATIONS),
            sched_selections: obs.counter(SCHED_SELECTIONS),
            sched_reordered: obs.counter(SCHED_REORDERED),
        }
    }

    /// Adds one sharded phase's pass timings.
    #[inline]
    pub(crate) fn add_pass_timings(&self, classify_ns: u64, precompute_ns: u64, merge_ns: u64) {
        self.classify_ns.add(classify_ns);
        self.precompute_ns.add(precompute_ns);
        self.merge_ns.add(merge_ns);
    }

    /// Adds `n` individually merge-ordered events.
    #[inline]
    pub(crate) fn count_merged(&self, n: u64) {
        self.merged.add(n);
    }

    /// Adds `n` batch-folded accesses.
    #[inline]
    pub(crate) fn count_folded(&self, n: u64) {
        self.folded.add(n);
    }

    /// Adds `n` observer-surfaced accesses.
    #[inline]
    pub(crate) fn count_surfaced(&self, n: u64) {
        self.surfaced.add(n);
    }

    /// Adds `n` footprint contract violations.
    #[inline]
    pub(crate) fn count_violations(&self, n: u64) {
        self.violations.add(n);
    }

    /// Adds one perturbed phase's schedule-policy decision counts.
    #[inline]
    pub(crate) fn count_schedule(&self, selections: u64, reordered: u64) {
        self.sched_selections.add(selections);
        self.sched_reordered.add(reordered);
    }

    /// A clone of the violations counter handle, for the footprint
    /// auditor's per-stream wrappers.
    pub(crate) fn violations_handle(&self) -> Counter {
        self.violations.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let a = ExecMetrics {
            merged_events: 10,
            folded_events: 20,
            surfaced_events: 5,
            ..ExecMetrics::default()
        };
        let b = ExecMetrics {
            merged_events: 4,
            folded_events: 8,
            surfaced_events: 1,
            ..ExecMetrics::default()
        };
        assert_eq!(b.since(&b), ExecMetrics::default());
        let d = a.since(&b);
        assert_eq!(
            (d.merged_events, d.folded_events, d.surfaced_events),
            (6, 12, 4)
        );
    }

    #[test]
    fn scoped_snapshot_is_independent_of_global() {
        let scoped = ObsHandle::fresh();
        SimCounters::of(&scoped).count_merged(17);
        assert_eq!(snapshot_of(&scoped).merged_events, 17);
        // A second fresh registry sees none of it.
        assert_eq!(snapshot_of(&ObsHandle::fresh()), ExecMetrics::default());
    }
}
