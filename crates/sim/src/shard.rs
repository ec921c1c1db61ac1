//! Sharded deterministic execution: the simulator's engine for every
//! phase.
//!
//! The reference per-op loop
//! ([`Machine::run_reference`](crate::Machine::run_reference)) interleaves
//! every thread of a parallel phase through one discrete-event loop: each
//! memory access takes a heap scheduling step, a shared-directory lookup
//! and an observer callback, all on one host thread. This module executes
//! the same phase in two passes whose result is **bit-identical** to the
//! per-op loop ([`MachineConfig::shards`] only sets how many host threads
//! the first pass uses):
//!
//! 1. **Precompute** (fanned out over host threads): each worker's access
//!    stream is replayed *locally*. Three facts make most of the work
//!    timing-independent and therefore precomputable before any global
//!    interleaving is known:
//!    * streams are deterministic state machines — the op sequence never
//!      depends on timing;
//!    * MESI transitions (`coherence::transition`) depend only on
//!      the line's state and the issuing core, never on the clock; the
//!      clock matters solely for busy-window queueing, and a line touched
//!      by a single core can never queue (each thread's clock advances past
//!      its own transactions, and pre-phase transactions complete before
//!      the phase starts);
//!    * sampling decisions ([`crate::observer::ThreadSampler`]) are pure
//!      functions of the thread's retired-instruction index.
//!
//! ## Extent-based classification
//!
//! Lines are classified by who touches them in the phase — **private**
//! (one worker, simulated entirely in precompute), **read-shared**
//! (several workers, no writes: one directory access per worker, every
//! later read a provable L1 hit) or **write-shared** (the false-sharing
//! traffic itself, fully ordered). Discovering the classes per *line*
//! would pay several hash-map operations for every distinct line — the
//! dominant cost of streaming phases that touch tens of thousands of
//! one-shot private lines. Classification is therefore per **extent**: each
//! stream declares its footprint as a few contiguous byte ranges
//! ([`crate::footprint`]), a single boundary sweep classifies the union
//! (`extent::ClassTable`), and the per-access hot loop resolves a
//! line's class with one cached range comparison.
//!
//! ## Write-private folding
//!
//! A private line's whole phase history is computed in precompute; only
//! *sampled* private accesses become events, everything else folds into
//! the next event's `lead` cycles. The per-line residue folds too: each
//! worker keeps its private lines in one table indexed by line number
//! (`LineTable`, paged so memory follows the lines it touches), each cell
//! holding the line's MESI state and whether it was seeded from a
//! per-line directory entry ("pinned"). Write-back walks the table in line
//! order and restores each run of consecutive unpinned lines in one state
//! as a whole extent (`Directory::restore_extent`), so a streaming
//! worker's million-access private-write sweep costs the directory a
//! handful of range splices instead of thousands of per-line events.
//! Pinned lines are restored per line: their per-line entries would
//! shadow a range restore.
//!
//! 2. **Merge** (single-threaded): the per-worker event streams are merged
//!    on a min-heap keyed by `(timestamp, worker, seq)` — the exact order
//!    the per-op loop produces (its heap is keyed the same way and each
//!    worker's ops are FIFO). Shared-directory accesses, busy-window waits,
//!    observer callbacks and sample delivery all happen here, in merged
//!    global order, so coherence state, detector samples and reports come
//!    out bit-identical to the per-op loop. The phase's join barrier
//!    becomes a merge barrier: the main thread resumes at the merged
//!    maximum end time, exactly as it would have at the per-op join.
//!
//! ## The hit-run settling argument, per line
//!
//! A read-shared line's busy windows can only be created by *first-touch*
//! accesses (its hits never occupy the line). Once a line can provably
//! never be occupied again, a run of hits on it has no observable effect
//! other than advancing its own worker's clock and counting L1 hits — so
//! the merge folds the entire run in O(1) using its precomputed lead sum.
//! Rather than wait for *every* read-shared line's first touches globally,
//! the settling condition is per line, and earlier: after a line's first
//! two first-touches merge it is in `Shared` state, where further first
//! touches are LLC hits that do not occupy the line — except
//! prefetch-substituted sequential fills, which the precompute pass counts
//! per line in advance (`seq_pending`). A line is *settled* once all its
//! first touches merged, or two merged and no sequential fills remain
//! outstanding; its busy window is then final, and every hit run over
//! settled lines whose windows have passed folds without touching the heap
//! or the directory. Before that point the merge walks runs read by read
//! against the real busy windows, yielding at the horizon exactly like the
//! per-op loop.
//!
//! ## Serial phases
//!
//! A serial phase is the degenerate sharded phase: the main thread as its
//! only member. It enters through the same `run_phase_sharded` as a
//! parallel phase; its class table is one all-covering extent private to
//! that member, so its footprint is never read, and only its sampled
//! accesses become merge events. Its precompute continues the main
//! thread's retired counts, so the sampling replica forked at each serial
//! phase resumes mid-stream.
//!
//! ## Fully ordered phases
//!
//! Splitting a parallel phase needs two things: members on pairwise-distinct
//! cores (a core's private cache and prefetch cursor then see one member's
//! accesses only, which that member's precompute pass knows in full), and a
//! declared footprint for every member (the classification sweep's input).
//! A phase missing either — more workers than cores, or a stream with
//! [`Footprint::Unknown`] — runs **fully ordered**, the parallel counterpart
//! of a serial phase: its class table is one all-covering write-shared
//! extent, so every access becomes a merge event and nothing is simulated
//! locally. Its merge sends each event through [`Directory::access`] rather
//! than the precomputed-prefetch variant, so each core's prefetch cursor
//! sees that core's accesses in exactly the per-op loop's order, two
//! workers sharing the core included, and its write-back leaves the cursor
//! as the merge left it. Schedule policies apply as to any parallel phase.
//!
//! Determinism is structural: the precompute pass is per-worker (the
//! partitioning of workers onto host threads cannot affect its output) and
//! the merge order is a pure function of worker clocks, so *any* shard
//! count yields the same [`crate::RunReport`] as the reference per-op
//! loop. The property tests in `tests/shard_props.rs` and the
//! `sim_throughput` bench gate assert exactly that; the
//! [`crate::metrics`] counters expose how much was merged vs folded.

use crate::coherence::{prefetchable, transition, Directory, LineState, SharerSet};
use crate::exec::{MachineConfig, ThreadCtx, OBS_LANE_ENGINE};
use crate::extent::{ClassTable, ExtClass, LineExtent, RangeList};
use crate::footprint::Footprint;
use crate::latency::{AccessOutcome, LatencyModel};
use crate::metrics::SimCounters;
use crate::observer::{AccessRecord, ExecObserver, SamplerFork};
use crate::program::{AccessStream, Op, OpsStream};
use crate::schedule::{SchedulePolicy, ScheduleRng};
use crate::types::{AccessKind, Addr, CacheLineId, CoreId, Cycles, PhaseKind, ThreadId};
use crate::util::{FastMap, FastSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Once a range list fragments this far, further non-extending lines spill
/// to a per-line collection instead of `Vec::insert`.
const FRAG_CAP: usize = 512;
/// Widest hit-run line span checked line by line for early folding; wider
/// runs wait for global settling.
const MAX_FOLD_SPAN: u64 = 16;

/// One read inside a hit-run: `cum_lead` is the folded local work since the
/// run started, *inclusive* of the gap before this read (the first read's
/// gap is 0 — the event's own lead covers it). Cumulative form makes both
/// the per-read walk (adjacent differences) and the O(1) fold from any
/// resume cursor (suffix = total − prefix) cheap. Unsampled by
/// construction, so no observer fields are needed.
struct HitRead {
    cum_lead: Cycles,
    addr: Addr,
}

/// One precomputed worker event, preceded by `lead` cycles of local work:
/// compute ops, unsampled private accesses, and the perturbation of every
/// earlier access the observer does not see. A fully write-shared (or
/// fully ordered) phase precomputes one event per access, so events stay
/// 24 bytes: payloads only some events need live in the [`WorkerPlan`]'s
/// side tables.
struct Ev {
    lead: Cycles,
    /// The accessed address (unused by hit runs and exits).
    addr: Addr,
    kind: EvKind,
}

#[derive(Clone, Copy)]
enum EvKind {
    /// An access that needs the shared directory (write-shared line, or a
    /// core's first touch of a read-shared line).
    Dir {
        write: bool,
        /// Precomputed next-line-prefetch condition (the worker's own
        /// access sequence determines it).
        sequential: bool,
        /// First touch of a read-shared line: updates the line's settling
        /// state when merged.
        settles: bool,
        /// Delivered to the observer with the worker's next [`Surfaced`].
        surfaced: bool,
    },
    /// A *sampled* read of a read-shared line after this core's first
    /// touch: a proven L1 hit surfaced to the observer; only the
    /// busy-window wait needs global time.
    SharedHit,
    /// A run of unsampled read-shared hits (see the module docs), by index
    /// into [`WorkerPlan::runs`].
    HitRun(u32),
    /// A private access that must be surfaced to the observer (sampled, or
    /// the observer demanded every access); outcome precomputed.
    Private { write: bool, outcome: AccessOutcome },
    /// End of the worker's stream; `lead` holds trailing compute cycles.
    Exit,
}

const _: () = assert!(std::mem::size_of::<Ev>() == 24);

/// The observer-facing half of a surfaced event, in event order.
struct Surfaced {
    instrs_before: u64,
    /// The replica's perturbation; `None` when the observer decides it.
    perturbation: Option<Cycles>,
}

/// A run of unsampled read-shared hits. The line span and lead sum let
/// the merge fold the run in O(1) once every line in the span has
/// settled.
struct HitRun {
    reads: Box<[HitRead]>,
    min_line: u64,
    max_line: u64,
}

/// One memory access of a member's stream: `work_before` compute
/// instructions since the previous access, then the access itself.
struct FeedAccess {
    work_before: u64,
    addr: Addr,
    write: bool,
}

/// A member's stream read access by access, compute ops folded into the
/// next access's `work_before`.
struct Feed {
    stream: Box<dyn AccessStream>,
    /// Compute instructions after the last access (valid once exhausted).
    trailing: u64,
}

impl Feed {
    fn next_access(&mut self) -> Option<FeedAccess> {
        let mut work = 0u64;
        loop {
            let (addr, write) = match self.stream.next_op() {
                Some(Op::Work(n)) => {
                    work += n;
                    continue;
                }
                Some(Op::Read(addr)) => (addr, false),
                Some(Op::Write(addr)) => (addr, true),
                None => {
                    self.trailing = work;
                    return None;
                }
            };
            return Some(FeedAccess {
                work_before: work,
                addr,
                write,
            });
        }
    }
}

/// Lines per page of a [`LineTable`].
const PAGE_LINES: u64 = 256;

/// One line of a [`LineTable`]: its MESI state so far this phase (`None`
/// until the worker touches it) and whether it was seeded from a per-line
/// directory entry, which would shadow a range restore of the line.
#[derive(Clone, Copy, Default)]
struct Cell {
    state: Option<LineState>,
    pinned: bool,
}

const _: () = assert!(std::mem::size_of::<Cell>() == 24);

/// A worker's private lines, indexed by line number: pages of
/// [`PAGE_LINES`] cells allocated on first touch, so memory follows the
/// lines the worker touches. The last two pages used stay cached, which
/// keeps loops that alternate between two regions off the page map.
#[derive(Default)]
struct LineTable {
    pages: Vec<(u64, Box<[Cell]>)>,
    /// Page id to its index in `pages`.
    index: FastMap<u64, usize>,
    /// Indices in `pages` of the two most recently used pages, newest first.
    recent: [usize; 2],
}

impl LineTable {
    #[inline]
    fn cell(&mut self, line: CacheLineId) -> &mut Cell {
        let page = line.0 / PAGE_LINES;
        let holds =
            |pages: &[(u64, Box<[Cell]>)], idx: usize| pages.get(idx).is_some_and(|p| p.0 == page);
        if !holds(&self.pages, self.recent[0]) {
            if holds(&self.pages, self.recent[1]) {
                self.recent.swap(0, 1);
            } else {
                let pages = &mut self.pages;
                let idx = *self.index.entry(page).or_insert_with(|| {
                    pages.push((page, vec![Cell::default(); PAGE_LINES as usize].into()));
                    pages.len() - 1
                });
                self.recent = [idx, self.recent[0]];
            }
        }
        &mut self.pages[self.recent[0]].1[(line.0 % PAGE_LINES) as usize]
    }

    /// Every touched line in line order, with its final state and pin.
    fn into_lines(mut self) -> impl Iterator<Item = (u64, LineState, bool)> {
        self.pages.sort_unstable_by_key(|&(page, _)| page);
        self.pages.into_iter().flat_map(|(page, cells)| {
            cells
                .into_vec()
                .into_iter()
                .zip(page * PAGE_LINES..)
                .filter_map(|(cell, line)| Some((line, cell.state?, cell.pinned)))
        })
    }
}

/// Worker-local simulation of private lines in the precompute pass (every
/// line of a serial phase's one member, a parallel phase's private lines),
/// on the worker's [`LineTable`].
#[derive(Default)]
struct PrivateSim {
    lines: LineTable,
    /// Lines that became LLC-resident during the phase, coalesced; spills
    /// to `llc_lines` once fragmented.
    llc_ranges: RangeList,
    llc_lines: Vec<CacheLineId>,
    stats: crate::stats::CoherenceStats,
}

impl PrivateSim {
    /// Records LLC residency.
    fn llc_insert(&mut self, line: CacheLineId) {
        if self.llc_ranges.fragments() >= FRAG_CAP {
            self.llc_lines.push(line);
        } else {
            self.llc_ranges.insert(line.0);
        }
    }

    /// Simulates one private access; returns its outcome and cost.
    ///
    /// `sequential` is the precomputed next-line-prefetch condition.
    #[inline]
    fn access(
        &mut self,
        directory: &Directory,
        latency: &LatencyModel,
        core: CoreId,
        line: CacheLineId,
        write: bool,
        sequential: bool,
    ) -> (AccessOutcome, Cycles) {
        let cell = self.lines.cell(line);
        let (prev, pinned) = match cell.state {
            // The overwhelmingly common case: the line is already owned.
            Some(LineState::Modified(owner)) if owner == core => {
                self.stats.record(AccessOutcome::L1Hit);
                return (AccessOutcome::L1Hit, latency.l1_hit);
            }
            Some(LineState::Exclusive(owner)) if owner == core => {
                if write {
                    cell.state = Some(LineState::Modified(core));
                }
                self.stats.record(AccessOutcome::L1Hit);
                return (AccessOutcome::L1Hit, latency.l1_hit);
            }
            Some(state) => (Some(state), cell.pinned),
            None => directory.seed_of(line),
        };
        // `in_llc` only matters for cold lines.
        let in_llc = prev.is_none() && directory.llc_resident(line);
        let t = transition(prev, in_llc, core, access_kind(write));
        *cell = Cell {
            state: Some(t.state),
            pinned,
        };
        if t.llc_insert {
            self.llc_insert(line);
        }
        self.stats.invalidations += t.invalidated;
        let outcome = if sequential && prefetchable(t.outcome) {
            AccessOutcome::Prefetched
        } else {
            t.outcome
        };
        self.stats.record(outcome);
        (outcome, latency.cost(outcome))
    }

    /// Folds every touched line back into the shared directory, walking
    /// the table in line order: each run of consecutive unpinned lines in
    /// one state as one extent restore, pinned lines per line (their
    /// per-line entries would shadow an extent).
    fn write_back(self, directory: &mut Directory) {
        let mut runs: Vec<(u64, u64, LineState)> = Vec::new();
        for (line, state, pinned) in self.lines.into_lines() {
            match runs.last_mut() {
                _ if pinned => directory.restore_line_state(CacheLineId(line), state),
                Some((_, end, run_state)) if *end == line && *run_state == state => *end += 1,
                _ => runs.push((line, line + 1, state)),
            }
        }
        for (start, end, state) in runs {
            directory.restore_extent(start, end, state);
        }
        for (start, end) in self.llc_ranges.iter() {
            directory.llc_insert_range(start, end);
        }
        for &line in &self.llc_lines {
            directory.llc_insert(line);
        }
        directory.absorb_stats(&self.stats);
    }
}

/// Precompute output of one worker.
struct WorkerPlan {
    events: Vec<Ev>,
    /// One entry per surfaced event, in event order.
    surfaced: Vec<Surfaced>,
    /// Hit runs, indexed by [`EvKind::HitRun`].
    runs: Vec<HitRun>,
    instructions: u64,
    reads: u64,
    writes: u64,
    /// The worker's private-line simulation state, for write-back.
    sim: PrivateSim,
    /// The worker's read-shared first touches with their prefetch flags;
    /// seeds the merge's per-line settling state.
    rs_first_touches: Vec<(CacheLineId, bool)>,
    /// Final last-touched line of the worker's core (prefetch tracker).
    last_line: Option<CacheLineId>,
    /// Footprint contract violations: accesses whose declared class did
    /// not admit them (uncovered line, foreign private line, or a write to
    /// a read-shared line). Each fell back to the fully-ordered directory
    /// path; aggregated into [`crate::metrics::FOOTPRINT_VIOLATIONS`].
    violations: u64,
    /// Metrics: accesses folded into event leads during precompute.
    folded: u64,
}

/// Per-line settling state of one read-shared line (see module docs).
struct SettleLine {
    /// First touches not yet merged.
    outstanding: u32,
    /// Unmerged first touches with the sequential-prefetch flag (the only
    /// post-`Shared` accesses that can occupy the line).
    seq_pending: u32,
    /// First touches merged so far.
    merged: u32,
    /// The line's busy window is final and folded into the horizon.
    settled: bool,
}

impl SettleLine {
    fn can_settle(&self) -> bool {
        self.outstanding == 0 || (self.merged >= 2 && self.seq_pending == 0)
    }
}

/// Merge-side settling bookkeeping.
struct Settle {
    lines: FastMap<CacheLineId, SettleLine>,
    /// Read-shared lines whose busy window is not final yet.
    unsettled_lines: usize,
    /// Latest busy-window end among settled lines.
    horizon: Cycles,
}

impl Settle {
    fn new(plans: &[WorkerPlan]) -> Settle {
        let mut lines: FastMap<CacheLineId, SettleLine> = FastMap::default();
        for plan in plans {
            for &(line, sequential) in &plan.rs_first_touches {
                let entry = lines.entry(line).or_insert(SettleLine {
                    outstanding: 0,
                    seq_pending: 0,
                    merged: 0,
                    settled: false,
                });
                entry.outstanding += 1;
                entry.seq_pending += u32::from(sequential);
            }
        }
        Settle {
            unsettled_lines: lines.len(),
            lines,
            horizon: 0,
        }
    }

    /// Whether every read-shared line is settled and quiet at `now`.
    fn all_settled(&self, now: Cycles) -> bool {
        self.unsettled_lines == 0 && self.horizon <= now
    }

    /// Records one merged first touch; folds the line's (now possibly
    /// final) busy window into the horizon.
    fn merge_first_touch(&mut self, directory: &Directory, line: CacheLineId, sequential: bool) {
        let entry = self
            .lines
            .get_mut(&line)
            .expect("settling line was announced by precompute");
        entry.outstanding -= 1;
        entry.merged += 1;
        if sequential {
            entry.seq_pending -= 1;
        }
        if !entry.settled && entry.can_settle() {
            entry.settled = true;
            self.unsettled_lines -= 1;
            self.horizon = self.horizon.max(directory.busy_until_of(line));
        }
    }

    /// Whether a hit run spanning `[min_line, max_line]` starting at
    /// `start` is provably wait-free: either everything settled globally,
    /// or every read-shared line in the (narrow) span individually settled
    /// with its final window expired.
    fn run_foldable(
        &self,
        directory: &Directory,
        min_line: u64,
        max_line: u64,
        start: Cycles,
    ) -> bool {
        if self.all_settled(start) {
            return true;
        }
        if max_line - min_line >= MAX_FOLD_SPAN {
            return false;
        }
        for line in min_line..=max_line {
            let line = CacheLineId(line);
            if let Some(entry) = self.lines.get(&line) {
                if !entry.settled || directory.busy_until_of(line) > start {
                    return false;
                }
            }
        }
        true
    }
}

/// Runs one phase sharded; same inputs, outputs and observer callback
/// sequence as the reference per-op loop under the observed schedule.
///
/// A serial phase is the main thread as the phase's only member. `kind`
/// decides everything that differs: the [`AccessRecord::phase_kind`]
/// surfaced accesses carry; whether a member's exit reaches
/// [`ExecObserver::on_thread_exit`] (spawned workers exit, the main thread
/// of a serial phase does not); the class table (a serial phase's lines are
/// all private to its member, so its footprint is never read); and the
/// merge order (serial phases ignore [`MachineConfig::schedule`]). A
/// parallel phase the executor cannot split runs fully ordered (see the
/// module docs).
pub(crate) fn run_phase_sharded(
    config: &MachineConfig,
    directory: &mut Directory,
    observer: &mut dyn ExecObserver,
    workers: &mut [ThreadCtx],
    phase_index: u32,
    kind: PhaseKind,
    shards: usize,
) -> Vec<Cycles> {
    let line_size = config.cache_line_size;
    let latency = config.latency.clone();
    let t0 = std::time::Instant::now();
    let mut span_classify = config.obs.span("shard.classify", OBS_LANE_ENGINE);
    span_classify.attr_u64("phase", u64::from(phase_index));
    span_classify.attr_u64("workers", workers.len() as u64);

    // Sampling replicas, handed out after every member's on_thread_start
    // (the engine called those while spawning, before this function).
    let forks: Vec<SamplerFork> = workers
        .iter()
        .map(|w| observer.fork_sampler(w.id))
        .collect();

    // Pass 1a: classification.
    let streams: Vec<Box<dyn AccessStream>> = workers
        .iter_mut()
        .map(|w| std::mem::replace(&mut w.stream, Box::new(OpsStream::new(Vec::new()))))
        .collect();
    let (table, ordered) = match kind {
        PhaseKind::Serial => (ClassTable::uniform(ExtClass::Private(0)), false),
        PhaseKind::Parallel => match classify(workers, &streams, line_size) {
            Some(table) => (table, false),
            None => (ClassTable::uniform(ExtClass::WriteShared), true),
        },
    };
    span_classify.attr_u64("ordered", u64::from(ordered));
    let t_class = t0.elapsed();
    span_classify.finish();
    let mut span_precompute = config.obs.span("shard.precompute", OBS_LANE_ENGINE);
    span_precompute.attr_u64("phase", u64::from(phase_index));
    span_precompute.attr_u64("shards", shards as u64);

    // Pass 1b: per-worker event precomputation, fanned out on host threads.
    // Members continue their retired counts: the main thread's sampling
    // replica and `instrs_before` run on across serial phases.
    let inputs: Vec<_> = streams
        .into_iter()
        .zip(forks)
        .zip(workers.iter())
        .enumerate()
        .map(|(slot, ((stream, fork), w))| {
            let counts = (w.instructions, w.reads, w.writes);
            let last_line = directory.last_line_for(w.core);
            (stream, fork, slot as u32, w.core, counts, last_line)
        })
        .collect();
    let latency_ref = &latency;
    let table_ref = &table;
    let directory_ref: &Directory = directory;
    let mut plans: Vec<WorkerPlan> = parallel_map(inputs, shards, &|_slot, input| {
        let (stream, fork, me, core, counts, last_line) = input;
        precompute_worker(
            me,
            core,
            counts,
            Feed {
                stream,
                trailing: 0,
            },
            fork,
            last_line,
            table_ref,
            directory_ref,
            latency_ref,
            line_size,
        )
    });
    let t_pre = t0.elapsed();
    span_precompute.finish();
    let mut span_merge = config.obs.span("shard.merge", OBS_LANE_ENGINE);
    span_merge.attr_u64("phase", u64::from(phase_index));

    // Pass 2: deterministic merge — in observed (timestamp) order, or in
    // the perturbed order a schedule policy draws from the same plans
    // (parallel phases only: a lone member has nothing to reorder).
    let counters = SimCounters::of(&config.obs);
    let mut replay = Replay {
        directory: &mut *directory,
        observer,
        settle: Settle::new(&plans),
        phase_index,
        phase_kind: kind,
        ordered,
        latency: &latency,
        line_size,
        merged: 0,
        folded: 0,
        surfaced: 0,
    };
    let ends = match (kind, config.schedule) {
        (PhaseKind::Serial, _) | (_, SchedulePolicy::Observed) => {
            merge(&mut replay, workers, &plans)
        }
        (PhaseKind::Parallel, policy) => merge_perturbed(
            &mut replay,
            workers,
            &plans,
            policy,
            &counters,
            &mut span_merge,
        ),
    };
    replay.finish(&counters, &mut span_merge);
    let t_merge = t0.elapsed();
    span_merge.finish();

    // Write-back: private-line runs, LLC residency, prefetch trackers and
    // local statistics fold into the shared directory; worker totals into
    // the thread contexts. A fully ordered merge kept every prefetch
    // tracker current itself.
    let mut span_write_back = config.obs.span("shard.write_back", OBS_LANE_ENGINE);
    span_write_back.attr_u64("phase", u64::from(phase_index));
    let mut folded = 0u64;
    let mut violations = 0u64;
    for (slot, plan) in plans.drain(..).enumerate() {
        folded += plan.folded;
        violations += plan.violations;
        plan.sim.write_back(directory);
        let ctx = &mut workers[slot];
        if !ordered {
            directory.set_last_line(ctx.core, plan.last_line);
        }
        ctx.instructions = plan.instructions;
        ctx.reads = plan.reads;
        ctx.writes = plan.writes;
        ctx.clock = ends[slot];
    }
    span_write_back.finish();
    counters.count_folded(folded);
    if violations > 0 {
        counters.count_violations(violations);
    }
    counters.add_pass_timings(
        t_class.as_nanos() as u64,
        (t_pre - t_class).as_nanos() as u64,
        (t_merge - t_pre).as_nanos() as u64,
    );
    ends
}

/// Classifies a parallel phase's lines from its members' footprints;
/// `None` when the phase must run fully ordered instead: two members share
/// a core, or a member's stream declares no footprint.
fn classify(
    workers: &[ThreadCtx],
    streams: &[Box<dyn AccessStream>],
    line_size: u64,
) -> Option<ClassTable> {
    let mut cores = SharerSet::empty();
    for w in workers {
        if cores.contains(w.core) {
            return None;
        }
        cores.insert(w.core);
    }
    let per_worker = streams
        .iter()
        .map(|stream| match stream.footprint() {
            Footprint::Bounded(extents) => Some(byte_to_line_extents(&extents, line_size)),
            Footprint::Unknown => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ClassTable::build(&per_worker))
}

/// Converts a stream's byte-extent footprint to line extents, merging
/// line-granularity overlaps (with OR'd write flags — a sound widening).
fn byte_to_line_extents(
    extents: &[crate::footprint::ByteExtent],
    line_size: u64,
) -> Vec<LineExtent> {
    let mut out: Vec<LineExtent> = Vec::with_capacity(extents.len());
    for extent in extents {
        // Empty extents claim nothing (and would underflow the line
        // conversion below); hand-built footprints may contain them.
        if extent.start >= extent.end {
            continue;
        }
        let start = extent.start / line_size;
        let end = (extent.end - 1) / line_size + 1;
        match out.last_mut() {
            Some(last) if start < last.end => {
                // Same or overlapping line(s): widen.
                last.end = last.end.max(end);
                last.wrote |= extent.wrote;
            }
            Some(last) if start == last.end && last.wrote == extent.wrote => {
                last.end = end;
            }
            _ => out.push(LineExtent {
                start,
                end,
                wrote: extent.wrote,
            }),
        }
    }
    out
}

/// Replays one worker's accesses locally: simulates private lines, judges
/// every access through the sampling replica, and folds everything that
/// needs no global time into event leads.
///
/// A line's class is resolved through the phase's extent table with one
/// cached range comparison in the common case; private lines run through
/// [`PrivateSim`]. The member's retired counts continue from `counts`
/// (zero for a spawned worker; the main thread's totals so far when it is
/// a serial phase's only member).
#[allow(clippy::too_many_arguments)]
fn precompute_worker(
    me: u32,
    core: CoreId,
    counts: (u64, u64, u64),
    mut feed: Feed,
    mut fork: SamplerFork,
    last_line: Option<CacheLineId>,
    table: &ClassTable,
    directory: &Directory,
    latency: &LatencyModel,
    line_size: u64,
) -> WorkerPlan {
    let mut events: Vec<Ev> = Vec::new();
    let mut surfaced_events: Vec<Surfaced> = Vec::new();
    let mut runs: Vec<HitRun> = Vec::new();
    let mut lead: Cycles = 0;
    let (mut instructions, mut reads, mut writes) = counts;
    let mut sim = PrivateSim::default();
    let cpi = latency.cycles_per_instruction;
    let mut folded = 0u64;
    let mut violations = 0u64;
    // `last.0 + 1` of the previously touched line; u64::MAX when none.
    let mut next_sequential: u64 = last_line.map_or(u64::MAX, |l| l.0.wrapping_add(1));
    let mut final_line = last_line;
    // The current and previous classified extents (the extent table's hot
    // path): loops that read one extent and write another stay off the
    // binary search.
    let extents = table.extents();
    let mut cur = (1u64, 0u64, ExtClass::WriteShared);
    let mut prev = cur;
    // Read-shared lines this worker has first-touched.
    let mut rs_touched: RangeList = RangeList::default();
    let mut rs_touched_spill: FastSet<CacheLineId> = FastSet::default();
    let mut rs_first_touches: Vec<(CacheLineId, bool)> = Vec::new();
    // Pending sampling judgement threshold (see ThreadSampler::next_tag).
    let mut next_tag: u64 = match &fork {
        SamplerFork::Replica(replica) => replica.next_tag(),
        _ => 0,
    };
    // Open hit run (unsampled read-shared hits) plus the lead before it.
    let mut run: Vec<HitRead> = Vec::new();
    let mut run_lead: Cycles = 0;
    let mut run_cum: Cycles = 0;
    let (mut run_min, mut run_max) = (u64::MAX, 0u64);

    macro_rules! flush_run {
        () => {
            if !run.is_empty() {
                events.push(Ev {
                    lead: run_lead,
                    addr: Addr(0),
                    kind: EvKind::HitRun(
                        u32::try_from(runs.len()).expect("fewer than 2^32 hit runs per worker"),
                    ),
                });
                runs.push(HitRun {
                    reads: std::mem::take(&mut run).into_boxed_slice(),
                    min_line: run_min,
                    max_line: run_max,
                });
                #[allow(unused_assignments)]
                {
                    run_cum = 0;
                    run_min = u64::MAX;
                    run_max = 0;
                }
            }
        };
    }

    while let Some(access) = feed.next_access() {
        let FeedAccess {
            work_before,
            addr,
            write,
        } = access;
        instructions += work_before;
        lead += work_before * cpi;
        let line = addr.line(line_size);
        let (perturbation, surfaced) = match &mut fork {
            SamplerFork::EveryAccess => (None, true),
            SamplerFork::Replica(replica) => {
                if instructions >= next_tag {
                    let judgement = replica.judge(instructions);
                    next_tag = replica.next_tag();
                    (Some(judgement.perturbation), judgement.sampled)
                } else {
                    (Some(0), false)
                }
            }
        };
        let sequential = next_sequential == line.0;
        next_sequential = line.0.wrapping_add(1);
        final_line = Some(line);
        if surfaced {
            surfaced_events.push(Surfaced {
                instrs_before: instructions,
                perturbation,
            });
        }
        instructions += 1;
        if write {
            writes += 1;
        } else {
            reads += 1;
        }

        if !(cur.0 <= line.0 && line.0 < cur.1) {
            if prev.0 <= line.0 && line.0 < prev.1 {
                std::mem::swap(&mut cur, &mut prev);
            } else {
                prev = cur;
                cur = match table.find(line) {
                    Some(idx) => {
                        let extent = extents[idx];
                        (extent.start, extent.end, extent.class)
                    }
                    None => {
                        // Contract violation: the line lies outside every
                        // declared footprint, so some stream's
                        // Footprint::Bounded under-approximated its
                        // accesses. Treat the line as write-shared — the
                        // fully-ordered directory path, correct for any
                        // sharing pattern — and count it so the lint can
                        // surface the workload bug instead of the run
                        // dying here.
                        violations += 1;
                        (line.0, line.0 + 1, ExtClass::WriteShared)
                    }
                };
            }
        }
        // Per-access contract checks the extent cache cannot express: a
        // line classified private to a *different* worker, or a write to a
        // line every footprint declared read-only. Both mean some footprint
        // under-declared this worker's traffic; demote the access to the
        // write-shared path and count the violation.
        let class = match cur.2 {
            ExtClass::Private(owner) if owner != me => {
                violations += 1;
                ExtClass::WriteShared
            }
            ExtClass::ReadShared if write => {
                violations += 1;
                ExtClass::WriteShared
            }
            class => class,
        };
        match class {
            ExtClass::Private(_) => {
                let (outcome, cost) = sim.access(directory, latency, core, line, write, sequential);
                if surfaced {
                    flush_run!();
                    events.push(Ev {
                        lead: std::mem::take(&mut lead),
                        addr,
                        kind: EvKind::Private { write, outcome },
                    });
                } else {
                    folded += 1;
                    lead += cost + perturbation.expect("unsurfaced access has judgement");
                }
            }
            ExtClass::ReadShared => {
                let touched = rs_touched.contains(line.0)
                    || (!rs_touched_spill.is_empty() && rs_touched_spill.contains(&line));
                if !touched {
                    if rs_touched.fragments() >= FRAG_CAP {
                        rs_touched_spill.insert(line);
                    } else {
                        rs_touched.insert(line.0);
                    }
                    rs_first_touches.push((line, sequential));
                    flush_run!();
                    events.push(Ev {
                        lead: std::mem::take(&mut lead),
                        addr,
                        kind: EvKind::Dir {
                            write,
                            sequential,
                            settles: true,
                            surfaced,
                        },
                    });
                    lead += unsurfaced_perturbation(surfaced, perturbation);
                } else if surfaced {
                    flush_run!();
                    events.push(Ev {
                        lead: std::mem::take(&mut lead),
                        addr,
                        kind: EvKind::SharedHit,
                    });
                } else {
                    // Join (or open) the hit run; perturbation lands after
                    // the hit, i.e. in the next lead.
                    if run.is_empty() {
                        run_lead = std::mem::take(&mut lead);
                    } else {
                        run_cum += std::mem::take(&mut lead);
                    }
                    run.push(HitRead {
                        cum_lead: run_cum,
                        addr,
                    });
                    run_min = run_min.min(line.0);
                    run_max = run_max.max(line.0);
                    lead += perturbation.expect("unsurfaced access has judgement");
                }
            }
            ExtClass::WriteShared => {
                flush_run!();
                events.push(Ev {
                    lead: std::mem::take(&mut lead),
                    addr,
                    kind: EvKind::Dir {
                        write,
                        sequential,
                        settles: false,
                        surfaced,
                    },
                });
                lead += unsurfaced_perturbation(surfaced, perturbation);
            }
        }
    }
    instructions += feed.trailing;
    lead += feed.trailing * cpi;
    flush_run!();
    events.push(Ev {
        lead,
        addr: Addr(0),
        kind: EvKind::Exit,
    });

    WorkerPlan {
        events,
        surfaced: surfaced_events,
        runs,
        instructions,
        reads,
        writes,
        sim,
        rs_first_touches,
        last_line: final_line,
        violations,
        folded,
    }
}

/// Merge frontier state of one worker.
struct MergeWorker<'a> {
    id: ThreadId,
    core: CoreId,
    clock: Cycles,
    events: std::slice::Iter<'a, Ev>,
    pending: Option<&'a Ev>,
    /// The observer halves of the worker's surfaced events, in order.
    surfaced: std::slice::Iter<'a, Surfaced>,
    runs: &'a [HitRun],
    /// Non-zero when `pending` is a hit run resumed at this read index.
    run_cursor: usize,
}

impl<'a> MergeWorker<'a> {
    fn new(ctx: &ThreadCtx, plan: &'a WorkerPlan) -> Self {
        let mut events = plan.events.iter();
        let pending = events.next();
        MergeWorker {
            id: ctx.id,
            core: ctx.core,
            clock: ctx.clock,
            events,
            pending,
            surfaced: plan.surfaced.iter(),
            runs: &plan.runs,
            run_cursor: 0,
        }
    }

    /// Global time of the worker's next event.
    fn next_time(&self) -> Cycles {
        let ev = self.pending.expect("live worker has a pending event");
        if self.run_cursor > 0 {
            match ev.kind {
                EvKind::HitRun(run) => {
                    self.clock + run_lead_at(&self.runs[run as usize].reads, self.run_cursor)
                }
                _ => unreachable!("run cursor only on hit runs"),
            }
        } else {
            self.clock + ev.lead
        }
    }
}

fn access_kind(write: bool) -> AccessKind {
    if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// The perturbation an access charges into the next event's lead: its
/// replica judgement when the observer does not see it, else none (the
/// merge charges it on delivery).
fn unsurfaced_perturbation(surfaced: bool, perturbation: Option<Cycles>) -> Cycles {
    if surfaced {
        0
    } else {
        perturbation.expect("unsurfaced access carries its judgement")
    }
}

/// Folded local work between read `cursor - 1` and read `cursor` of a run
/// (for `cursor = 0`, the event's own lead already covered it).
#[inline]
fn run_lead_at(reads: &[HitRead], cursor: usize) -> Cycles {
    if cursor == 0 {
        reads[0].cum_lead
    } else {
        reads[cursor].cum_lead - reads[cursor - 1].cum_lead
    }
}

/// The state both merge orders replay residue events against: the
/// shared directory and observer, read-shared settling, and the phase's
/// event counts.
struct Replay<'m> {
    directory: &'m mut Directory,
    observer: &'m mut dyn ExecObserver,
    settle: Settle,
    phase_index: u32,
    phase_kind: PhaseKind,
    /// A fully ordered phase: directory events go through
    /// [`Directory::access`], whose prefetch cursor sees them in merge
    /// order, instead of carrying their precomputed prefetch condition.
    ordered: bool,
    latency: &'m LatencyModel,
    line_size: u64,
    merged: u64,
    folded: u64,
    surfaced: u64,
}

impl Replay<'_> {
    /// Replays a directory, shared-hit or surfaced private event at the
    /// worker's clock, delivering it to the observer when surfaced.
    fn access(&mut self, w: &mut MergeWorker<'_>, ev: &Ev) {
        self.merged += 1;
        w.clock += ev.lead;
        let line = ev.addr.line(self.line_size);
        let (write, outcome, latency, surfaced) = match ev.kind {
            EvKind::Dir {
                write,
                sequential,
                settles,
                surfaced,
            } => {
                let kind = access_kind(write);
                let result = if self.ordered {
                    self.directory.access(w.core, line, kind, w.clock)
                } else {
                    self.directory
                        .access_hinted(w.core, line, kind, w.clock, sequential)
                };
                if settles {
                    self.settle
                        .merge_first_touch(self.directory, line, sequential);
                }
                (write, result.outcome, result.latency(), surfaced)
            }
            EvKind::SharedHit => {
                let latency = self.shared_hit(line, w.clock);
                (false, AccessOutcome::L1Hit, latency, true)
            }
            // Stats were already counted by the precompute pass.
            EvKind::Private { write, outcome } => {
                (write, outcome, self.latency.cost(outcome), true)
            }
            EvKind::HitRun(_) | EvKind::Exit => unreachable!("not a single-access event"),
        };
        // A surfaced access reaches the observer; it is charged the
        // replica's perturbation when one was forked, else the observer's.
        let perturb = if surfaced {
            self.surfaced += 1;
            let half = w
                .surfaced
                .next()
                .expect("every surfaced event has its observer half");
            let record = AccessRecord {
                thread: w.id,
                core: w.core,
                addr: ev.addr,
                kind: access_kind(write),
                outcome,
                latency,
                start: w.clock,
                instrs_before: half.instrs_before,
                phase_index: self.phase_index,
                phase_kind: self.phase_kind,
            };
            let returned = self.observer.on_access(&record);
            half.perturbation.unwrap_or(returned)
        } else {
            0
        };
        w.clock += latency + perturb;
    }

    /// Ends the worker at its `Exit` event; returns its end time. Spawned
    /// workers exit here, the main thread of a serial phase runs on.
    fn exit(&mut self, w: &mut MergeWorker<'_>, ev: &Ev) -> Cycles {
        w.clock += ev.lead;
        if self.phase_kind == PhaseKind::Parallel {
            self.observer.on_thread_exit(w.id, w.clock);
        }
        w.clock
    }

    /// A proven L1 hit on a read-shared line at `now`: records it and
    /// returns its latency, including any busy-window wait.
    fn shared_hit(&mut self, line: CacheLineId, now: Cycles) -> Cycles {
        let wait = self.directory.busy_wait(line, now);
        self.directory
            .record_precomputed(AccessOutcome::L1Hit, wait);
        wait + self.latency.l1_hit
    }

    /// Folds `run`'s reads from `cursor` on in O(1) if every line in its
    /// span has settled: no read can wait, nothing global is touched.
    /// Returns whether it folded (the run is then done).
    fn fold_run(&mut self, w: &mut MergeWorker<'_>, run: &HitRun, cursor: usize) -> bool {
        let start = w.clock + run_lead_at(&run.reads, cursor);
        if !self
            .settle
            .run_foldable(self.directory, run.min_line, run.max_line, start)
        {
            return false;
        }
        let n = (run.reads.len() - cursor) as u64;
        let prefix = cursor.checked_sub(1).map_or(0, |i| run.reads[i].cum_lead);
        let total = run.reads[run.reads.len() - 1].cum_lead;
        w.clock += (total - prefix) + n * self.latency.l1_hit;
        self.directory.record_hit_batch(n);
        self.folded += n;
        true
    }

    /// Walks `run`'s read at `cursor` against the real busy window.
    fn walk_read(&mut self, w: &mut MergeWorker<'_>, run: &HitRun, cursor: usize) {
        self.merged += 1;
        w.clock += run_lead_at(&run.reads, cursor);
        w.clock += self.shared_hit(run.reads[cursor].addr.line(self.line_size), w.clock);
    }

    /// Publishes the phase's event counts.
    fn finish(self, counters: &SimCounters, span: &mut cheetah_obs::SpanGuard) {
        counters.count_merged(self.merged);
        counters.count_folded(self.folded);
        counters.count_surfaced(self.surfaced);
        span.attr_u64("merged", self.merged);
        span.attr_u64("folded", self.folded);
        span.attr_u64("surfaced", self.surfaced);
    }
}

/// Merges the precomputed event streams in exact global order, performing
/// every shared-directory access and observer callback; returns each
/// worker's end time.
fn merge(replay: &mut Replay<'_>, workers: &[ThreadCtx], plans: &[WorkerPlan]) -> Vec<Cycles> {
    let mut ends = vec![0; workers.len()];
    let mut merge_workers: Vec<MergeWorker<'_>> = workers
        .iter()
        .zip(plans)
        .map(|(ctx, plan)| MergeWorker::new(ctx, plan))
        .collect();

    // Min-heap on (next event time, slot): identical ordering to the
    // per-op loop's (clock, slot) heap with FIFO events per worker.
    let mut heap: BinaryHeap<Reverse<(Cycles, usize)>> = merge_workers
        .iter()
        .enumerate()
        .map(|(slot, w)| Reverse((w.next_time(), slot)))
        .collect();

    while let Some(Reverse((_, slot))) = heap.pop() {
        // Process this worker's events while no other worker could possibly
        // have an earlier one (the per-op loop's burst, in event units).
        let horizon = heap.peek().map(|Reverse((t, _))| *t);
        'burst: loop {
            let w = &mut merge_workers[slot];
            let ev = w.pending.take().expect("popped worker has an event");
            match ev.kind {
                EvKind::Exit => {
                    ends[slot] = replay.exit(w, ev);
                    break 'burst;
                }
                EvKind::HitRun(run) => {
                    let runs = w.runs;
                    let run = &runs[run as usize];
                    if w.run_cursor == 0 {
                        w.clock += ev.lead;
                    }
                    // Walk read by read against the real busy windows while
                    // any line in the span could still be occupied, folding
                    // the remainder the moment it settles; yield at the
                    // horizon exactly like the per-op loop (the first read
                    // of this visit is unconditional: it was the heap
                    // minimum).
                    let mut first = true;
                    loop {
                        let cursor = w.run_cursor;
                        if cursor >= run.reads.len() || replay.fold_run(w, run, cursor) {
                            w.run_cursor = 0;
                            break;
                        }
                        let start = w.clock + run_lead_at(&run.reads, cursor);
                        if !first && horizon.is_some_and(|h| start >= h) {
                            w.pending = Some(ev);
                            heap.push(Reverse((start, slot)));
                            break 'burst;
                        }
                        first = false;
                        replay.walk_read(w, run, cursor);
                        w.run_cursor += 1;
                    }
                }
                _ => replay.access(w, ev),
            }
            let next = w.events.next().expect("Exit terminates the stream");
            w.pending = Some(next);
            let next_time = w.clock + next.lead;
            if horizon.is_some_and(|h| next_time >= h) {
                heap.push(Reverse((next_time, slot)));
                break 'burst;
            }
        }
    }
    ends
}

/// Merges the precomputed event streams in a *perturbed* global order
/// drawn by `policy` (never [`SchedulePolicy::Observed`] — the caller
/// routes that to [`merge`]): at every step one live worker is selected
/// and its next residue event is replayed in full, so per-worker program
/// order is preserved by construction while the cross-worker interleaving
/// explores a different feasible schedule.
///
/// Worker clocks still advance through each worker's own leads and
/// latencies, but the *directory* sees events in selection order: a
/// write-shared line whose observed schedule kept its writers apart is
/// driven through the MESI ping-pong a different scheduler could have
/// produced. Busy-window waits saturate (`busy_until − now` at the
/// worker's own, possibly earlier, clock), so non-monotonic arrival times
/// are safe. Selection is a pure function of the policy seed, the phase
/// index and the per-worker plans — deterministic given `(seed, shards)`,
/// and in fact identical at every shard count.
fn merge_perturbed(
    replay: &mut Replay<'_>,
    workers: &[ThreadCtx],
    plans: &[WorkerPlan],
    policy: SchedulePolicy,
    counters: &SimCounters,
    span: &mut cheetah_obs::SpanGuard,
) -> Vec<Cycles> {
    let (contend, seed) = match policy {
        SchedulePolicy::SeededShuffle { seed } => (false, seed),
        SchedulePolicy::ContentionMax { seed } => (true, seed),
        SchedulePolicy::Observed => unreachable!("observed schedules use the ordered merge"),
    };
    let line_size = replay.line_size;
    let mut rng = ScheduleRng::for_phase(seed, replay.phase_index);
    let mut ends = vec![0; workers.len()];
    let (mut selections, mut reordered) = (0u64, 0u64);
    // Last core to *merge* a write per line — the contention heuristic's
    // view of who owns each line right now.
    let mut last_writer: FastMap<CacheLineId, CoreId> = FastMap::default();
    let mut merge_workers: Vec<MergeWorker<'_>> = workers
        .iter()
        .zip(plans)
        .map(|(ctx, plan)| MergeWorker::new(ctx, plan))
        .collect();
    let mut live: Vec<usize> = (0..merge_workers.len()).collect();

    while !live.is_empty() {
        // Select the next worker. The contention heuristic prefers
        // directory writes that land on a line a *different* core wrote
        // last (each such merge is an invalidation); the shuffle — and
        // the heuristic's fallback — draws uniformly among live workers.
        let choice = if live.len() == 1 {
            0
        } else if contend {
            let mut contending: Vec<usize> = Vec::new();
            for (i, &slot) in live.iter().enumerate() {
                let w = &merge_workers[slot];
                if let Some(Ev {
                    addr,
                    kind: EvKind::Dir { write: true, .. },
                    ..
                }) = w.pending
                {
                    if last_writer
                        .get(&addr.line(line_size))
                        .is_some_and(|&owner| owner != w.core)
                    {
                        contending.push(i);
                    }
                }
            }
            if contending.is_empty() {
                rng.pick(live.len())
            } else {
                contending[rng.pick(contending.len())]
            }
        } else {
            rng.pick(live.len())
        };
        let slot = live[choice];
        selections += 1;
        let earliest = live
            .iter()
            .map(|&s| merge_workers[s].next_time())
            .min()
            .expect("live set is nonempty");
        if merge_workers[slot].next_time() > earliest {
            reordered += 1;
        }

        let w = &mut merge_workers[slot];
        let ev = w.pending.take().expect("live worker has a pending event");
        match ev.kind {
            EvKind::Exit => {
                ends[slot] = replay.exit(w, ev);
                live.swap_remove(choice);
                continue;
            }
            EvKind::HitRun(run) => {
                let runs = w.runs;
                let run = &runs[run as usize];
                // One selection replays the whole run (hit runs touch
                // nothing another worker can contend on, so splitting
                // them across selections would not change any outcome).
                w.clock += ev.lead;
                for cursor in 0..run.reads.len() {
                    if replay.fold_run(w, run, cursor) {
                        break;
                    }
                    replay.walk_read(w, run, cursor);
                }
            }
            kind => {
                replay.access(w, ev);
                if let (true, EvKind::Dir { write: true, .. }) = (contend, kind) {
                    last_writer.insert(ev.addr.line(line_size), w.core);
                }
            }
        }
        w.pending = Some(w.events.next().expect("Exit terminates the stream"));
    }
    counters.count_schedule(selections, reordered);
    span.attr_str("policy", policy.to_string());
    span.attr_u64("seed", seed);
    span.attr_u64("selections", selections);
    span.attr_u64("reordered", reordered);
    ends
}

/// Applies `f` to every item on up to `threads` scoped host threads,
/// preserving index order. Items are distributed round-robin; the result is
/// independent of the distribution because `f` is pure per item.
fn parallel_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: &(dyn Fn(usize, T) -> R + Sync),
) -> Vec<R> {
    let count = items.len();
    let threads = threads.min(count).max(1);
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let mut buckets: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % threads].push((i, item));
    }
    let mut out: Vec<Option<R>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, item)| (i, f(i, item)))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("shard host thread panicked") {
                out[i] = Some(result);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::SharerSet;

    const C0: CoreId = CoreId(0);

    /// Runs core 0's accesses over a directory holding one per-line entry
    /// (line 305, shared by cores 1 and 2).
    fn simulate(directory: &Directory) -> PrivateSim {
        let latency = LatencyModel::default();
        let mut sim = PrivateSim::default();
        let writes = (250..262).chain(300..310).chain(400..408).chain(504..508);
        for line in writes.filter(|&line| line != 403) {
            sim.access(directory, &latency, C0, CacheLineId(line), true, false);
        }
        for line in 500..504 {
            sim.access(directory, &latency, C0, CacheLineId(line), false, false);
        }
        sim
    }

    fn seeded() -> Directory {
        let mut directory = Directory::default();
        let mut sharers = SharerSet::singleton(CoreId(1));
        sharers.insert(CoreId(2));
        directory.restore_line_state(CacheLineId(305), LineState::Shared(sharers));
        directory
    }

    fn digest(directory: &Directory) -> u64 {
        let mut hash = cheetah_obs::Fnv64::new();
        directory.witness_digest(&mut hash);
        hash.finish()
    }

    #[test]
    fn write_back_folds_runs_and_restores_pinned_lines_per_line() {
        let mut directory = seeded();
        let sim = simulate(&directory);
        sim.write_back(&mut directory);
        let (m0, e0) = (LineState::Modified(C0), LineState::Exclusive(C0));
        assert_eq!(
            directory.overlay_ranges(),
            &[
                // Crosses the page boundary at line 256: one extent.
                (250, 262, m0),
                // The pinned line 305 splits its run ...
                (300, 305, m0),
                (306, 310, m0),
                // ... as does the untouched line 403 ...
                (400, 403, m0),
                (404, 408, m0),
                // ... and a change of state.
                (500, 504, e0),
                (504, 508, m0),
            ]
        );
        assert_eq!(directory.seed_of(CacheLineId(305)), (Some(m0), true));

        // Reference: every touched line restored per line.
        let mut reference = seeded();
        let PrivateSim {
            lines,
            llc_ranges,
            llc_lines,
            stats,
        } = simulate(&reference);
        for (line, state, _) in lines.into_lines() {
            reference.restore_line_state(CacheLineId(line), state);
        }
        for line in llc_ranges.iter().flat_map(|(start, end)| start..end) {
            reference.llc_insert(CacheLineId(line));
        }
        for line in llc_lines {
            reference.llc_insert(line);
        }
        reference.absorb_stats(&stats);
        assert!(reference.overlay_ranges().is_empty());
        assert_eq!(digest(&directory), digest(&reference));
    }
}
