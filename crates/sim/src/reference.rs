//! The reference per-op loop: the oracle behind
//! [`Machine::run_reference`](crate::Machine::run_reference), which no
//! production run reaches.
//!
//! Every access takes one discrete-event step: a heap scheduling decision,
//! one [`Directory::access`] and one observer callback, all on the calling
//! thread. Members run on per-thread virtual clocks and the loop always
//! advances the one with the earliest clock (ties to the lower slot), so
//! accesses reach the directory in global time order, write ping-pong
//! between cores unfolds exactly as on a real machine, and two threads
//! sharing a core interleave through its one private cache and prefetch
//! cursor. The sharded executor ([`crate::shard`]) is proven bit-identical
//! to this loop: same [`crate::RunReport`], same surfaced access stream,
//! same sample sequence.

use crate::coherence::Directory;
use crate::exec::{MachineConfig, ThreadCtx};
use crate::metrics::SimCounters;
use crate::observer::{AccessRecord, ExecObserver};
use crate::program::Op;
use crate::types::{AccessKind, Cycles, PhaseKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Runs one phase's members to completion, one op at a time; returns each
/// member's end time, in the same order as `members`. Same inputs, outputs
/// and observer callback sequence as the sharded executor's
/// `run_phase_sharded` under the observed schedule: a
/// serial phase is the main thread as its only member, and only spawned
/// workers reach [`ExecObserver::on_thread_exit`]. Every access is counted
/// as merged: the loop orders each one.
pub(crate) fn run_phase(
    config: &MachineConfig,
    directory: &mut Directory,
    observer: &mut dyn ExecObserver,
    members: &mut [ThreadCtx],
    phase_index: u32,
    kind: PhaseKind,
) -> Vec<Cycles> {
    let accesses = |members: &[ThreadCtx]| members.iter().map(|m| m.reads + m.writes).sum::<u64>();
    let before = accesses(members);
    let mut ends = vec![0; members.len()];
    // Min-heap on (clock, slot); slot as tiebreak keeps runs
    // deterministic when clocks collide.
    let mut heap: BinaryHeap<Reverse<(Cycles, usize)>> = members
        .iter()
        .enumerate()
        .map(|(slot, m)| Reverse((m.clock, slot)))
        .collect();
    while let Some(Reverse((_, slot))) = heap.pop() {
        // Run this member while no other member could possibly issue an
        // earlier operation (exact event ordering, amortised heap cost).
        let horizon = heap.peek().map(|Reverse((clock, _))| *clock);
        let member = &mut members[slot];
        let finished = loop {
            match member.stream.next_op() {
                Some(op) => {
                    step(config, directory, observer, member, op, phase_index, kind);
                    if horizon.is_some_and(|h| member.clock >= h) {
                        break false;
                    }
                }
                None => break true,
            }
        };
        if finished {
            ends[slot] = member.clock;
            // Spawned workers exit; the main thread of a serial phase runs on.
            if kind == PhaseKind::Parallel {
                observer.on_thread_exit(member.id, member.clock);
            }
        } else {
            heap.push(Reverse((member.clock, slot)));
        }
    }
    SimCounters::of(&config.obs).count_merged(accesses(members) - before);
    ends
}

/// Executes one operation on behalf of `thread`, advancing its clock.
fn step(
    config: &MachineConfig,
    directory: &mut Directory,
    observer: &mut dyn ExecObserver,
    thread: &mut ThreadCtx,
    op: Op,
    phase_index: u32,
    phase_kind: PhaseKind,
) {
    match op {
        Op::Work(n) => {
            thread.instructions += n;
            thread.clock += n * config.latency.cycles_per_instruction;
        }
        Op::Read(addr) | Op::Write(addr) => {
            let kind = if matches!(op, Op::Write(_)) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let line = addr.line(config.cache_line_size);
            let result = directory.access(thread.core, line, kind, thread.clock);
            let latency = result.latency();
            let record = AccessRecord {
                thread: thread.id,
                core: thread.core,
                addr,
                kind,
                outcome: result.outcome,
                latency,
                start: thread.clock,
                instrs_before: thread.instructions,
                phase_index,
                phase_kind,
            };
            thread.instructions += 1;
            match kind {
                AccessKind::Read => thread.reads += 1,
                AccessKind::Write => thread.writes += 1,
            }
            thread.clock += latency;
            thread.clock += observer.on_access(&record);
        }
    }
}
