//! Properties of sharded deterministic execution, checked against the
//! reference per-op loop ([`Machine::run_reference`]):
//!
//! (a) for random workloads, machine shapes and shard counts (including
//!     `shards = 1`), the [`RunReport`] is bit-identical to the reference
//!     run;
//! (b) the merged event stream — every access surfaced to an observer, in
//!     order, with all fields — is bit-identical to the reference stream;
//! (c) the replica sampling path (only sampled accesses surfaced) yields
//!     the identical sample sequence and identical perturbed timings;
//! (d) oversubscribed phases (more workers than cores) run fully ordered
//!     inside an otherwise sharded run and still match: report, surfaced
//!     record stream and sample sequence;
//! (e) extent classification equals fully ordered execution: hiding every
//!     footprint changes nothing observable;
//! (f) under oversubscription, hidden and declared footprints agree, and
//!     both match the reference record stream and sample sequence;
//! (g) serial phases that follow parallel phases continue the main
//!     thread's instruction count and sampling state mid-stream.
//!
//! A targeted test pins the one piece of state two workers sharing a core
//! interleave through that no per-worker pass can know: the core's
//! next-line-prefetch cursor.
//!
//! The random shapes also cover a worker that revisits over a thousand
//! private lines in scrambled order with mixed final states, and a line
//! that is write-shared in one parallel phase and private to one worker
//! in the next (seeded from a per-line directory entry, so its write-back
//! must not fold into a range restore).

use cheetah_sim::{
    AccessKind, AccessRecord, AccessStream, Addr, CountingObserver, Cycles, ExecObserver,
    Footprint, LoopStream, Machine, MachineConfig, NullObserver, Op, OpsStream, Program,
    ProgramBuilder, RunReport, SampleJudgement, SamplerFork, ThreadId, ThreadSampler, ThreadSpec,
};
use proptest::prelude::*;

/// Wrapper hiding a stream's declared footprint, so the sharded executor
/// runs every phase it appears in fully ordered. Comparing runs with and
/// without it proves extent classification equals fully ordered
/// execution.
struct HiddenFootprint<S>(S);

impl<S: AccessStream> AccessStream for HiddenFootprint<S> {
    fn next_op(&mut self) -> Option<Op> {
        self.0.next_op()
    }

    fn footprint(&self) -> Footprint {
        Footprint::Unknown
    }
}

/// Workload shape: a serial init phase plus one or two parallel phases
/// whose threads mix four traffic classes — thread-private lines, a
/// read-only shared table, a falsely-shared line of adjacent words, and a
/// sequential sweep (exercising the prefetch path) — optionally each
/// followed by a serial phase that revisits the workers' lines.
///
/// `scatter` adds a worker per parallel phase that sweeps [`SCATTER_LINES`]
/// private lines twice in scrambled order, writing every other line on
/// the first sweep; the second phase's sweep revisits the first's lines
/// from another core. `handoff` makes a few lines write-shared in the
/// first parallel phase and private to worker 0 in the second; the serial
/// tails revisit both regions. `unhinted` adds a worker per parallel phase
/// whose stream declares no footprint, so that phase runs fully ordered.
#[derive(Debug, Clone)]
struct Shape {
    threads: u64,
    cores: u32,
    iterations: u64,
    private_stride: u64,
    work: u64,
    second_phase: bool,
    serial_init: bool,
    serial_after: bool,
    scatter: bool,
    handoff: bool,
    unhinted: bool,
}

/// Lines the `scatter` worker sweeps (prime, so the stride permutes them).
const SCATTER_LINES: u64 = 1201;
/// Lines of the `handoff` region; the middle one is the write-shared line.
const HANDOFF_LINES: u64 = 5;

fn build_program(shape: &Shape) -> Program {
    build_program_with(shape, false)
}

/// Builds the shape's program; with `hide`, every stream's footprint is
/// masked so every parallel phase runs fully ordered.
fn build_program_with(shape: &Shape, hide: bool) -> Program {
    let Shape {
        threads,
        iterations,
        private_stride,
        work,
        second_phase,
        serial_init,
        serial_after,
        scatter,
        handoff,
        unhinted,
        ..
    } = *shape;
    let shared_line = Addr(0x1000);
    let read_table = Addr(0x8000);
    let private_base = Addr(0x100_000);
    let sweep_base = Addr(0x900_000);
    let stream_base = Addr(0xA00_000);
    let tail_base = Addr(0xB00_000);
    let scatter_base = Addr(0xC00_000);
    let handoff_base = Addr(0x0100_0000);
    let handoff_mid = handoff_base.offset(HANDOFF_LINES / 2 * 64);

    fn spec(name: String, stream: impl AccessStream + 'static, hide: bool) -> ThreadSpec {
        if hide {
            ThreadSpec::new(name, HiddenFootprint(stream))
        } else {
            ThreadSpec::new(name, stream)
        }
    }

    let make_workers = |phase: u64| -> Vec<ThreadSpec> {
        let mut workers: Vec<ThreadSpec> = (0..threads)
            .map(|t| {
                let mut body = vec![
                    // Contended: adjacent words of one line (false sharing).
                    Op::Write(shared_line.offset(t * 4)),
                    Op::Read(shared_line.offset(((t + 1) % threads) * 4)),
                    // Read-only shared table (several lines).
                    Op::Read(read_table.offset((t % 4) * 64)),
                    Op::Read(read_table.offset(((t + phase) % 4) * 64)),
                    // Private accumulator.
                    Op::Write(private_base.offset(t * private_stride)),
                    Op::Read(private_base.offset(t * private_stride + 8)),
                    // Sequential sweep chunk (prefetchable strides).
                    Op::Read(sweep_base.offset(t * 4096 + (phase % 7) * 64)),
                    Op::Read(sweep_base.offset(t * 4096 + (phase % 7) * 64 + 64)),
                    Op::Work(work),
                ];
                if handoff {
                    if phase == 0 {
                        // Write-shared: every worker writes its own word of
                        // the region's middle line.
                        body.push(Op::Write(handoff_mid.offset(t * 4)));
                    } else if t == 0 {
                        // Private to worker 0, middle line included.
                        body.extend(
                            (0..HANDOFF_LINES).map(|l| Op::Write(handoff_base.offset(l * 64 + 8))),
                        );
                    }
                }
                spec(
                    format!("w{phase}-{t}"),
                    LoopStream::new(body, iterations + t),
                    hide,
                )
            })
            .collect();
        // A one-shot streaming worker with a declared footprint (the
        // extent table's fast path) ...
        let sweep: Vec<Op> = (0..iterations * 8)
            .map(|i| {
                let addr = stream_base.offset(phase * 0x10_000 + i * 8);
                if i % 3 == 0 {
                    Op::Write(addr)
                } else {
                    Op::Read(addr)
                }
            })
            .collect();
        workers.push(spec(format!("stream{phase}"), OpsStream::new(sweep), hide));
        // ... optionally next to a worker whose stream cannot declare one,
        // which makes the whole phase fully ordered.
        if unhinted {
            let stream =
                cheetah_sim::IterStream::new((0..iterations * 4).map(move |i| {
                    Op::Read(stream_base.offset(0x80_000 + phase * 0x10_000 + i * 16))
                }));
            workers.push(ThreadSpec::new(format!("unhinted{phase}"), stream));
        }
        if scatter {
            let mut ops = Vec::new();
            for sweep in 0..2u64 {
                for i in 0..SCATTER_LINES {
                    let line = (i * 257 + sweep * 101 + phase * 31) % SCATTER_LINES;
                    let addr = scatter_base.offset(line * 64 + (i % 8) * 8);
                    ops.push(if sweep == 0 && line.is_multiple_of(2) {
                        Op::Write(addr)
                    } else {
                        Op::Read(addr)
                    });
                    if i % 16 == 0 {
                        ops.push(Op::Work(work + 1));
                    }
                }
            }
            // Slot 0 in the second phase, so it revisits from another core.
            let slot = if phase == 0 { workers.len() } else { 0 };
            workers.insert(
                slot,
                spec(format!("scatter{phase}"), OpsStream::new(ops), hide),
            );
        }
        workers
    };

    // The main thread revisits lines the phase's workers left behind
    // (contended, read-shared, private, swept) and writes lines of its own.
    let serial_tail = |phase: u64| -> ThreadSpec {
        let mut ops = Vec::new();
        for i in 0..threads * 3 + iterations {
            ops.push(Op::Read(shared_line.offset((i % threads) * 4)));
            ops.push(Op::Read(read_table.offset((i % 4) * 64)));
            ops.push(Op::Write(
                private_base.offset((i % threads) * private_stride),
            ));
            ops.push(Op::Read(sweep_base.offset((i % threads) * 4096 + 64)));
            ops.push(Op::Write(tail_base.offset(phase * 0x1000 + i * 8)));
            if scatter {
                ops.push(Op::Read(
                    scatter_base.offset((i * 37 + phase) % SCATTER_LINES * 64),
                ));
            }
            if handoff {
                ops.push(Op::Read(handoff_base.offset(i % HANDOFF_LINES * 64)));
            }
            ops.push(Op::Work(work + 1));
        }
        spec(format!("tail{phase}"), OpsStream::new(ops), hide)
    };

    let mut builder = ProgramBuilder::new("shard-prop");
    if serial_init {
        let mut init = Vec::new();
        for i in 0..threads * 2 {
            init.push(Op::Write(shared_line.offset(i * 4)));
            init.push(Op::Write(read_table.offset(i * 32)));
        }
        builder = builder.serial(spec("init".to_string(), OpsStream::new(init), hide));
    }
    builder = builder.parallel(make_workers(0));
    if serial_after {
        builder = builder.serial(serial_tail(0));
    }
    if second_phase {
        builder = builder.parallel(make_workers(1));
        if serial_after {
            builder = builder.serial(serial_tail(1));
        }
    }
    builder.build()
}

fn run(shape: &Shape, shards: u32, observer: &mut dyn ExecObserver) -> RunReport {
    let config = MachineConfig::with_cores(shape.cores).with_shards(shards);
    Machine::new(config).run(build_program(shape), observer)
}

/// The oracle: the same program on the reference per-op loop.
fn run_reference(shape: &Shape, observer: &mut dyn ExecObserver) -> RunReport {
    Machine::new(MachineConfig::with_cores(shape.cores))
        .run_reference(build_program(shape), observer)
}

fn run_hidden(shape: &Shape, shards: u32, observer: &mut dyn ExecObserver) -> RunReport {
    let config = MachineConfig::with_cores(shape.cores).with_shards(shards);
    Machine::new(config).run(build_program_with(shape, true), observer)
}

/// Observer recording the full surfaced access stream (EveryAccess mode)
/// and perturbing every access, so timing feedback is exercised too.
#[derive(Default)]
struct Recorder {
    records: Vec<AccessRecord>,
    exits: Vec<(ThreadId, Cycles)>,
}

impl ExecObserver for Recorder {
    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        self.records.push(*record);
        // Deterministic, access-dependent perturbation.
        (record.addr.0 % 7) + u64::from(record.kind.is_write())
    }

    fn on_thread_exit(&mut self, thread: ThreadId, now: Cycles) {
        self.exits.push((thread, now));
    }
}

/// A modulo sampler with a faithful replica: samples the accesses whose
/// retired-instruction index is a multiple of `period`, charging a fixed
/// trap cost — the minimal honest implementation of the replica contract.
struct ModuloSampler {
    period: u64,
    trap: Cycles,
    samples: Vec<(ThreadId, Addr, Cycles, Cycles)>,
}

struct ModuloReplica {
    period: u64,
    trap: Cycles,
}

impl ThreadSampler for ModuloReplica {
    fn judge(&mut self, instrs_before: u64) -> SampleJudgement {
        let sampled = instrs_before.is_multiple_of(self.period);
        SampleJudgement {
            perturbation: if sampled { self.trap } else { 0 },
            sampled,
        }
    }
}

impl ExecObserver for ModuloSampler {
    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        if record.instrs_before.is_multiple_of(self.period) {
            self.samples
                .push((record.thread, record.addr, record.latency, record.start));
            self.trap
        } else {
            0
        }
    }

    fn fork_sampler(&mut self, _thread: ThreadId) -> SamplerFork {
        SamplerFork::Replica(Box::new(ModuloReplica {
            period: self.period,
            trap: self.trap,
        }))
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        (1u64..7, 0u32..2, 1u64..40),
        (proptest::sample::select(vec![64u64, 72, 128]), 0u64..12),
        (
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        (
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
    )
        .prop_map(
            |(
                (threads, extra_cores, iterations),
                (private_stride, work),
                (second_phase, serial_init, serial_after),
                (scatter, handoff, unhinted),
            )| {
                Shape {
                    threads,
                    // Room for the loop workers plus the streaming (and
                    // scatter) workers each phase adds.
                    cores: threads as u32 + 3 + extra_cores,
                    iterations,
                    private_stride,
                    work,
                    second_phase,
                    serial_init,
                    serial_after,
                    scatter,
                    handoff,
                    unhinted,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Reports are bit-identical to the reference loop at every shard
    /// count, transparent observer.
    #[test]
    fn reports_identical_across_shard_counts(shape in arb_shape(), shards in 1u32..9) {
        let baseline = run_reference(&shape, &mut NullObserver);
        let sharded = run(&shape, shards, &mut NullObserver);
        prop_assert_eq!(&baseline, &sharded);
    }

    /// (b) The full surfaced event stream (EveryAccess observers) matches
    /// the reference stream record for record, including perturbation
    /// feedback into the clocks and thread-exit times.
    #[test]
    fn merged_event_stream_identical(shape in arb_shape(), shards in 1u32..6) {
        let mut classic = Recorder::default();
        let baseline = run_reference(&shape, &mut classic);
        let mut merged = Recorder::default();
        let sharded = run(&shape, shards, &mut merged);
        prop_assert_eq!(&baseline, &sharded);
        prop_assert_eq!(classic.records.len(), merged.records.len());
        prop_assert_eq!(&classic.records, &merged.records);
        prop_assert_eq!(&classic.exits, &merged.exits);
    }

    /// (c) Replica sampling: identical sample sequence (content and order)
    /// and identical perturbed report.
    #[test]
    fn replica_sampling_identical(shape in arb_shape(), shards in 1u32..6, period in 1u64..9) {
        let mut classic = ModuloSampler { period, trap: 1_000, samples: Vec::new() };
        let baseline = run_reference(&shape, &mut classic);
        let mut sharded_sampler = ModuloSampler { period, trap: 1_000, samples: Vec::new() };
        let sharded = run(&shape, shards, &mut sharded_sampler);
        prop_assert_eq!(&baseline, &sharded);
        prop_assert_eq!(&classic.samples, &sharded_sampler.samples);
    }

    /// (e) Extent classification equals fully ordered execution: hiding
    /// every stream's footprint (so every parallel phase runs fully
    /// ordered) yields the bit-identical report, the identical surfaced
    /// event stream and the identical sample sequence at every shard
    /// count.
    #[test]
    fn extent_vs_per_line_classification_identical(
        shape in arb_shape(),
        shards in 2u32..6,
        period in 1u64..9,
    ) {
        let mut extent_rec = Recorder::default();
        let extent_report = run(&shape, shards, &mut extent_rec);
        let mut fallback_rec = Recorder::default();
        let fallback_report = run_hidden(&shape, shards, &mut fallback_rec);
        prop_assert_eq!(&extent_report, &fallback_report);
        prop_assert_eq!(&extent_rec.records, &fallback_rec.records);
        prop_assert_eq!(&extent_rec.exits, &fallback_rec.exits);
        // And both match the reference loop under the same (perturbing)
        // observer.
        let mut classic_rec = Recorder::default();
        let classic = run_reference(&shape, &mut classic_rec);
        prop_assert_eq!(&classic, &extent_report);
        prop_assert_eq!(&classic_rec.records, &extent_rec.records);

        let mut extent_sampler = ModuloSampler { period, trap: 700, samples: Vec::new() };
        let extent_sampled = run(&shape, shards, &mut extent_sampler);
        let mut fallback_sampler = ModuloSampler { period, trap: 700, samples: Vec::new() };
        let fallback_sampled = run_hidden(&shape, shards, &mut fallback_sampler);
        prop_assert_eq!(&extent_sampled, &fallback_sampled);
        prop_assert_eq!(&extent_sampler.samples, &fallback_sampler.samples);
    }

    /// (f) Extent classification under oversubscription: hidden and
    /// declared footprints agree when workers share cores (the phase runs
    /// fully ordered either way), and both match the reference loop's
    /// report, record stream and sample sequence at shard counts {1, 2, 4}.
    #[test]
    fn extent_oversubscription_fallback_identical(
        threads in 3u64..8,
        iterations in 1u64..20,
        period in 1u64..9,
    ) {
        let shape = oversubscribed(threads, iterations, false);
        for hide in [false, true] {
            assert_identical_to_reference(shape.cores, || build_program_with(&shape, hide), period);
        }
    }

    /// (d) Oversubscribed phases (workers > cores) run fully ordered and
    /// match the reference loop at shard counts {1, 2, 4}: report,
    /// surfaced record stream and sample sequence, with or without a
    /// worker that declares no footprint.
    #[test]
    fn oversubscription_falls_back_consistently(
        threads in 3u64..8,
        iterations in 1u64..30,
        period in 1u64..9,
        unhinted in proptest::bool::ANY,
    ) {
        let shape = oversubscribed(threads, iterations, unhinted);
        assert_identical_to_reference(shape.cores, || build_program(&shape), period);
    }
}

/// A two-core shape whose parallel phases have more workers than cores, so
/// several workers interleave through one core's private cache.
fn oversubscribed(threads: u64, iterations: u64, unhinted: bool) -> Shape {
    Shape {
        threads,
        cores: 2,
        iterations,
        private_stride: 64,
        work: 3,
        second_phase: true,
        serial_init: true,
        serial_after: false,
        scatter: false,
        handoff: false,
        unhinted,
    }
}

/// Asserts that [`Machine::run`] matches the reference loop at shard
/// counts {1, 2, 4} on the programs `program` builds, on a machine of
/// `cores` cores: the report under a transparent observer, the report,
/// surfaced record stream and thread exits under a perturbing
/// every-access observer, and the report and sample sequence under a
/// modulo sampler of `period`.
fn assert_identical_to_reference(cores: u32, program: impl Fn() -> Program, period: u64) {
    let machine = |shards: u32| Machine::new(MachineConfig::with_cores(cores).with_shards(shards));
    let sampler = || ModuloSampler {
        period,
        trap: 400,
        samples: Vec::new(),
    };
    let reference = machine(1).run_reference(program(), &mut NullObserver);
    let mut reference_rec = Recorder::default();
    let reference_recorded = machine(1).run_reference(program(), &mut reference_rec);
    let mut reference_sampler = sampler();
    let reference_sampled = machine(1).run_reference(program(), &mut reference_sampler);
    for shards in [1u32, 2, 4] {
        let m = machine(shards);
        assert_eq!(
            reference,
            m.run(program(), &mut NullObserver),
            "report at {shards} shards"
        );
        let mut rec = Recorder::default();
        let recorded = m.run(program(), &mut rec);
        assert_eq!(
            reference_recorded, recorded,
            "recorded report at {shards} shards"
        );
        assert_eq!(
            reference_rec.records, rec.records,
            "record stream at {shards} shards"
        );
        assert_eq!(reference_rec.exits, rec.exits, "exits at {shards} shards");
        let mut s = sampler();
        let sampled = m.run(program(), &mut s);
        assert_eq!(
            reference_sampled, sampled,
            "sampled report at {shards} shards"
        );
        assert_eq!(
            reference_sampler.samples, s.samples,
            "samples at {shards} shards"
        );
    }
}

/// (g) Serial phases after parallel phases (serial → parallel → serial →
/// parallel → serial): the main thread's retired-instruction count and
/// sampling replica continue mid-stream, so the surfaced record stream
/// (EveryAccess, with `instrs_before`) and the sample sequence match the
/// reference loop at shard counts 1 and 2.
#[test]
fn serial_phases_after_parallel_phases_identical() {
    let shape = Shape {
        threads: 3,
        cores: 8,
        iterations: 25,
        private_stride: 72,
        work: 4,
        second_phase: true,
        serial_init: true,
        serial_after: true,
        scatter: true,
        handoff: true,
        unhinted: false,
    };
    let mut reference_rec = Recorder::default();
    let reference = run_reference(&shape, &mut reference_rec);
    assert_eq!(reference.phases.len(), 5);
    for period in [7u64, 97] {
        let mut reference_sampler = ModuloSampler {
            period,
            trap: 300,
            samples: Vec::new(),
        };
        let reference_sampled = run_reference(&shape, &mut reference_sampler);
        // The guard needs main-thread samples after a parallel phase.
        let first_parallel_end = reference_sampled.phases[1].end;
        assert!(
            reference_sampler
                .samples
                .iter()
                .any(|&(thread, _, _, start)| thread.is_main() && start >= first_parallel_end),
            "period {period}: no main-thread sample after a parallel phase"
        );
        for shards in [1u32, 2] {
            let mut rec = Recorder::default();
            let report = run(&shape, shards, &mut rec);
            assert_eq!(reference, report, "report at {shards} shards");
            assert_eq!(
                reference_rec.records, rec.records,
                "record stream at {shards} shards"
            );
            assert_eq!(reference_rec.exits, rec.exits, "exits at {shards} shards");
            let mut sampler = ModuloSampler {
                period,
                trap: 300,
                samples: Vec::new(),
            };
            let sampled = run(&shape, shards, &mut sampler);
            assert_eq!(
                reference_sampled, sampled,
                "period {period}: sampled report at {shards} shards"
            );
            assert_eq!(
                reference_sampler.samples, sampler.samples,
                "period {period}: samples at {shards} shards"
            );
        }
    }
}

/// Counting observers (EveryAccess) see every access exactly once under
/// sharding.
#[test]
fn counting_observer_counts_match() {
    let shape = Shape {
        threads: 4,
        cores: 8,
        iterations: 50,
        private_stride: 64,
        work: 5,
        second_phase: true,
        serial_init: true,
        serial_after: false,
        scatter: false,
        handoff: false,
        unhinted: true,
    };
    let mut classic = CountingObserver::default();
    let baseline = run_reference(&shape, &mut classic);
    let mut sharded_counter = CountingObserver::default();
    let sharded = run(&shape, 4, &mut sharded_counter);
    assert_eq!(baseline, sharded);
    assert_eq!(classic.accesses, sharded_counter.accesses);
    assert_eq!(classic.writes, sharded_counter.writes);
    assert_eq!(classic.thread_starts, sharded_counter.thread_starts);
    assert_eq!(classic.thread_exits, sharded_counter.thread_exits);
    assert_eq!(classic.phase_starts, sharded_counter.phase_starts);
    assert_eq!(classic.phase_ends, sharded_counter.phase_ends);
}

/// `shards = 0` resolves to the host parallelism and stays bit-identical.
#[test]
fn auto_shards_identical() {
    let shape = Shape {
        threads: 3,
        cores: 16,
        iterations: 40,
        private_stride: 72,
        work: 2,
        second_phase: false,
        serial_init: true,
        serial_after: false,
        scatter: false,
        handoff: false,
        unhinted: false,
    };
    let baseline = run_reference(&shape, &mut NullObserver);
    let auto = run(&shape, 0, &mut NullObserver);
    assert_eq!(baseline, auto);
}

/// A run dominated by false sharing (every access contended) still merges
/// identically — the worst case for the classifier, where no access is
/// precomputable.
#[test]
fn fully_contended_run_identical() {
    let shared = Addr(0x4000);
    let build = || {
        ProgramBuilder::new("contended")
            .parallel(
                (0..4u64)
                    .map(|t| {
                        ThreadSpec::new(
                            format!("w{t}"),
                            LoopStream::new(
                                vec![
                                    Op::Read(shared.offset(t * 4)),
                                    Op::Write(shared.offset(t * 4)),
                                ],
                                500,
                            ),
                        )
                    })
                    .collect(),
            )
            .build()
    };
    let classic =
        Machine::new(MachineConfig::with_cores(8)).run_reference(build(), &mut NullObserver);
    let sharded =
        Machine::new(MachineConfig::with_cores(8).with_shards(4)).run(build(), &mut NullObserver);
    assert_eq!(classic, sharded);
    assert!(classic.coherence.invalidations > 100);
}

/// Two workers sharing a core sweep interleaved lines: one the even lines,
/// the other the odd ones, alternating in time. Neither worker's own
/// sequence is ever sequential, but the core's prefetch cursor sees
/// 0, 1, 2, 3, … and hides every miss after the first. Only an executor
/// that feeds the shared cursor each core's accesses in global order gets
/// this right; the fully ordered phase must match the reference loop at
/// shard counts {1, 2, 4}.
#[test]
fn co_resident_workers_share_the_prefetch_cursor() {
    const LINES: u64 = 32;
    let base = Addr(0x40_0000);
    let sweep = |first: u64| {
        let ops = (0..LINES)
            .flat_map(|i| {
                [
                    Op::Read(base.offset((2 * i + first) * 64)),
                    Op::Work(20_000),
                ]
            })
            .collect();
        OpsStream::new(ops)
    };
    // Two cores, three workers: slots 0 and 2 share core 1, slot 1 runs
    // alone on core 0. Slot 2 starts two spawns (6000 cycles) after slot
    // 0, so each odd line lands between two even ones.
    let program = || {
        ProgramBuilder::new("co-resident")
            .parallel(vec![
                ThreadSpec::new("even", sweep(0)),
                ThreadSpec::new(
                    "loner",
                    LoopStream::new(vec![Op::Write(Addr(0x90_0000)), Op::Work(500)], 100),
                ),
                ThreadSpec::new("odd", sweep(1)),
            ])
            .build()
    };
    let reference =
        Machine::new(MachineConfig::with_cores(2)).run_reference(program(), &mut NullObserver);
    assert_eq!(
        reference.coherence.prefetched,
        2 * LINES - 1,
        "the shared cursor hides every miss after the first"
    );
    // On distinct cores each cursor sees a stride-2 sweep: no prefetches.
    let apart = Machine::new(MachineConfig::with_cores(4)).run(program(), &mut NullObserver);
    assert_eq!(apart.coherence.prefetched, 0);
    for period in [1u64, 3] {
        assert_identical_to_reference(2, program, period);
    }
}

/// The cross-object workloads (co-resident objects packed into shared
/// cache lines — the line-level assessment's stress cases) execute
/// bit-identically at shard counts {1, 2, 4}: reports, the full surfaced
/// event stream, and the sampled sequence all match the reference loop
/// record for record.
#[test]
fn cross_object_workloads_identical_across_shard_counts() {
    use cheetah_workloads::{find, AppConfig};

    for name in [
        "inter_object",
        "packed_triplet",
        "struct_straddle",
        "reader_writer",
        "streaming_histogram",
    ] {
        let app = find(name).expect("registered workload");
        let config = AppConfig {
            threads: 6,
            scale: 0.02,
            fixed: false,
            seed: 1,
        };
        // `None` runs the reference loop.
        let run_at = |shards: Option<u32>| {
            let machine =
                Machine::new(MachineConfig::with_cores(16).with_shards(shards.unwrap_or(1)));
            let run = |program, observer: &mut dyn ExecObserver| match shards {
                Some(_) => machine.run(program, observer),
                None => machine.run_reference(program, observer),
            };
            let mut recorder = Recorder::default();
            let report = run(app.build(&config).program, &mut recorder);
            let mut sampler = ModuloSampler {
                period: 7,
                trap: 500,
                samples: Vec::new(),
            };
            let sampled_report = run(app.build(&config).program, &mut sampler);
            (report, recorder, sampled_report, sampler.samples)
        };
        let (report1, recorder1, sampled1, samples1) = run_at(None);
        for shards in [1u32, 2, 4] {
            let shards = Some(shards);
            let (report, recorder, sampled, samples) = run_at(shards);
            assert_eq!(report1, report, "{name} report at {shards:?} shards");
            assert_eq!(
                recorder1.records, recorder.records,
                "{name} event stream at {shards:?} shards"
            );
            assert_eq!(
                recorder1.exits, recorder.exits,
                "{name} thread exits at {shards:?} shards"
            );
            assert_eq!(
                sampled1, sampled,
                "{name} perturbed report at {shards:?} shards"
            );
            assert_eq!(samples1, samples, "{name} samples at {shards:?} shards");
        }
        assert!(
            report1.coherence.invalidations > 100,
            "{name} must actually contend ({} invalidations)",
            report1.coherence.invalidations
        );
    }
}

/// Reads and writes of `AccessKind` reach observers with the right kinds
/// under sharding (spot check of record fidelity beyond plain equality).
#[test]
fn surfaced_records_have_expected_kinds() {
    let shape = Shape {
        threads: 2,
        cores: 4,
        iterations: 10,
        private_stride: 64,
        work: 1,
        second_phase: false,
        serial_init: false,
        serial_after: false,
        scatter: false,
        handoff: false,
        unhinted: false,
    };
    let mut rec = Recorder::default();
    run(&shape, 3, &mut rec);
    assert!(rec
        .records
        .iter()
        .any(|r| r.kind == AccessKind::Write && r.addr.0 >= 0x100_000));
    assert!(rec.records.iter().any(|r| r.kind == AccessKind::Read));
}
