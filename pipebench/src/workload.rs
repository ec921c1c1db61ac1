//! The three workloads: their set-up, their op streams and what one op
//! measures.
//!
//! Every op is timed from outside, by `Instant`s (and, in the traced pass,
//! benchmark spans) around calls into the public functions of each crate.
//! Counters come from a fresh untraced registry per op, never from the
//! process-global one.

use crate::calib::Calibrator;
use crate::stats::median;
use cheetah_core::{
    collect_instances, CheetahConfig, CheetahProfiler, CorruptFields, FaultPlan, Profile,
};
use cheetah_obs::{Fnv64, ObsHandle, SpanGuard};
use cheetah_pmu::SimPmu;
use cheetah_repair::{
    apply_iterations, converge, converge_worst_case, rank, schedule_set, synthesize,
    ConvergeConfig, RepairPlan, ValidationHarness,
};
use cheetah_sim::{metrics, ExecObserver, Machine, MachineConfig, NullObserver, RunReport};
use cheetah_workloads::{evaluated_apps, find, table2_matrix, App, AppConfig, Expectation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Lane of the benchmark's own spans in the Chrome trace.
pub const BENCH_LANE: u32 = 9;

/// Deployment sampling period (`CheetahConfig::scaled`), as in Fig. 4.
const DEPLOY_PERIOD: u64 = 8192;
/// Dense sampling period of the `dense` workload.
const DENSE_PERIOD: u64 = 32;
/// Significance threshold for planning fixes outside the matrix.
const PLAN_THRESHOLD: f64 = 1.005;
/// Cores of the explore ops' machine, as in `schedule_explore`.
const EXPLORE_CORES: u32 = 8;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's own traffic on the default path.
    Deploy,
    /// Detector- and assessment-heavy traffic.
    Dense,
    /// Find-and-fix traffic.
    Repair,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "deploy" => Some(Kind::Deploy),
            "dense" => Some(Kind::Dense),
            "repair" => Some(Kind::Repair),
            _ => None,
        }
    }
}

/// Run-wide settings.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// The workload seed: `AppConfig::seed`, the fault-plan seed and the
    /// first of the schedule seeds.
    pub seed: u64,
    /// Host parallelism.
    pub nproc: u32,
    /// Simulator shards of the sharded workloads (`nproc`).
    pub shards: u32,
}

/// Paper reference runs made during set-up (pure functions of the seed).
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Unprofiled cycles of the broken build.
    pub broken: u64,
    /// Unprofiled cycles of the hand-fixed build.
    pub fixed: u64,
}

impl Reference {
    /// Real improvement of the fix.
    pub fn real(&self) -> f64 {
        self.broken as f64 / self.fixed as f64
    }
}

/// One Table 1 configuration: predicted vs. real improvement.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Application.
    pub app: &'static str,
    /// Threads.
    pub threads: u32,
    /// Predicted improvement (1.0 when nothing was reported).
    pub predicted: f64,
    /// Real improvement of the paper's fix.
    pub real: f64,
}

impl Table1Row {
    /// Signed relative difference `predicted / real - 1`.
    pub fn diff(&self) -> f64 {
        self.predicted / self.real - 1.0
    }
}

// A few dozen ops, built once per set-up: their size does not matter.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Op {
    /// A native (unprofiled) run.
    Native {
        app: &'static App,
        config: AppConfig,
        machine: MachineConfig,
    },
    /// Build, profile, classify, assess, then plan and rewrite a fix.
    Profile {
        app: &'static App,
        config: AppConfig,
        machine: MachineConfig,
        cheetah: CheetahConfig,
        bounded: bool,
        deployment_rate: bool,
        reference: Option<Reference>,
    },
    /// A Table 2 matrix cell: find (profile + plan + rewrite), then
    /// `converge`.
    Cell {
        app: &'static App,
        config: AppConfig,
        cores: u32,
        period: u64,
        converge: ConvergeConfig,
    },
    /// `converge_worst_case` over the schedule set: explore, unite the
    /// findings, fix until every schedule is clean.
    Explore {
        app: &'static App,
        config: AppConfig,
    },
}

/// A workload after set-up.
#[derive(Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    ops: Vec<Op>,
    /// Table 1 reference rows (`repair` only).
    pub table1: Vec<Table1Row>,
    /// Fig. 7 reference: minor apps' real improvement (`deploy` only).
    pub fig7: Vec<(&'static str, Reference)>,
    /// Host ms of the calibration bursts run during set-up, one before
    /// each program's reference runs.
    pub setup_bursts: Vec<f64>,
}

/// Per-layer host milliseconds of one op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// `App::build` calls.
    pub build_ms: f64,
    /// Number of `App::build` calls.
    pub builds: u64,
    /// `collect_instances`, called before `finish`.
    pub classify_ms: f64,
    /// `CheetahProfiler::finish`.
    pub finish_ms: f64,
    /// `synthesize` + `rank`.
    pub plan_ms: f64,
    /// `apply_iterations`.
    pub rewrite_ms: f64,
}

/// Deterministic counts of one op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub merged: u64,
    pub folded: u64,
    pub surfaced: u64,
    pub sched_reordered: u64,
    pub cycles: u64,
    pub invalidations: u64,
    pub wait_cycles: u64,
    pub samples: u64,
    pub trap_cycles: u64,
    pub faults_injected: u64,
    pub evictions: u64,
    pub denials: u64,
    pub repromotions: u64,
    pub quarantined: u64,
    pub admissions: u64,
    pub peak_lines: u64,
    pub instances: u64,
    pub hidden: u64,
    pub iterations: u64,
    pub schedules_profiled: u64,
}

/// Host nanoseconds of the sharded simulator's passes (registry counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardNs {
    pub classify: u64,
    pub precompute: u64,
    pub merge: u64,
}

/// What one op produced.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    /// Program label.
    pub label: String,
    /// Host ms of the calibration burst run just before the op.
    pub cal_ms: f64,
    /// Host ms of the whole op.
    pub op_ms: f64,
    /// Hash of the op's deterministic outputs.
    pub witness: u64,
    /// Why the op failed, if it did.
    pub failure: Option<String>,
    /// Whether the registry expectation held, when judged.
    pub expect: Option<bool>,
    /// Host ms of the profiled part: build → run → finish.
    pub profile_ms: Option<f64>,
    /// Host ms of a native op: build → run without an observer.
    pub native_ms: Option<f64>,
    /// Host ms of the workload's second op class (bounded op, or matrix
    /// `converge`).
    pub alt_ms: Option<f64>,
    /// Host ms of a schedule-set worst-case repair.
    pub explore_ms: Option<f64>,
    /// Simulated accesses of the runs the benchmark made directly.
    pub accesses: u64,
    /// Host ms of those runs.
    pub run_ms: f64,
    /// Program identity (`app/tN/cC`), pairing a profiled op with the
    /// native run of the same program for `sim_overhead`.
    pub program: String,
    /// Simulated cycles of the program's profiled run.
    pub profiled_cycles: Option<u64>,
    /// Simulated cycles of the program's unprofiled run.
    pub native_cycles: Option<u64>,
    /// `|predicted / measured - 1|` of every prediction with a measurement.
    pub prediction_errors: Vec<f64>,
    /// Per-layer host times.
    pub layers: Layers,
    /// Deterministic counts.
    pub counts: Counts,
    /// Sharded-pass host time.
    pub shard_ns: ShardNs,
    /// Native cycles of a Fig. 1 microbench run, keyed by threads.
    pub fig1: Option<(u32, u64)>,
}

/// Host milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn span(obs: &ObsHandle, name: &'static str) -> SpanGuard {
    obs.span(name, BENCH_LANE)
}

fn witness_of(parts: &[&str]) -> u64 {
    let mut hash = Fnv64::new();
    for part in parts {
        hash.write_str(part);
    }
    hash.finish()
}

/// The `chaos` preset of `robustness_sweep`, reseeded.
fn chaos(seed: u64) -> FaultPlan {
    FaultPlan {
        drop_per_mille: 100,
        reorder_window: 8,
        duplicate_per_mille: 30,
        corrupt_per_mille: 30,
        corrupt_fields: CorruptFields::all(),
        ..FaultPlan::none()
    }
    .with_seed(seed)
}

/// Judges a profile against the registry expectation: NoFalseSharing apps
/// report nothing at 1.2, Minor apps nothing at 1.1 at deployment rate,
/// Significant apps must be found. Hidden apps are judged by exploration.
fn expectation_met(app: &App, profile: &Profile, deployment_rate: bool) -> Option<bool> {
    match app.expectation() {
        Expectation::NoFalseSharing => Some(profile.significant_false_sharing(1.2).is_empty()),
        Expectation::MinorFalseSharing => {
            deployment_rate.then(|| profile.significant_false_sharing(1.1).is_empty())
        }
        Expectation::SignificantFalseSharing => Some(!profile.false_sharing().is_empty()),
        Expectation::HiddenFalseSharing => None,
    }
}

fn native_cycles(machine: &MachineConfig, app: &App, config: &AppConfig) -> u64 {
    Machine::new(machine.clone())
        .run(app.build(config).program, &mut NullObserver)
        .total_cycles
}

fn reference(machine: &MachineConfig, app: &App, config: &AppConfig) -> Reference {
    Reference {
        broken: native_cycles(machine, app, config),
        fixed: native_cycles(machine, app, &config.clone().fixed()),
    }
}

/// Identity of a program run: app, threads and simulated cores.
fn program_key(app: &App, config: &AppConfig, cores: u32) -> String {
    format!("{}/t{}/c{cores}", app.name(), config.threads)
}

fn app(name: &str) -> &'static App {
    find(name).expect("registered workload")
}

impl Workload {
    /// Builds the op stream and runs the reference runs it needs, each
    /// program's after a calibration burst.
    pub fn setup(kind: Kind, env: &Env, cal: &mut Calibrator) -> Workload {
        let seed = env.seed;
        let sharded = MachineConfig::default().with_shards(env.shards);
        let mut workload = Workload {
            kind,
            ops: Vec::new(),
            table1: Vec::new(),
            fig7: Vec::new(),
            setup_bursts: Vec::new(),
        };
        match kind {
            Kind::Deploy => {
                let config = AppConfig {
                    threads: 16,
                    scale: 1.0,
                    fixed: false,
                    seed,
                };
                for app in evaluated_apps() {
                    workload.setup_bursts.push(cal.burst());
                    let reference = match app.expectation() {
                        Expectation::SignificantFalseSharing => {
                            Some(reference(&sharded, app, &config))
                        }
                        Expectation::MinorFalseSharing => {
                            workload
                                .fig7
                                .push((app.name(), reference(&sharded, app, &config)));
                            None
                        }
                        _ => None,
                    };
                    workload.ops.push(Op::Native {
                        app,
                        config: config.clone(),
                        machine: MachineConfig::default(),
                    });
                    workload.ops.push(Op::Profile {
                        app,
                        config: config.clone(),
                        machine: MachineConfig::default(),
                        cheetah: CheetahConfig::scaled(DEPLOY_PERIOD),
                        bounded: false,
                        deployment_rate: true,
                        reference,
                    });
                }
                // Fig. 1: the microbenchmark natively on an 8-core machine.
                for threads in [1, 2, 4, 8] {
                    workload.ops.push(Op::Native {
                        app: app("microbench"),
                        config: AppConfig {
                            threads,
                            ..config.clone()
                        },
                        machine: MachineConfig::with_cores(8),
                    });
                }
            }
            Kind::Dense => {
                let config = AppConfig {
                    threads: 16,
                    scale: 0.5,
                    fixed: false,
                    seed,
                };
                for name in [
                    "x264",
                    "kmeans",
                    "pca",
                    "streamcluster",
                    "linear_regression",
                ] {
                    let app = app(name);
                    workload.setup_bursts.push(cal.burst());
                    // Peak detailed-line working set of the unbounded run.
                    let instance = app.build(&config);
                    let cheetah = CheetahConfig::scaled(DENSE_PERIOD);
                    let mut profiler = CheetahProfiler::new(cheetah.clone(), &instance.space);
                    Machine::new(sharded.clone()).run(instance.program, &mut profiler);
                    let peak = profiler.finish().ingest.peak_detailed_lines;
                    let reference = (app.expectation() == Expectation::SignificantFalseSharing)
                        .then(|| reference(&sharded, app, &config));
                    for bounded in [false, true] {
                        let cheetah = if bounded {
                            cheetah
                                .clone()
                                .with_line_capacity((peak as usize / 4).max(1))
                                .with_faults(chaos(seed))
                        } else {
                            workload.ops.push(Op::Native {
                                app,
                                config: config.clone(),
                                machine: sharded.clone(),
                            });
                            cheetah.clone()
                        };
                        workload.ops.push(Op::Profile {
                            app,
                            config: config.clone(),
                            machine: sharded.clone(),
                            cheetah,
                            bounded,
                            deployment_rate: false,
                            reference: if bounded { None } else { reference },
                        });
                    }
                }
            }
            Kind::Repair => {
                let mut last_program = None;
                for cell in table2_matrix() {
                    // One native run per (app, threads), the base of
                    // `sim_overhead`; the cell's two periods share it.
                    let config = AppConfig {
                        seed,
                        ..cell.app_config()
                    };
                    if last_program != Some((cell.app.name(), cell.threads)) {
                        last_program = Some((cell.app.name(), cell.threads));
                        workload.ops.push(Op::Native {
                            app: cell.app,
                            config: config.clone(),
                            machine: MachineConfig::with_cores(cell.cores).with_shards(env.shards),
                        });
                    }
                    workload.ops.push(Op::Cell {
                        app: cell.app,
                        config: AppConfig {
                            seed,
                            ..cell.app_config()
                        },
                        cores: cell.cores,
                        period: cell.period,
                        converge: ConvergeConfig {
                            max_iterations: cell.max_iterations,
                            min_predicted_improvement: cell.min_predicted_improvement,
                        },
                    });
                }
                for name in ["staggered_writers", "microbench", "linear_regression"] {
                    let config = AppConfig {
                        threads: 8,
                        scale: 0.25,
                        fixed: false,
                        seed,
                    };
                    workload.ops.push(Op::Explore {
                        app: app(name),
                        config,
                    });
                }
                // Table 1: predicted vs. real improvement of the paper's fix
                // (the `table1_precision` configurations).
                for name in ["linear_regression", "streamcluster"] {
                    let app = app(name);
                    for threads in [16u32, 8, 4, 2] {
                        let config = AppConfig {
                            threads,
                            scale: 0.5,
                            fixed: false,
                            seed,
                        };
                        let period = match (name, threads) {
                            ("streamcluster", t) if t <= 4 => 64,
                            ("streamcluster", _) => 128,
                            (_, t) if t >= 8 => 256,
                            _ => 512,
                        };
                        workload.setup_bursts.push(cal.burst());
                        let reference = reference(&sharded, app, &config);
                        let instance = app.build(&config);
                        let mut profiler =
                            CheetahProfiler::new(CheetahConfig::scaled(period), &instance.space);
                        Machine::new(sharded.clone()).run(instance.program, &mut profiler);
                        let predicted = profiler
                            .finish()
                            .false_sharing()
                            .first()
                            .map_or(1.0, |i| i.improvement());
                        workload.table1.push(Table1Row {
                            app: app.name(),
                            threads,
                            predicted,
                            real: reference.real(),
                        });
                    }
                }
            }
        }
        workload
    }

    /// Ops per pass.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Runs every op once, in order, each after a calibration burst. With
    /// `traced`, every op reports into that registry (spans on); otherwise
    /// each op gets a fresh untraced registry and its counters are read.
    pub fn pass(
        &self,
        env: &Env,
        traced: Option<&ObsHandle>,
        cal: &mut Calibrator,
    ) -> Vec<OpRecord> {
        self.ops
            .iter()
            .map(|op| {
                let cal_ms = cal.burst();
                let start = Instant::now();
                let record = run_op(op, env, traced);
                OpRecord {
                    cal_ms,
                    op_ms: ms_since(start),
                    ..record
                }
            })
            .collect()
    }

    /// Runs one program of the workload at `shards = 1` and at
    /// `shards = nproc` and compares the outputs bit for bit. Returns a
    /// failure description, if any.
    pub fn shard_check(&self, env: &Env) -> Option<String> {
        let op = match self.kind {
            Kind::Deploy => self.ops.iter().find(
                |op| matches!(op, Op::Profile { app, .. } if app.name() == "linear_regression"),
            ),
            Kind::Dense => self
                .ops
                .iter()
                .find(|op| matches!(op, Op::Profile { bounded: false, .. })),
            Kind::Repair => self.ops.iter().find(|op| {
                matches!(op, Op::Cell { app, config, .. }
                    if app.name() == "microbench" && config.threads == 4)
            }),
        }?;
        let with_shards = |shards: u32| -> Op {
            let mut op = op.clone();
            if let Op::Profile { machine, .. } = &mut op {
                *machine = machine.clone().with_shards(shards);
            }
            op
        };
        let one = Env { shards: 1, ..*env };
        let many = Env {
            shards: env.nproc,
            ..*env
        };
        let a = run_op(&with_shards(1), &one, None);
        let b = run_op(&with_shards(env.nproc), &many, None);
        if let Some(failure) = a.failure.or(b.failure) {
            return Some(failure);
        }
        (a.witness != b.witness).then(|| {
            format!(
                "{}: shards = 1 and shards = {} disagree",
                a.label, env.nproc
            )
        })
    }

    /// Splits the host time of every op with one unbounded profiled run
    /// into simulate / sample / detect: `Machine::run` of the program
    /// natively, under a bare `SimPmu` with the op's sampler, and under
    /// `CheetahProfiler`, back to back so host drift hits all three alike;
    /// `reps` times, medians. Aligned with the pass (`None` for other ops).
    pub fn decompose(&self, env: &Env, reps: usize) -> Vec<Option<Decomposition>> {
        self.ops
            .iter()
            .map(|op| {
                let (app, config, machine, cheetah) = match op {
                    Op::Profile {
                        app,
                        config,
                        machine,
                        cheetah,
                        bounded: false,
                        ..
                    } => (*app, config, machine.clone(), cheetah.clone()),
                    Op::Cell {
                        app,
                        config,
                        cores,
                        period,
                        ..
                    } => {
                        let machine = MachineConfig::with_cores(*cores).with_shards(env.shards);
                        let harness = ValidationHarness::calibrated(
                            Machine::new(machine.clone()),
                            CheetahConfig::scaled(*period),
                        );
                        (*app, config, machine, harness.cheetah_config().clone())
                    }
                    _ => return None,
                };
                let machine = Machine::new(machine.with_obs(ObsHandle::fresh_untraced()));
                let timed = |observer: &mut dyn ExecObserver, program| {
                    let start = Instant::now();
                    machine.run(program, observer);
                    ms_since(start)
                };
                let (mut native, mut simpmu, mut profiled) = (Vec::new(), Vec::new(), Vec::new());
                for _ in 0..reps {
                    native.push(timed(&mut NullObserver, app.build(config).program));
                    let mut pmu =
                        SimPmu::new(cheetah.sampler.clone(), |_| {}).expect("valid sampler");
                    simpmu.push(timed(&mut pmu, app.build(config).program));
                    let (program, space) = app.build(config).into_parts();
                    let mut profiler = CheetahProfiler::new(cheetah.clone(), &space);
                    profiled.push(timed(&mut profiler, program));
                }
                let med = |v: &[f64]| median(v).expect("at least one rep");
                Some(Decomposition {
                    native_ms: med(&native),
                    simpmu_ms: med(&simpmu),
                    profiled_ms: med(&profiled),
                })
            })
            .collect()
    }
}

/// Host ms of one program's `Machine::run` under three observers.
#[derive(Debug, Clone, Copy)]
pub struct Decomposition {
    /// No observer.
    pub native_ms: f64,
    /// A bare `SimPmu`: sampling, no detection.
    pub simpmu_ms: f64,
    /// `CheetahProfiler`: sampling and detection.
    pub profiled_ms: f64,
}

/// Adds a run's report to the op's accounting.
fn account_run(record: &mut OpRecord, report: &RunReport, run_ms: f64) {
    record.accesses += report.total_accesses();
    record.run_ms += run_ms;
    record.counts.cycles += report.total_cycles;
    record.counts.invalidations += report.coherence.invalidations;
    record.counts.wait_cycles += report.coherence.wait_cycles;
}

/// Reads the op registry's simulator counters.
fn account_registry(record: &mut OpRecord, obs: &ObsHandle) {
    let m = metrics::snapshot_of(obs);
    record.counts.merged += m.merged_events;
    record.counts.folded += m.folded_events;
    record.counts.surfaced += m.surfaced_events;
    record.counts.sched_reordered += m.sched_reordered;
    record.shard_ns = ShardNs {
        classify: m.classify_ns,
        precompute: m.precompute_ns,
        merge: m.merge_ns,
    };
}

/// The profiled part of an op: build → run → classify → finish.
struct Profiled {
    report: RunReport,
    profile: Profile,
}

fn profile_once(
    record: &mut OpRecord,
    obs: &ObsHandle,
    app: &App,
    config: &AppConfig,
    machine: &Machine,
    cheetah: CheetahConfig,
) -> Profiled {
    let start = Instant::now();
    let guard = span(obs, "workloads.build");
    let instance = app.build(config);
    drop(guard);
    record.layers.build_ms += ms_since(start);
    record.layers.builds += 1;

    let mut profiler = CheetahProfiler::new(cheetah, &instance.space);
    let start = Instant::now();
    let guard = span(obs, "sim.run_profiled");
    let report = machine.run(instance.program, &mut profiler);
    drop(guard);
    account_run(record, &report, ms_since(start));
    record.counts.trap_cycles += profiler.engine().total_trap_cycles();

    let start = Instant::now();
    let guard = span(obs, "core.collect_instances");
    let instances = collect_instances(profiler.detector(), &instance.space);
    drop(guard);
    record.layers.classify_ms += ms_since(start);
    record.counts.instances += instances.len() as u64;

    let start = Instant::now();
    let guard = span(obs, "core.finish");
    let profile = profiler.finish();
    drop(guard);
    record.layers.finish_ms += ms_since(start);

    let ingest = &profile.ingest;
    record.counts.samples += profile.total_samples;
    record.counts.faults_injected += profile.fault_counts.map_or(0, |c| c.injected());
    record.counts.evictions += ingest.line_evictions;
    record.counts.denials += ingest.line_denials;
    record.counts.repromotions += ingest.line_repromotions;
    record.counts.quarantined += ingest.quarantined.total();
    record.counts.admissions += ingest.line_evictions + ingest.detailed_lines;
    record.counts.peak_lines = record.counts.peak_lines.max(ingest.peak_detailed_lines);
    Profiled { report, profile }
}

/// Plans fixes for the profile's significant instances and rewrites a
/// fresh build with the best one, as a user acting on the report would.
fn plan_and_rewrite(
    record: &mut OpRecord,
    obs: &ObsHandle,
    app: &App,
    config: &AppConfig,
    profile: &Profile,
    threshold: f64,
    line_size: u64,
) -> Result<(), String> {
    let start = Instant::now();
    let guard = span(obs, "repair.plan");
    let mut candidates: Vec<(RepairPlan, f64)> = profile
        .significant_false_sharing(threshold)
        .iter()
        .filter_map(|a| synthesize(&a.instance, line_size).map(|plan| (plan, a.improvement())))
        .collect();
    rank(&mut candidates);
    drop(guard);
    record.layers.plan_ms += ms_since(start);
    let Some((plan, _)) = candidates.into_iter().next() else {
        return Ok(());
    };

    let start = Instant::now();
    let guard = span(obs, "workloads.build");
    let (program, mut space) = app.build(config).into_parts();
    drop(guard);
    record.layers.build_ms += ms_since(start);
    record.layers.builds += 1;
    let start = Instant::now();
    let guard = span(obs, "repair.apply_iterations");
    let rewritten = apply_iterations(program, std::slice::from_ref(&plan), &mut space);
    drop(guard);
    record.layers.rewrite_ms += ms_since(start);
    rewritten
        .map(drop)
        .map_err(|e| format!("{}: rewrite failed: {e}", app.name()))
}

fn run_op(op: &Op, env: &Env, traced: Option<&ObsHandle>) -> OpRecord {
    let obs = traced.cloned().unwrap_or_else(ObsHandle::fresh_untraced);
    let mut record = OpRecord::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let guard = span(&obs, "bench.op");
        let result = run_op_inner(op, env, &obs, &mut record);
        drop(guard);
        result
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(failure)) => record.failure = Some(failure),
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            record.failure = Some(format!("{}: panicked: {message}", record.label));
        }
    }
    if traced.is_none() {
        account_registry(&mut record, &obs);
    }
    record
}

fn run_op_inner(op: &Op, env: &Env, obs: &ObsHandle, record: &mut OpRecord) -> Result<(), String> {
    match op {
        Op::Native {
            app,
            config,
            machine,
        } => {
            record.program = program_key(app, config, machine.num_cores);
            record.label = format!("{}/native", record.program);
            let machine = Machine::new(machine.clone().with_obs(obs.clone()));
            let op_start = Instant::now();
            let start = Instant::now();
            let guard = span(obs, "workloads.build");
            let instance = app.build(config);
            drop(guard);
            record.layers.build_ms += ms_since(start);
            record.layers.builds += 1;
            let start = Instant::now();
            let guard = span(obs, "sim.run_native");
            let report = machine.run(instance.program, &mut NullObserver);
            drop(guard);
            account_run(record, &report, ms_since(start));
            record.native_ms = Some(ms_since(op_start));
            if app.name() == "microbench" && machine.config().num_cores == 8 {
                record.fig1 = Some((config.threads, report.total_cycles));
            }
            record.native_cycles = Some(report.total_cycles);
            record.witness = witness_of(&[&format!("{report:?}")]);
        }
        Op::Profile {
            app,
            config,
            machine,
            cheetah,
            bounded,
            deployment_rate,
            reference,
        } => {
            record.program = program_key(app, config, machine.num_cores);
            record.label = format!(
                "{}/{}",
                record.program,
                if *bounded { "bounded" } else { "profiled" }
            );
            let machine = Machine::new(machine.clone().with_obs(obs.clone()));
            let cheetah = cheetah.clone().with_obs(obs.clone());
            let start = Instant::now();
            let Profiled { report, profile } =
                profile_once(record, obs, app, config, &machine, cheetah);
            let ms = ms_since(start);
            if *bounded {
                record.alt_ms = Some(ms);
            } else {
                record.profile_ms = Some(ms);
                record.profiled_cycles = Some(report.total_cycles);
            }
            record.expect = expectation_met(app, &profile, *deployment_rate);
            if let (Some(reference), Some(top)) = (reference, profile.false_sharing().first()) {
                record
                    .prediction_errors
                    .push((top.improvement() / reference.real() - 1.0).abs());
            }
            let line_size = machine.config().cache_line_size;
            plan_and_rewrite(
                record,
                obs,
                app,
                config,
                &profile,
                PLAN_THRESHOLD,
                line_size,
            )?;
            record.witness = witness_of(&[&format!("{report:?}"), &profile.render_report()]);
        }
        Op::Cell {
            app,
            config,
            cores,
            period,
            converge: converge_config,
        } => {
            record.program = program_key(app, config, *cores);
            record.label = format!("{}/p{period}", record.program);
            let machine = Machine::new(
                MachineConfig::with_cores(*cores)
                    .with_shards(env.shards)
                    .with_obs(obs.clone()),
            );
            let harness = ValidationHarness::calibrated(
                machine,
                CheetahConfig::scaled(*period).with_obs(obs.clone()),
            );
            // Find: the profile a user deploys at the cell's period.
            let start = Instant::now();
            let Profiled { report, profile } = profile_once(
                record,
                obs,
                app,
                config,
                harness.machine(),
                harness.cheetah_config().clone(),
            );
            record.profile_ms = Some(ms_since(start));
            record.expect = expectation_met(app, &profile, false);
            let line_size = harness.machine().config().cache_line_size;
            plan_and_rewrite(
                record,
                obs,
                app,
                config,
                &profile,
                converge_config.min_predicted_improvement,
                line_size,
            )?;

            // Fix: the fixpoint loop.
            let start = Instant::now();
            let guard = span(obs, "repair.converge");
            let trace = converge(&harness, app.name(), || app.build(config), converge_config);
            drop(guard);
            record.alt_ms = Some(ms_since(start));
            let trace = trace.map_err(|e| format!("{}: converge failed: {e}", record.label))?;
            record.counts.iterations += trace.iterations.len() as u64;
            record.profiled_cycles = Some(report.total_cycles);
            record
                .prediction_errors
                .extend(trace.iterations.iter().map(|i| i.relative_error()));
            record.witness = witness_of(&[
                &format!("{report:?}"),
                &profile.render_report(),
                &format!("{trace:?}"),
            ]);
            if !trace.converged {
                return Err(format!("{}: did not converge\n{trace}", record.label));
            }
        }
        Op::Explore { app, config } => {
            record.program = program_key(app, config, EXPLORE_CORES);
            record.label = format!("{}/explore", record.program);
            let seeds = [0, 1, 2, 3].map(|k| env.seed.wrapping_add(k));
            let schedules = schedule_set(&seeds);
            let machine = MachineConfig::with_cores(EXPLORE_CORES)
                .with_shards(env.shards)
                .with_obs(obs.clone());
            let harness = ValidationHarness::calibrated(
                Machine::new(machine),
                CheetahConfig::scaled(256).with_obs(obs.clone()),
            );
            let converge_config = ConvergeConfig::default();
            let start = Instant::now();
            let guard = span(obs, "repair.converge_worst_case");
            let trace = converge_worst_case(
                &harness,
                app.name(),
                || app.build(config),
                &converge_config,
                &schedules,
            );
            drop(guard);
            record.explore_ms = Some(ms_since(start));
            let trace = trace.map_err(|e| format!("{}: repair failed: {e}", record.label))?;
            // The initial exploration profiles the broken build under every
            // schedule; each fix profiles them all again.
            record.counts.hidden += trace.initial_hidden as u64;
            record.counts.iterations += trace.iterations.len() as u64;
            record.counts.schedules_profiled +=
                (schedules.len() * (trace.iterations.len() + 1)) as u64;
            record.expect = Some(match app.expectation() {
                Expectation::HiddenFalseSharing => trace.initial_hidden > 0,
                Expectation::SignificantFalseSharing => trace.initial_findings > 0,
                Expectation::NoFalseSharing | Expectation::MinorFalseSharing => {
                    trace.initial_findings == 0
                }
            });
            record.witness = witness_of(&[&format!("{trace:?}")]);
            if !trace.converged || trace.total_residual() > 0 {
                return Err(format!(
                    "{}: not converged on every schedule\n{}",
                    record.label,
                    trace.render()
                ));
            }
        }
    }
    Ok(())
}
