//! Reproducibility: identical configurations must produce bit-identical
//! simulations and identical profiles — the property that makes
//! predicted-vs-real comparisons meaningful.

use cheetah::core::{CheetahConfig, CheetahProfiler};
use cheetah::sim::{
    AccessRecord, Cycles, ExecObserver, Machine, MachineConfig, NullObserver, PhaseKind,
    SamplerFork, ThreadId,
};
use cheetah::workloads::{find, AppConfig, APPS};

#[test]
fn native_runs_are_bit_identical() {
    let machine = Machine::new(MachineConfig::default());
    for name in ["linear_regression", "canneal", "kmeans"] {
        let app = find(name).unwrap();
        let config = AppConfig::with_threads(4).scaled(0.03);
        let a = machine.run(app.build(&config).program, &mut NullObserver);
        let b = machine.run(app.build(&config).program, &mut NullObserver);
        assert_eq!(a, b, "{name} must be deterministic");
    }
}

#[test]
fn profiles_are_identical_across_runs() {
    let machine = Machine::new(MachineConfig::default());
    let app = find("linear_regression").unwrap();
    let config = AppConfig::with_threads(8).scaled(0.1);
    let run = || {
        let instance = app.build(&config);
        let mut profiler = CheetahProfiler::new(CheetahConfig::scaled(256), &instance.space);
        machine.run(instance.program, &mut profiler);
        profiler.finish()
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_samples, b.total_samples);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.instances.len(), b.instances.len());
    for (x, y) in a.instances.iter().zip(&b.instances) {
        assert_eq!(x.instance, y.instance);
        assert_eq!(x.assessment, y.assessment);
    }
}

#[test]
fn seeds_change_random_workloads_but_not_structure() {
    let machine = Machine::new(MachineConfig::default());
    let app = find("canneal").unwrap();
    let mut config = AppConfig::with_threads(4).scaled(0.03);
    let a = machine.run(app.build(&config).program, &mut NullObserver);
    config.seed = 99;
    let b = machine.run(app.build(&config).program, &mut NullObserver);
    assert_ne!(
        a.total_cycles, b.total_cycles,
        "different seeds must change the access pattern"
    );
    assert_eq!(a.threads.len(), b.threads.len());
}

/// Forwards every callback to a [`CheetahProfiler`] — its sampling
/// replica included — and records each access the profiler turns into a
/// sample, in delivery order.
struct SampleTap<'a> {
    profiler: CheetahProfiler<'a>,
    samples: Vec<AccessRecord>,
}

impl ExecObserver for SampleTap<'_> {
    fn on_thread_start(&mut self, thread: ThreadId, name: &str, now: Cycles) -> Cycles {
        self.profiler.on_thread_start(thread, name, now)
    }

    fn on_thread_exit(&mut self, thread: ThreadId, now: Cycles) {
        self.profiler.on_thread_exit(thread, now);
    }

    fn on_phase_start(&mut self, index: u32, kind: PhaseKind, now: Cycles) {
        self.profiler.on_phase_start(index, kind, now);
    }

    fn on_phase_end(&mut self, index: u32, kind: PhaseKind, now: Cycles) {
        self.profiler.on_phase_end(index, kind, now);
    }

    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        let before = self.profiler.engine().total_samples();
        let cost = self.profiler.on_access(record);
        if self.profiler.engine().total_samples() > before {
            self.samples.push(*record);
        }
        cost
    }

    fn fork_sampler(&mut self, thread: ThreadId) -> SamplerFork {
        self.profiler.fork_sampler(thread)
    }
}

/// Records the full surfaced access stream: every access reaches it on
/// either engine.
#[derive(Default)]
struct Recorder {
    records: Vec<AccessRecord>,
    exits: Vec<(ThreadId, Cycles)>,
}

impl ExecObserver for Recorder {
    fn on_access(&mut self, record: &AccessRecord) -> Cycles {
        self.records.push(*record);
        0
    }

    fn on_thread_exit(&mut self, thread: ThreadId, now: Cycles) {
        self.exits.push((thread, now));
    }
}

/// The default engine is the reference per-op loop, registry-wide: for
/// every workload at small scale, the default `MachineConfig` and
/// [`Machine::run_reference`] yield the identical report and surfaced
/// access stream, and under `CheetahProfiler` the identical report,
/// sample sequence and rendered profile.
#[test]
fn default_engine_matches_reference_registry_wide() {
    let machine = Machine::new(MachineConfig::default());
    let config = AppConfig::with_threads(4).scaled(0.02);
    for app in APPS {
        let name = app.name();
        let mut reference_rec = Recorder::default();
        let reference = machine.run_reference(app.build(&config).program, &mut reference_rec);
        let mut default_rec = Recorder::default();
        let default = machine.run(app.build(&config).program, &mut default_rec);
        assert_eq!(reference, default, "{name}: report");
        assert_eq!(
            reference_rec.records, default_rec.records,
            "{name}: surfaced events"
        );
        assert_eq!(
            reference_rec.exits, default_rec.exits,
            "{name}: thread exits"
        );

        let profile = |reference: bool| {
            let instance = app.build(&config);
            let mut tap = SampleTap {
                profiler: CheetahProfiler::new(CheetahConfig::scaled(256), &instance.space),
                samples: Vec::new(),
            };
            let report = if reference {
                machine.run_reference(instance.program, &mut tap)
            } else {
                machine.run(instance.program, &mut tap)
            };
            (report, tap.samples, tap.profiler.finish().render_report())
        };
        let (reference, reference_samples, reference_profile) = profile(true);
        let (default, default_samples, default_profile) = profile(false);
        assert_eq!(reference, default, "{name}: profiled report");
        assert!(!reference_samples.is_empty(), "{name}: no samples taken");
        assert_eq!(
            reference_samples, default_samples,
            "{name}: sample sequence"
        );
        assert_eq!(reference_profile, default_profile, "{name}: profile");
    }
}
