//! Integration tests for the per-run observability registry
//! ([`cheetah_obs::ObsHandle`] threaded through [`MachineConfig`]):
//!
//! (a) two simulators running *concurrently* with scoped registries record
//!     fully independent event counts — the regression test for the
//!     cross-contamination the old process-global `metrics` atomics showed
//!     under parallel `cargo test`;
//! (b) the per-phase FNV state-hash witness (the determinism divergence
//!     locator's probe) is bit-identical between the reference per-op
//!     loop and shard counts {1, 2, 4} for real registry workloads — the
//!     per-op loop and the sharded classify/precompute/merge passes reach
//!     the same logical machine state at every phase boundary, not merely
//!     the same final report;
//! (c) a traced sharded run records every shard pass of every phase,
//!     write-back included, so a trace books no shard work as `phase`
//!     self time.

use cheetah_sim::{metrics, Machine, MachineConfig, NullObserver};
use cheetah_workloads::{find, AppConfig};
use proptest::prelude::*;

use cheetah_obs::ObsHandle;

/// Runs `name` broken at the given shape against a scoped registry and
/// returns the registry's merged-event count.
fn merged_under(name: &str, threads: u32, scale: f64, shards: u32, obs: &ObsHandle) -> u64 {
    let app = find(name).expect("registered workload");
    let instance = app.build(&AppConfig {
        threads,
        scale,
        fixed: false,
        seed: 1,
    });
    let machine = Machine::new(
        MachineConfig::with_cores(16)
            .with_shards(shards)
            .with_obs(obs.clone()),
    );
    machine.run(instance.program, &mut NullObserver);
    metrics::snapshot_of(obs).merged_events
}

/// Two simulators running at the same time, each with its own registry:
/// each registry's delta must equal the count the same run produces alone.
/// With the old process-global atomics both threads' events landed in one
/// pool and every `since()` delta was garbage under parallel test runs.
#[test]
fn concurrent_runs_have_independent_metrics() {
    // Solo baselines, sequentially, each on a fresh registry.
    let solo_small = merged_under("microbench", 4, 0.05, 2, &ObsHandle::fresh_untraced());
    let solo_large = merged_under("inter_object", 8, 0.1, 2, &ObsHandle::fresh_untraced());
    assert_ne!(
        solo_small, solo_large,
        "baselines must differ for the independence check to mean anything"
    );

    // The same two runs concurrently, each on its own registry.
    let small = std::thread::spawn(move || {
        merged_under("microbench", 4, 0.05, 2, &ObsHandle::fresh_untraced())
    });
    let large = std::thread::spawn(move || {
        merged_under("inter_object", 8, 0.1, 2, &ObsHandle::fresh_untraced())
    });
    let small = small.join().expect("small run");
    let large = large.join().expect("large run");

    assert_eq!(
        small, solo_small,
        "concurrent neighbour leaked into small run's registry"
    );
    assert_eq!(
        large, solo_large,
        "concurrent neighbour leaked into large run's registry"
    );
}

/// Runs `name` broken with the witness enabled and returns the per-phase
/// `(index, witness)` sequence; `shards = None` runs the reference loop.
fn phase_witnesses(name: &str, threads: u32, scale: f64, shards: Option<u32>) -> Vec<(u64, u64)> {
    let app = find(name).expect("registered workload");
    let instance = app.build(&AppConfig {
        threads,
        scale,
        fixed: false,
        seed: 7,
    });
    let obs = ObsHandle::fresh();
    let machine = Machine::new(
        MachineConfig::with_cores(16)
            .with_shards(shards.unwrap_or(1))
            .with_obs(obs.clone())
            .with_witness(true),
    );
    match shards {
        Some(_) => machine.run(instance.program, &mut NullObserver),
        None => machine.run_reference(instance.program, &mut NullObserver),
    };
    obs.spans_sorted_by_attr("phase", "index")
        .iter()
        .map(|span| {
            (
                span.attr_u64("index").expect("phase index"),
                span.attr_u64("witness").expect("witness attr"),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The divergence locator's foundation: for registry workloads, the
    /// per-phase state hash at shard counts 1, 2, and 4 is bit-identical
    /// to the reference loop's.
    #[test]
    fn phase_witness_identical_across_shards(
        name in prop::sample::select(vec![
            "microbench",
            "linear_regression",
            "streamcluster",
            "streaming_histogram",
        ]),
        threads in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let base = phase_witnesses(name, threads, 0.05, None);
        prop_assert!(!base.is_empty(), "{name}: no phase spans recorded");
        for shards in [1u32, 2, 4] {
            let sharded = phase_witnesses(name, threads, 0.05, Some(shards));
            prop_assert_eq!(
                &base, &sharded,
                "{}: witness sequence diverged at {} shards", name, shards
            );
        }
    }
}

/// (c) Every phase of a traced sharded run — serial and parallel, split
/// and fully ordered — records exactly one span per shard pass, and
/// `shard.write_back` among them.
#[test]
fn traced_run_records_one_write_back_span_per_phase() {
    let app = find("linear_regression").expect("registered workload");
    let config = AppConfig {
        threads: 4,
        scale: 0.05,
        fixed: false,
        seed: 1,
    };
    // Two cores for four workers: the parallel phases run fully ordered.
    for cores in [16u32, 2] {
        let obs = ObsHandle::fresh();
        let machine = Machine::new(
            MachineConfig::with_cores(cores)
                .with_shards(2)
                .with_obs(obs.clone()),
        );
        machine.run(app.build(&config).program, &mut NullObserver);
        let phases: Vec<u64> = obs
            .spans_sorted_by_attr("phase", "index")
            .iter()
            .map(|span| span.attr_u64("index").expect("phase index"))
            .collect();
        assert!(phases.len() >= 2, "{cores} cores: too few phases traced");
        for pass in [
            "shard.classify",
            "shard.precompute",
            "shard.merge",
            "shard.write_back",
        ] {
            let traced: Vec<u64> = obs
                .spans_sorted_by_attr(pass, "phase")
                .iter()
                .map(|span| span.attr_u64("phase").expect("phase attr"))
                .collect();
            assert_eq!(traced, phases, "{cores} cores: one {pass} span per phase");
        }
        let ordered = obs
            .spans_sorted_by_attr("shard.classify", "phase")
            .iter()
            .filter(|span| span.attr_u64("ordered") == Some(1))
            .count();
        assert_eq!(
            ordered > 0,
            cores < 4,
            "{cores} cores: {ordered} fully ordered phases"
        );
    }
}
