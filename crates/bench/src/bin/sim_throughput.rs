//! Simulator throughput: the sharded executor at several shard counts
//! against the reference per-op loop, wall-clock and merged-event counts
//! on the Table-2 matrix rows.
//!
//! For every `(workload, threads)` row of the validation matrix — plus the
//! `streaming_histogram` rows, the adversarial case for extent
//! classification — this harness times the core simulation pipeline of one
//! matrix cell (a native run and a profiled run of both the broken and the
//! repaired build) on the reference loop ([`Machine::run_reference`]) and
//! on the default engine at several shard counts, and verifies on the way
//! that every run produces the bit-identical [`cheetah_sim::RunReport`]
//! (determinism is a hard failure here, not a statistic).
//!
//! Each cell runs as the **median of N repeats** (rep-major, so slow drift
//! cannot bias one shard count), and the [`cheetah_sim::metrics`] counters
//! are captured alongside wall-clock: `merged` (events the merge replays
//! individually), `folded` (accesses batch-folded by precompute and
//! settled-run folding), `surfaced` (observer deliveries) and `ordered`
//! (merged − surfaced: replay forced by coherence ordering alone — the
//! number extent classification exists to shrink). Event counts are
//! deterministic per (cell, shard count), so they are asserted stable
//! across repeats rather than aggregated.
//!
//! Emits a human table on stdout and machine-readable records to
//! `BENCH_sim.json` (current directory); each cell record is labelled with
//! its `engine` (`"reference"` or `"sharded"`), carries the sharded
//! passes' wall-clock split as a nested `pass_breakdown` object and the
//! schedule policy the cell ran under (always `"observed"` here —
//! perturbed-schedule sweeps live in `schedule_explore`). The reference
//! row records `"shards": 1`, the host threads it uses.
//! With `--check`, exits nonzero if any thread-count row is slower on the
//! sharded executor (at any shard count) than on the reference loop beyond
//! the tolerance, or if any sharded cell reports a zeroed three-pass
//! breakdown (a silently uninstrumented code path) — the CI regression
//! gates for the sharded execution path. `bench_compare --sim` adds the
//! cross-commit gate on the recorded event counts.
//!
//! With `--trace out.json` the first cell is re-run at the highest shard
//! count through a tracing [`ObsHandle`] and the phase / classify /
//! precompute / merge spans are exported as Perfetto-loadable Chrome
//! trace-event JSON (`--journal out.jsonl` likewise exports the flat JSONL
//! journal of the same run). `--locate-divergence` switches to a
//! diagnostic mode: every cell runs on the reference loop and at the
//! highest shard count with per-phase FNV state-hash witnesses enabled,
//! and the harness reports the first phase whose hashes differ — turning
//! "bit-identity assert failed somewhere" into a one-line diagnosis.
//!
//! Usage: `sim_throughput [--shards 1,2,4] [--reps N] [--tolerance 0.10]
//! [--check] [--trace out.json] [--journal out.jsonl]
//! [--locate-divergence]`

use cheetah_core::{CheetahConfig, CheetahProfiler};
use cheetah_obs::ObsHandle;
use cheetah_sim::{
    metrics, ExecMetrics, ExecObserver, Machine, MachineConfig, NullObserver, Program, RunReport,
};
use cheetah_workloads::{find, table2_matrix, SweepCell, SWEEP_THREAD_COUNTS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// The engine one bench row runs on: the reference per-op loop (`None`)
/// or the sharded executor at a shard count.
type Engine = Option<u32>;

/// Runs `program` on `cell`'s machine and `engine`, reporting into `obs`
/// (with per-phase state-hash witnesses when `witness`).
fn run_on(
    cell: &SweepCell,
    engine: Engine,
    witness: bool,
    obs: &ObsHandle,
    program: Program,
    observer: &mut dyn ExecObserver,
) -> RunReport {
    let machine = Machine::new(
        MachineConfig::with_cores(cell.cores)
            .with_shards(engine.unwrap_or(1))
            .with_obs(obs.clone())
            .with_witness(witness),
    );
    match engine {
        None => machine.run_reference(program, observer),
        Some(_) => machine.run(program, observer),
    }
}

/// One timed pipeline execution, reporting into `obs` (callers pass a
/// fresh registry per call, so concurrent bench invocations and the global
/// counters can never contaminate a cell's deltas); returns the profiled
/// broken-build report (the determinism witness), the wall-clock
/// nanoseconds and the event counters accumulated over the cell's four
/// runs.
fn run_cell(cell: &SweepCell, engine: Engine, obs: &ObsHandle) -> (RunReport, u128, ExecMetrics) {
    let cheetah = CheetahConfig::scaled(cell.period).with_obs(obs.clone());
    let broken = cell.app_config();
    let fixed = cheetah_workloads::AppConfig {
        fixed: true,
        ..broken
    };
    let before = metrics::snapshot_of(obs);
    let start = Instant::now();
    let mut witness = None;
    for (config, profiled) in [
        (&broken, false),
        (&broken, true),
        (&fixed, false),
        (&fixed, true),
    ] {
        let instance = cell.app.build(config);
        let report = if profiled {
            let mut profiler = CheetahProfiler::new(cheetah.clone(), &instance.space);
            run_on(cell, engine, false, obs, instance.program, &mut profiler)
        } else {
            run_on(
                cell,
                engine,
                false,
                obs,
                instance.program,
                &mut NullObserver,
            )
        };
        if profiled && !config.fixed {
            witness = Some(report);
        }
    }
    let wall = start.elapsed().as_nanos();
    let events = metrics::snapshot_of(obs).since(&before);
    (witness.expect("broken profiled run executed"), wall, events)
}

/// Runs one profiled broken-build execution with per-phase state-hash
/// witnesses enabled; returns `(index, kind, witness)` per phase, in phase
/// order.
fn phase_hashes(cell: &SweepCell, engine: Engine) -> Vec<(u64, String, u64)> {
    let obs = ObsHandle::fresh();
    let cheetah = CheetahConfig::scaled(cell.period).with_obs(obs.clone());
    let instance = cell.app.build(&cell.app_config());
    let mut profiler = CheetahProfiler::new(cheetah, &instance.space);
    run_on(cell, engine, true, &obs, instance.program, &mut profiler);
    obs.spans_sorted_by_attr("phase", "index")
        .iter()
        .map(|span| {
            (
                span.attr_u64("index").expect("phase span carries index"),
                span.attr_str("kind").unwrap_or("?").to_string(),
                span.attr_u64("witness").expect("witness enabled"),
            )
        })
        .collect()
}

/// The `--locate-divergence` mode: reruns every cell on the reference
/// loop and at `max_shards`, and reports the first phase whose state
/// hashes differ. Returns the number of diverging cells.
fn locate_divergence(cells: &[SweepCell], max_shards: u32) -> usize {
    println!(
        "Determinism divergence locator: per-phase state hashes, reference vs {max_shards} shards\n"
    );
    let mut diverging = 0;
    for cell in cells {
        let name = format!("{} threads={}", cell.app.name(), cell.threads);
        let base = phase_hashes(cell, None);
        let sharded = phase_hashes(cell, Some(max_shards));
        let diverged = base
            .iter()
            .zip(&sharded)
            .find(|(a, b)| a != b)
            .map(|(a, b)| (a.clone(), b.clone()));
        match diverged {
            Some(((index, kind, left), (_, _, right))) => {
                diverging += 1;
                println!(
                    "{name}: FIRST DIVERGENCE at phase #{index} ({kind}): \
                     {left:#018x} (reference) vs {right:#018x} ({max_shards} shards)"
                );
            }
            None if base.len() != sharded.len() => {
                diverging += 1;
                println!(
                    "{name}: phase count differs: {} (reference) vs {} ({max_shards} shards)",
                    base.len(),
                    sharded.len()
                );
            }
            None => println!("{name}: identical ({} phases)", base.len()),
        }
    }
    diverging
}

struct Record {
    workload: &'static str,
    threads: u32,
    period: u64,
    engine: Engine,
    wall_ns: u128,
    speedup: f64,
    events: ExecMetrics,
}

impl Record {
    fn ordered_events(&self) -> u64 {
        self.events.merged_events - self.events.surfaced_events
    }
}

/// The `engine` label and the host-thread count of an engine's rows.
fn engine_fields(engine: Engine) -> (&'static str, u32) {
    match engine {
        None => ("reference", 1),
        Some(shards) => ("sharded", shards),
    }
}

/// The shards column of the human tables.
fn engine_column(engine: Engine) -> String {
    engine.map_or_else(|| "ref".to_string(), |shards| shards.to_string())
}

struct Args {
    shards: Vec<u32>,
    reps: u32,
    tolerance: f64,
    check: bool,
    trace: Option<String>,
    journal: Option<String>,
    locate: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        shards: vec![1, 2, 4],
        reps: 3,
        tolerance: 0.10,
        check: false,
        trace: None,
        journal: None,
        locate: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => {
                let list = args.next().expect("--shards needs a list");
                parsed.shards = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("shard count"))
                    .collect();
            }
            "--reps" => parsed.reps = args.next().expect("--reps needs N").parse().expect("reps"),
            "--tolerance" => {
                parsed.tolerance = args
                    .next()
                    .expect("--tolerance needs a fraction")
                    .parse()
                    .expect("tolerance")
            }
            "--check" => parsed.check = true,
            "--trace" => parsed.trace = Some(args.next().expect("--trace needs a path")),
            "--journal" => parsed.journal = Some(args.next().expect("--journal needs a path")),
            "--locate-divergence" => parsed.locate = true,
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(
        !parsed.shards.is_empty(),
        "--shards needs at least one count"
    );
    assert!(parsed.reps >= 1, "--reps must be at least 1");
    parsed
}

/// Median of the recorded repeat times.
fn median(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2
    }
}

/// The bench rows: the matrix's `(workload, threads)` pairs at the first
/// period each, plus the streaming-classification stress rows.
fn bench_cells() -> Vec<SweepCell> {
    let mut cells: Vec<SweepCell> = Vec::new();
    for cell in table2_matrix() {
        if !cells
            .iter()
            .any(|c: &SweepCell| c.app.name() == cell.app.name() && c.threads == cell.threads)
        {
            cells.push(cell);
        }
    }
    let hist = find("streaming_histogram").expect("registered workload");
    for threads in SWEEP_THREAD_COUNTS {
        cells.push(SweepCell {
            app: hist,
            threads,
            period: 64,
            scale: 0.5,
            cores: 48,
            min_predicted_improvement: 1.005,
            max_iterations: 8,
        });
    }
    cells
}

/// Re-runs `cell` at `shards` through a fresh tracing registry and writes
/// the requested exports.
fn export_trace(cell: &SweepCell, shards: u32, trace: Option<&str>, journal: Option<&str>) {
    let obs = ObsHandle::fresh();
    run_cell(cell, Some(shards), &obs);
    if let Some(path) = trace {
        std::fs::write(path, obs.chrome_trace()).expect("write chrome trace");
        println!("wrote {path} (load in https://ui.perfetto.dev)");
    }
    if let Some(path) = journal {
        std::fs::write(path, obs.jsonl()).expect("write jsonl journal");
        println!("wrote {path}");
    }
}

fn main() {
    let args = parse_args();
    let (shard_counts, reps, tolerance, check) =
        (args.shards, args.reps, args.tolerance, args.check);
    let cells = bench_cells();
    let max_shards = *shard_counts.iter().max().expect("nonempty shard list");
    // The reference loop first: every sharded row is measured against it.
    let engines: Vec<Engine> = std::iter::once(None)
        .chain(shard_counts.iter().copied().map(Some))
        .collect();

    if args.locate {
        let diverging = locate_divergence(&cells, max_shards);
        if diverging > 0 {
            std::process::exit(1);
        }
        return;
    }

    let mut records: Vec<Record> = Vec::new();
    for cell in &cells {
        // Median-of-reps, rep-major: interleaving engines within each rep
        // keeps slow drift (thermal, noisy neighbours) from biasing one
        // engine's measurements against another's — and a median is
        // robust to the isolated stalls a loaded 1-CPU host produces.
        let mut walls: Vec<Vec<u128>> = vec![Vec::with_capacity(reps as usize); engines.len()];
        let mut events: Vec<Vec<ExecMetrics>> =
            vec![Vec::with_capacity(reps as usize); engines.len()];
        let mut baseline_report: Option<RunReport> = None;
        for _ in 0..reps {
            for (i, &engine) in engines.iter().enumerate() {
                // A fresh untraced registry per execution: event deltas are
                // scoped to this cell.
                let (report, wall, cell_events) =
                    run_cell(cell, engine, &ObsHandle::fresh_untraced());
                walls[i].push(wall);
                if let Some(first) = events[i].first() {
                    assert_eq!(
                        (
                            first.merged_events,
                            first.folded_events,
                            first.surfaced_events
                        ),
                        (
                            cell_events.merged_events,
                            cell_events.folded_events,
                            cell_events.surfaced_events
                        ),
                        "{} threads={} shards={}: event counts changed between repeats",
                        cell.app.name(),
                        cell.threads,
                        engine_column(engine)
                    );
                }
                events[i].push(cell_events);
                match &baseline_report {
                    None => baseline_report = Some(report),
                    Some(baseline) => assert_eq!(
                        baseline,
                        &report,
                        "{} threads={} shards={}: sharded report diverged from the reference run",
                        cell.app.name(),
                        cell.threads,
                        engine_column(engine)
                    ),
                }
            }
        }
        let medians: Vec<u128> = walls.iter_mut().map(|w| median(w)).collect();
        let baseline_wall = medians[0];
        for (i, &engine) in engines.iter().enumerate() {
            // Event counts are repeat-stable (asserted above); the pass
            // timings are noisy, so report their per-field medians to stay
            // consistent with the median wall-clock.
            let mut cell_events = events[i][0];
            let ns_median = |f: fn(&ExecMetrics) -> u64| -> u64 {
                let mut ns: Vec<u128> = events[i].iter().map(|e| u128::from(f(e))).collect();
                median(&mut ns) as u64
            };
            cell_events.classify_ns = ns_median(|e| e.classify_ns);
            cell_events.precompute_ns = ns_median(|e| e.precompute_ns);
            cell_events.merge_ns = ns_median(|e| e.merge_ns);
            records.push(Record {
                workload: cell.app.name(),
                threads: cell.threads,
                period: cell.period,
                engine,
                wall_ns: medians[i],
                speedup: baseline_wall as f64 / medians[i] as f64,
                events: cell_events,
            });
        }
    }

    println!(
        "Simulator throughput: matrix-cell pipeline wall-clock by shard count (ref = reference loop)"
    );
    println!("(median of {reps} repeats; events: merged | ordered = merged - surfaced | folded)\n");
    println!(
        "{}",
        cheetah_bench::row(&[
            "workload".into(),
            "threads".into(),
            "shards".into(),
            "wall_ms".into(),
            "speedup".into(),
            "merged".into(),
            "ordered".into(),
            "folded".into(),
        ])
    );
    for r in &records {
        println!(
            "{}",
            cheetah_bench::row(&[
                r.workload.into(),
                r.threads.to_string(),
                engine_column(r.engine),
                format!("{:.1}", r.wall_ns as f64 / 1e6),
                format!("{:.2}x", r.speedup),
                r.events.merged_events.to_string(),
                r.ordered_events().to_string(),
                r.events.folded_events.to_string(),
            ])
        );
    }

    // Aggregate rows by thread count: the matrix-row view of the gate.
    let mut rows: BTreeMap<(u32, Engine), (u128, u64, u64)> = BTreeMap::new();
    for r in &records {
        let row = rows.entry((r.threads, r.engine)).or_insert((0, 0, 0));
        row.0 += r.wall_ns;
        row.1 += r.events.merged_events;
        row.2 += r.ordered_events();
    }
    println!("\nPer-row aggregate (all workloads at a thread count):\n");
    println!(
        "{}",
        cheetah_bench::row(&[
            "threads".into(),
            "shards".into(),
            "wall_ms".into(),
            "speedup".into(),
            "ordered".into(),
        ])
    );
    let mut row_records: Vec<(u32, Engine, u128, f64, u64, u64)> = Vec::new();
    let mut regressions: Vec<String> = Vec::new();
    for (&(threads, engine), &(wall, merged, ordered)) in &rows {
        let base = rows[&(threads, None)].0;
        let speedup = base as f64 / wall as f64;
        row_records.push((threads, engine, wall, speedup, merged, ordered));
        println!(
            "{}",
            cheetah_bench::row(&[
                threads.to_string(),
                engine_column(engine),
                format!("{:.1}", wall as f64 / 1e6),
                format!("{:.2}x", speedup),
                ordered.to_string(),
            ])
        );
        if engine.is_some() && (wall as f64) > base as f64 * (1.0 + tolerance) {
            regressions.push(format!(
                "row threads={threads} shards={}: {:.1}ms vs {:.1}ms on the reference \
                 loop ({speedup:.2}x, slower beyond {tolerance:.0}% tolerance)",
                engine_column(engine),
                wall as f64 / 1e6,
                base as f64 / 1e6,
                tolerance = tolerance * 100.0
            ));
        }
    }

    // Instrumentation gate: a sharded cell with a zeroed three-pass
    // breakdown means the classify/precompute/merge timers silently
    // stopped reporting — fail `--check` rather than publish hollow data.
    for r in &records {
        if r.engine.is_some()
            && (r.events.classify_ns == 0 || r.events.precompute_ns == 0 || r.events.merge_ns == 0)
        {
            regressions.push(format!(
                "cell {} threads={} shards={}: pass_breakdown has a zero component \
                 (classify={} precompute={} merge={} ns) — sharded passes unreported",
                r.workload,
                r.threads,
                engine_column(r.engine),
                r.events.classify_ns,
                r.events.precompute_ns,
                r.events.merge_ns
            ));
        }
    }

    let mut json = String::from("{\n  \"benchmark\": \"sim\",\n");
    let _ = writeln!(
        json,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"results\": [\n");
    let cell_records: Vec<String> = records
        .iter()
        .map(|r| {
            let (engine, shards) = engine_fields(r.engine);
            format!(
                "    {{\"workload\": \"{}\", \"threads\": {}, \"period\": {}, \
                 \"engine\": \"{engine}\", \"shards\": {shards}, \"schedule\": \"observed\", \
                 \"wall_ns\": {}, \"speedup\": {:.4}, \
                 \"merged_events\": {}, \"folded_events\": {}, \"surfaced_events\": {}, \
                 \"ordered_events\": {}, \"pass_breakdown\": {{\"classify_ns\": {}, \
                 \"precompute_ns\": {}, \"merge_ns\": {}}}, \"identical\": true}}",
                r.workload,
                r.threads,
                r.period,
                r.wall_ns,
                r.speedup,
                r.events.merged_events,
                r.events.folded_events,
                r.events.surfaced_events,
                r.ordered_events(),
                r.events.classify_ns,
                r.events.precompute_ns,
                r.events.merge_ns,
            )
        })
        .collect();
    json.push_str(&cell_records.join(",\n"));
    json.push_str("\n  ],\n  \"rows\": [\n");
    let row_json: Vec<String> = row_records
        .iter()
        .map(|(threads, engine, wall, speedup, merged, ordered)| {
            let (engine, shards) = engine_fields(*engine);
            format!(
                "    {{\"threads\": {threads}, \"engine\": \"{engine}\", \"shards\": {shards}, \
                 \"wall_ns\": {wall}, \"speedup\": {speedup:.4}, \
                 \"merged_events\": {merged}, \"ordered_events\": {ordered}}}"
            )
        })
        .collect();
    json.push_str(&row_json.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let path = "BENCH_sim.json";
    let mut file = std::fs::File::create(path).expect("create BENCH_sim.json");
    file.write_all(json.as_bytes()).expect("write json");
    println!("\nwrote {path}");

    if args.trace.is_some() || args.journal.is_some() {
        export_trace(
            &cells[0],
            max_shards,
            args.trace.as_deref(),
            args.journal.as_deref(),
        );
    }

    if !regressions.is_empty() {
        eprintln!("\nsharded execution regressions:");
        for regression in &regressions {
            eprintln!("  {regression}");
        }
        if check {
            std::process::exit(1);
        }
    } else if check {
        println!(
            "check passed: no sharded row slower than the reference loop; \
             all sharded cells report a nonzero pass breakdown"
        );
    }
}
