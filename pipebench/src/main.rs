//! End-to-end and per-layer benchmark of the cheetah pipeline.
//!
//! Usage: `pipebench --workload deploy|dense|repair [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! One process drives a closed loop: one op at a time, back to back, in
//! whole passes over the workload's op stream, as many as fit in
//! `--seconds` (at least a per-workload minimum). Before timing it sets up
//! several times (the median is `setup_s`) and runs one untimed warm-up
//! pass. A calibration burst before every op measures the host's speed,
//! and host times are reported calibrated against it (see `calib`). Every
//! op's deterministic outputs are compared with its previous
//! repetition, one program is compared bit for bit at `shards = 1` and
//! `shards = nproc`, and the registry expectations are judged. With
//! `--trace 1` it also splits host time by layer (a native / `SimPmu` /
//! profiler decomposition and one traced pass exported as a Chrome trace
//! under `pipebench/out/`). `METRICS.md` describes every metric.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).

mod calib;
mod heap;
mod stats;
mod trace;
mod workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use calib::Calibrator;
use cheetah_obs::ObsHandle;
use stats::{gmean, median, result_line, tail, Metric, Tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use workload::{Env, Kind, OpRecord, Workload, BENCH_LANE};

/// The seed tuned against.
const DEFAULT_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Repetitions of the `--trace 1` host-time decomposition.
const DECOMPOSE_REPS: usize = 3;

/// Measured passes a run makes at least, whatever `--seconds` says. The
/// tail percentile is the one this many passes support, so every run
/// reports the same percentile (see `stats::tail`).
fn min_passes(kind: Kind) -> usize {
    match kind {
        // 17 profiled ops a pass: 68 samples support p75.
        Kind::Deploy => 4,
        // 5 ops per class a pass: 40 samples support p75.
        Kind::Dense => 8,
        // 56 matrix cells a pass: 112 samples support p90.
        Kind::Repair => 2,
    }
}

/// Workloads and why each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "deploy",
        "the paper's traffic on the default classic loop: simulation dominates, detector changes should not move it",
    ),
    (
        "dense",
        "dense sampling with unbounded and bounded-plus-faulted tables: detect, classify and assess dominate",
    ),
    (
        "repair",
        "find-and-fix: re-simulation after layout rewrites and perturbed schedules, bypassing the classic loop",
    ),
];

/// End-to-end metrics, `(name, unit)`, reported by every workload. Host
/// times are calibrated (see `calib`): host time on a host where the
/// calibration burst takes its nominal length, so the host's speed drifting
/// between runs cancels out.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("profile_ms.gmean", "ms"),
    ("pass_s", "s"),
    ("peak_heap_mb", "MB"),
    ("expect_hit_ratio", "ratio"),
    ("sim_overhead", "ratio"),
    ("prediction_err.p50", "ratio"),
    ("prediction_err.max", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, reported by every workload under
/// `--trace 1`. The `host.*` entries are uncalibrated host times and rates:
/// informative, but not gated, because they drift with the host.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("host.cal_ms", "ms"),
    ("host.pass_s", "s"),
    ("host.profile_ms.p50", "ms"),
    ("host.profile_ms.tail", "ms"),
    ("host.alt_ms.p50", "ms"),
    ("host.alt_ms.tail", "ms"),
    ("host.maccess_per_s", "Maccess/s"),
    ("host.peak_rss_mb", "MB"),
    ("workloads.build_ms", "ms"),
    ("sim.native_ms.p50", "ms"),
    ("sim.host_ratio", "ratio"),
    ("sim.phase_self_ms", "ms"),
    ("sim.merged_events", "count"),
    ("sim.folded_events", "count"),
    ("sim.surfaced_events", "count"),
    ("sim.sched_reordered", "count"),
    ("sim.cycles", "cycles"),
    ("sim.invalidations", "count"),
    ("sim.wait_cycles", "cycles"),
    ("sim.fig1_gap_err", "ratio"),
    ("pmu.sample_ms", "ms"),
    ("pmu.samples", "count"),
    ("pmu.trap_cycles", "cycles"),
    ("pmu.faults_injected", "count"),
    ("detect.ingest_ms", "ms"),
    ("detect.ns_per_sample", "ns"),
    ("detect.line_evictions", "count"),
    ("detect.line_denials", "count"),
    ("detect.repromotions", "count"),
    ("detect.quarantined", "count"),
    ("detect.admit_ratio", "ratio"),
    ("detect.peak_lines", "count"),
    ("classify.ms", "ms"),
    ("classify.instances", "count"),
    ("assess.ms", "ms"),
    ("repair.plan_ms", "ms"),
    ("repair.rewrite_ms", "ms"),
    ("repair.iterations", "count"),
    ("repair.schedules_profiled", "count"),
    ("explore.hidden", "count"),
    ("paper.table1_diff_max", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("harness.self_ms", "ms"),
];

/// Paper reference values, printed beside the simulated figures.
const PAPER_FIG1_GAP: f64 = 13.0;
const PAPER_FIG4_AVG: f64 = 1.07;
const PAPER_FIG4_AVG_EXCL: f64 = 1.04;
const PAPER_TABLE1_DIFF: f64 = 0.10;
const PAPER_FIG7_GAIN: f64 = 0.002;

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let parsed = Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
                kind = Some((parsed, name));
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let (kind, name) = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        name,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One measured pass.
struct Pass {
    /// Wall time of the pass, calibration bursts included.
    wall_s: f64,
    ops: Vec<OpRecord>,
}

impl Pass {
    /// Host time of the ops.
    fn host_s(&self) -> f64 {
        self.ops.iter().map(|op| op.op_ms).sum::<f64>() / 1e3
    }

    /// Factor from host to calibrated time of each op.
    fn scales(&self) -> Vec<f64> {
        let bursts: Vec<f64> = self.ops.iter().map(|op| op.cal_ms).collect();
        calib::local_scales(&bursts)
    }

    /// Calibrated time of the pass: the sum of its ops' calibrated times
    /// (printed per pass).
    fn cal_s(&self) -> f64 {
        let ops = self.ops.iter().zip(self.scales());
        ops.map(|(op, scale)| op.op_ms * scale).sum::<f64>() / 1e3
    }
}

/// Everything the measured passes produced.
struct Measured {
    kind: Kind,
    min_passes: usize,
    passes: Vec<Pass>,
}

impl Measured {
    fn last(&self) -> &[OpRecord] {
        &self.passes.last().expect("at least one pass").ops
    }

    fn all(&self) -> impl Iterator<Item = &OpRecord> {
        self.passes.iter().flat_map(|pass| &pass.ops)
    }

    fn samples(&self, field: impl Fn(&OpRecord) -> Option<f64>) -> Vec<f64> {
        self.all().filter_map(field).collect()
    }

    /// Calibrated samples of a host time.
    fn calibrated(&self, field: impl Fn(&OpRecord) -> Option<f64>) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|pass| {
                let ops = pass.ops.iter().zip(pass.scales());
                ops.filter_map(|(op, scale)| Some(field(op)? * scale))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// For each op of the op stream that has `field`, its median
    /// calibrated value over the passes.
    fn op_medians(&self, field: impl Fn(&OpRecord) -> Option<f64>) -> Vec<f64> {
        let scales: Vec<Vec<f64>> = self.passes.iter().map(Pass::scales).collect();
        (0..self.last().len())
            .filter_map(|i| {
                let values: Vec<f64> = self
                    .passes
                    .iter()
                    .zip(&scales)
                    .filter_map(|(pass, scales)| Some(field(pass.ops.get(i)?)? * scales[i]))
                    .collect();
                median(&values)
            })
            .collect()
    }

    /// Samples of `field` that `min_passes` passes collect: the tail is
    /// taken at the percentile this count supports, so every run reports
    /// the same percentile.
    fn n_ref(&self, field: impl Fn(&OpRecord) -> Option<f64>) -> usize {
        self.last().iter().filter(|op| field(op).is_some()).count() * self.min_passes
    }

    fn tail_of(&self, field: impl Fn(&OpRecord) -> Option<f64> + Copy) -> Option<Tail> {
        tail(&self.samples(field), self.n_ref(field))
    }

    /// Median over passes of a per-pass value.
    fn per_pass(&self, value: impl Fn(&[OpRecord]) -> f64) -> f64 {
        let values: Vec<f64> = self.passes.iter().map(|pass| value(&pass.ops)).collect();
        median(&values).unwrap_or(0.0)
    }

    /// Median over passes of a per-pass sum.
    fn per_pass_sum(&self, field: impl Fn(&OpRecord) -> f64) -> f64 {
        self.per_pass(|ops| ops.iter().map(&field).sum())
    }

    /// A deterministic count summed over the last pass.
    fn count(&self, field: impl Fn(&OpRecord) -> u64) -> f64 {
        self.last().iter().map(field).sum::<u64>() as f64
    }

    /// Median wall time of a pass, bursts included: what the next pass
    /// is expected to take.
    fn wall_s(&self) -> f64 {
        let walls: Vec<f64> = self.passes.iter().map(|pass| pass.wall_s).collect();
        median(&walls).unwrap_or(0.0)
    }

    /// Median host time of a pass.
    fn pass_s(&self) -> f64 {
        let host: Vec<f64> = self.passes.iter().map(Pass::host_s).collect();
        median(&host).unwrap_or(0.0)
    }

    /// Calibrated time of one pass: the sum over the op stream of each
    /// op's median calibrated time over the passes. A pass whose few long
    /// ops met a bad calibration window moves it less than it moves that
    /// pass's own sum.
    fn pass_cal_s(&self) -> f64 {
        self.op_medians(|op| Some(op.op_ms)).iter().sum::<f64>() / 1e3
    }

    /// Median calibration burst over the run, in ms.
    fn cal_ms(&self) -> f64 {
        median(&self.samples(|op| Some(op.cal_ms))).unwrap_or(0.0)
    }

    /// The op stream's second class: native runs on `deploy`, bounded ops
    /// on `dense`, `converge` on `repair`.
    fn alt_ms(&self, op: &OpRecord) -> Option<f64> {
        match self.kind {
            Kind::Deploy => op.native_ms,
            Kind::Dense | Kind::Repair => op.alt_ms,
        }
    }

    /// Mean simulated profiled ÷ unprofiled cycles over the last pass's
    /// profiled runs, and the same excluding kmeans and x264 (Fig. 4's
    /// second average).
    fn sim_overhead(&self) -> (f64, f64) {
        let native: BTreeMap<&str, f64> = self
            .last()
            .iter()
            .filter_map(|op| Some((op.program.as_str(), op.native_cycles? as f64)))
            .collect();
        let ratios: Vec<(&str, f64)> = self
            .last()
            .iter()
            .filter_map(|op| {
                let base = native.get(op.program.as_str())?;
                Some((op.program.as_str(), op.profiled_cycles? as f64 / base))
            })
            .collect();
        let mean = |rs: Vec<f64>| rs.iter().sum::<f64>() / rs.len().max(1) as f64;
        let excl = ratios
            .iter()
            .filter(|(p, _)| !p.starts_with("kmeans/") && !p.starts_with("x264/"))
            .map(|r| r.1)
            .collect();
        (mean(ratios.iter().map(|r| r.1).collect()), mean(excl))
    }

    fn expect(&self) -> (usize, usize) {
        let judged: Vec<bool> = self.last().iter().filter_map(|op| op.expect).collect();
        (judged.iter().filter(|&&hit| hit).count(), judged.len())
    }

    fn prediction_errors(&self) -> Vec<f64> {
        self.last()
            .iter()
            .flat_map(|op| op.prediction_errors.iter().copied())
            .collect()
    }

    /// Fig. 1 gap on `deploy`: 8-thread reality over the linear-speedup
    /// expectation.
    fn fig1_gap(&self) -> Option<f64> {
        if self.kind != Kind::Deploy {
            return None;
        }
        let cycles: BTreeMap<u32, u64> = self.last().iter().filter_map(|op| op.fig1).collect();
        let serial = *cycles.get(&1)?;
        let eight = *cycles.get(&8)?;
        Some(eight as f64 / (serial as f64 / 8.0))
    }
}

fn fmt_tail(t: Option<Tail>, unit: &str) -> String {
    match t {
        None => "n/a".to_string(),
        Some(t) => format!(
            "{:.4} {unit} ({} of n={}, {} beyond{})",
            t.value,
            t.label(),
            t.n,
            t.beyond,
            if t.is_supported() {
                ""
            } else {
                "; too few samples for a tail"
            }
        ),
    }
}

fn fmt_opt(value: Option<f64>, unit: &str) -> String {
    value.map_or("n/a".to_string(), |v| format!("{v:.4} {unit}"))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pipebench: {message}");
            eprintln!(
                "usage: pipebench --workload deploy|dense|repair [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    if let Err(message) = run(&args) {
        eprintln!("pipebench: {message}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let env = Env {
        seed: args.seed,
        nproc,
        shards: nproc,
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pipebench: workload {} seed {} seconds {} trace {} | nproc {} | shards: deploy 1 (classic loop), dense/repair {}",
        args.name, args.seed, args.seconds, u8::from(args.trace), nproc, env.shards
    );

    // Set-up, several times; the last one is used. The median set-up is
    // calibrated by the median of the bursts every set-up runs between its
    // programs' reference runs.
    let mut cal = Calibrator::default();
    let mut setup_host = Vec::with_capacity(SETUP_REPS);
    let mut setup_bursts = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built = Workload::setup(args.kind, &env, &mut cal);
        let bursts_s = built.setup_bursts.iter().sum::<f64>() / 1e3;
        setup_host.push(start.elapsed().as_secs_f64() - bursts_s);
        setup_bursts.extend_from_slice(&built.setup_bursts);
        workload = Some(built);
    }
    let workload = workload.expect("at least one set-up");
    let setup_s = median(&setup_host).expect("set-up times") * calib::scale(&setup_bursts);

    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut check =
        |ops: &[OpRecord], previous: Option<&[OpRecord]>, failures: &mut Vec<String>| {
            for (i, op) in ops.iter().enumerate() {
                attempted += 1;
                if let Some(failure) = &op.failure {
                    failures.push(failure.clone());
                } else if let Some(prev) = previous.and_then(|p| p.get(i)) {
                    if prev.failure.is_none() && prev.witness != op.witness {
                        failures.push(format!(
                            "{}: output differs from its previous repetition",
                            op.label
                        ));
                    }
                }
            }
        };
    // Warm-up pass: untimed, but the first repetition of every op. It
    // runs the ops every measured pass runs, so the heap peak is reached
    // by its end; the measured passes run on the uncounted allocator.
    let warm = workload.pass(&env, None, &mut cal);
    check(&warm, None, &mut failures);
    heap::stop_counting();
    let peak_heap = heap::peak_bytes() as f64 / (1024.0 * 1024.0);

    // Measured passes: closed loop, whole passes. Another pass starts only
    // while it is expected to end within `--seconds` (the median pass so
    // far predicts its length).
    let mut measured = Measured {
        kind: args.kind,
        min_passes: min_passes(args.kind),
        passes: Vec::new(),
    };
    let start = Instant::now();
    while measured.passes.len() < measured.min_passes
        || start.elapsed().as_secs_f64() + measured.wall_s() <= args.seconds
    {
        let pass_start = Instant::now();
        let ops = workload.pass(&env, None, &mut cal);
        let wall_s = pass_start.elapsed().as_secs_f64();
        let previous = measured.passes.last().map_or(&warm, |pass| &pass.ops);
        check(&ops, Some(previous), &mut failures);
        measured.passes.push(Pass { wall_s, ops });
    }
    let peak_rss = peak_rss_mb()?;

    // Bit-for-bit shard check.
    attempted += 1;
    if let Some(failure) = workload.shard_check(&env) {
        failures.push(failure);
    }

    let failed = failures.len() as u64;
    for failure in &failures {
        let _ = writeln!(out, "FAILED: {failure}");
    }

    // End-to-end metrics.
    let profile_cal = measured.calibrated(|op| op.profile_ms);
    // Every profiled op counts alike, and no single op decides it, as one
    // does for a median over a handful of programs of different sizes.
    let profile_gmean = gmean(&measured.op_medians(|op| op.profile_ms)).unwrap_or(f64::NAN);
    let profile_cal_tail = tail(&profile_cal, measured.n_ref(|op| op.profile_ms));
    let pass_cal_s = measured.pass_cal_s();
    let (hits, judged) = measured.expect();
    let (overhead, overhead_excl) = measured.sim_overhead();
    let errors = measured.prediction_errors();
    let err_max = errors.iter().copied().fold(f64::NAN, f64::max);
    // In `END_TO_END` order.
    let e2e: Vec<Metric> = END_TO_END
        .iter()
        .zip([
            setup_s,
            profile_gmean,
            pass_cal_s,
            peak_heap,
            hits as f64 / judged.max(1) as f64,
            overhead,
            median(&errors).unwrap_or(f64::NAN),
            err_max,
        ])
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();

    let _ = writeln!(
        out,
        "\n== end to end ({} measured pass(es) of {} ops, at least {}; tracing off; host times calibrated to a {} ms burst)",
        measured.passes.len(),
        workload.len(),
        measured.min_passes,
        calib::NOMINAL_MS
    );
    let host_list = |times: &[f64]| -> String {
        let parts: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
        parts.join(" ")
    };
    let _ = writeln!(
        out,
        "setup_s              {setup_s:.4} s (median of {SETUP_REPS} set-ups; host s: {})",
        host_list(&setup_host)
    );
    let _ = writeln!(
        out,
        "profile_ms           gmean {profile_gmean:.4} ms | p50 {} | tail {}",
        fmt_opt(median(&profile_cal), "ms"),
        fmt_tail(profile_cal_tail, "ms")
    );
    let _ = writeln!(
        out,
        "pass_s               {pass_cal_s:.4} s (sum of each op's median)"
    );
    let _ = writeln!(
        out,
        "peak_heap_mb         {peak_heap:.3} MB (most bytes live at once, set-up and warm-up)"
    );
    let _ = writeln!(
        out,
        "expect_hit_ratio     {hits}/{judged} = {:.4} (deterministic)",
        hits as f64 / judged.max(1) as f64
    );
    for op in measured.last().iter().filter(|op| op.expect == Some(false)) {
        let _ = writeln!(
            out,
            "  known miss: {} does not meet its registry expectation",
            op.label
        );
    }
    let _ = writeln!(out, "sim_overhead         {overhead:.4} (deterministic; mean profiled ÷ unprofiled simulated cycles)");
    let _ = writeln!(
        out,
        "prediction_err       p50 {:.4} | max {err_max:.4} over {} prediction(s) (deterministic)",
        median(&errors).unwrap_or(f64::NAN),
        errors.len()
    );

    // Calibrated times of the other op classes, uncalibrated host times
    // and the failure ratios: printed, not gated.
    let alt_cal = measured.calibrated(|op| measured.alt_ms(op));
    let explore_cal = measured.calibrated(|op| op.explore_ms);
    let alt_cal_tail = tail(&alt_cal, measured.n_ref(|op| measured.alt_ms(op)));
    let alt_name = match args.kind {
        Kind::Deploy => "native_ms",
        Kind::Dense => "bounded_ms",
        Kind::Repair => "converge_ms",
    };
    let _ = writeln!(
        out,
        "{alt_name:<20} p50 {} | tail {} (not gated)",
        fmt_opt(median(&alt_cal), "ms"),
        fmt_tail(alt_cal_tail, "ms")
    );
    if args.kind == Kind::Repair {
        let _ = writeln!(
            out,
            "explore_ms           p50 {} (n={}; not gated)",
            fmt_opt(median(&explore_cal), "ms"),
            explore_cal.len()
        );
    }
    let profile = measured.samples(|op| op.profile_ms);
    let alt = measured.samples(|op| measured.alt_ms(op));
    let profile_tail = measured.tail_of(|op| op.profile_ms);
    let alt_tail = measured.tail_of(|op| measured.alt_ms(op));
    let maccess_per_s = measured.per_pass(|ops| {
        let accesses: u64 = ops.iter().map(|op| op.accesses).sum();
        let run_ms: f64 = ops.iter().map(|op| op.run_ms).sum();
        accesses as f64 / 1e6 / (run_ms / 1e3)
    });
    let pass_s = measured.pass_s();
    let cal_ms = measured.cal_ms();
    let passes: Vec<String> = measured
        .passes
        .iter()
        .map(|pass| format!("{:.3}/{:.3}", pass.host_s(), pass.cal_s()))
        .collect();
    let _ = writeln!(
        out,
        "\n== host times (uncalibrated; they drift with the host, so they are per-layer, not gated)"
    );
    let _ = writeln!(
        out,
        "cal_ms               {cal_ms:.4} ms (median burst; nominal {})",
        calib::NOMINAL_MS
    );
    let _ = writeln!(
        out,
        "pass_s               {pass_s:.4} s (median; passes host/calibrated: {})",
        passes.join(" ")
    );
    let profile_name = if args.kind == Kind::Repair {
        "profile_ms (find)"
    } else {
        "profile_ms"
    };
    let _ = writeln!(
        out,
        "{profile_name:<20} p50 {} | tail {}",
        fmt_opt(median(&profile), "ms"),
        fmt_tail(profile_tail, "ms")
    );
    let _ = writeln!(
        out,
        "{alt_name:<20} p50 {} | tail {}",
        fmt_opt(median(&alt), "ms"),
        fmt_tail(alt_tail, "ms")
    );
    let _ = writeln!(out, "maccess_per_s        {maccess_per_s:.4} Maccess/s (median over passes; the benchmark's own Machine::run calls)");
    let _ = writeln!(out, "peak_rss_mb          {peak_rss:.1} MB (VmHWM; varies with allocator arenas, so peak_heap_mb is gated)");
    let _ = writeln!(
        out,
        "fail_ratio           {failed}/{attempted} = {:.4}",
        failed as f64 / attempted as f64
    );
    let _ = writeln!(
        out,
        "expect_miss_ratio    {}/{judged} = {:.4}",
        judged - hits,
        (judged - hits) as f64 / judged.max(1) as f64
    );

    // Paper references beside the simulated figures.
    let _ = writeln!(
        out,
        "\n== paper references (the machine model is validated only against these numbers)"
    );
    match args.kind {
        Kind::Deploy => {
            let _ = writeln!(
                out,
                "Fig. 4 average overhead      {overhead:.3}  (paper ~{PAPER_FIG4_AVG})"
            );
            let _ = writeln!(
                out,
                "Fig. 4 excl. kmeans/x264     {overhead_excl:.3}  (paper ~{PAPER_FIG4_AVG_EXCL})"
            );
            if let Some(gap) = measured.fig1_gap() {
                let _ = writeln!(out, "Fig. 1 8-thread gap          {gap:.1}x  (paper ~{PAPER_FIG1_GAP}x) — recorded known miss");
            }
            for (app, reference) in &workload.fig7 {
                let gain = reference.real() - 1.0;
                let _ = writeln!(
                    out,
                    "Fig. 7 {app:<16} fix gain {:.4}%  (paper < {:.1}%){}",
                    gain * 100.0,
                    PAPER_FIG7_GAIN * 100.0,
                    if gain.abs() < PAPER_FIG7_GAIN {
                        ""
                    } else {
                        " — recorded known miss"
                    }
                );
            }
        }
        Kind::Dense => {
            let _ = writeln!(out, "profiling overhead at dense sampling {overhead:.3}  (paper's Fig. 4 ~{PAPER_FIG4_AVG} is at deployment rate)");
        }
        Kind::Repair => {
            let _ = writeln!(out, "detector overhead at matrix periods {overhead:.3}  (paper's Fig. 4 ~{PAPER_FIG4_AVG} is at deployment rate)");
        }
    }
    let _ = writeln!(
        out,
        "prediction error max {err_max:.4}  (paper Table 1: < {PAPER_TABLE1_DIFF}){}",
        if err_max < PAPER_TABLE1_DIFF {
            ""
        } else {
            " — recorded known miss"
        }
    );
    for row in &workload.table1 {
        let miss = row.diff().abs() >= PAPER_TABLE1_DIFF;
        let _ = writeln!(
            out,
            "Table 1 {:<18} t{:<2} predicted {:.3}x real {:.3}x diff {:+.1}% (paper |diff| < 10%){}",
            row.app,
            row.threads,
            row.predicted,
            row.real,
            row.diff() * 100.0,
            if miss { " — recorded known miss" } else { "" }
        );
    }

    let _ = writeln!(out, "\n== ops of the last pass (host ms)");
    for op in measured.last() {
        let part =
            |name: &str, v: Option<f64>| v.map_or(String::new(), |v| format!(" {name} {v:.2}"));
        let _ = writeln!(
            out,
            "{:<34}{}{}{}{}",
            op.label,
            part("native", op.native_ms),
            part("profile", op.profile_ms),
            part("alt", op.alt_ms),
            part("explore", op.explore_ms)
        );
    }

    let metrics: Vec<Metric> = if args.trace {
        let host = [
            cal_ms,
            pass_s,
            median(&profile).unwrap_or(f64::NAN),
            profile_tail.map_or(f64::NAN, |t| t.value),
            median(&alt).unwrap_or(f64::NAN),
            alt_tail.map_or(f64::NAN, |t| t.value),
            maccess_per_s,
            peak_rss,
        ];
        per_layer(args, &env, &workload, &measured, &host, &mut cal, &mut out)?
    } else {
        e2e
    };
    print!("{out}");
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics)?);
    Ok(())
}

/// The per-layer metrics: a `SimPmu` decomposition pass, one traced pass,
/// and the measured passes' layer timings and counts. `host` holds the
/// eight `host.*` values, in `PER_LAYER` order.
fn per_layer(
    args: &Args,
    env: &Env,
    workload: &Workload,
    measured: &Measured,
    host: &[f64; 8],
    cal: &mut Calibrator,
    out: &mut String,
) -> Result<Vec<Metric>, String> {
    let decomposition = workload.decompose(env, DECOMPOSE_REPS);

    let obs = ObsHandle::fresh();
    obs.name_lane(BENCH_LANE, "pipebench");
    let traced = workload.pass(env, Some(&obs), cal);
    let traced_s = traced.iter().map(|op| op.op_ms).sum::<f64>() / 1e3;
    if let Some(failure) = traced.iter().find_map(|op| op.failure.clone()) {
        return Err(format!("traced pass failed: {failure}"));
    }
    let times = trace::self_times(&obs.spans());
    let dir = std::path::Path::new("pipebench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.name, args.seed));
    std::fs::write(&path, obs.chrome_trace())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    // Native, `SimPmu` and profiled `Machine::run` host time, summed over
    // the ops with one unbounded profiled run.
    let (mut native_sum, mut simpmu_sum, mut profiled_sum, mut samples) = (0.0, 0.0, 0.0, 0u64);
    for (d, op) in decomposition.iter().zip(measured.last()) {
        let Some(d) = d else { continue };
        native_sum += d.native_ms;
        simpmu_sum += d.simpmu_ms;
        profiled_sum += d.profiled_ms;
        samples += op.counts.samples;
    }
    let ingest_ms = profiled_sum - simpmu_sum;
    let natives = measured.samples(|op| op.native_ms.map(|_| op.run_ms));
    let builds: u64 = measured.all().map(|op| op.layers.builds).sum();
    let build_ms = measured.all().map(|op| op.layers.build_ms).sum::<f64>() / builds.max(1) as f64;
    let c = |f: fn(&workload::Counts) -> u64| measured.count(|op| f(&op.counts));
    let admissions = c(|k| k.admissions);
    let denials = c(|k| k.denials);
    let table1_max = workload
        .table1
        .iter()
        .map(|row| row.diff().abs())
        .fold(0.0, f64::max);
    let fig1_err = measured
        .fig1_gap()
        .map_or(0.0, |gap| gap / PAPER_FIG1_GAP - 1.0);

    let mut values: Vec<f64> = host.to_vec();
    values.extend([
        build_ms,
        median(&natives).unwrap_or(0.0),
        profiled_sum / native_sum,
        times.self_ms("phase"),
        c(|k| k.merged),
        c(|k| k.folded),
        c(|k| k.surfaced),
        c(|k| k.sched_reordered),
        c(|k| k.cycles),
        c(|k| k.invalidations),
        c(|k| k.wait_cycles),
        fig1_err,
        simpmu_sum - native_sum,
        c(|k| k.samples),
        c(|k| k.trap_cycles),
        c(|k| k.faults_injected),
        ingest_ms,
        ingest_ms * 1e6 / samples.max(1) as f64,
        c(|k| k.evictions),
        denials,
        c(|k| k.repromotions),
        c(|k| k.quarantined),
        if admissions + denials > 0.0 {
            admissions / (admissions + denials)
        } else {
            1.0
        },
        measured
            .last()
            .iter()
            .map(|op| op.counts.peak_lines)
            .max()
            .unwrap_or(0) as f64,
        measured.per_pass_sum(|op| op.layers.classify_ms),
        c(|k| k.instances),
        measured.per_pass_sum(|op| op.layers.finish_ms - op.layers.classify_ms),
        measured.per_pass_sum(|op| op.layers.plan_ms),
        measured.per_pass_sum(|op| op.layers.rewrite_ms),
        c(|k| k.iterations),
        c(|k| k.schedules_profiled),
        c(|k| k.hidden),
        table1_max,
        traced_s / measured.pass_s(),
        times.self_ms("bench.op"),
    ]);
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();

    let _ = writeln!(out, "\n== per layer (counts: last measured pass; ms: per pass, median over passes; † traced pass or differences of medians)");
    for metric in &metrics {
        let _ = writeln!(
            out,
            "{:<28} {:>16.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    // Layers only `repair` or the sharded path exercise: printed, not in
    // the result line, which must carry the same names on every workload.
    let shard =
        |f: fn(&workload::ShardNs) -> u64| measured.per_pass_sum(|op| f(&op.shard_ns) as f64 / 1e6);
    let _ = writeln!(
        out,
        "sim.classify_ms (sharded)    {:>16.4} ms",
        shard(|s| s.classify)
    );
    let _ = writeln!(
        out,
        "sim.precompute_ms (sharded)  {:>16.4} ms",
        shard(|s| s.precompute)
    );
    let _ = writeln!(
        out,
        "sim.merge_ms (sharded)       {:>16.4} ms",
        shard(|s| s.merge)
    );
    let _ = writeln!(
        out,
        "sim.shard_self_ms †          {:>16.4} ms",
        times.self_ms_prefixed("shard.")
    );
    let reprofile = times.within_ms("repair.converge", "phase")
        + times.within_ms("repair.converge_worst_case", "phase");
    let _ = writeln!(
        out,
        "repair.reprofile_ms †        {reprofile:>16.4} ms (simulator phases inside converge)"
    );
    let repair_self = times.self_ms("repair.converge")
        + times.self_ms("repair.converge_worst_case")
        + times.self_ms("converge.iteration")
        + times.self_ms("explore.schedule");
    let _ = writeln!(
        out,
        "repair.self_ms †             {repair_self:>16.4} ms (converge spans minus their children)"
    );
    let _ = writeln!(
        out,
        "traced pass                  {traced_s:>16.4} s vs untraced median {:.4} s",
        measured.pass_s()
    );
    let _ = writeln!(out, "chrome trace                 {}", path.display());
    let _ = writeln!(out, "self time by span (ms per traced pass):");
    for (name, totals) in &times.by_name {
        let _ = writeln!(
            out,
            "  {name:<28} n={:<7} total {:>12.3} self {:>12.3}",
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        );
    }
    Ok(metrics)
}
