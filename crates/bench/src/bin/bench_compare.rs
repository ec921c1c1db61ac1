//! Regression gates for the committed benchmark baselines.
//!
//! ```text
//! bench_compare <baseline.json> <fresh.json> [--tolerance-points 5]
//! bench_compare --sim <baseline.json> <fresh.json> [--tolerance-points 10]
//! bench_compare --robust <baseline.json> <fresh.json> [--tolerance-points 10]
//! ```
//!
//! Default mode matches `BENCH_repair.json` cells between a committed
//! baseline and a freshly generated file by
//! `(workload, threads, period, instance)` and exits nonzero if any cell's
//! relative prediction error regressed by more than the tolerance
//! (percentage points), or if a baseline cell vanished from the fresh
//! matrix. New cells (matrix growth) only warn.
//!
//! `--sim` mode gates `BENCH_sim.json` instead: for the streaming rows
//! (`streamcluster`, `streaming_histogram` — the workloads extent
//! classification exists for) every sharded cell must not replay more
//! order-dependent events (`ordered_events`) than the recorded baseline
//! allows, and must not run slower than the reference per-op loop
//! (speedup below 1 beyond the tolerance). Rows labelled
//! `"engine": "reference"` are the speedup baseline, not gated cells.
//! Event counts are deterministic, so their tolerance is a
//! fixed 5%-of-baseline slack for benign reclassifications; the
//! wall-clock tolerance is `--tolerance-points` interpreted as percent.
//!
//! `--robust` mode gates `BENCH_robust.json`: per (workload, fault cell)
//! the best reported improvement must not fall below the baseline's by
//! more than the tolerance (percent, relative); the pressure cell's
//! top-finding-survived flag and the degraded-repair convergence must
//! not flip from true to false, and the degraded residual must not
//! grow. Detection output is deterministic, so the tolerance only
//! absorbs deliberate re-tuning, not run-to-run noise.
//!
//! Every file is read with the strict JSON parser of `cheetah-obs`, so
//! records may be laid out on one line or pretty-printed. Every field a
//! gate reads is required: a record missing one makes its file
//! unreadable rather than skipping or weakening the cell. Exit codes: 0
//! within limits, 1 on a regression or a missing cell, 2 on bad usage or
//! an unreadable file.

use cheetah_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Gated cells of one BENCH file, by cell key.
type Cells<C> = BTreeMap<String, C>;

/// A mode's parser: a whole BENCH document to its gated cells.
type Parse<C> = fn(&Value) -> Result<Cells<C>, String>;

/// A mode's gate over `(baseline, fresh, tolerance)`; `Err` carries the
/// failure summary.
type Compare<C> = fn(&Cells<C>, &Cells<C>, f64) -> Result<(), String>;

/// The array `key` of a BENCH document.
fn array<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("no \"{key}\" array"))
}

/// A required numeric field.
fn num(record: &Value, name: &str) -> Result<f64, String> {
    record
        .get(name)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("record without numeric {name}"))
}

/// A required string field.
fn text<'a>(record: &'a Value, name: &str) -> Result<&'a str, String> {
    record
        .get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("record without {name}"))
}

/// A boolean field; missing or non-boolean reads as `false`.
fn flag(record: &Value, name: &str) -> bool {
    record.get(name) == Some(&Value::Bool(true))
}

/// Parses `BENCH_repair.json` into `(cell key -> gated prediction error)`.
fn parse_repair(doc: &Value) -> Result<Cells<f64>, String> {
    let mut cells = Cells::new();
    for record in array(doc, "results")? {
        // Gate on the cell's worst convergence step too: a multi-iteration
        // cell must not regress in a later step unnoticed.
        let error = num(record, "prediction_error")?.max(num(record, "worst_step_error")?);
        cells.insert(
            format!(
                "{} t{} p{} [{}]",
                text(record, "workload")?,
                num(record, "threads")?,
                num(record, "period")?,
                text(record, "instance")?
            ),
            error,
        );
    }
    Ok(cells)
}

/// One sharded cell of a BENCH_sim.json file.
#[derive(Debug, Clone, Copy)]
struct SimCell {
    ordered_events: f64,
    speedup: f64,
}

/// Parses the sharded cells of `BENCH_sim.json` into
/// `(workload t<threads> s<shards> -> cell)`.
fn parse_sim(doc: &Value) -> Result<Cells<SimCell>, String> {
    let mut cells = Cells::new();
    for record in array(doc, "results")? {
        let shards = num(record, "shards")?;
        let ordered_events = num(record, "ordered_events")?;
        if text(record, "engine")? != "sharded" {
            continue;
        }
        cells.insert(
            format!(
                "{} t{} s{shards}",
                text(record, "workload")?,
                num(record, "threads")?
            ),
            SimCell {
                ordered_events,
                speedup: num(record, "speedup")?,
            },
        );
    }
    Ok(cells)
}

/// One gated entry of a BENCH_robust.json file: a fault-preset cell, the
/// pressure cell, or the degraded-repair outcome.
#[derive(Debug, Clone, Copy)]
struct RobustCell {
    /// Best reported improvement (fault and pressure cells; 0 for the
    /// degraded-repair entry, which gates on the fields below instead).
    best_improvement: f64,
    /// `top_finding_survived` (pressure) or `converged` (degraded
    /// repair); always true for fault cells.
    held: bool,
    /// Residual significant instances (degraded repair; 0 elsewhere).
    residual: f64,
}

/// Parses `BENCH_robust.json` into `(workload/cell -> entry)`.
fn parse_robust(doc: &Value) -> Result<Cells<RobustCell>, String> {
    let mut cells = Cells::new();
    for group in array(doc, "workloads")? {
        let workload = text(group, "workload")?;
        for cell in group.get("cells").and_then(Value::as_arr).unwrap_or(&[]) {
            cells.insert(
                format!("{workload}/{}", text(cell, "cell")?),
                RobustCell {
                    best_improvement: num(cell, "best_improvement")?,
                    held: true,
                    residual: 0.0,
                },
            );
        }
        if let Some(pressure) = group.get("pressure") {
            cells.insert(
                format!("{workload}/pressure"),
                RobustCell {
                    best_improvement: num(pressure, "best_improvement")?,
                    held: flag(pressure, "top_finding_survived"),
                    residual: 0.0,
                },
            );
        }
        if let Some(degraded) = group.get("degraded_repair") {
            cells.insert(
                format!("{workload}/degraded"),
                RobustCell {
                    best_improvement: 0.0,
                    held: flag(degraded, "converged"),
                    residual: num(degraded, "residual")?,
                },
            );
        }
    }
    Ok(cells)
}

/// Matches fresh cells to baseline cells by key: a baseline cell missing
/// from the fresh file fails, a new cell only notes that the bench grew.
/// `regressed` prints one line per matched cell and returns whether it
/// regressed. Returns the failure count.
fn gate<C>(
    baseline: &Cells<C>,
    fresh: &Cells<C>,
    mut regressed: impl FnMut(&str, &C, &C) -> bool,
) -> usize {
    let mut failures = 0usize;
    for (key, base) in baseline {
        match fresh.get(key) {
            None => {
                eprintln!("MISSING  {key}: cell present in baseline but not regenerated");
                failures += 1;
            }
            Some(cell) => failures += usize::from(regressed(key, base, cell)),
        }
    }
    for key in fresh.keys() {
        if !baseline.contains_key(key) {
            println!("NEW      {key}: not in baseline (bench grew)");
        }
    }
    failures
}

/// The status column of a gated cell.
fn status(regressed: bool) -> &'static str {
    if regressed {
        "REGRESS"
    } else {
        "ok"
    }
}

/// The workloads whose sharded rows the sim gate enforces: the streaming
/// shapes extent classification exists for.
const SIM_GATED: [&str; 2] = ["streamcluster", "streaming_histogram"];

/// Event-count slack for benign reclassifications (fraction of baseline).
const SIM_EVENT_SLACK: f64 = 0.05;

/// The default gate; `tolerance` is in absolute error points.
fn compare_repair(baseline: &Cells<f64>, fresh: &Cells<f64>, tolerance: f64) -> Result<(), String> {
    let failures = gate(baseline, fresh, |key, &old_error, &new_error| {
        let delta = new_error - old_error;
        let bad = delta > tolerance;
        println!(
            "{:8} {key}: {:.1}% -> {:.1}% ({:+.1} points)",
            status(bad),
            old_error * 100.0,
            new_error * 100.0,
            delta * 100.0
        );
        bad
    });
    if failures > 0 {
        return Err(format!(
            "bench_compare: {failures} cell(s) regressed beyond {:.0} points or went missing",
            tolerance * 100.0
        ));
    }
    println!(
        "bench_compare: all {} baseline cells within {:.0} points",
        baseline.len(),
        tolerance * 100.0
    );
    Ok(())
}

/// The `--sim` gate; `tolerance` is the wall-clock fraction.
fn compare_sim(
    baseline: &Cells<SimCell>,
    fresh: &Cells<SimCell>,
    tolerance: f64,
) -> Result<(), String> {
    let failures = gate(baseline, fresh, |key, base, cell| {
        let gated = SIM_GATED.iter().any(|w| key.starts_with(w));
        let event_limit = (base.ordered_events * (1.0 + SIM_EVENT_SLACK)).ceil();
        let events_bad = gated && cell.ordered_events > event_limit;
        let speed_bad = gated && cell.speedup < 1.0 - tolerance;
        println!(
            "{:8} {key}: ordered {} -> {} (limit {event_limit}), \
             speedup {:.2}x -> {:.2}x{}",
            status(events_bad || speed_bad),
            base.ordered_events,
            cell.ordered_events,
            base.speedup,
            cell.speedup,
            if gated { "" } else { " [informational]" },
        );
        events_bad || speed_bad
    });
    if failures > 0 {
        return Err(format!(
            "bench_compare --sim: {failures} sharded cell(s) replay more ordered events than the \
             baseline, run slower than the reference loop, or went missing"
        ));
    }
    println!(
        "bench_compare --sim: all {} baseline cells within limits",
        baseline.len()
    );
    Ok(())
}

/// The `--robust` gate; `tolerance` is the relative improvement slack.
fn compare_robust(
    baseline: &Cells<RobustCell>,
    fresh: &Cells<RobustCell>,
    tolerance: f64,
) -> Result<(), String> {
    let failures = gate(baseline, fresh, |key, base, cell| {
        let floor = base.best_improvement * (1.0 - tolerance);
        let bad = cell.best_improvement < floor
            || (base.held && !cell.held)
            || cell.residual > base.residual;
        println!(
            "{:8} {key}: best {:.2}x -> {:.2}x (floor {floor:.2}x), \
             held {} -> {}, residual {} -> {}",
            status(bad),
            base.best_improvement,
            cell.best_improvement,
            base.held,
            cell.held,
            base.residual,
            cell.residual,
        );
        bad
    });
    if failures > 0 {
        return Err(format!(
            "bench_compare --robust: {failures} cell(s) lost improvement beyond {:.0}%, dropped a \
             survival/convergence guarantee, grew residue, or went missing",
            tolerance * 100.0
        ));
    }
    println!(
        "bench_compare --robust: all {} baseline cells within limits",
        baseline.len()
    );
    Ok(())
}

/// Loads both files through `parse` and runs `compare` on their cells:
/// exit 2 when a file is unreadable or holds no gated cells, 1 when the
/// gate fails.
fn run<C>(parse: Parse<C>, compare: Compare<C>, paths: [&str; 2], tolerance: f64) -> ExitCode {
    let cells_of = |path: &str| -> Result<Cells<C>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let cells = json::parse(&text)
            .and_then(|doc| parse(&doc))
            .map_err(|e| format!("{path}: {e}"))?;
        if cells.is_empty() {
            return Err(format!("{path}: no gated benchmark records found"));
        }
        Ok(cells)
    };
    match (cells_of(paths[0]), cells_of(paths[1])) {
        (Ok(baseline), Ok(fresh)) => match compare(&baseline, &fresh, tolerance) {
            Ok(()) => ExitCode::SUCCESS,
            Err(summary) => {
                eprintln!("{summary}");
                ExitCode::FAILURE
            }
        },
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sim_mode = args.first().is_some_and(|a| a == "--sim");
    let robust_mode = args.first().is_some_and(|a| a == "--robust");
    if sim_mode || robust_mode {
        args.remove(0);
    }
    let (baseline_path, fresh_path) = match (args.first(), args.get(1)) {
        (Some(b), Some(f)) => (b.clone(), f.clone()),
        _ => {
            eprintln!(
                "usage: bench_compare [--sim | --robust] <baseline.json> <fresh.json> \
                 [--tolerance-points N]"
            );
            return ExitCode::from(2);
        }
    };
    // Remaining arguments must parse exactly; a typo that silently fell
    // back to the default would loosen the CI gate without anyone noticing.
    let mut tolerance_points = if sim_mode || robust_mode {
        10.0f64
    } else {
        5.0f64
    };
    let mut rest = args[2..].iter();
    while let Some(arg) = rest.next() {
        let value = match (arg.as_str(), arg.strip_prefix("--tolerance-points=")) {
            ("--tolerance-points", _) => rest.next().map(String::as_str),
            (_, Some(inline)) => Some(inline),
            _ => None,
        };
        match value.and_then(|v| v.parse::<f64>().ok()) {
            Some(points) => tolerance_points = points,
            None => {
                eprintln!("bench_compare: bad argument {arg:?} (want --tolerance-points N)");
                return ExitCode::from(2);
            }
        }
    }
    let tolerance = tolerance_points / 100.0;
    let paths = [baseline_path.as_str(), fresh_path.as_str()];
    if sim_mode {
        run(parse_sim, compare_sim, paths, tolerance)
    } else if robust_mode {
        run(parse_robust, compare_robust, paths, tolerance)
    } else {
        run(parse_repair, compare_repair, paths, tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_printed_records_parse() {
        let doc = json::parse(
            r#"{
              "benchmark": "repair",
              "results": [
                {
                  "workload": "linear_regression",
                  "threads": 2,
                  "period": 128,
                  "instance": "linear_regression-pthread.c: 139",
                  "prediction_error": 0.09,
                  "worst_step_error": 0.12
                }
              ]
            }"#,
        )
        .expect("valid JSON");
        let cells = parse_repair(&doc).expect("gated cells");
        assert_eq!(
            cells.get("linear_regression t2 p128 [linear_regression-pthread.c: 139]"),
            Some(&0.12)
        );
    }

    /// One-record BENCH document of `benchmark` whose record lacks `drop`.
    fn doc_without(benchmark: &str, record: &str, drop: &str) -> Value {
        let fields: Vec<&str> = record
            .split(", ")
            .filter(|field| !field.starts_with(&format!("\"{drop}\"")))
            .collect();
        json::parse(&format!(
            r#"{{"benchmark": "{benchmark}", "results": [{{{}}}]}}"#,
            fields.join(", ")
        ))
        .expect("valid JSON")
    }

    const SIM_RECORD: &str = r#""workload": "streamcluster", "threads": 4, "engine": "sharded", "shards": 2, "speedup": 1.5, "ordered_events": 900"#;

    const REPAIR_RECORD: &str = r#""workload": "histogram", "threads": 4, "period": 128, "instance": "histogram.c: 12", "prediction_error": 0.05, "worst_step_error": 0.07"#;

    #[test]
    fn complete_records_parse() {
        let sim = parse_sim(&doc_without("sim", SIM_RECORD, "none")).expect("sim cells");
        assert_eq!(
            sim.get("streamcluster t4 s2").map(|c| c.ordered_events),
            Some(900.0)
        );
        let repair =
            parse_repair(&doc_without("repair", REPAIR_RECORD, "none")).expect("repair cells");
        assert_eq!(
            repair.get("histogram t4 p128 [histogram.c: 12]"),
            Some(&0.07)
        );
    }

    #[test]
    fn sim_record_without_ordered_events_is_rejected() {
        let err = parse_sim(&doc_without("sim", SIM_RECORD, "ordered_events"))
            .expect_err("a sim row without ordered_events must not parse");
        assert!(err.contains("ordered_events"), "{err}");
        // A row without an engine label is rejected too, not guessed from
        // its shard count.
        assert!(parse_sim(&doc_without("sim", SIM_RECORD, "engine")).is_err());
    }

    #[test]
    fn repair_record_without_worst_step_error_is_rejected() {
        let err = parse_repair(&doc_without("repair", REPAIR_RECORD, "worst_step_error"))
            .expect_err("a repair row without worst_step_error must not parse");
        assert!(err.contains("worst_step_error"), "{err}");
        for field in ["period", "instance"] {
            assert!(
                parse_repair(&doc_without("repair", REPAIR_RECORD, field)).is_err(),
                "a repair row without {field} must not parse"
            );
        }
    }
}
