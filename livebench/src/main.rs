//! Live-pipeline benchmark for rolljoin.
//!
//! Drives the whole maintenance pipeline in one process: an open-loop
//! updater commits through the engine, WAL and log capture into the delta
//! stores; rolling propagation writes the view delta; apply rolls the
//! materialized view; the φ-compactor runs beside them. It reports commit
//! latency, view freshness and catch-up rate, and checks the view against
//! the oracle at the end.
//!
//! ```text
//! cargo run --release --manifest-path livebench/Cargo.toml -- \
//!     --workload star_ingest --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` first runs the
//! untraced pipeline in a child process, then a traced one here, and prints
//! the per-layer metrics plus the traced-minus-untraced difference of every
//! end-to-end metric (the tracing overhead). The last line of standard
//! output is always one JSON object.

mod drivers;
mod pipeline;
mod stats;
mod workload;

use pipeline::{Metric, RunOutput};
use std::process::{Command, ExitCode};

struct Args {
    workload: workload::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    Ok(Args {
        workload: workload::spec(&name)
            .ok_or_else(|| format!("unknown workload {name}; one of {names:?}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("livebench: {e}");
            eprintln!(
                "usage: livebench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let baseline = if args.trace {
        match untraced_in_child(&args) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("livebench: untraced run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let out = match pipeline::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("livebench: {}: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    let name = args.workload.name;
    let mut correct = out.correct;
    println!(
        "{name} seed={} seconds={}: {}",
        args.seed, args.seconds, out.verdict
    );
    for (metric, value, unit) in &out.e2e {
        println!("  {metric} = {value:.4} {unit}");
    }
    let metrics = match baseline {
        None => out.e2e.clone(),
        Some((base_ok, base)) => {
            correct &= base_ok;
            if let Err(e) = write_trace(name, &out) {
                eprintln!("livebench: could not write the trace: {e}");
            }
            let mut layers = out.layers.clone();
            layers.extend(overhead(&base, &out.e2e));
            for (metric, value, unit) in &layers {
                println!("  {metric} = {value:.4} {unit}");
            }
            layers
        }
    };
    println!("{}", result_json(correct, &out, &metrics));
    ExitCode::SUCCESS
}

/// Run the same workload untraced in a child process (a clean peak RSS)
/// and read its end-to-end metrics from its JSON line.
fn untraced_in_child(args: &Args) -> Result<(bool, Vec<(String, f64)>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    for line in stdout.lines() {
        if !line.starts_with('{') {
            println!("untraced: {line}");
        }
    }
    let json = stdout.lines().last().ok_or("no output")?;
    Ok((json.contains("\"correct\": true"), parse_metrics(json)))
}

/// Pull `"name": {"value": x` pairs out of a result line.
fn parse_metrics(json: &str) -> Vec<(String, f64)> {
    let Some(body) = json.split_once("\"metrics\": {").map(|(_, b)| b) else {
        return Vec::new();
    };
    body.split("}, ")
        .filter_map(|entry| {
            let (name, rest) = entry.trim_start_matches('{').split_once(": {\"value\": ")?;
            let value = rest.split([',', '}']).next()?.trim().parse().ok()?;
            Some((name.trim().trim_matches('"').to_string(), value))
        })
        .collect()
}

/// Tracing overhead: how far each traced end-to-end metric sits from the
/// untraced run's, in percent of the untraced value.
fn overhead(base: &[(String, f64)], traced: &[Metric]) -> Vec<Metric> {
    traced
        .iter()
        .filter_map(|(name, value, _)| {
            let (_, b) = base.iter().find(|(n, _)| n == name)?;
            let pct = if *b == 0.0 {
                0.0
            } else {
                (value - b) / b * 100.0
            };
            Some((format!("overhead.{name}"), pct, "%"))
        })
        .collect()
}

fn result_json(correct: bool, out: &RunOutput, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// Write the traced run's spans as a Chrome `trace_event` file next to
/// the benchmark's sources (`out/trace-<workload>.json`).
fn write_trace(name: &str, out: &RunOutput) -> std::io::Result<()> {
    use std::io::Write;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{name}.json"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "[")?;
    for (i, s) in out.spans.iter().enumerate() {
        let sep = if i + 1 == out.spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": \"{}\", \"ts\": {}, \"dur\": {}, \"args\": {{\"cause\": {}, \"work\": {}, \"lag\": {}}}}}{sep}",
            s.name,
            s.name,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.cause,
            s.work,
            s.lag
        )?;
    }
    writeln!(w, "]")?;
    w.flush()?;
    eprintln!("livebench: {} spans -> {}", out.spans.len(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_parse_metrics() {
        let out = RunOutput {
            correct: true,
            verdict: String::new(),
            attempted: 3,
            failed: 0,
            e2e: Vec::new(),
            layers: Vec::new(),
            spans: Vec::new(),
        };
        let metrics = vec![
            ("commit_p50_us".to_string(), 75.25, "us"),
            ("setup_s".to_string(), 1.5, "s"),
        ];
        let line = result_json(true, &out, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert_eq!(
            parse_metrics(&line),
            vec![
                ("commit_p50_us".to_string(), 75.25),
                ("setup_s".to_string(), 1.5)
            ]
        );
        let o = overhead(&parse_metrics(&line), &[("setup_s".into(), 1.8, "s")]);
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].0, "overhead.setup_s");
        assert!((o[0].1 - 20.0).abs() < 1e-9);
    }
}
