//! The experiment harness: regenerates every figure-scenario of
//! *"How To Roll a Join: Asynchronous Incremental View Maintenance"*
//! (Salem, Beyer, Lindsay, Cochrane — SIGMOD 2000).
//!
//! ```text
//! cargo run --release -p rolljoin-bench --bin harness -- all
//! cargo run --release -p rolljoin-bench --bin harness -- e7 e9
//! cargo run --release -p rolljoin-bench --bin harness -- list
//! ```
//!
//! Outcomes are counted in a metrics registry whose Prometheus rendering
//! accompanies the final summary, which lists every failed or unknown
//! experiment; any such run exits 1.

use rolljoin_bench::experiments;
use rolljoin_core::Meter;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = experiments::all();

    if args.is_empty() || args[0] == "list" {
        println!("experiments:");
        for (id, desc, _) in &registry {
            println!("  {id:<4} {desc}");
        }
        println!("\nusage: harness [all | <id>...]");
        return;
    }

    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        registry.iter().map(|(id, _, _)| *id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };

    let mut failed: Vec<String> = Vec::new();
    let meter = Meter::new();
    let runs = |outcome: &'static str| {
        meter.counter_l(
            "harness_runs_total",
            Some(("outcome", outcome)),
            "Experiment runs by outcome.",
        )
    };
    let wall = meter.histogram(
        "harness_run_wall_us",
        "Wall-clock time per experiment run (µs).",
    );

    for want in &selected {
        match registry.iter().find(|(id, _, _)| id == want) {
            Some((id, desc, run)) => {
                println!("\n=== {id}: {desc} ===");
                let t0 = Instant::now();
                let result = run();
                let elapsed = t0.elapsed();
                wall.observe(elapsed.as_micros() as u64);
                match &result {
                    Ok(()) => runs("ok").inc(1),
                    Err(e) => {
                        runs("failed").inc(1);
                        failed.push(format!("{id} FAILED: {e}"));
                    }
                }
                println!(
                    "[{id} {} in {:.1}s]",
                    if result.is_ok() { "done" } else { "FAILED" },
                    elapsed.as_secs_f64()
                );
            }
            None => {
                runs("unknown").inc(1);
                failed.push(format!("{want} unknown experiment (try `harness list`)"));
            }
        }
    }

    println!("\n--- harness summary ({} runs) ---", selected.len());
    for line in &failed {
        println!("  ✗ {line}");
    }
    if failed.is_empty() {
        println!("  all experiments passed");
    }
    print!("{}", meter.prometheus());
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
