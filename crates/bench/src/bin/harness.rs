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
//! Every run is recorded in a harness-level journal (one entry per
//! experiment, with outcome and duration) written to
//! `harness_journal.json`, and outcomes are counted in a metrics registry
//! whose Prometheus rendering accompanies the final summary.

use rolljoin_bench::experiments;
use rolljoin_core::{Journal, JournalEntry, Meter};
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

    let journal = Journal::new();
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
                let (outcome, note) = match &result {
                    Ok(()) => ("ok", format!("{id} ok")),
                    Err(e) => ("failed", format!("{id} FAILED: {e}")),
                };
                runs(outcome).inc(1);
                journal.append(
                    JournalEntry::new("experiment")
                        .with_duration_ns(elapsed.as_nanos() as u64)
                        .with_note(note),
                );
                println!(
                    "[{id} {} in {:.1}s]",
                    if result.is_ok() { "done" } else { "FAILED" },
                    elapsed.as_secs_f64()
                );
            }
            None => {
                runs("unknown").inc(1);
                journal.append(
                    JournalEntry::new("experiment")
                        .with_note(format!("{want} unknown experiment (try `harness list`)")),
                );
            }
        }
    }

    // Summary: replay the journal instead of ad-hoc stderr lines.
    let entries = journal.entries();
    let failed: Vec<&JournalEntry> = entries
        .iter()
        .filter(|e| {
            e.note
                .as_deref()
                .is_some_and(|n| n.contains("FAILED") || n.contains("unknown"))
        })
        .collect();
    println!("\n--- harness summary ({} runs) ---", entries.len());
    for e in &failed {
        println!("  ✗ {}", e.note.as_deref().unwrap_or("?"));
    }
    if failed.is_empty() {
        println!("  all experiments passed");
    }
    print!("{}", meter.prometheus());
    match std::fs::write("harness_journal.json", journal.json()) {
        Ok(()) => println!("journal: harness_journal.json ({} entries)", entries.len()),
        Err(e) => println!("(could not write harness_journal.json: {e})"),
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
