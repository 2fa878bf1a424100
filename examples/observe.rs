//! Observability tour + smoke checker: run a rolling propagation under
//! `ObsConfig::Full`, then verify the two exported artifacts — a
//! Chrome-loadable span trace showing the compensation recursion tree and
//! one `rolling_step` span per rolling step, and a Prometheus snapshot
//! whose `propagation_lag` / `view_staleness` gauges drop to 0 after a
//! quiesced roll.
//!
//! Run with: `cargo run --release --example observe`
//!
//! Artifacts land in `target/observe/` (`trace.json` loads in
//! `chrome://tracing` / Perfetto).

use rolljoin::core::{materialize, oracle, roll_to, ObsConfig, RollingPropagator, UniformInterval};
use rolljoin::workload::{int_pair_stream, TwoWay, UpdateMix};

fn main() -> rolljoin::Result<()> {
    // 1. A two-way join view with full observability enabled.
    let w = TwoWay::setup("obs_demo")?;
    let ctx = w.ctx().with_obs_config(ObsConfig::Full);

    let load = UpdateMix {
        delete_frac: 0.0,
        update_frac: 0.0,
    };
    int_pair_stream(w.r, 1, load, 64).load(&w.engine, 200)?;
    int_pair_stream(w.s, 2, load, 64).load(&w.engine, 200)?;
    let t0 = materialize(&ctx)?;

    // 2. Interleave updater churn with single-relation rolling steps so the
    //    forward frontiers diverge and compensation queries actually fire.
    let churn = UpdateMix {
        delete_frac: 0.25,
        update_frac: 0.25,
    };
    let mut sr = int_pair_stream(w.r, 7, churn, 64);
    let mut ss = int_pair_stream(w.s, 8, churn, 64);
    let mut roller = RollingPropagator::new(ctx.clone(), t0);
    let mut policy = UniformInterval(4);
    const ROUNDS: usize = 12;
    for _ in 0..ROUNDS {
        for _ in 0..6 {
            sr.step(&w.engine)?;
            ss.step(&w.engine)?;
        }
        roller.step(&mut policy)?;
    }

    // 3. Quiesce: catch capture up, drain propagation to the last commit,
    //    then roll the materialized view all the way to the HWM.
    w.engine.capture_catch_up()?;
    let now = w.engine.current_csn();
    // Propagation transactions commit too, so the drained HWM lands at or
    // past `now` — wherever the database quiesced.
    let hwm = roller.drain_to(now, &mut policy)?;
    assert!(hwm >= now, "drain_to must reach the last pre-drain commit");
    roll_to(&ctx, hwm)?;

    // 4. Export the two artifacts, then check the MV against the oracle.
    //    The oracle's time travel catches capture up to the log end, which
    //    would count the roll's own commit in the lag gauges checked below.
    let trace = ctx.obs.spans.chrome_trace_json();
    let prom = ctx.prometheus()?;
    assert_eq!(
        oracle::mv_state(&w.engine, &ctx.mv)?,
        oracle::view_at(&w.engine, &ctx.mv.view, hwm)?,
        "materialized view must match the oracle at the HWM"
    );
    let dir = std::path::Path::new("target/observe");
    std::fs::create_dir_all(dir).expect("create target/observe");
    std::fs::write(dir.join("trace.json"), &trace).expect("write trace.json");
    std::fs::write(dir.join("metrics.prom"), &prom).expect("write metrics.prom");

    // 5. Checker — trace: structurally balanced JSON, and every
    //    compensation query span hangs off a parent (the recursion tree).
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    assert!(trace.starts_with("{\"displayTimeUnit\""));
    assert!(trace.trim_end().ends_with("]}"), "trace array must close");
    let spans = ctx.obs.spans.finished();
    let comp: Vec<_> = spans.iter().filter(|s| s.name == "comp").collect();
    assert!(!comp.is_empty(), "expected compensation query spans");
    for s in &comp {
        assert_ne!(s.parent, 0, "comp span {} must have a parent", s.id);
        let depth = s.args.iter().find(|(k, _)| *k == "depth").map(|(_, v)| *v);
        assert!(depth >= Some(1), "comp span {} must sit at depth ≥ 1", s.id);
    }
    assert!(spans.iter().any(|s| s.name == "rolling_step"));
    assert!(spans.iter().any(|s| s.name == "roll_to"));

    // 6. Checker — metrics: both headline gauges are 0 once quiesced and
    //    rolled, and the comp-query counter matches the trace.
    assert!(
        prom.contains("rolljoin_propagation_lag_csn 0\n"),
        "propagation lag must be 0 after a drained quiesce"
    );
    assert!(
        prom.contains("rolljoin_view_staleness_csn 0\n"),
        "view staleness must be 0 after roll_to(hwm)"
    );
    assert!(prom.contains("rolljoin_queries_total{kind=\"comp\"}"));
    assert!(prom.contains("rolljoin_lock_wait_us"));

    // 7. Checker — steps: one `rolling_step` span per rolling step the
    //    registry counted (empty-delta skips during the drain included),
    //    each with its interval and the HWM after it.
    let counted = |name, label| ctx.meter.counter_l(name, label, "").get() as usize;
    let steps: Vec<_> = spans.iter().filter(|s| s.name == "rolling_step").collect();
    assert!(steps.len() >= ROUNDS);
    assert_eq!(
        steps.len(),
        counted("rolljoin_steps_total", Some(("kind", "rolling")))
    );
    for s in &steps {
        for key in ["rel", "lo", "hi", "hwm"] {
            assert!(
                s.args.iter().any(|(k, _)| *k == key),
                "rolling_step {} lacks {key}",
                s.id
            );
        }
    }
    let skipped = steps
        .iter()
        .filter(|s| s.args.iter().any(|(k, _)| *k == "skipped_empty"))
        .count();
    assert_eq!(skipped, counted("rolljoin_steps_skipped_empty_total", None));

    println!(
        "observe: {} spans ({} comp, {} rolling steps, {skipped} skipped), gauges at 0 — artifacts in target/observe/",
        spans.len(),
        comp.len(),
        steps.len()
    );
    println!("\nslowest spans:\n{}", ctx.obs.spans.format_top_spans(8));
    Ok(())
}
