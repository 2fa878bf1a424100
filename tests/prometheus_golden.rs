//! Golden Prometheus export of a fixed, sequential two-way rolling run:
//! every counter and gauge sample, plus each histogram's `_count`, is
//! pinned. The registry is always on, so the export must not depend on
//! the tracing level.

use rolljoin::core::{
    materialize, roll_to, ExecTuning, MaintCtx, ObsConfig, RollingPropagator, UniformInterval,
};
use rolljoin::workload::{int_pair_stream, TwoWay, UpdateMix};

fn golden_run(obs: ObsConfig) -> MaintCtx {
    let w = TwoWay::setup("golden").unwrap();
    w.engine.create_delta_index(w.r, 1).unwrap();
    w.engine.create_delta_index(w.s, 0).unwrap();
    let ctx = w.ctx().with_tuning(ExecTuning::sequential().with_obs(obs));
    let load = UpdateMix {
        delete_frac: 0.0,
        update_frac: 0.0,
    };
    int_pair_stream(w.r, 1, load, 32)
        .load(&w.engine, 100)
        .unwrap();
    int_pair_stream(w.s, 2, load, 32)
        .load(&w.engine, 100)
        .unwrap();
    let t0 = materialize(&ctx).unwrap();
    let churn = UpdateMix {
        delete_frac: 0.25,
        update_frac: 0.25,
    };
    let mut sr = int_pair_stream(w.r, 7, churn, 32);
    let mut ss = int_pair_stream(w.s, 8, churn, 32);
    let mut roller = RollingPropagator::new(ctx.clone(), t0);
    let mut policy = UniformInterval(3);
    for _ in 0..8 {
        for _ in 0..4 {
            sr.step(&w.engine).unwrap();
            ss.step(&w.engine).unwrap();
        }
        roller.step(&mut policy).unwrap();
    }
    w.engine.capture_catch_up().unwrap();
    let hwm = roller
        .drain_to(w.engine.current_csn(), &mut policy)
        .unwrap();
    roll_to(&ctx, hwm).unwrap();
    ctx.compact_stores().unwrap();
    ctx
}

/// Every counter and gauge sample plus each histogram's `_count`; timing
/// sums and buckets are left out.
fn pinned_lines(text: &str) -> String {
    let histograms: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.strip_suffix(" histogram"))
        .collect();
    let mut out = String::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let name = line.split(['{', ' ']).next().unwrap();
        let timing = histograms
            .iter()
            .any(|h| name == format!("{h}_bucket") || name == format!("{h}_sum"));
        if !timing {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn prometheus_golden_two_way_rolling_run() {
    let golden = "\
rolljoin_capture_hwm_csn 142
rolljoin_compaction_bytes_reclaimed_total{store=\"base\"} 19584
rolljoin_compaction_bytes_reclaimed_total{store=\"vd\"} 10864
rolljoin_compaction_rows_removed_total{store=\"base\"} 272
rolljoin_compaction_rows_removed_total{store=\"vd\"} 194
rolljoin_delta_index_probe_rows_total 24
rolljoin_delta_index_total{decision=\"probe\"} 26
rolljoin_delta_index_total{decision=\"scan\"} 0
rolljoin_delta_postings_bytes 0
rolljoin_interval_width_csn{rel=\"0\"} 2
rolljoin_interval_width_csn{rel=\"1\"} 2
rolljoin_lock_acquisitions_total{gran=\"table\"} 445
rolljoin_lock_timeouts_total{gran=\"table\"} 0
rolljoin_lock_wait_us_count{gran=\"table\"} 0
rolljoin_lock_waits_total{gran=\"table\"} 0
rolljoin_mat_time_csn 142
rolljoin_max_queue_depth 1
rolljoin_max_txn_rows 18
rolljoin_net_rows_in_total 44
rolljoin_net_rows_saved_total 4
rolljoin_prop_hwm_csn 142
rolljoin_propagation_lag_csn 0
rolljoin_queries_total{kind=\"comp\"} 26
rolljoin_queries_total{kind=\"forward\"} 48
rolljoin_query_lock_wait_us_count 74
rolljoin_query_wall_us_count 74
rolljoin_rows_read_total{slot=\"base\"} 174
rolljoin_rows_read_total{slot=\"delta\"} 129
rolljoin_steps_skipped_empty_total 46
rolljoin_steps_total{kind=\"apply\"} 1
rolljoin_steps_total{kind=\"compaction\"} 1
rolljoin_steps_total{kind=\"propagate\"} 0
rolljoin_steps_total{kind=\"rolling\"} 94
rolljoin_vd_rows_written_total 194
rolljoin_view_staleness_csn 0
rolljoin_worker_busy_ns_total 0
";
    for obs in [ObsConfig::Off, ObsConfig::Full] {
        let ctx = golden_run(obs);
        assert_eq!(pinned_lines(&ctx.prometheus().unwrap()), golden, "{obs:?}");
    }
}
