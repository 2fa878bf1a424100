//! Parallel propagation in a nutshell: run one `ComputeDelta` over a
//! 4-way chain view with a worker pool, then print the executor
//! instrumentation — queries, rows, worker busy time and queue depth.
//!
//! ```sh
//! cargo run --example parallel_propagation
//! ```

use rolljoin::common::tup;
use rolljoin::core::{compute_delta, materialize, PropQuery};
use rolljoin::workload::Chain;

fn main() {
    let c = Chain::setup("parallel_demo", 4).unwrap();
    let ctx = c.ctx().with_workers(4);
    let mat = materialize(&ctx).unwrap();

    // A little churn across all four chain tables.
    for i in 0..12i64 {
        let t = i as usize % 4;
        let mut txn = ctx.engine.begin();
        txn.insert(c.tables[t], tup![i % 3, i % 3]).unwrap();
        txn.commit().unwrap();
    }

    let end = ctx.engine.current_csn();
    compute_delta(&ctx, &PropQuery::all_base(4), 1, &[mat; 4], end).unwrap();

    let s = ctx.stats.snapshot();
    println!("constituent queries    {}", s.total_queries());
    println!("vd rows written        {}", s.vd_rows_written);
    println!("max queue depth        {}", s.max_queue_depth);
    println!(
        "worker busy / query wall  {:.2} ms / {:.2} ms",
        s.worker_busy_nanos as f64 / 1e6,
        s.query_wall_nanos as f64 / 1e6
    );
    println!(
        "rows read              {} base / {} delta",
        s.base_rows_read, s.delta_rows_read
    );
}
