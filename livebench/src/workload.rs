//! The three workloads: schema, bulk load, and a seeded op generator.
//!
//! The generator is a pure function of the seed and of the rows it loaded
//! itself: it keeps its own model of the live rows (the updater is the only
//! writer of base tables, so the model is exact), which is what lets the
//! same seed replay the same op sequence on every run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rolljoin::common::{tup, Csn, Result, TableId, Tuple, Value};
use rolljoin::core::{materialize, MaintCtx};
use rolljoin::workload::{Star, TwoWay, Zipf};
use std::time::Duration;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Forward-only star propagation: fact churn, static 10k-row dims.
    StarIngest,
    /// Star with 1k-row dims; 5% of commits update a dim attribute.
    StarDimChurn,
    /// Two-way join with Zipf-keyed cancelling churn on both sides.
    TwoWayHotChurn,
}

impl Kind {
    /// Rows per star dimension (0 for the two-way join).
    fn dim_size(self) -> usize {
        match self {
            Kind::StarIngest => 10_000,
            Kind::StarDimChurn => 1_000,
            Kind::TwoWayHotChurn => 0,
        }
    }
}

/// Fixed parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Open-loop steady-phase rate, commits per second.
    pub rate: f64,
    /// Ops committed per catch-up round while propagate and apply are
    /// suspended.
    pub backlog_ops: usize,
    /// Untimed ops committed after compaction stops, so the oracle has
    /// uncompacted history to check Definition 4.2 on.
    pub tail_ops: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        kind: Kind::StarIngest,
        name: "star_ingest",
        rate: 2_000.0,
        backlog_ops: 40_000,
        tail_ops: 2_000,
    },
    // Not in BENCHMARK.json: its table-lock contention turns host CPU
    // steal into run-to-run swings past any bound (see README.md).
    Spec {
        kind: Kind::StarDimChurn,
        name: "star_dim_churn",
        rate: 500.0,
        backlog_ops: 8_000,
        tail_ops: 1_000,
    },
    Spec {
        kind: Kind::TwoWayHotChurn,
        name: "twoway_hot_churn",
        rate: 250.0,
        backlog_ops: 5_000,
        tail_ops: 1_000,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// Due times, in nanoseconds from the first, of `n` open-loop arrivals at
/// `rate` per second: a Poisson process (exponential gaps), as independent
/// updaters would send. Its own RNG stream, so the op sequence is the same
/// whatever the schedule. Random gaps also keep the commits from locking
/// into phase with the drivers' fixed 1 ms periods, which on a fixed grid
/// made freshness depend on where the grid happened to fall.
pub fn arrivals(seed: u64, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_C3C3_3C3C);
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            if i > 0 {
                t += -(1.0 - rng.gen::<f64>()).ln() / rate * 1e9;
            }
            t as u64
        })
        .collect()
}

const STAR_DIMS: usize = 3;
const STAR_FACTS: usize = 100_000;
const TWOWAY_ROWS: usize = 20_000;
const TWOWAY_KEYS: usize = 1_000;
const ZIPF_THETA: f64 = 0.99;
/// Rows loaded per bulk-load transaction.
const LOAD_BATCH: usize = 10_000;

/// One updater transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Insert(TableId, Tuple),
    Delete(TableId, Tuple),
    /// Delete `old` and insert `new` in one transaction.
    Update(TableId, Tuple, Tuple),
}

impl Op {
    /// Base-table rows this op changes.
    pub fn changes(&self) -> u64 {
        match self {
            Op::Insert(..) | Op::Delete(..) => 1,
            Op::Update(..) => 2,
        }
    }
}

/// Table ids the generator writes to.
#[derive(Debug, Clone)]
pub enum Tables {
    Star { fact: TableId, dims: Vec<TableId> },
    TwoWay { r: TableId, s: TableId },
}

/// Seeded op generator with its own model of the live rows.
pub struct Gen {
    kind: Kind,
    rng: StdRng,
    tables: Tables,
    /// Star: live fact tuples (deletes pick uniformly among them).
    facts: Vec<Tuple>,
    /// Star: current attribute of every dim row, per dim.
    dim_attr: Vec<Vec<i64>>,
    dim_size: usize,
    /// Two-way: live unique ids per side and key, newest last.
    live: [Vec<Vec<i64>>; 2],
    zipf: Option<Zipf>,
    next_id: i64,
}

impl Gen {
    pub fn new(kind: Kind, seed: u64, tables: Tables) -> Gen {
        let dim_size = kind.dim_size();
        let zipf = (kind == Kind::TwoWayHotChurn).then(|| Zipf::new(TWOWAY_KEYS, ZIPF_THETA));
        let dims = match &tables {
            Tables::Star { dims, .. } => dims.len(),
            Tables::TwoWay { .. } => 0,
        };
        Gen {
            kind,
            rng: StdRng::seed_from_u64(seed),
            tables,
            facts: Vec::new(),
            // `Star::setup` loads dim row `pk` with attribute `pk * 10`.
            dim_attr: (0..dims)
                .map(|_| (0..dim_size as i64).map(|pk| pk * 10).collect())
                .collect(),
            dim_size,
            live: [Vec::new(), Vec::new()],
            zipf,
            next_id: 0,
        }
    }

    /// Rows to bulk-load before the view is materialized (the star's dims
    /// are loaded by `Star::setup` itself).
    pub fn preload(&mut self) -> Vec<(TableId, Tuple)> {
        match self.tables.clone() {
            Tables::Star { fact, .. } => (0..STAR_FACTS)
                .map(|_| {
                    let t = self.new_fact();
                    self.facts.push(t.clone());
                    (fact, t)
                })
                .collect(),
            Tables::TwoWay { r, s } => {
                self.live = [vec![Vec::new(); TWOWAY_KEYS], vec![Vec::new(); TWOWAY_KEYS]];
                let mut rows = Vec::with_capacity(2 * TWOWAY_ROWS);
                for i in 0..TWOWAY_ROWS {
                    let key = i % TWOWAY_KEYS;
                    for side in 0..2 {
                        let id = self.fresh_id();
                        self.live[side][key].push(id);
                        rows.push(two_way_row(r, s, side, key, id));
                    }
                }
                rows
            }
        }
    }

    fn fresh_id(&mut self) -> i64 {
        self.next_id += 1;
        self.next_id
    }

    fn new_fact(&mut self) -> Tuple {
        let dim_size = self.dim_size as i64;
        let mut vals: Vec<i64> = (0..STAR_DIMS)
            .map(|_| self.rng.gen_range(0..dim_size))
            .collect();
        // The measure is unique, so every fact tuple is distinct.
        vals.push(self.fresh_id());
        Tuple::new(vals.into_iter().map(Value::Int))
    }

    /// The next op of the sequence.
    pub fn next_op(&mut self) -> Op {
        match self.kind {
            Kind::StarIngest => self.fact_op(),
            Kind::StarDimChurn => {
                if self.rng.gen_bool(0.05) {
                    self.dim_update()
                } else {
                    self.fact_op()
                }
            }
            Kind::TwoWayHotChurn => self.two_way_op(),
        }
    }

    /// Fact insert (60%) or delete of a uniformly chosen live fact (40%).
    fn fact_op(&mut self) -> Op {
        let Tables::Star { fact, .. } = self.tables else {
            unreachable!("star op on a star workload")
        };
        if self.facts.is_empty() || self.rng.gen_bool(0.6) {
            let t = self.new_fact();
            self.facts.push(t.clone());
            Op::Insert(fact, t)
        } else {
            let i = self.rng.gen_range(0..self.facts.len());
            Op::Delete(fact, self.facts.swap_remove(i))
        }
    }

    fn dim_update(&mut self) -> Op {
        let Tables::Star { ref dims, .. } = self.tables else {
            unreachable!("star op on a star workload")
        };
        let d = self.rng.gen_range(0..dims.len());
        let table = dims[d];
        let pk = self.rng.gen_range(0..self.dim_size);
        let old = self.dim_attr[d][pk];
        let new = self.rng.gen_range(0..1_000_000i64);
        self.dim_attr[d][pk] = new;
        Op::Update(table, tup![pk as i64, old], tup![pk as i64, new])
    }

    /// Zipf-keyed churn on a random side. A key's live count stays within
    /// one row of its load size, so the live size is flat and every key
    /// keeps the same fan-out on every seed; deletes take the newest row
    /// of the key, so much of the churn cancels within a propagation
    /// interval.
    fn two_way_op(&mut self) -> Op {
        let Tables::TwoWay { r, s } = self.tables else {
            unreachable!("two-way op on a two-way workload")
        };
        let side = self.rng.gen_range(0..2usize);
        let key = self
            .zipf
            .as_ref()
            .expect("two-way workload has a Zipf sampler")
            .sample(&mut self.rng);
        let base = TWOWAY_ROWS / TWOWAY_KEYS;
        let insert = match self.live[side][key].len().cmp(&base) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.rng.gen_bool(0.5),
        };
        if insert {
            let id = self.fresh_id();
            self.live[side][key].push(id);
            let (t, row) = two_way_row(r, s, side, key, id);
            Op::Insert(t, row)
        } else {
            let id = self.live[side][key].pop().expect("count above 0");
            let (t, row) = two_way_row(r, s, side, key, id);
            Op::Delete(t, row)
        }
    }
}

/// `R(a, b)` rows carry the id in `a`, `S(b, c)` rows in `c`; `b` is the key.
fn two_way_row(r: TableId, s: TableId, side: usize, key: usize, id: i64) -> (TableId, Tuple) {
    if side == 0 {
        (r, tup![id, key as i64])
    } else {
        (s, tup![key as i64, id])
    }
}

/// A loaded, materialized, capture-warm pipeline ready for drivers.
pub struct Loaded {
    pub ctx: MaintCtx,
    /// Materialization CSN: where propagation starts.
    pub mat: Csn,
    pub gen: Gen,
}

/// How long propagation waits for the capture driver before failing.
const CAPTURE_WAIT_POLL: Duration = Duration::from_micros(100);
const CAPTURE_WAIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Build the schema, bulk-load, index every join column's delta, then
/// materialize. Capture catches up after the load and again after
/// materialization, so no setup transaction reaches the timed phases.
pub fn setup(spec: &Spec, seed: u64) -> Result<Loaded> {
    let (ctx, tables, delta_index_cols): (MaintCtx, Tables, Vec<(TableId, usize)>) = match spec.kind
    {
        Kind::StarIngest | Kind::StarDimChurn => {
            let star = Star::setup(spec.name, STAR_DIMS, spec.kind.dim_size())?;
            let mut cols: Vec<(TableId, usize)> = (0..STAR_DIMS).map(|i| (star.fact, i)).collect();
            cols.extend(star.dims.iter().map(|d| (*d, 0)));
            let tables = Tables::Star {
                fact: star.fact,
                dims: star.dims.clone(),
            };
            (star.ctx(), tables, cols)
        }
        Kind::TwoWayHotChurn => {
            let w = TwoWay::setup(spec.name)?;
            let tables = Tables::TwoWay { r: w.r, s: w.s };
            (w.ctx(), tables, vec![(w.r, 1), (w.s, 0)])
        }
    };
    let engine = ctx.engine.clone();
    let mut gen = Gen::new(spec.kind, seed, tables);
    for batch in gen.preload().chunks(LOAD_BATCH) {
        let mut txn = engine.begin();
        for (table, tuple) in batch {
            txn.insert(*table, tuple.clone())?;
        }
        txn.commit()?;
    }
    engine.capture_catch_up()?;
    for (table, col) in delta_index_cols {
        engine.create_delta_index(table, col)?;
    }
    let ctx = ctx.with_blocking_capture(CAPTURE_WAIT_POLL, CAPTURE_WAIT_TIMEOUT);
    let mat = materialize(&ctx)?;
    engine.capture_catch_up()?;
    Ok(Loaded { ctx, mat, gen })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(kind: Kind, seed: u64, n: usize) -> Vec<Op> {
        let tables = match kind {
            Kind::TwoWayHotChurn => Tables::TwoWay {
                r: TableId(1),
                s: TableId(2),
            },
            _ => Tables::Star {
                fact: TableId(1),
                dims: vec![TableId(2), TableId(3), TableId(4)],
            },
        };
        let mut g = Gen::new(kind, seed, tables);
        let mut out: Vec<Op> = g
            .preload()
            .into_iter()
            .map(|(t, row)| Op::Insert(t, row))
            .collect();
        out.extend((0..n).map(|_| g.next_op()));
        out
    }

    #[test]
    fn same_seed_replays_the_same_op_sequence() {
        for spec in WORKLOADS {
            let a = ops(spec.kind, 7, 5_000);
            assert_eq!(a, ops(spec.kind, 7, 5_000), "{}", spec.name);
            assert_ne!(a, ops(spec.kind, 8, 5_000), "{}", spec.name);
        }
    }

    #[test]
    fn arrivals_replay_per_seed_at_the_given_rate() {
        let a = arrivals(5, 500.0, 20_000);
        assert_eq!(a, arrivals(5, 500.0, 20_000));
        assert_ne!(a, arrivals(6, 500.0, 20_000));
        assert_eq!(a[0], 0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 20k gaps of mean 2 ms: the span is 40 s to within a few percent.
        let span = *a.last().unwrap() as f64 / 1e9;
        assert!((span - 40.0).abs() < 1.5, "span {span} s");
    }

    #[test]
    fn deletes_only_remove_live_rows() {
        for spec in WORKLOADS {
            let mut live: std::collections::HashMap<(TableId, Tuple), i64> = Default::default();
            for op in ops(spec.kind, 3, 20_000) {
                let (ins, del) = match op {
                    Op::Insert(t, row) => (Some((t, row)), None),
                    Op::Delete(t, row) => (None, Some((t, row))),
                    Op::Update(t, old, new) => (Some((t, new)), Some((t, old))),
                };
                if let Some(k) = del {
                    // Dim rows come from `Star::setup`, not the generator.
                    if let Some(c) = live.get_mut(&k) {
                        *c -= 1;
                        assert!(*c >= 0, "{}: deleted a dead row", spec.name);
                    } else {
                        assert_eq!(spec.kind, Kind::StarDimChurn, "{}", spec.name);
                    }
                }
                if let Some(k) = ins {
                    *live.entry(k).or_default() += 1;
                }
            }
        }
    }

    #[test]
    fn two_way_live_size_stays_flat() {
        let tables = Tables::TwoWay {
            r: TableId(1),
            s: TableId(2),
        };
        let mut g = Gen::new(Kind::TwoWayHotChurn, 11, tables);
        g.preload();
        for _ in 0..50_000 {
            g.next_op();
        }
        let base = TWOWAY_ROWS / TWOWAY_KEYS;
        for side in &g.live {
            for key in side {
                assert!(key.len() + 1 >= base && key.len() <= base + 1);
            }
        }
    }
}
