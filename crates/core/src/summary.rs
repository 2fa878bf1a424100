//! Summary-delta aggregation views (paper §2/§6 extension).
//!
//! "Rolling propagation … can also be extended to accommodate
//! select-project-join views with aggregation by using summary delta
//! tables, as described in \[8\]" (Mumick, Quass, Mumick — *Maintenance of
//! Data Cubes and Summary Tables in a Warehouse*). A summary-delta records
//! the net change to each group's aggregates over a time window; applying
//! it folds those changes into the aggregate table.
//!
//! [`SummaryView`] layers exactly that on top of a rolling-maintained SPJ
//! view: the underlying view's timestamped **view delta** is grouped into a
//! summary delta, which is then applied to a stored aggregate table — so
//! the aggregate view inherits asynchronous propagation and point-in-time
//! refresh for free.

use crate::execute::MaintCtx;
use rolljoin_common::{
    ColumnType, Csn, Error, Result, Schema, TableId, TimeInterval, Tuple, Value,
};
use rolljoin_storage::LockMode;
use std::collections::HashMap;

/// An aggregate function over the underlying view's output columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// `COUNT(*)` of view rows in the group.
    Count,
    /// `SUM(col)` of an integer view column.
    Sum(usize),
    /// `MIN(col)` of an integer view column. Holistic: a deletion can
    /// remove the current extreme, so changed groups are recomputed from
    /// the materialized view — which must therefore be rolled to the same
    /// target before [`SummaryView::refresh_to`].
    Min(usize),
    /// `MAX(col)`; same recompute caveat as [`AggFn::Min`].
    Max(usize),
}

impl AggFn {
    /// Algebraic aggregates fold incrementally from the delta alone;
    /// holistic ones (MIN/MAX) need the group recomputed on change.
    pub fn is_algebraic(&self) -> bool {
        matches!(self, AggFn::Count | AggFn::Sum(_))
    }

    fn source_col(&self) -> Option<usize> {
        match self {
            AggFn::Count => None,
            AggFn::Sum(c) | AggFn::Min(c) | AggFn::Max(c) => Some(*c),
        }
    }
}

/// Aggregation shape: `GROUP BY group_by` with one or more aggregates.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// View output columns to group by.
    pub group_by: Vec<usize>,
    /// Aggregates to maintain.
    pub aggregates: Vec<AggFn>,
}

/// One group's net change over a window — an entry of a summary delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryDeltaRow {
    pub group: Tuple,
    /// Net change per aggregate (for `Count`: row-count change; for
    /// `Sum(c)`: signed sum change).
    pub changes: Vec<i64>,
}

/// A maintained aggregate view over an SPJ view's delta stream.
pub struct SummaryView {
    ctx: MaintCtx,
    spec: AggSpec,
    /// Aggregate storage: group columns, then `COUNT(*)`, then one column
    /// per aggregate.
    pub sv_table: TableId,
    mat_time: Csn,
}

impl SummaryView {
    /// Register an aggregate view over `ctx`'s view. The aggregate table is
    /// named `<view>__sv` and starts empty at the underlying view's current
    /// materialization time (normally 0; materialize through the summary
    /// view by rolling it forward).
    pub fn register(ctx: MaintCtx, spec: AggSpec) -> Result<SummaryView> {
        let out = ctx.mv.view.output_schema();
        for &g in &spec.group_by {
            if g >= out.arity() {
                return Err(Error::Invalid(format!("group-by column {g} out of range")));
            }
        }
        for agg in &spec.aggregates {
            if let Some(c) = agg.source_col() {
                if c >= out.arity() {
                    return Err(Error::Invalid(format!("aggregate column {c} out of range")));
                }
                if out.column_type(c) != ColumnType::Int {
                    return Err(Error::Invalid(format!(
                        "aggregate over non-integer column {c} ({})",
                        out.column_type(c)
                    )));
                }
            }
        }
        let mut cols: Vec<(String, ColumnType)> = spec
            .group_by
            .iter()
            .map(|&g| (out.name(g).to_string(), out.column_type(g)))
            .collect();
        cols.push(("__rows".to_string(), ColumnType::Int));
        for (k, agg) in spec.aggregates.iter().enumerate() {
            let name = match agg {
                AggFn::Count => format!("count_{k}"),
                AggFn::Sum(c) => format!("sum_{}_{k}", out.name(*c)),
                AggFn::Min(c) => format!("min_{}_{k}", out.name(*c)),
                AggFn::Max(c) => format!("max_{}_{k}", out.name(*c)),
            };
            cols.push((name, ColumnType::Int));
        }
        let sv_table = ctx
            .engine
            .create_view_table(&format!("{}__sv", ctx.mv.view.name), Schema::new(cols))?;
        let mat_time = ctx.mv.mat_time();
        Ok(SummaryView {
            ctx,
            spec,
            sv_table,
            mat_time,
        })
    }

    /// The time the aggregates currently reflect.
    pub fn mat_time(&self) -> Csn {
        self.mat_time
    }

    /// Compute the summary delta for `(self.mat_time, target]` from the
    /// underlying view delta (paper \[8\]'s summary-delta table).
    pub fn summary_delta(&self, target: Csn) -> Result<Vec<SummaryDeltaRow>> {
        let net = self.ctx.engine.vd_net_range(
            self.ctx.mv.vd_table,
            TimeInterval::new(self.mat_time, target),
        )?;
        let mut groups: HashMap<Tuple, Vec<i64>> = HashMap::new();
        // Slot 0 tracks the row count; aggregates follow.
        let width = 1 + self.spec.aggregates.len();
        for (tuple, count) in net {
            let key = tuple.project(&self.spec.group_by);
            let entry = groups.entry(key).or_insert_with(|| vec![0; width]);
            entry[0] += count;
            for (k, agg) in self.spec.aggregates.iter().enumerate() {
                entry[k + 1] += match agg {
                    AggFn::Count => count,
                    AggFn::Sum(c) => {
                        let v = tuple.get(*c);
                        match v {
                            Value::Int(x) => count * x,
                            Value::Null => 0,
                            other => {
                                return Err(Error::Internal(format!(
                                    "SUM over non-integer value {other}"
                                )))
                            }
                        }
                    }
                    // Holistic: the per-group value is recomputed during
                    // refresh; the delta entry just marks the group dirty.
                    AggFn::Min(_) | AggFn::Max(_) => 0,
                };
            }
        }
        let mut rows: Vec<SummaryDeltaRow> = groups
            .into_iter()
            .filter(|(_, changes)| changes.iter().any(|&c| c != 0))
            .map(|(group, changes)| SummaryDeltaRow { group, changes })
            .collect();
        rows.sort_by(|a, b| a.group.cmp(&b.group));
        Ok(rows)
    }

    /// Roll the aggregate table forward to `target ≤` the underlying
    /// view-delta HWM, folding the summary delta into the stored groups.
    pub fn refresh_to(&mut self, target: Csn) -> Result<usize> {
        if target < self.mat_time {
            return Err(Error::RollBackward {
                requested: target,
                current: self.mat_time,
            });
        }
        if target > self.ctx.mv.hwm() {
            return Err(Error::BeyondHighWaterMark {
                requested: target,
                hwm: self.ctx.mv.hwm(),
            });
        }
        let holistic = self.spec.aggregates.iter().any(|a| !a.is_algebraic());
        if holistic && self.ctx.mv.mat_time() != target {
            return Err(Error::Invalid(format!(
                "MIN/MAX aggregates need the materialized view rolled to the \
                 refresh target first (mv at {}, target {target})",
                self.ctx.mv.mat_time()
            )));
        }
        let sd = self.summary_delta(target)?;
        let mut txn = self.ctx.engine.begin();
        txn.lock(self.ctx.mv.vd_table, LockMode::Shared)?;
        if holistic {
            txn.lock(self.ctx.mv.mv_table, LockMode::Shared)?;
        }
        txn.lock(self.sv_table, LockMode::Exclusive)?;
        // For holistic recompute: the rolled view's rows grouped by key.
        let mv_groups: HashMap<Tuple, Vec<(Tuple, i64)>> = if holistic {
            let mut m: HashMap<Tuple, Vec<(Tuple, i64)>> = HashMap::new();
            for (tuple, count) in txn.scan_counts(self.ctx.mv.mv_table)? {
                m.entry(tuple.project(&self.spec.group_by))
                    .or_default()
                    .push((tuple, count));
            }
            m
        } else {
            HashMap::new()
        };
        // Index current groups.
        let gcols: Vec<usize> = (0..self.spec.group_by.len()).collect();
        let current: HashMap<Tuple, Tuple> = txn
            .scan(self.sv_table)?
            .into_iter()
            .map(|row| (row.project(&gcols), row))
            .collect();
        let changed = sd.len();
        for row in sd {
            let (mut rows_cnt, mut aggs): (i64, Vec<i64>) = match current.get(&row.group) {
                Some(old) => {
                    let base = self.spec.group_by.len();
                    let rows_cnt = old
                        .get(base)
                        .as_int()
                        .ok_or_else(|| Error::Internal("bad __rows".into()))?;
                    let aggs = (0..self.spec.aggregates.len())
                        .map(|k| {
                            old.get(base + 1 + k)
                                .as_int()
                                .ok_or_else(|| Error::Internal("bad agg".into()))
                        })
                        .collect::<Result<Vec<i64>>>()?;
                    txn.delete_one(self.sv_table, old)?;
                    (rows_cnt, aggs)
                }
                None => (0, vec![0; self.spec.aggregates.len()]),
            };
            rows_cnt += row.changes[0];
            for (k, a) in aggs.iter_mut().enumerate() {
                *a += row.changes[k + 1];
            }
            if rows_cnt < 0 {
                return Err(Error::Internal(format!(
                    "group {} fell below zero rows",
                    row.group
                )));
            }
            if rows_cnt > 0 {
                // Recompute holistic aggregates for the dirty group from
                // the rolled view.
                for (k, agg) in self.spec.aggregates.iter().enumerate() {
                    let (col, is_min) = match agg {
                        AggFn::Min(c) => (*c, true),
                        AggFn::Max(c) => (*c, false),
                        _ => continue,
                    };
                    let members = mv_groups.get(&row.group).ok_or_else(|| {
                        Error::Internal(format!(
                            "group {} has {rows_cnt} rows but is absent from the view",
                            row.group
                        ))
                    })?;
                    let vals = members.iter().filter_map(|(t, _)| t.get(col).as_int());
                    aggs[k] = if is_min { vals.min() } else { vals.max() }
                        .ok_or_else(|| Error::Internal("empty group extremes".into()))?;
                }
                let mut values: Vec<Value> = row.group.values().to_vec();
                values.push(Value::Int(rows_cnt));
                values.extend(aggs.into_iter().map(Value::Int));
                txn.insert(self.sv_table, Tuple::from(values))?;
            }
        }
        txn.commit()?;
        self.mat_time = target;
        Ok(changed)
    }

    /// Current aggregate state: group → (row count, aggregate values).
    pub fn state(&self) -> Result<HashMap<Tuple, (i64, Vec<i64>)>> {
        let mut txn = self.ctx.engine.begin();
        let rows = txn.scan(self.sv_table)?;
        txn.commit()?;
        let gcols: Vec<usize> = (0..self.spec.group_by.len()).collect();
        let base = self.spec.group_by.len();
        rows.into_iter()
            .map(|row| {
                let key = row.project(&gcols);
                let cnt = row
                    .get(base)
                    .as_int()
                    .ok_or_else(|| Error::Internal("bad __rows".into()))?;
                let aggs = (0..self.spec.aggregates.len())
                    .map(|k| {
                        row.get(base + 1 + k)
                            .as_int()
                            .ok_or_else(|| Error::Internal("bad agg".into()))
                    })
                    .collect::<Result<Vec<i64>>>()?;
                Ok((key, (cnt, aggs)))
            })
            .collect()
    }
}
