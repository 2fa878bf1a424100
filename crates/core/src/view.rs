//! Select–project–join view definitions.
//!
//! A view `V = π(σ(R^1 ⋈ R^2 ⋈ … ⋈ R^n))` (paper §2) is an ordered list of
//! base tables plus the join shape ([`JoinSpec`]) they share with every
//! propagation query derived from the view.

use rolljoin_common::{Error, Result, Schema, TableId};
use rolljoin_relalg::JoinSpec;
use rolljoin_storage::{Engine, TableKind};

/// Definition of an SPJ view over `n` base tables.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View name (used to derive MV / view-delta table names).
    pub name: String,
    /// The underlying base tables `R^1 … R^n`, in slot order. The order is
    /// semantically irrelevant to the view but *operationally* significant
    /// to `RollingPropagate`: forward queries for `R^i` compensate overlap
    /// with relations numbered below `i` (paper Fig. 10).
    pub bases: Vec<TableId>,
    /// Join/selection/projection shape.
    pub spec: JoinSpec,
}

impl ViewDef {
    /// Build and validate a view definition against the engine's catalog.
    pub fn new(
        engine: &Engine,
        name: impl Into<String>,
        bases: Vec<TableId>,
        spec: JoinSpec,
    ) -> Result<Self> {
        let v = ViewDef {
            name: name.into(),
            bases,
            spec,
        };
        v.validate(engine)?;
        Ok(v)
    }

    /// Number of base relations `n`.
    pub fn n(&self) -> usize {
        self.bases.len()
    }

    /// Output (projected) schema of the view.
    pub fn output_schema(&self) -> Schema {
        self.spec.output_schema()
    }

    /// Check that every slot is a base table whose schema the slot
    /// declares, and the join shape's column references. A view-owned
    /// table (another view's MV, the control table) or a view delta table
    /// has no delta history to propagate, so it cannot be a slot.
    pub fn validate(&self, engine: &Engine) -> Result<()> {
        if self.bases.is_empty() {
            return Err(Error::Invalid("view needs at least one base table".into()));
        }
        if self.bases.len() != self.spec.slot_schemas.len() {
            return Err(Error::Invalid(format!(
                "view {} has {} bases but {} slot schemas",
                self.name,
                self.bases.len(),
                self.spec.slot_schemas.len()
            )));
        }
        for (i, (base, slot)) in self.bases.iter().zip(&self.spec.slot_schemas).enumerate() {
            let kind = engine.table_kind(*base)?;
            if kind != TableKind::Base {
                return Err(Error::Invalid(format!(
                    "view {} slot {i}: table {base} is {kind:?}, not a base table",
                    self.name
                )));
            }
            let actual = engine.schema(*base)?;
            if actual != *slot {
                return Err(Error::SchemaMismatch(format!(
                    "view {} slot {i}: table {base} has schema {actual}, view declares {slot}",
                    self.name
                )));
            }
        }
        self.spec.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolljoin_common::ColumnType;

    fn setup() -> (Engine, TableId, TableId) {
        let e = Engine::new();
        let r = e
            .create_table(
                "r",
                Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]),
            )
            .unwrap();
        let s = e
            .create_table(
                "s",
                Schema::new([("b", ColumnType::Int), ("c", ColumnType::Int)]),
            )
            .unwrap();
        (e, r, s)
    }

    fn spec(e: &Engine, r: TableId, s: TableId) -> JoinSpec {
        JoinSpec {
            slot_schemas: vec![e.schema(r).unwrap(), e.schema(s).unwrap()],
            equi: vec![(1, 2)],
            filter: None,
            projection: vec![0, 3],
        }
    }

    #[test]
    fn valid_view_constructs() {
        let (e, r, s) = setup();
        let v = ViewDef::new(&e, "v", vec![r, s], spec(&e, r, s)).unwrap();
        assert_eq!(v.n(), 2);
        assert_eq!(v.output_schema().arity(), 2);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let (e, r, s) = setup();
        let mut sp = spec(&e, r, s);
        sp.slot_schemas[1] = Schema::new([("z", ColumnType::Str)]);
        assert!(ViewDef::new(&e, "v", vec![r, s], sp).is_err());
    }

    #[test]
    fn view_over_a_view_owned_table_rejected() {
        let (e, r, s) = setup();
        let v = ViewDef::new(&e, "v", vec![r, s], spec(&e, r, s)).unwrap();
        let mv = crate::MaterializedView::register(&e, v).unwrap();
        let over_mv = JoinSpec {
            slot_schemas: vec![e.schema(mv.mv_table).unwrap()],
            equi: vec![],
            filter: None,
            projection: vec![0, 1],
        };
        let err = ViewDef::new(&e, "w", vec![mv.mv_table], over_mv.clone()).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        let over_vd = JoinSpec {
            slot_schemas: vec![e.schema(mv.vd_table).unwrap()],
            ..over_mv
        };
        assert!(ViewDef::new(&e, "w", vec![mv.vd_table], over_vd).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (e, r, s) = setup();
        let sp = spec(&e, r, s);
        assert!(ViewDef::new(&e, "v", vec![r], sp).is_err());
        assert!(ViewDef::new(
            &e,
            "v",
            vec![],
            JoinSpec {
                slot_schemas: vec![],
                equi: vec![],
                filter: None,
                projection: vec![],
            }
        )
        .is_err());
    }
}
