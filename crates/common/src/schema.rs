//! Table schemas.

use crate::{Error, Result, Tuple};
use std::fmt;
use std::sync::Arc;

/// The static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    Bool,
    Int,
    Float,
    Str,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Bool => "BOOL",
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Str => "STR",
        };
        f.write_str(s)
    }
}

/// An ordered list of named, typed columns.
///
/// Schemas are shared (`Arc` internally) because every tuple-producing
/// operator carries one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Arc<[(String, ColumnType)]>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(columns: impl IntoIterator<Item = (impl Into<String>, ColumnType)>) -> Self {
        Schema {
            columns: columns
                .into_iter()
                .map(|(n, t)| (n.into(), t))
                .collect::<Vec<_>>()
                .into(),
        }
    }

    /// Schema with zero columns.
    pub fn empty() -> Self {
        Schema::new(Vec::<(String, ColumnType)>::new())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column name at `idx`.
    pub fn name(&self, idx: usize) -> &str {
        &self.columns[idx].0
    }

    /// Column type at `idx`.
    pub fn column_type(&self, idx: usize) -> ColumnType {
        self.columns[idx].1
    }

    /// All columns as `(name, type)` pairs.
    pub fn columns(&self) -> &[(String, ColumnType)] {
        &self.columns
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Concatenate two schemas (join output), prefixing clashes is the
    /// caller's concern; names are kept as-is.
    pub fn concat(&self, other: &Schema) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .chain(other.columns.iter())
                .map(|(n, t)| (n.clone(), *t)),
        )
    }

    /// Project onto the given column indexes.
    pub fn project(&self, cols: &[usize]) -> Schema {
        Schema::new(
            cols.iter()
                .map(|&c| (self.columns[c].0.clone(), self.columns[c].1)),
        )
    }

    /// Verify a tuple conforms: right arity, each value NULL or of the
    /// declared type.
    pub fn check(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.arity() {
            return Err(Error::SchemaMismatch(format!(
                "arity {} != schema arity {}",
                tuple.arity(),
                self.arity()
            )));
        }
        for (i, v) in tuple.values().iter().enumerate() {
            if let Some(t) = v.column_type() {
                if t != self.column_type(i) {
                    return Err(Error::SchemaMismatch(format!(
                        "column {} ({}): value {} is {}, expected {}",
                        i,
                        self.name(i),
                        v,
                        t,
                        self.column_type(i)
                    )));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (n, t)) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n} {t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tup, Value};

    fn rs() -> Schema {
        Schema::new([("a", ColumnType::Int), ("b", ColumnType::Str)])
    }

    #[test]
    fn lookup_by_name() {
        let s = rs();
        assert_eq!(s.index_of("a"), Some(0));
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("z"), None);
    }

    #[test]
    fn check_accepts_conforming_and_null() {
        let s = rs();
        assert!(s.check(&tup![1, "x"]).is_ok());
        assert!(s.check(&tup![1, Value::Null]).is_ok());
    }

    #[test]
    fn check_rejects_wrong_arity_and_type() {
        let s = rs();
        assert!(s.check(&tup![1]).is_err());
        assert!(s.check(&tup![1, 2]).is_err());
    }

    #[test]
    fn concat_and_project() {
        let s = rs().concat(&Schema::new([("c", ColumnType::Float)]));
        assert_eq!(s.arity(), 3);
        let p = s.project(&[2, 0]);
        assert_eq!(p.name(0), "c");
        assert_eq!(p.name(1), "a");
    }

    #[test]
    fn display() {
        assert_eq!(rs().to_string(), "(a INT, b STR)");
    }
}
