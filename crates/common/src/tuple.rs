//! Tuples: immutable, cheaply-cloneable rows.

use crate::Value;
use std::fmt;
use std::sync::Arc;

/// An immutable row of [`Value`]s.
///
/// Cloning a `Tuple` is an `Arc` bump, which matters because propagation
/// queries fan the same tuple into many join results and delta records.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Build a tuple from any iterable of values.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        Tuple(values.into_iter().collect())
    }

    /// The empty tuple (projection onto zero columns).
    pub fn empty() -> Self {
        Tuple(Arc::from(Vec::new()))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Borrow the values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Column accessor. Panics on out-of-range (schema mismatch is a bug).
    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    /// Project onto the given column indexes (in order, duplicates allowed).
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple(cols.iter().map(|&c| self.0[c].clone()).collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(values: [Value; N]) -> Self {
        Tuple::new(values)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple(Arc::from(values))
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

/// Convenience for tests and examples: `tup![1, "a", Value::Null]`.
#[macro_export]
macro_rules! tup {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tup![1, "a", 2.5];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t[1], Value::str("a"));
        assert_eq!(t[2], Value::Float(2.5));
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let t = tup![10, 20, 30];
        assert_eq!(t.project(&[2, 0, 0]), tup![30, 10, 10]);
        assert_eq!(t.project(&[]), Tuple::empty());
    }

    #[test]
    fn clone_is_shallow() {
        let t = tup![1, "abc"];
        let u = t.clone();
        assert_eq!(t, u);
        assert!(Arc::ptr_eq(&t.0, &u.0));
    }

    #[test]
    fn display_is_parenthesized() {
        assert_eq!(tup![1, "a"].to_string(), "(1, 'a')");
    }
}
