//! The SQL-ish value model.
//!
//! Values are small, cheap to clone (strings are `Arc<str>`), totally
//! ordered, and hashable so they can serve as hash-join and multiset keys.
//! Floats are ordered via their IEEE-754 total order, which is good enough
//! for grouping and join keys in this system.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single column value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Sorts before every non-null value; equal to itself (so it
    /// can be used as a grouping key), but [`Value::sql_eq`] treats it as
    /// unknown like SQL does.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float, ordered by IEEE total order.
    Float(f64),
    /// Interned UTF-8 string.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The [`ColumnType`](crate::ColumnType) this value inhabits, or `None`
    /// for NULL (which inhabits every type).
    pub fn column_type(&self) -> Option<crate::ColumnType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(crate::ColumnType::Bool),
            Value::Int(_) => Some(crate::ColumnType::Int),
            Value::Float(_) => Some(crate::ColumnType::Float),
            Value::Str(_) => Some(crate::ColumnType::Str),
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL equality: NULL compared to anything is not equal (returns
    /// `None`); otherwise three-valued logic collapses to a boolean.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self == other)
        }
    }

    /// SQL comparison with NULL treated as unknown.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.cmp(other))
        }
    }

    /// Rank used to order values of different runtime types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Integer accessor, for workload/test code that knows the schema.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String accessor, for workload/test code that knows the schema.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::BuildHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_is_by_value() {
        assert_eq!(Value::Int(7), Value::from(7i64));
        assert_eq!(Value::str("x"), Value::from("x"));
        assert_ne!(Value::Int(7), Value::Float(7.0));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn nan_is_self_equal_for_grouping() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn ordering_is_total_and_null_first() {
        let mut vs = [
            Value::str("b"),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
            Value::Int(-1),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Int(-1));
        assert_eq!(vs[3], Value::Int(3));
        assert_eq!(vs[4], Value::Float(1.5));
        assert_eq!(vs[5], Value::str("b"));
    }

    #[test]
    fn sql_semantics_treat_null_as_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn hash_agrees_with_eq() {
        assert_eq!(hash_of(&Value::str("abc")), hash_of(&Value::from("abc")));
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::from(42i64)));
        let s = crate::hash::Seeded::default();
        assert_eq!(
            s.hash_one(Value::str("abc")),
            s.hash_one(Value::from("abc"))
        );
        assert_eq!(s.hash_one(Value::Int(42)), s.hash_one(Value::from(42i64)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
    }
}
