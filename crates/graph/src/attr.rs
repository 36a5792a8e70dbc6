//! Node attribute values.
//!
//! A node attribute is a pair `(name, value)` where the name is an interned
//! [`Symbol`] and the value is an [`AttrValue`].  Query
//! attribute predicates compare these values with the six comparison
//! operators of the paper (`<, <=, =, !=, >, >=`); comparisons across value
//! kinds are defined to be false rather than an error, matching the
//! "no matching element" semantics of `v ∼ u`.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::symbol::Symbol;

/// The value of a node attribute.
///
/// `Eq`/`Hash` let `(attribute, value)` pairs key the build-time inverted
/// index ([`AttrIndex`](crate::AttrIndex)).  The `Vec` variant makes those
/// impls manual: equality and hashing go through `f32::to_bits`, so two
/// vectors are equal exactly when they are bit-identical (NaNs compare equal
/// to themselves; `0.0` and `-0.0` differ) — a total, hash-consistent
/// relation even though `f32` itself is only `PartialOrd`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum AttrValue {
    /// Integer-typed value (years, prices, group ids, ...).
    Int(i64),
    /// String-typed value (tags, names, titles, ...).
    Str(String),
    /// Embedding-typed value: a dense f32 vector, matched by similarity
    /// predicates (`sim(attr, [...]) < t`) rather than by order comparisons.
    Vec(Vec<f32>),
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (AttrValue::Int(a), AttrValue::Int(b)) => a == b,
            (AttrValue::Str(a), AttrValue::Str(b)) => a == b,
            (AttrValue::Vec(a), AttrValue::Vec(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        }
    }
}

impl Eq for AttrValue {}

impl std::hash::Hash for AttrValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            AttrValue::Int(i) => i.hash(state),
            AttrValue::Str(s) => s.hash(state),
            AttrValue::Vec(v) => {
                v.len().hash(state);
                for x in v {
                    x.to_bits().hash(state);
                }
            }
        }
    }
}

impl AttrValue {
    /// Total comparison between two values of the same kind.
    ///
    /// Returns `None` when the kinds differ (an `Int` is never comparable to a
    /// `Str`), which callers translate into "predicate not satisfied".
    /// Vectors are never order-comparable, not even to each other; similarity
    /// predicates reach them instead.
    pub fn partial_cmp_same_kind(&self, other: &AttrValue) -> Option<Ordering> {
        match (self, other) {
            (AttrValue::Int(a), AttrValue::Int(b)) => Some(a.cmp(b)),
            (AttrValue::Str(a), AttrValue::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// The embedding slice when this is a `Vec` value.
    pub fn as_vec(&self) -> Option<&[f32]> {
        match self {
            AttrValue::Vec(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience constructor from `&str`.
    pub fn str(s: &str) -> Self {
        AttrValue::Str(s.to_owned())
    }

    /// Convenience constructor from `i64`.
    pub fn int(i: i64) -> Self {
        AttrValue::Int(i)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Vec(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<Vec<f32>> for AttrValue {
    fn from(v: Vec<f32>) -> Self {
        AttrValue::Vec(v)
    }
}

/// One attribute of a data node: an interned name plus a value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Attribute {
    /// Interned attribute name.
    pub name: Symbol,
    /// Attribute value.
    pub value: AttrValue,
}

impl Attribute {
    /// Creates a new attribute.
    pub fn new(name: Symbol, value: AttrValue) -> Self {
        Self { name, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_kind_comparison() {
        assert_eq!(
            AttrValue::int(3).partial_cmp_same_kind(&AttrValue::int(5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            AttrValue::str("b").partial_cmp_same_kind(&AttrValue::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(
            AttrValue::str("b").partial_cmp_same_kind(&AttrValue::str("b")),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn cross_kind_comparison_is_none() {
        assert_eq!(
            AttrValue::int(3).partial_cmp_same_kind(&AttrValue::str("3")),
            None
        );
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(AttrValue::int(42).to_string(), "42");
        assert_eq!(AttrValue::str("alice").to_string(), "alice");
    }

    #[test]
    fn conversions() {
        assert_eq!(AttrValue::from(7i64), AttrValue::Int(7));
        assert_eq!(AttrValue::from("x"), AttrValue::Str("x".into()));
        assert_eq!(
            AttrValue::from(String::from("y")),
            AttrValue::Str("y".into())
        );
        assert_eq!(
            AttrValue::from(vec![1.0f32, 2.0]),
            AttrValue::Vec(vec![1.0, 2.0])
        );
    }

    #[test]
    fn vec_values_compare_and_hash_by_bits() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &AttrValue| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let a = AttrValue::Vec(vec![1.0, f32::NAN]);
        let b = AttrValue::Vec(vec![1.0, f32::NAN]);
        assert_eq!(a, b, "bit-identical NaNs compare equal");
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(AttrValue::Vec(vec![0.0]), AttrValue::Vec(vec![-0.0]));
        assert_ne!(AttrValue::Vec(vec![1.0]), AttrValue::Vec(vec![1.0, 1.0]));
        assert_ne!(AttrValue::Vec(vec![]), AttrValue::Int(0));
        // Vectors never order-compare, even to each other.
        assert_eq!(a.partial_cmp_same_kind(&b), None);
        assert_eq!(a.as_vec().map(<[f32]>::len), Some(2));
        assert_eq!(AttrValue::int(1).as_vec(), None);
    }
}
