//! String interning for attribute names and frequently repeated string values.
//!
//! Attribute names ("label", "year", "tag", ...) and categorical string values
//! repeat across millions of nodes; interning them keeps the per-node
//! attribute tuples small and makes comparisons integer comparisons.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// An interned string. Cheap to copy and compare.
///
/// `repr(transparent)` over the raw `u32` so symbol runs can live directly
/// inside mapped snapshot sections (see `IntRun`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Index into the owning [`SymbolTable`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only interner mapping strings to dense [`Symbol`] ids.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SymbolTable {
    names: Vec<String>,
    #[serde(skip)]
    lookup: HashMap<String, Symbol>,
}

/// Two tables are equal when they intern the same strings in the same order
/// (the lookup map is derived state and skipped, mirroring serialization).
impl PartialEq for SymbolTable {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl Eq for SymbolTable {}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing symbol if already present.
    pub(crate) fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.lookup.get(name) {
            return sym;
        }
        let sym = Symbol(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.lookup.insert(name.to_owned(), sym);
        sym
    }

    /// Returns the symbol for `name` if it has been interned before.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.lookup.get(name).copied()
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(Symbol, &str)` pairs in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("label");
        let b = t.intern("label");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_finds_interned_names() {
        let mut t = SymbolTable::new();
        let a = t.intern("year");
        let b = t.intern("tag");
        assert_eq!(t.get("year"), Some(a));
        assert_eq!(t.get("tag"), Some(b));
        assert_eq!(t.get("missing"), None);
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        t.intern("c");
        let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
