//! The store `S` — values of global variables (the program's *model*).

use crate::types::Name;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The source of write stamps. Process-wide, never reset, and outside
/// every `Store`: a clone, a rollback, or a restored checkpoint copies
/// stamps but can never rewind the counter, so one stamp always names
/// one write of one value.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    // Relaxed: the counter only has to hand out distinct numbers; it
    // publishes no other data.
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// The store `S`: a map from global variable names to values.
///
/// The paper represents `S` as a sequence of `[g ↦ v]` pairs with
/// rightmost-wins lookup; a map is the obvious data-structure refinement
/// ("an actual implementation would use specialized data structures",
/// §4.2). Iteration order is deterministic (sorted by name) so renders
/// and tests are reproducible.
///
/// Each entry also carries a *write stamp* ([`Store::stamp`]): equal
/// stamps for a name mean the same write, hence the same value, which
/// lets the §5 render memo key on stamps instead of hashing values.
/// Stamps are bookkeeping, not model: `Debug` and `==` ignore them.
#[derive(Clone, Default)]
pub struct Store {
    entries: BTreeMap<Name, (Value, u64)>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read a global (`S(g)`).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries.get(name).map(|(value, _)| value)
    }

    /// Write a global (`S[g ↦ v]`) under a fresh stamp. Overwriting a
    /// global keeps its key; only a new global allocates one.
    pub fn set(&mut self, name: impl AsRef<str>, value: Value) {
        let name = name.as_ref();
        match self.entries.get_mut(name) {
            Some(entry) => *entry = (value, fresh_stamp()),
            None => {
                self.entries.insert(Arc::from(name), (value, fresh_stamp()));
            }
        }
    }

    /// The write stamp of a global: distinct for every write in the
    /// process, kept by clones, 0 when the name is absent.
    pub fn stamp(&self, name: &str) -> u64 {
        self.entries.get(name).map_or(0, |&(_, stamp)| stamp)
    }

    /// Whether `g ∈ dom S`.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Remove an entry, returning it.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.entries.remove(name).map(|(value, _)| value)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &Value)> {
        self.entries.iter().map(|(name, (value, _))| (name, value))
    }
}

/// Prints exactly what a derived `Debug` over a `BTreeMap<Name, Value>`
/// would: corpus goldens hash this text, so stamps must not appear.
impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(&'a Store);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Store")
            .field("entries", &Entries(self))
            .finish()
    }
}

/// Compares values only: two stores holding the same model are equal
/// whatever writes produced them.
impl PartialEq for Store {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Display for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{k} ↦ {v}")?;
        }
        f.write_str("}")
    }
}

impl FromIterator<(Name, Value)> for Store {
    fn from_iter<T: IntoIterator<Item = (Name, Value)>>(iter: T) -> Self {
        Store {
            entries: iter
                .into_iter()
                .map(|(name, value)| (name, (value, fresh_stamp())))
                .collect(),
        }
    }
}

/// The store as one evaluator run sees it: mutable in state mode,
/// shared otherwise. Render and pure code hold only a shared reference,
/// so the borrow checker enforces that they leave the model alone, on
/// top of both engines' dynamic mode checks.
pub(crate) enum StoreView<'a> {
    Mut(&'a mut Store),
    Ref(&'a Store),
}

impl StoreView<'_> {
    pub(crate) fn get(&self, name: &str) -> Option<&Value> {
        match self {
            StoreView::Mut(s) => s.get(name),
            StoreView::Ref(s) => s.get(name),
        }
    }

    /// Write a global; `Err` on a shared view.
    pub(crate) fn set(&mut self, name: &str, value: Value) -> Result<(), ()> {
        match self {
            StoreView::Mut(s) => {
                s.set(name, value);
                Ok(())
            }
            StoreView::Ref(_) => Err(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rightmost_write_wins() {
        let mut s = Store::new();
        s.set("g", Value::Number(1.0));
        s.set("g", Value::Number(2.0));
        assert_eq!(s.get("g"), Some(&Value::Number(2.0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn overwriting_a_global_keeps_its_key() {
        let mut s = Store::new();
        s.set("g", Value::Number(1.0));
        let key = s.iter().map(|(k, _)| k.clone()).next().expect("one entry");
        s.set("g", Value::Number(2.0));
        let kept = s.iter().map(|(k, _)| k.clone()).next().expect("one entry");
        assert!(Arc::ptr_eq(&key, &kept), "an overwrite allocates no key");
        assert_eq!(s.get("g"), Some(&Value::Number(2.0)));
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut s = Store::new();
        s.set("b", Value::Number(2.0));
        s.set("a", Value::Number(1.0));
        let names: Vec<&str> = s.iter().map(|(k, _)| &**k).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(s.to_string(), "{a ↦ 1, b ↦ 2}");
    }

    #[test]
    fn remove_and_contains() {
        let mut s = Store::new();
        s.set("x", Value::Bool(true));
        assert!(s.contains("x"));
        assert_eq!(s.remove("x"), Some(Value::Bool(true)));
        assert!(!s.contains("x"));
        assert!(s.is_empty());
        assert_eq!(s.stamp("x"), 0, "absent names have stamp 0");
    }

    /// The derived `Debug` this type had before stamps existed; corpus
    /// goldens hash `{:?}` of the store, so the output must not move.
    mod legacy {
        use super::*;

        #[derive(Debug)]
        #[allow(dead_code)] // read only through `Debug`
        pub(super) struct Store {
            pub(super) entries: BTreeMap<Name, Value>,
        }
    }

    #[test]
    fn debug_and_eq_ignore_stamps() {
        let mut a = Store::new();
        a.set("b", Value::str("two"));
        a.set("a", Value::list(vec![Value::Number(1.0)]));
        let legacy = legacy::Store {
            entries: a.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        };
        assert_eq!(format!("{a:?}"), format!("{legacy:?}"));
        assert_eq!(format!("{a:#?}"), format!("{legacy:#?}"));

        // Same values, different writes: equal stores, distinct stamps.
        let mut b = Store::new();
        b.set("a", Value::list(vec![Value::Number(1.0)]));
        b.set("b", Value::str("two"));
        assert_eq!(a, b);
        assert_ne!(a.stamp("a"), b.stamp("a"));
        b.set("b", Value::str("three"));
        assert_ne!(a, b);
    }

    #[test]
    fn clone_keeps_stamps() {
        let mut s = Store::new();
        s.set("g", Value::Number(1.0));
        let copy = s.clone();
        assert_eq!(copy.stamp("g"), s.stamp("g"));
        assert_ne!(s.stamp("g"), 0);
    }

    #[test]
    fn every_write_gets_a_fresh_stamp() {
        let mut s = Store::new();
        s.set("g", Value::Number(1.0));
        let first = s.stamp("g");
        // Rewriting the same value is still a new write.
        s.set("g", Value::Number(1.0));
        let second = s.stamp("g");
        s.set("g", Value::Number(2.0));
        let third = s.stamp("g");
        assert!(first < second && second < third, "{first} {second} {third}");
        s.remove("g");
        s.set("g", Value::Number(1.0));
        assert!(s.stamp("g") > third);
    }

    #[test]
    fn independent_stores_never_share_a_stamp() {
        let mut a = Store::new();
        let mut b: Store = [(Name::from("g"), Value::Number(1.0))]
            .into_iter()
            .collect();
        a.set("g", Value::Number(1.0));
        assert_ne!(a.stamp("g"), b.stamp("g"));
        // Across threads too: the counter is process-wide.
        let stamps: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut s = Store::new();
                        (0..100)
                            .map(|i| {
                                s.set("g", Value::Number(f64::from(i)));
                                s.stamp("g")
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("stamping thread"))
                .collect()
        });
        let unique: std::collections::BTreeSet<u64> = stamps.iter().copied().collect();
        assert_eq!(unique.len(), stamps.len());
        b.set("g", Value::Number(1.0));
        assert!(!unique.contains(&b.stamp("g")));
    }
}
