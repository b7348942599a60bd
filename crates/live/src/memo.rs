//! The §5 box-tree reuse optimization.
//!
//! > "We are currently working on a simple optimization where we can
//! > reuse box tree elements that have not changed." — paper §5
//!
//! [`MemoCache`] implements that optimization as a [`RenderHook`]: each
//! `boxed` statement's subtree is cached under a key derived from the
//! statement identity, the visible local environment, the code version,
//! and the [write stamps](Store::stamp) of the globals the statement's
//! body can read. On the next render, subtrees whose inputs are
//! unchanged are spliced in without re-evaluating the body.
//!
//! Keying on stamps rather than global *values* keeps a key O(|locals|):
//! a 120-row list is not re-hashed by each of its 120 row boxes. A stamp
//! names one write, so equal stamps imply equal values; the converse
//! does not hold (rewriting an equal value misses), which costs a
//! re-render, never a wrong frame.
//!
//! What a body can read is decided in one place, the bytecode compiler,
//! which resolves every global read, call target and binding anyway:
//! [`VmProgram::box_reads`] gives each statement the global slots its
//! body may read (through the functions and non-state closures it
//! reaches, and through the initializers of the globals it reads, which
//! a render runs on a store miss). It marks a statement never cacheable
//! if it reaches a call whose target the compiler could not resolve or
//! `remember` or widget state, or if it assigns a local bound outside
//! the body, an effect a spliced subtree would skip. The table is built
//! once per program version and shared by every session running it.
//! The cache never compiles a program, so the system books every
//! compile: it takes the table from a compiled program, which RENDER
//! guarantees before [`RenderHook::begin_render`]. Until then, and on
//! the bigstep engine, which compiles nothing, nothing is cached.
//!
//! Soundness relies on the paper's own discipline: render code cannot
//! write globals, so a cacheable `boxed` body is a *function* of its
//! inputs.

use alive_core::bigstep::RenderHook;
use alive_core::boxtree::BoxNode;
use alive_core::expr::BoxSourceId;
use alive_core::store::Store;
use alive_core::types::Name;
use alive_core::value::Value;
use alive_core::vm::VmProgram;
use alive_core::Program;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Structural hash of a value (closures hash by code identity and
/// captured environment).
pub(crate) fn hash_value(value: &Value, state: &mut impl Hasher) {
    match value {
        Value::Number(n) => {
            1u8.hash(state);
            n.to_bits().hash(state);
        }
        Value::Str(s) => {
            2u8.hash(state);
            s.hash(state);
        }
        Value::Bool(b) => {
            3u8.hash(state);
            b.hash(state);
        }
        Value::Color(c) => {
            4u8.hash(state);
            (c.r, c.g, c.b).hash(state);
        }
        Value::Tuple(vs) => {
            5u8.hash(state);
            vs.len().hash(state);
            for v in vs.iter() {
                hash_value(v, state);
            }
        }
        Value::List(vs) => {
            6u8.hash(state);
            vs.len().hash(state);
            for v in vs.iter() {
                hash_value(v, state);
            }
        }
        Value::Closure(c) => {
            7u8.hash(state);
            (std::sync::Arc::as_ptr(&c.body) as usize).hash(state);
            c.version.hash(state);
            c.env.len().hash(state);
            for (n, v) in c.env.iter() {
                n.hash(state);
                hash_value(v, state);
            }
        }
        Value::Prim(p) => {
            8u8.hash(state);
            p.hash(state);
        }
        Value::WidgetRef(k) => {
            9u8.hash(state);
            (k.id.0, k.occurrence).hash(state);
        }
    }
}

/// Cache statistics, for the E4 experiment and for tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// `boxed` evaluations answered from the cache.
    pub hits: u64,
    /// `boxed` evaluations that ran and populated the cache.
    pub misses: u64,
    /// `boxed` statements that are statically uncacheable.
    pub uncacheable: u64,
}

/// The render cache: a [`RenderHook`] implementing the §5 reuse
/// optimization with a two-generation eviction policy (anything not
/// reused for one whole render is dropped).
#[derive(Debug, Default)]
pub struct MemoCache {
    /// The compiled program whose [`VmProgram::box_reads`] key the
    /// cache, with its globals' names by slot; `None` until the cache
    /// has seen the program compiled.
    reads: Option<(Arc<VmProgram>, Vec<Name>)>,
    // Entries hold `Arc<BoxNode>` so a hit splices the cached subtree by
    // pointer copy — O(1) instead of a deep clone.
    current: HashMap<u64, (Arc<BoxNode>, Value)>,
    previous: HashMap<u64, (Arc<BoxNode>, Value)>,
    /// Each global slot's write stamp as of this render.
    stamps: Vec<u64>,
    /// Indexed by statement id: for cacheable statements, a digest of
    /// the read set's write stamps as of this render. Render code cannot
    /// write globals, so one digest per statement holds for the whole
    /// render.
    read_digests: Vec<Option<u64>>,
    /// Keys of `boxed` bodies being evaluated, innermost last: a miss in
    /// `enter_boxed` pushes, the matching `after_boxed` pops, so a key is
    /// computed once per instance. Cacheable bodies cannot reassign the
    /// captured locals, so the key is still valid after the body ran.
    open_keys: Vec<(BoxSourceId, Option<u64>)>,
    version: u64,
    stats: MemoStats,
}

impl MemoCache {
    /// Build a cache for a program, keyed on its read sets once it is
    /// compiled.
    pub fn new(program: &Program) -> Self {
        let mut memo = MemoCache::default();
        memo.take_reads(program);
        memo
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Reset after a code update: new code means new statement
    /// identities and new read sets.
    pub fn on_update(&mut self, program: &Program, version: u64) {
        self.take_reads(program);
        self.current.clear();
        self.previous.clear();
        self.version = version;
        self.stats = MemoStats::default();
    }

    /// Key on `program`'s compiled read sets if it is compiled, else on
    /// none: the cache never compiles a program itself.
    fn take_reads(&mut self, program: &Program) {
        let vm = program.vm_ready().then(|| program.vm()).flatten();
        if let (Some((held, _)), Some(vm)) = (&self.reads, &vm) {
            if Arc::ptr_eq(held, vm) {
                return;
            }
        }
        self.reads = vm.map(|vm| {
            (
                vm,
                program.globals().iter().map(|g| g.name.clone()).collect(),
            )
        });
    }

    /// Start a render pass: rotate generations, read each global slot's
    /// write stamp once, and digest each cacheable statement's read set
    /// from them.
    pub fn begin_render(&mut self, store: &Store, version: u64) {
        if version != self.version {
            self.current.clear();
            self.previous.clear();
            self.version = version;
        } else {
            // Swap, then clear: the evicted generation's map is reused,
            // capacity and all, instead of regrowing from empty.
            std::mem::swap(&mut self.previous, &mut self.current);
            self.current.clear();
        }
        self.open_keys.clear();
        self.read_digests.clear();
        let Some((vm, globals)) = &self.reads else {
            return;
        };
        self.stamps.clear();
        self.stamps.extend(globals.iter().map(|g| store.stamp(g)));
        let stamps = &self.stamps;
        self.read_digests.extend(vm.box_reads().iter().map(|slots| {
            let mut hasher = DefaultHasher::new();
            for &g in slots.as_deref()? {
                stamps.get(g as usize).hash(&mut hasher);
            }
            Some(hasher.finish())
        }));
    }

    /// `None` for statements that are uncacheable (or absent from the
    /// compiled program's table).
    fn key(&self, id: BoxSourceId, locals: &[(Name, Value)]) -> Option<u64> {
        let digest = (*self.read_digests.get(id.0 as usize)?)?;
        let mut hasher = DefaultHasher::new();
        id.0.hash(&mut hasher);
        self.version.hash(&mut hasher);
        digest.hash(&mut hasher);
        locals.len().hash(&mut hasher);
        for (n, v) in locals {
            n.hash(&mut hasher);
            hash_value(v, &mut hasher);
        }
        Some(hasher.finish())
    }
}

impl RenderHook for MemoCache {
    fn begin_render(&mut self, program: &Program, store: &Store, version: u64) {
        self.take_reads(program);
        MemoCache::begin_render(self, store, version);
    }

    fn enter_boxed(
        &mut self,
        id: BoxSourceId,
        locals: &[(Name, Value)],
    ) -> Option<(Arc<BoxNode>, Value)> {
        let Some(key) = self.key(id, locals) else {
            self.stats.uncacheable += 1;
            self.open_keys.push((id, None));
            return None;
        };
        if let Some((node, value)) = self.current.get(&key) {
            self.stats.hits += 1;
            return Some((Arc::clone(node), value.clone()));
        }
        if let Some(entry) = self.previous.remove(&key) {
            self.stats.hits += 1;
            let out = (Arc::clone(&entry.0), entry.1.clone());
            self.current.insert(key, entry);
            return Some(out);
        }
        self.open_keys.push((id, Some(key)));
        None
    }

    fn after_boxed(
        &mut self,
        id: BoxSourceId,
        _locals: &[(Name, Value)],
        node: &Arc<BoxNode>,
        value: &Value,
    ) {
        // A mismatched id would mean an unpaired call; skipping the
        // insert is always sound.
        if let Some((entered, Some(key))) = self.open_keys.pop() {
            if entered == id {
                self.stats.misses += 1;
                self.current.insert(key, (Arc::clone(node), value.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_core::compile;

    #[test]
    fn hash_value_distinguishes_and_agrees() {
        let h = |v: &Value| {
            let mut hasher = DefaultHasher::new();
            hash_value(v, &mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&Value::Number(1.0)), h(&Value::Number(1.0)));
        assert_ne!(h(&Value::Number(1.0)), h(&Value::Number(2.0)));
        assert_ne!(h(&Value::Number(1.0)), h(&Value::str("1")));
        let t1 = Value::tuple(vec![Value::str("a"), Value::Number(1.0)]);
        let t2 = Value::tuple(vec![Value::str("a"), Value::Number(1.0)]);
        assert_eq!(h(&t1), h(&t2));
    }

    #[test]
    fn cache_reuses_across_renders() {
        use alive_core::bigstep;
        let p = compile(
            "global items : list number = [1, 2, 3]
             global sel : number = 0
             page start() {
                 render {
                     foreach x in items {
                         boxed { post x; }
                     }
                     boxed { post sel; }
                 }
             }",
        )
        .expect("compiles");
        let page = p.page("start").expect("page");
        let mut store = Store::new();
        store.set(
            "items",
            Value::list(vec![
                Value::Number(1.0),
                Value::Number(2.0),
                Value::Number(3.0),
            ]),
        );
        store.set("sel", Value::Number(0.0));

        // The cache keys on the compiled program, which a system
        // compiles before its first render.
        p.vm().expect("the VM compiles it");
        let mut cache = MemoCache::new(&p);
        cache.begin_render(&store, 0);
        let render = |store: &Store, cache: &mut MemoCache| {
            let (root, cost) = bigstep::transition_render(
                &p,
                store,
                0,
                1_000_000,
                vec![],
                &page.render,
                Some(cache),
                None,
                None,
            );
            (root.expect("renders"), cost)
        };
        let (first, _) = render(&store, &mut cache);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 4);

        // Change only `sel`: the three item boxes reuse, the sel box re-renders.
        store.set("sel", Value::Number(9.0));
        cache.begin_render(&store, 0);
        let (second, cost) = render(&store, &mut cache);
        assert_eq!(cache.stats().hits, 3);
        assert_eq!(cache.stats().misses, 5);
        assert_eq!(cost.boxes_created, 1);
        assert_eq!(cost.boxes_reused, 3);

        // The reused tree is identical to an uncached render.
        let (plain, _) = bigstep::transition_render(
            &p,
            &store,
            0,
            1_000_000,
            vec![],
            &page.render,
            None,
            None,
            None,
        );
        let plain = plain.expect("renders");
        assert_eq!(second, plain);
        assert_ne!(first, second);
    }
}
