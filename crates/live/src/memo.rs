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
//! Soundness relies on the paper's own discipline: render code cannot
//! write globals, so a `boxed` body is a *function* of its inputs. The
//! one extension that could break this — assignment to a local declared
//! *outside* the `boxed` body — is detected statically and such
//! statements are never cached.

use alive_core::bigstep::RenderHook;
use alive_core::boxtree::BoxNode;
use alive_core::expr::{BoxSourceId, Expr, ExprKind};
use alive_core::store::Store;
use alive_core::types::Name;
use alive_core::value::Value;
use alive_core::Program;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// What a `boxed` statement's body may depend on, besides its locals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ReadSet {
    /// Globals the body may read (transitively through function calls).
    pub(crate) globals: BTreeSet<Name>,
    /// The body performs a call whose target is not statically known
    /// (e.g. through a function-typed local) — assume it reads anything.
    pub(crate) reads_everything: bool,
    /// The body assigns a local bound outside the `boxed` statement;
    /// re-playing a cached subtree would skip that effect, so the
    /// statement must never be cached.
    pub(crate) cacheable: bool,
}

/// Per-statement dependency analysis for a program.
#[derive(Debug, Clone, Default)]
pub(crate) struct RenderDeps {
    by_box: HashMap<BoxSourceId, ReadSet>,
}

impl RenderDeps {
    /// Analyze a program: compute the read set of every `boxed`
    /// statement in every render body (and render helper function).
    pub(crate) fn analyze(program: &Program) -> Self {
        // Fixpoint over functions:
        // name -> (globals read, dynamic call?, touches view state?).
        let mut fun_reads: HashMap<Name, (BTreeSet<Name>, bool, bool)> = HashMap::new();
        loop {
            let mut changed = false;
            for f in program.funs() {
                let mut globals = BTreeSet::new();
                let mut dynamic = false;
                let mut widgets = false;
                collect_reads(
                    &f.body,
                    &fun_reads,
                    &mut globals,
                    &mut dynamic,
                    &mut widgets,
                );
                let entry = fun_reads.entry(f.name.clone()).or_default();
                if entry.0 != globals || entry.1 != dynamic || entry.2 != widgets {
                    *entry = (globals, dynamic, widgets);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut by_box = HashMap::new();
        let mut roots: Vec<&Expr> = Vec::new();
        for f in program.funs() {
            roots.push(&f.body);
        }
        for p in program.pages() {
            roots.push(&p.render);
            roots.push(&p.init);
        }
        for root in roots {
            collect_boxed(root, &fun_reads, &mut by_box);
        }
        RenderDeps { by_box }
    }
}

/// Collect globals read and dynamic-call flags in an expression,
/// following statically-known function references.
///
/// Bodies of *state-effect* lambdas (event handlers) are skipped: a
/// handler reads globals when the user taps, against the then-current
/// store — not during rendering — and render code cannot call it
/// (T-APP). Its global reads therefore do not invalidate the cache.
fn collect_reads(
    expr: &Expr,
    fun_reads: &HashMap<Name, (BTreeSet<Name>, bool, bool)>,
    globals: &mut BTreeSet<Name>,
    dynamic: &mut bool,
    widgets: &mut bool,
) {
    match &expr.kind {
        ExprKind::Global(g) => {
            globals.insert(g.clone());
        }
        ExprKind::FunRef(f) => {
            if let Some((g, d, w)) = fun_reads.get(f) {
                globals.extend(g.iter().cloned());
                *dynamic |= *d;
                *widgets |= *w;
            }
        }
        ExprKind::Remember { .. } | ExprKind::WidgetRead(_) | ExprKind::WidgetWrite(..) => {
            // View state makes the surrounding box uncacheable — both
            // directly and through any function that reaches here.
            *widgets = true;
        }
        ExprKind::Lambda(lam) => {
            if lam.effect != alive_core::Effect::State {
                collect_reads(&lam.body, fun_reads, globals, dynamic, widgets);
            }
            return;
        }
        ExprKind::Call(callee, _)
            if !matches!(
                callee.kind,
                ExprKind::FunRef(_) | ExprKind::PrimRef(_) | ExprKind::Lambda(_)
            ) =>
        {
            // Target unknown at this site (e.g. function-typed local).
            *dynamic = true;
        }
        _ => {}
    }
    expr.for_each_child(&mut |child| {
        collect_reads(child, fun_reads, globals, dynamic, widgets);
    });
}

/// Find all `boxed` statements and compute their read sets, tracking
/// which locals are bound inside each body (for the cacheability check).
fn collect_boxed(
    root: &Expr,
    fun_reads: &HashMap<Name, (BTreeSet<Name>, bool, bool)>,
    out: &mut HashMap<BoxSourceId, ReadSet>,
) {
    root.walk(&mut |e| {
        if let ExprKind::Boxed(id, body) = &e.kind {
            let mut globals = BTreeSet::new();
            let mut dynamic = false;
            let mut widgets = false;
            collect_reads(body, fun_reads, &mut globals, &mut dynamic, &mut widgets);
            let cacheable = !assigns_outer_local(body) && !dynamic && !widgets;
            out.insert(
                *id,
                ReadSet {
                    globals,
                    reads_everything: dynamic,
                    cacheable,
                },
            );
        }
    });
}

/// Does the expression assign a local that it does not itself bind?
fn assigns_outer_local(body: &Expr) -> bool {
    fn go(expr: &Expr, bound: &mut HashSet<Name>) -> bool {
        match &expr.kind {
            ExprKind::LocalAssign(name, value) => !bound.contains(name) || go(value, bound),
            ExprKind::Let {
                name,
                value: first,
                body,
                ..
            }
            | ExprKind::Foreach {
                var: name,
                list: first,
                body,
            } => go(first, bound) || scoped(name, body, bound),
            ExprKind::ForRange { var, lo, hi, body } => {
                go(lo, bound) || go(hi, bound) || scoped(var, body, bound)
            }
            ExprKind::Lambda(lam) => {
                let mut inner = bound.clone();
                inner.extend(lam.params.iter().map(|p| p.name.clone()));
                go(&lam.body, &mut inner)
            }
            _ => {
                let mut hit = false;
                expr.for_each_child(&mut |child| hit = hit || go(child, bound));
                hit
            }
        }
    }

    /// `go` over `body` with `name` bound for its duration only.
    fn scoped(name: &Name, body: &Expr, bound: &mut HashSet<Name>) -> bool {
        let fresh = bound.insert(name.clone());
        let hit = go(body, bound);
        if fresh {
            bound.remove(name);
        }
        hit
    }

    go(body, &mut HashSet::new())
}

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
    deps: RenderDeps,
    // Entries hold `Arc<BoxNode>` so a hit splices the cached subtree by
    // pointer copy — O(1) instead of a deep clone.
    current: HashMap<u64, (Arc<BoxNode>, Value)>,
    previous: HashMap<u64, (Arc<BoxNode>, Value)>,
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
    /// Build a cache for a program (runs the dependency analysis).
    pub fn new(program: &Program) -> Self {
        MemoCache {
            deps: RenderDeps::analyze(program),
            ..Default::default()
        }
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Reset after a code update: new code means new statement
    /// identities and a new dependency analysis.
    pub fn on_update(&mut self, program: &Program, version: u64) {
        self.deps = RenderDeps::analyze(program);
        self.current.clear();
        self.previous.clear();
        self.version = version;
        self.stats = MemoStats::default();
    }

    /// Start a render pass: rotate generations and digest each cacheable
    /// statement's read set from the store's write stamps.
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
        for (id, read_set) in &self.deps.by_box {
            if !read_set.cacheable {
                continue;
            }
            let mut hasher = DefaultHasher::new();
            for g in &read_set.globals {
                store.stamp(g).hash(&mut hasher);
            }
            let slot = id.0 as usize;
            if self.read_digests.len() <= slot {
                self.read_digests.resize(slot + 1, None);
            }
            self.read_digests[slot] = Some(hasher.finish());
        }
    }

    /// `None` for statements that are uncacheable (or unknown to the
    /// analysis).
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
    fn begin_render(&mut self, store: &Store, version: u64) {
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
    fn read_sets_follow_function_calls() {
        let p = compile(
            "global a : number = 1
             global b : number = 2
             fun helper(): number pure { b }
             page start() {
                 render {
                     boxed { post a + helper(); }
                 }
             }",
        )
        .expect("compiles");
        let deps = RenderDeps::analyze(&p);
        let id = BoxSourceId(0);
        let rs = deps.by_box.get(&id).expect("analyzed");
        let names: Vec<&str> = rs.globals.iter().map(|n| &**n).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(rs.cacheable);
        assert!(!rs.reads_everything);
    }

    #[test]
    fn recursive_functions_reach_fixpoint() {
        let p = compile(
            "global g : number = 1
             fun even(n: number): bool pure {
                 if n == 0 { true } else { odd(n - 1) }
             }
             fun odd(n: number): bool pure {
                 if n == 0 { g > 0 } else { even(n - 1) }
             }
             page start() {
                 render { boxed { post even(4); } }
             }",
        )
        .expect("compiles");
        let deps = RenderDeps::analyze(&p);
        let rs = deps.by_box.get(&BoxSourceId(0)).expect("analyzed");
        assert!(rs.globals.iter().any(|n| &**n == "g"));
    }

    #[test]
    fn dynamic_calls_poison_cacheability() {
        let p = compile(
            "page start() {
                 render {
                     boxed {
                         let f = fn(x: number) -> x;
                         let g = f;
                         post g(1);
                     }
                 }
             }",
        )
        .expect("compiles");
        let deps = RenderDeps::analyze(&p);
        let rs = deps.by_box.get(&BoxSourceId(0)).expect("analyzed");
        assert!(rs.reads_everything);
        assert!(!rs.cacheable);
    }

    #[test]
    fn view_state_reached_through_function_calls_is_uncacheable() {
        // A `remember` hidden behind a render helper must still poison
        // the calling box's cacheability, or a cached copy would freeze
        // the slot and corrupt occurrence counters.
        let p = compile(
            "fun widgety() : () render {
                 boxed {
                     remember n : number = 0;
                     post n;
                 }
             }
             page start() {
                 render {
                     boxed { widgety(); }
                 }
             }",
        )
        .expect("compiles");
        let deps = RenderDeps::analyze(&p);
        // Every boxed statement here is uncacheable: the inner one holds
        // the remember, the outer one reaches it through `widgety`.
        for id in [BoxSourceId(0), BoxSourceId(1)] {
            let rs = deps.by_box.get(&id).expect("analyzed");
            assert!(!rs.cacheable, "{id:?} must not cache");
        }
    }

    #[test]
    fn outer_local_assignment_is_uncacheable() {
        let p = compile(
            "fun f(): number render {
                 let total = 0;
                 boxed { total := total + 1; post total; }
                 total
             }
             page start() { render { post f(); } }",
        )
        .expect("compiles");
        let deps = RenderDeps::analyze(&p);
        let rs = deps.by_box.get(&BoxSourceId(0)).expect("analyzed");
        assert!(!rs.cacheable, "outer-local assignment must not be cached");
    }

    #[test]
    fn inner_local_assignment_is_fine() {
        let p = compile(
            "page start() {
                 render {
                     boxed {
                         let cents = \"5\";
                         cents := \"0\" ++ cents;
                         post cents;
                     }
                 }
             }",
        )
        .expect("compiles");
        let deps = RenderDeps::analyze(&p);
        let rs = deps.by_box.get(&BoxSourceId(0)).expect("analyzed");
        assert!(rs.cacheable, "locals bound inside the body are fine");
    }

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
