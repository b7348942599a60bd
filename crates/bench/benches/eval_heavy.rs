//! E-eval — the bytecode VM vs the bigstep tree walker on eval-heavy
//! workloads: a 10 000-item collection loop, deep call graphs
//! (recursive fib), deep local-lookup chains (the `lookup_local` killer
//! the VM resolves to frame slots at compile time), and a dense render.
//!
//! Besides wall-clock medians, the bench counts heap allocations per
//! transition through a counting global allocator — the VM's pooled
//! register arena should cut them drastically — and cross-checks at
//! every step that the VM's results and frames are byte-identical to
//! the tree walker's. Results, speedups, and allocation ratios are
//! written to `BENCH_eval_heavy.json` (acceptance bar: ≥ 5× VM speedup
//! on the best workload, byte identity on all of them).

use alive_core::event::EventQueue;
use alive_core::store::Store;
use alive_core::vm::{self, Scratch};
use alive_core::widget::WidgetStore;
use alive_core::{bigstep, compile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counters are relaxed atomics with no effect on allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls and bytes during `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let r = f();
    (
        r,
        ALLOC_CALLS.load(Ordering::Relaxed) - calls0,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes0,
    )
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// The 10k-item collection loop: builds and folds over collections in
/// the init body, with helper calls in the hot loop.
fn collection_src(items: usize) -> String {
    format!(
        "global total : number = 0
         global checksum : number = 0
         fun weight(x: number): number pure {{ x * 3 + 1 }}
         page start() {{
             init {{
                 let acc = 0;
                 for i in 0 .. {items} {{
                     acc := acc + weight(i);
                 }}
                 foreach v in [1, 2, 3, 4, 5, 6, 7, 8] {{
                     acc := acc + v * v;
                 }}
                 total := acc;
                 checksum := total - {items};
             }}
             render {{ boxed {{ post \"total \" ++ total; }} }}
         }}"
    )
}

/// Deep call graph: naive recursive fib — every call builds a frame.
fn fib_src(n: usize) -> String {
    format!(
        "global out : number = 0
         fun fib(n: number): number pure {{
             if n < 2 {{ n }} else {{ fib(n - 1) + fib(n - 2) }}
         }}
         page start() {{
             init {{ out := fib({n}); }}
             render {{ boxed {{ post out; }} }}
         }}"
    )
}

/// Deep local chains: every reference reaches back to the *earliest*
/// bindings, so the walker's `lookup_local` scans nearly the whole
/// frame on each one while the VM reads a compile-time slot.
fn deep_locals_src(depth: usize, calls: usize) -> String {
    let mut body = String::from("fun deep(x: number): number pure {\n    let a0 = x + 1;\n");
    for i in 1..depth {
        body.push_str(&format!("    let a{i} = a{} + a0 + x;\n", i - 1));
    }
    body.push_str(&format!("    a{} + a0 + x\n}}\n", depth - 1));
    body.push_str(&format!(
        "global out : number = 0
         page start() {{
             init {{
                 let s = 0;
                 for i in 0 .. {calls} {{ s := s + deep(i); }}
                 out := s;
             }}
             render {{ boxed {{ post out; }} }}
         }}"
    ));
    body
}

/// Dense render: many boxes, posts, and attributes per frame.
fn render_src(boxes: usize) -> String {
    format!(
        "global base : number = 7
         page start() {{
             init {{ }}
             render {{
                 for i in 0 .. {boxes} {{
                     boxed {{
                         post \"item \" ++ (i * base);
                         box.margin := 1;
                     }}
                 }}
             }}
         }}"
    )
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

struct Workload {
    name: String,
    vm_ns: f64,
    bigstep_ns: f64,
    vm_allocs: u64,
    bigstep_allocs: u64,
    vm_alloc_bytes: u64,
    bigstep_alloc_bytes: u64,
    vm_instructions: u64,
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.bigstep_ns / self.vm_ns.max(1.0)
    }

    fn alloc_ratio(&self) -> f64 {
        self.bigstep_allocs as f64 / (self.vm_allocs.max(1)) as f64
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"vm_ns\":{:.1},\"bigstep_ns\":{:.1},\"speedup\":{:.2},",
                "\"vm_allocs\":{},\"bigstep_allocs\":{},\"alloc_ratio\":{:.2},",
                "\"vm_alloc_bytes\":{},\"bigstep_alloc_bytes\":{},",
                "\"vm_instructions\":{},\"byte_identity\":true}}"
            ),
            self.name,
            self.vm_ns,
            self.bigstep_ns,
            self.speedup(),
            self.vm_allocs,
            self.bigstep_allocs,
            self.alloc_ratio(),
            self.vm_alloc_bytes,
            self.bigstep_alloc_bytes,
            self.vm_instructions,
        )
    }
}

/// Wall time of one call of `f`, in ns.
fn time_ns(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// The median of `samples` (the upper one of an even count).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Run one workload under both engines: byte-identity oracle first,
/// then allocation counts, then interleaved timing.
fn measure(name: &str, src: &str, runs: usize) -> Workload {
    let program = compile(src).expect("workload compiles");
    let page = program.page("start").expect("page");
    let init = page.init.clone();
    let render = page.render.clone();
    let vmp = program.vm().expect("workloads stay inside the VM subset");
    let mut scratch = Scratch::new();
    const FUEL: u64 = u64::MAX;

    let run_bigstep = |store: &mut Store| {
        let mut queue = EventQueue::new();
        let (v, _) = bigstep::transition_state(
            &program,
            store,
            &mut queue,
            0,
            FUEL,
            vec![],
            &init,
            None,
            None,
        );
        let (root, _) =
            bigstep::transition_render(&program, store, 0, FUEL, vec![], &render, None, None, None);
        (v.expect("bigstep init"), root.expect("bigstep render"))
    };
    let run_vm = |store: &mut Store, scratch: &mut Scratch| {
        let mut queue = EventQueue::new();
        let mut widgets = WidgetStore::new();
        let init_run = vm::transition_page_init(
            &vmp,
            scratch,
            store,
            &mut queue,
            0,
            FUEL,
            "start",
            &[],
            None,
            None,
        );
        let v = init_run.result.expect("vm init");
        let render_run = vm::transition_page_render(
            &vmp,
            scratch,
            store,
            0,
            FUEL,
            "start",
            &[],
            None,
            Some(&mut widgets),
            None,
        );
        let root = render_run.result.expect("vm render");
        (
            v,
            root,
            init_run.stats.instructions + render_run.stats.instructions,
        )
    };

    // Byte-identity oracle: same value, same frame bytes.
    let mut bs_store = Store::new();
    let (bs_value, bs_root) = run_bigstep(&mut bs_store);
    let mut vm_store = Store::new();
    let (vm_value, vm_root, vm_instructions) = run_vm(&mut vm_store, &mut scratch);
    assert_eq!(vm_value, bs_value, "{name}: VM/bigstep values diverge");
    assert_eq!(
        format!("{vm_root:?}"),
        format!("{bs_root:?}"),
        "{name}: VM/bigstep frames diverge"
    );
    assert_eq!(
        format!("{vm_store:?}"),
        format!("{bs_store:?}"),
        "{name}: VM/bigstep stores diverge"
    );

    // Allocation counts for one full transition pair (warm scratch).
    let (_, bigstep_allocs, bigstep_alloc_bytes) = count_allocs(|| {
        let mut store = Store::new();
        black_box(run_bigstep(&mut store));
    });
    let (_, vm_allocs, vm_alloc_bytes) = count_allocs(|| {
        let mut store = Store::new();
        black_box(run_vm(&mut store, &mut scratch));
    });

    // Interleaved timing: each round times one repetition of each
    // engine, so a slow spell on a shared machine lands on both engines'
    // samples instead of on one engine's whole block. Each engine's
    // median over `runs` rounds.
    let mut bigstep_samples = Vec::with_capacity(runs);
    let mut vm_samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        bigstep_samples.push(time_ns(|| {
            let mut store = Store::new();
            black_box(run_bigstep(&mut store));
        }));
        vm_samples.push(time_ns(|| {
            let mut store = Store::new();
            black_box(run_vm(&mut store, &mut scratch));
        }));
    }
    let bigstep_ns = median(bigstep_samples);
    let vm_ns = median(vm_samples);

    let w = Workload {
        name: name.to_string(),
        vm_ns,
        bigstep_ns,
        vm_allocs,
        bigstep_allocs,
        vm_alloc_bytes,
        bigstep_alloc_bytes,
        vm_instructions,
    };
    eprintln!(
        "{:<24} vm {:>12.0} ns  bigstep {:>12.0} ns  speedup {:>6.2}x  allocs {} vs {} ({:.1}x)",
        w.name,
        w.vm_ns,
        w.bigstep_ns,
        w.speedup(),
        w.vm_allocs,
        w.bigstep_allocs,
        w.alloc_ratio(),
    );
    w
}

fn main() {
    // Smoke mode (under `cargo test --bench`) uses fewer repetitions;
    // `cargo bench` / --bench measures properly. Either way the byte
    // identity oracle and the report run.
    let full = std::env::args().any(|a| a == "--bench")
        || std::env::var("ALIVE_BENCH_FULL").is_ok_and(|v| v == "1");
    let runs = if full { 15 } else { 5 };

    let items: usize = std::env::var("ALIVE_BENCH_EVAL_ITEMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);

    let workloads = [
        measure("collection10k", &collection_src(items), runs),
        measure("fib18", &fib_src(18), runs),
        measure("deep_locals128", &deep_locals_src(128, 2_000), runs),
        measure("render1k", &render_src(1_000), runs),
    ];

    let best = workloads
        .iter()
        .map(Workload::speedup)
        .fold(0.0f64, f64::max);
    let report = format!(
        "{{\"group\":\"eval_heavy\",\"mode\":\"{}\",\"items\":{},\"best_speedup\":{:.2},\"workloads\":[{}]}}",
        if full { "full" } else { "smoke" },
        items,
        best,
        workloads
            .iter()
            .map(Workload::to_json)
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("{report}");
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_eval_heavy.json");
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    eprintln!("report written to {}", out.display());
}
