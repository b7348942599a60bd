//! Quick smoke: the VM engine actually runs, matching bigstep's frame.
use alive_core::system::{EvalEngine, System, SystemConfig};

fn compile(src: &str) -> alive_core::program::Program {
    alive_core::compile(src).expect("compiles")
}

#[test]
fn vm_runs_and_never_falls_back() {
    let src = "
        global total : number = 0
        fun bump(n : number) : number state {
            total := total + n;
            total
        }
        page start() {
            init { bump(1); bump(2); }
            render { boxed { post \"total is \" ++ total; } }
        }";
    let mut sys = System::with_config(compile(src), SystemConfig::default());
    sys.run_to_stable().expect("stable");
    let frame = sys.rendered().expect("renders").clone();
    let stats = sys.vm_stats();
    eprintln!("vm_stats = {stats:?}");
    eprintln!("frame = {frame:?}");
    assert!(
        stats.runs >= 2,
        "VM should have run init + render: {stats:?}"
    );
    assert_eq!(stats.compiles, 1);
    assert!(stats.instructions > 0);

    let mut tw = System::with_config(
        compile(src),
        SystemConfig {
            engine: EvalEngine::Bigstep,
            ..SystemConfig::default()
        },
    );
    tw.run_to_stable().expect("stable");
    let frame2 = tw.rendered().expect("renders").clone();
    assert_eq!(
        format!("{frame:?}"),
        format!("{frame2:?}"),
        "frames must be byte-identical"
    );
}

/// A `++` chain of `n` constants compiles to `n` loads and fused
/// `Concat`s that still charge one instruction and one tick per `++`:
/// `2n` instructions with the `Ret`, `2n − 1` ticks, as one `Bin` per
/// `++` would. 513 operands span three `Concat` batches and a final
/// join.
#[test]
fn concat_chains_charge_one_instruction_and_tick_per_plus_plus() {
    // Lowering and typechecking still recurse down the chain's spine.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            for n in [2u64, 4, 513] {
                let chain = (0..n)
                    .map(|i| format!("\"{i}\""))
                    .collect::<Vec<_>>()
                    .join(" ++ ");
                let src = format!(
                    "example chain = {chain}
                     page start() {{ render {{ }} }}"
                );
                let program = compile(&src);
                let vmp = program.vm().expect("compiles to bytecode");
                let mut scratch = alive_core::vm::Scratch::new();
                let store = alive_core::store::Store::new();
                let run =
                    alive_core::vm::run_example(&vmp, &mut scratch, &store, 0, u64::MAX, 0, false)
                        .expect("example slot exists");
                let text: String = (0..n).map(|i| i.to_string()).collect();
                assert_eq!(run.result, Ok(alive_core::Value::str(text)));
                assert_eq!(run.stats.instructions, 2 * n, "instructions for {n}");
                assert_eq!(run.cost.steps, 2 * n - 1, "ticks for {n}");
            }
        })
        .expect("spawn a big-stack thread")
        .join()
        .expect("chain accounting holds");
}

/// An entry the compiled program does not have is refused before the
/// run touches anything: a handler closure from another program version
/// run against this version's bytecode, and page entries whose bindings
/// do not line up with the compiled parameters (or whose page does not
/// exist) each come back as `RuntimeError::Internal`, with the store,
/// the queue and the `remember` slots as they were and no tick spent.
#[test]
fn foreign_entries_fault_without_touching_state() {
    use alive_core::vm;
    use alive_core::{Attr, Event, RuntimeError, Value};
    use std::sync::Arc;

    let v1 = "
        global taps : number = 0
        page start() {
            render {
                boxed {
                    remember clicks : number = 0;
                    post \"taps \" ++ taps;
                    on tap { taps := taps + 1; clicks := clicks + 1; }
                }
            }
        }
        page detail(i : number) { render { post i; } }";
    let v2 = v1.replace("taps + 1", "taps + 2");

    let mut old = System::new(compile(v1));
    let handler = old
        .rendered()
        .expect("renders")
        .descendant(&[0])
        .and_then(|b| b.attr(Attr::OnTap))
        .expect("the box has a tap handler")
        .clone();
    let mut sys = System::new(compile(&v2));
    sys.run_to_stable().expect("stable");
    let vmp = sys.program().vm().expect("compiles to bytecode");
    let mut scratch = vm::Scratch::new();
    let mut store = sys.store().clone();
    store.set("taps", Value::Number(7.0));
    let mut queue = alive_core::EventQueue::new();
    queue.enqueue(Event::Pop);
    let mut widgets = sys.widgets().clone();
    assert!(!widgets.is_empty(), "the render bound a remember slot");
    let (store0, queue0, widgets0) = (store.clone(), queue.clone(), widgets.clone());

    let run = vm::transition_thunk(
        &vmp,
        &mut scratch,
        &mut store,
        &mut queue,
        sys.version(),
        u64::MAX,
        &handler,
        &[],
        Some(&mut widgets),
        None,
    );
    assert!(
        matches!(run.result, Err(RuntimeError::Internal(_))),
        "old handler: {:?}",
        run.result
    );
    assert_eq!((run.cost.steps, run.stats.instructions), (0, 0));

    let i: alive_core::Name = Arc::from("i");
    let wrong: [&[(alive_core::Name, Value)]; 3] = [
        &[],
        &[(Arc::from("j"), Value::Number(1.0))],
        &[(i.clone(), Value::Number(1.0)), (i, Value::Number(2.0))],
    ];
    for (page, bindings) in wrong
        .iter()
        .map(|b| ("detail", *b))
        .chain([("nowhere", &[][..])])
    {
        let run = vm::transition_page_init(
            &vmp,
            &mut scratch,
            &mut store,
            &mut queue,
            sys.version(),
            u64::MAX,
            page,
            bindings,
            Some(&mut widgets),
            None,
        );
        assert!(
            matches!(run.result, Err(RuntimeError::Internal(_))),
            "init {page} {bindings:?}: {:?}",
            run.result
        );
        assert_eq!((run.cost.steps, run.stats.instructions), (0, 0));
        let run = vm::transition_page_render(
            &vmp,
            &mut scratch,
            &store,
            sys.version(),
            u64::MAX,
            page,
            bindings,
            None,
            Some(&mut widgets),
            None,
        );
        assert!(
            matches!(run.result, Err(RuntimeError::Internal(_))),
            "render {page} {bindings:?}: {:?}",
            run.result
        );
        assert_eq!((run.cost.steps, run.stats.instructions), (0, 0));
    }

    assert_eq!(store, store0, "store untouched");
    assert_eq!(queue, queue0, "queue untouched");
    assert_eq!(widgets, widgets0, "remember slots untouched");
}
