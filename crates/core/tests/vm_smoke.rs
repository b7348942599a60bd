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
