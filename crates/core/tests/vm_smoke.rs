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
