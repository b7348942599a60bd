//! The `remember` extension — the paper's §7 future work ("support for
//! state encapsulation in the view") made concrete. §5 names the
//! problem: "the value of a slider widget must be defined as a global
//! variable". Here each box instance owns its state.

use its_alive::core::state_typing::assert_well_typed;
use its_alive::core::{compile, Value};
use its_alive::live::{LiveSession, SessionCommand, SessionEffect};

/// Tap the box at `path`, asserting the session did not refuse it.
fn tap(session: &mut LiveSession, path: &[usize]) {
    let effects = session.apply(SessionCommand::TapPath(path.to_vec()));
    assert!(
        !effects
            .iter()
            .any(|e| matches!(e, SessionEffect::Refused(_))),
        "tap {path:?} refused: {effects:?}"
    );
}

/// Three independent counters from ONE loop body — zero globals.
const COUNTERS: &str = r#"
page start() {
    render {
        for i in 0 .. 3 {
            boxed {
                remember clicks : number = 0;
                post "item " ++ i ++ ": " ++ clicks;
                on tap { clicks := clicks + 1; }
            }
        }
    }
}
"#;

#[test]
fn each_box_instance_keeps_its_own_state() {
    let mut s = LiveSession::new(COUNTERS).expect("compiles and starts");
    assert_eq!(s.live_view(), "item 0: 0\nitem 1: 0\nitem 2: 0\n");
    tap(&mut s, &[1]); // tap middle
    tap(&mut s, &[1]); // tap middle again
    tap(&mut s, &[2]); // tap last
    assert_eq!(s.live_view(), "item 0: 0\nitem 1: 2\nitem 2: 1\n");
    // The model (store) is untouched — this is view state.
    assert!(s.system().store().is_empty());
    assert_eq!(s.system().widgets().len(), 3);
    assert_well_typed(s.system());
}

#[test]
fn view_state_survives_re_render_and_navigation() {
    let src = r#"
        page start() {
            render {
                boxed {
                    remember n : number = 10;
                    post "n = " ++ n;
                    on tap { n := n + 1; }
                }
                boxed { post "away"; on tap { push other(); } }
            }
        }
        page other() {
            render { boxed { post "elsewhere"; on tap { pop; } } }
        }
    "#;
    let mut s = LiveSession::new(src).expect("starts");
    tap(&mut s, &[0]); // bump
    assert!(s.live_view().contains("n = 11"));
    // Navigate away and back: the slot persists (like scroll state).
    tap(&mut s, &[1]); // away
    assert!(s.live_view().contains("elsewhere"));
    tap(&mut s, &[0]); // back
    assert!(s.live_view().contains("n = 11"));
}

#[test]
fn code_update_clears_view_state() {
    let mut s = LiveSession::new(COUNTERS).expect("starts");
    tap(&mut s, &[0]);
    assert!(s.live_view().contains("item 0: 1"));
    let edited = COUNTERS.replace("item ", "entry ");
    let effects = s.apply(SessionCommand::EditSource(edited));
    assert!(matches!(effects[0], SessionEffect::EditApplied(_)));
    // View state died with the old view code; slots re-initialize.
    assert_eq!(s.live_view(), "entry 0: 0\nentry 1: 0\nentry 2: 0\n");
    assert_well_typed(s.system());
}

#[test]
fn slots_initialize_from_model_reads() {
    let src = r#"
        global base : number = 40
        page start() {
            init { base := base + 2; }
            render {
                boxed {
                    remember offset : number = base;
                    post offset;
                    on tap { offset := offset + 100; }
                }
            }
        }
    "#;
    let mut s = LiveSession::new(src).expect("starts");
    // Initialized once from the (post-init) model...
    assert_eq!(s.live_view(), "42\n");
    tap(&mut s, &[0]);
    // ...then evolves independently of it.
    assert_eq!(s.live_view(), "142\n");
    assert_eq!(s.system().store().get("base"), Some(&Value::Number(42.0)));
}

#[test]
fn render_code_cannot_write_slots() {
    let bad = r#"
        page start() {
            render {
                boxed {
                    remember n : number = 0;
                    n := n + 1;
                    post n;
                }
            }
        }
    "#;
    let err = compile(bad).expect_err("render writes are rejected");
    assert!(err.to_string().contains("widget slot assignment"), "{err}");
}

#[test]
fn remember_is_render_only_and_arrow_free() {
    let in_init = r#"
        page start() {
            init { remember n : number = 0; }
            render { }
        }
    "#;
    assert!(compile(in_init)
        .expect_err("rejected")
        .to_string()
        .contains("requires render mode"));

    let fn_slot = r#"
        page start() {
            render {
                boxed {
                    remember f : fn() state -> () = fn() state { pop; };
                }
            }
        }
    "#;
    assert!(compile(fn_slot)
        .expect_err("rejected")
        .to_string()
        .contains("function-free"));
}

#[test]
fn slots_are_lexically_scoped() {
    let out_of_scope = r#"
        page start() {
            render {
                boxed { remember n : number = 0; post n; }
                post n;
            }
        }
    "#;
    assert!(compile(out_of_scope)
        .expect_err("rejected")
        .to_string()
        .contains("unknown name `n`"));
}

#[test]
fn growing_the_loop_initializes_new_instances_only() {
    let src = r#"
        global count : number = 2
        page start() {
            render {
                boxed { post "rows: " ++ count; on tap { count := count + 1; } }
                for i in 0 .. count {
                    boxed {
                        remember hits : number = 0;
                        post i ++ " -> " ++ hits;
                        on tap { hits := hits + 1; }
                    }
                }
            }
        }
    "#;
    let mut s = LiveSession::new(src).expect("starts");
    tap(&mut s, &[1]); // hit row 0
    tap(&mut s, &[0]); // grow the loop
                       // Row 0 kept its count (same occurrence key); the new row starts at 0.
    assert_eq!(s.live_view(), "rows: 3\n0 -> 1\n1 -> 0\n2 -> 0\n");
}

#[test]
fn memo_cache_and_view_state_compose() {
    // remember-boxes are statically uncacheable; everything else still
    // caches, and views agree with the uncached session.
    let src = r#"
        global items : list number = []
        page start() {
            init { items := list.range(0, 6); }
            render {
                boxed {
                    remember taps : number = 0;
                    post "taps " ++ taps;
                    on tap { taps := taps + 1; }
                }
                foreach x in items {
                    boxed { post "row " ++ x; }
                }
            }
        }
    "#;
    let mut plain = LiveSession::new(src).expect("starts");
    let mut memo = LiveSession::with_memo(src).expect("starts");
    for _ in 0..3 {
        tap(&mut plain, &[0]);
        tap(&mut memo, &[0]);
        assert_eq!(plain.live_view(), memo.live_view());
    }
    let stats = memo.memo_stats().expect("enabled");
    assert!(stats.hits > 0, "static rows reuse: {stats:?}");
    assert!(
        stats.uncacheable > 0,
        "the remember box never caches: {stats:?}"
    );
}
