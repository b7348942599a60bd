//! Bidirectional-evaluation round trips over the scenario corpus.
//!
//! The repair engine promises that an *applied* candidate re-renders
//! the selected leaf to exactly the requested value — every numeric
//! inversion is verified by forward recomputation before it is offered.
//! This suite holds that promise against the five real demo programs
//! (mortgage, shopping, gallery, counter, calculator) *and* all twenty
//! generated `alive-corpus` programs with a seeded walk: pick any
//! provenance-carrying leaf of the live display, ask for a perturbed
//! value, apply a random candidate, and check the display byte-for-byte.
//! Replay a failure with `ALIVE_TESTKIT_SEED=<seed>`.
//!
//! A second test pins the tentpole invariant the repairs stand on: the
//! bytecode VM (via its compile-time constant-provenance table) must
//! tag every leaf and attribute with *the same* provenance the bigstep
//! tree walker derives at run time — not just value-equal frames.

use alive_testkit::{prop, prop_assert, prop_assert_eq, NoShrink, Rng};
use its_alive::apps::{calculator, counter, gallery, mortgage, shopping};
use its_alive::core::boxtree::{BoxItem, BoxNode};
use its_alive::core::system::{EvalEngine, System, SystemConfig};
use its_alive::core::value::fmt_number;
use its_alive::core::{compile, Value};
use its_alive::live::{LiveSession, RepairError};

/// The walk pool: every demo program in `alive-apps` plus the full
/// generated scenario corpus.
fn scenario_sources() -> Vec<(String, String)> {
    let mut pool: Vec<(String, String)> = vec![
        ("mortgage".into(), mortgage::default_src()),
        ("shopping".into(), shopping::SHOPPING_SRC.to_string()),
        ("gallery".into(), gallery::gallery_src(5)),
        ("counter".into(), counter::COUNTER_SRC.to_string()),
        ("calculator".into(), calculator::CALCULATOR_SRC.to_string()),
    ];
    for entry in alive_corpus::corpus() {
        pool.push((entry.spec.name(), entry.source));
    }
    pool
}

/// Every `(path, leaf-ordinal, value)` in the tree that carries
/// provenance — the leaves direct manipulation can select.
fn repairable_leaves(root: &BoxNode) -> Vec<(Vec<usize>, usize, Value)> {
    let mut out = Vec::new();
    root.walk(&mut |path, node| {
        let mut ordinal = 0;
        for item in &node.items {
            if let BoxItem::Leaf(value, prov) = item {
                if prov.is_some() {
                    out.push((path.to_vec(), ordinal, value.clone()));
                }
                ordinal += 1;
            }
        }
    });
    out
}

/// A perturbed desired value for `old`, in the textual form a user
/// would type into the selected cell. `None` for value shapes the
/// repair engine does not invert (colors, tuples, closures).
fn perturbed(rng: &mut Rng, old: &Value) -> Option<(String, Value)> {
    match old {
        Value::Number(n) => {
            let delta = (rng.below(9) + 1) as f64;
            let target = if rng.chance(1, 2) {
                n + delta
            } else {
                n - delta
            };
            Some((fmt_number(target), Value::Number(target)))
        }
        Value::Str(_) => {
            let word = rng.string_in("abcdefgh", 1, 6);
            Some((
                format!("\"edited {word}\""),
                Value::Str(format!("edited {word}").into()),
            ))
        }
        Value::Bool(b) => {
            let flipped = !b;
            Some((flipped.to_string(), Value::Bool(flipped)))
        }
        _ => None,
    }
}

#[test]
fn applied_repairs_re_render_the_desired_value() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // Non-vacuity accounting: the walk must actually apply repairs, not
    // slide through on typed refusals.
    static APPLIED: AtomicUsize = AtomicUsize::new(0);
    let corpus = scenario_sources();
    let pool = corpus.len();
    prop::check(
        "applied_repairs_re_render_the_desired_value",
        prop::Config::with_cases(128),
        move |rng| NoShrink((rng.below(pool), rng.fork())),
        |case: &NoShrink<(usize, Rng)>| {
            let (app, walk_rng) = &case.0;
            let mut rng = walk_rng.clone();
            let (name, source) = &corpus[*app];
            let mut session =
                LiveSession::new(source).map_err(|e| format!("{name} must start: {e}"))?;
            let tree = session
                .display_tree()
                .ok_or_else(|| format!("{name} renders"))?;
            let leaves = repairable_leaves(&tree);
            prop_assert!(
                !leaves.is_empty(),
                "{} has provenance-carrying leaves",
                name
            );
            let (path, ordinal, old) = rng.choose(&leaves).clone();
            let Some((desired_text, desired_value)) = perturbed(&mut rng, &old) else {
                return Ok(()); // un-invertible value shape: nothing to assert
            };
            let view_before = session.live_view();
            let source_before = session.source().to_string();
            let repairs = match session.repairs_at(&path, ordinal, &desired_text) {
                Ok(repairs) => repairs,
                // Some expressions genuinely have no inversion (e.g. a
                // prim-call result): a typed refusal, not a failure.
                Err(RepairError::NoCandidates) => return Ok(()),
                Err(e) => return Err(format!("{name} poke {path:?}/{ordinal}: {e}")),
            };
            prop_assert!(!repairs.is_empty(), "offer is non-empty");
            for pair in repairs.windows(2) {
                prop_assert!(
                    pair[0].rank <= pair[1].rank,
                    "candidates ranked best-first: {:?}",
                    repairs
                );
            }
            prop_assert!(
                repairs.iter().all(|r| !r.description.is_empty()),
                "every candidate is described"
            );

            let index = rng.below(repairs.len());
            let outcome = session
                .apply_repair(index)
                .map_err(|e| format!("{name} apply[{index}]: {e}"))?;
            if outcome.is_applied() {
                APPLIED.fetch_add(1, Ordering::Relaxed);
                let tree = session
                    .display_tree()
                    .ok_or_else(|| format!("{name} re-renders"))?;
                let node = tree
                    .descendant(&path)
                    .ok_or_else(|| format!("box {path:?} survives the repair"))?;
                let (got, _) = node
                    .leaf_with_provenance(ordinal)
                    .ok_or_else(|| format!("leaf {ordinal} survives the repair"))?;
                prop_assert_eq!(
                    got,
                    &desired_value,
                    "{} repair[{}] of {:?}/{} renders the requested value",
                    name,
                    index,
                    path,
                    ordinal
                );
                // The offer was consumed: a second apply needs a fresh
                // selection.
                prop_assert_eq!(
                    session.apply_repair(index).err(),
                    Some(RepairError::NoPending),
                    "applied offers are consumed"
                );
            } else {
                // A candidate the running model refuses (it would fault
                // or be rejected) must leave the session untouched.
                prop_assert_eq!(
                    session.source(),
                    source_before.as_str(),
                    "{} refused repair leaves the source alone",
                    name
                );
                prop_assert_eq!(
                    session.live_view(),
                    view_before,
                    "{} refused repair leaves the view alone",
                    name
                );
            }
            Ok(())
        },
    );
    let applied = APPLIED.load(Ordering::Relaxed);
    assert!(
        applied >= 64,
        "the walk must exercise real applies, got {applied}"
    );
}

/// Lockstep item-by-item comparison *including provenance*, which the
/// value-based `BoxNode` equality deliberately ignores.
fn assert_provenance_agrees(name: &str, vm: &BoxNode, bs: &BoxNode, tagged: &mut usize) {
    assert_eq!(vm.items.len(), bs.items.len(), "{name}: item counts agree");
    for (i, (a, b)) in vm.items.iter().zip(&bs.items).enumerate() {
        match (a, b) {
            (BoxItem::Child(ca), BoxItem::Child(cb)) => {
                assert_provenance_agrees(name, ca, cb, tagged);
            }
            _ => {
                assert_eq!(a, b, "{name}: item {i} values agree");
                assert_eq!(
                    a.provenance(),
                    b.provenance(),
                    "{name}: item {i} provenance agrees (vm vs bigstep)"
                );
                if a.provenance().is_some() {
                    *tagged += 1;
                }
            }
        }
    }
}

#[test]
fn vm_and_bigstep_tag_identical_provenance_on_every_scenario() {
    for (name, source) in scenario_sources() {
        let program = compile(&source).expect("scenario programs compile");
        let mut vm_sys = System::with_config(program.clone(), SystemConfig::default());
        let mut bs_sys = System::with_config(
            program,
            SystemConfig {
                engine: EvalEngine::Bigstep,
                ..SystemConfig::default()
            },
        );
        vm_sys.run_to_stable().expect("vm startup renders");
        bs_sys.run_to_stable().expect("bigstep startup renders");
        let vm_frame = vm_sys.rendered().expect("vm frame").clone();
        let bs_frame = bs_sys.rendered().expect("bigstep frame").clone();
        assert_eq!(vm_frame, bs_frame, "{name}: frames byte-identical");
        let mut tagged = 0;
        assert_provenance_agrees(&name, &vm_frame, &bs_frame, &mut tagged);
        assert!(tagged > 0, "{name}: provenance actually present");
        let stats = vm_sys.vm_stats();
        assert!(stats.runs > 0, "{name}: the VM actually ran ({stats:?})");
    }
}
