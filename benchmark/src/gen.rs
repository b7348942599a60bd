//! Seeded command generators. Every target is picked from the frame the
//! session last returned, never from a blind path, so each command has
//! one expected outcome and anything else counts as a failure.

use crate::corpus::{Site, SiteKind};
use alive_core::boxtree::BoxNode;
use alive_core::Attr;
use alive_corpus::Rng;
use alive_live::{SessionCommand, SessionEffect, UndoOutcome};
use std::collections::VecDeque;

/// What a command must answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A fresh frame, with no refusal, rejection or quarantine on the way.
    Frame,
    /// `EditRejected` and nothing else: a deliberately broken keystroke.
    Rejected,
    /// A non-empty repair offer.
    Repairs,
    /// The live-example probes.
    Examples,
}

impl Expect {
    pub fn holds(self, effects: &[SessionEffect]) -> bool {
        match self {
            Expect::Frame => {
                matches!(effects.last(), Some(SessionEffect::Frame(_)))
                    && effects.iter().all(|e| match e {
                        SessionEffect::Refused(_)
                        | SessionEffect::Overloaded { .. }
                        | SessionEffect::EditRejected(_)
                        | SessionEffect::EditQuarantined { .. } => false,
                        SessionEffect::Undo { outcome, .. } => *outcome == UndoOutcome::Applied,
                        _ => true,
                    })
            }
            Expect::Rejected => matches!(effects, [SessionEffect::EditRejected(_)]),
            Expect::Repairs => matches!(effects, [SessionEffect::Repairs(r)] if !r.is_empty()),
            Expect::Examples => matches!(effects, [SessionEffect::Examples(_)]),
        }
    }
}

/// One generated command with its expected outcome.
#[derive(Debug, Clone)]
pub struct Step {
    pub command: SessionCommand,
    pub expect: Expect,
}

impl Step {
    fn frame(command: SessionCommand) -> Step {
        Step {
            command,
            expect: Expect::Frame,
        }
    }
}

/// Paths of the boxes in `tree` carrying a handler for `attr`.
fn handler_paths(tree: &BoxNode, attr: Attr) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    tree.walk(&mut |path, node| {
        if node.attr(attr).is_some() {
            out.push(path.to_vec());
        }
    });
    out
}

/// The model-write stream: taps on tappable boxes, `Back` when a page
/// is pushed, and `EditBox` on editable boxes (numeric text, which both
/// the form's number fields and the editor's string rows accept).
pub fn tap_step(rng: &mut Rng, tree: &BoxNode, pages: usize) -> Step {
    if pages > 1 && rng.below(2) == 0 {
        return Step::frame(SessionCommand::Back);
    }
    let editable = handler_paths(tree, Attr::OnEdit);
    if !editable.is_empty() && rng.below(5) == 0 {
        let path = rng.choose(&editable).clone();
        let text = rng.below(100).to_string();
        return Step::frame(SessionCommand::EditBox { path, text });
    }
    let tappable = handler_paths(tree, Attr::OnTap);
    if tappable.is_empty() {
        return Step::frame(SessionCommand::Frame);
    }
    Step::frame(SessionCommand::TapPath(rng.choose(&tappable).clone()))
}

/// A queued keystroke-stream action. Manipulations resolve their target
/// when issued, against the frame current at that moment.
#[derive(Debug)]
enum Intent {
    Edit { text: String, broken: bool },
    Undo,
    Redo,
    Manipulate,
    ApplyRepair,
}

/// The code-write stream of one session: bursts of single-character
/// edits inside one literal that end on the original text, so the
/// source is stationary across bursts.
///
/// * String bursts insert 1–8 letters into a string literal, then
///   delete them again.
/// * Number bursts delete a one- or two-digit integer literal digit by
///   digit down to the empty literal (the broken intermediate,
///   rejected), then retype it. Number bursts are chosen while broken
///   keystrokes are at most 15% of all keystrokes.
/// * 5% of bursts are an `Undo`/`Redo` pair, and 5% a `ManipulateAt` on
///   a rendered number + `ApplyRepair(0)` + `Undo` to take it back.
#[derive(Debug)]
pub struct KeyGen {
    original: String,
    queue: VecDeque<Intent>,
    keystrokes: u64,
    broken: u64,
}

impl KeyGen {
    pub fn new(original: &str) -> KeyGen {
        KeyGen {
            original: original.to_string(),
            queue: VecDeque::new(),
            keystrokes: 0,
            broken: 0,
        }
    }

    /// Whether the current burst is finished (the source is back to the
    /// original text).
    pub fn at_boundary(&self) -> bool {
        self.queue.is_empty()
    }

    /// The next keystroke-stream command, starting a new burst when the
    /// last one finished. `tree` is the frame the session last returned;
    /// `undo_depth` its undo history (an undo needs something to undo).
    pub fn next(
        &mut self,
        rng: &mut Rng,
        sites: &[Site],
        tree: &BoxNode,
        undo_depth: usize,
    ) -> Step {
        if self.queue.is_empty() {
            self.plan_burst(rng, sites, undo_depth);
        }
        match self.queue.pop_front() {
            Some(Intent::Edit { text, broken }) => Step {
                command: SessionCommand::EditSource(text),
                expect: if broken {
                    Expect::Rejected
                } else {
                    Expect::Frame
                },
            },
            Some(Intent::Undo) => Step::frame(SessionCommand::Undo),
            Some(Intent::Redo) => Step::frame(SessionCommand::Redo),
            Some(Intent::Manipulate) => {
                let (path, leaf, value) = numeric_leaf(rng, tree);
                Step {
                    command: SessionCommand::ManipulateAt { path, leaf, value },
                    expect: Expect::Repairs,
                }
            }
            Some(Intent::ApplyRepair) | None => Step::frame(SessionCommand::ApplyRepair(0)),
        }
    }

    fn plan_burst(&mut self, rng: &mut Rng, sites: &[Site], undo_depth: usize) {
        match rng.below(20) {
            0 if undo_depth > 0 => self.queue.extend([Intent::Undo, Intent::Redo]),
            1 => self
                .queue
                .extend([Intent::Manipulate, Intent::ApplyRepair, Intent::Undo]),
            _ => {
                // Number bursts use literals of one or two digits: a longer
                // literal takes more keystrokes per emptied one than the
                // 15% target allows.
                let short_numbers: Vec<&Site> = sites
                    .iter()
                    .filter(|s| s.kind == SiteKind::Num && s.end - s.start <= 2)
                    .collect();
                let texts =
                    if self.broken * 100 <= self.keystrokes * 15 && !short_numbers.is_empty() {
                        self.number_burst(**rng.choose(&short_numbers))
                    } else {
                        let strings: Vec<&Site> =
                            sites.iter().filter(|s| s.kind == SiteKind::Str).collect();
                        let site = **rng.choose(&strings);
                        self.string_burst(rng, site)
                    };
                self.keystrokes += texts.len() as u64;
                for (text, broken) in texts {
                    self.broken += u64::from(broken);
                    self.queue.push_back(Intent::Edit { text, broken });
                }
            }
        }
    }

    fn string_burst(&self, rng: &mut Rng, site: Site) -> Vec<(String, bool)> {
        let boundaries: Vec<usize> = (site.start..=site.end)
            .filter(|&i| self.original.is_char_boundary(i))
            .collect();
        let at = *rng.choose(&boundaries);
        let typed: String = (0..1 + rng.below(8))
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect();
        let with = |n: usize| {
            let mut text = self.original.clone();
            text.insert_str(at, &typed[..n]);
            (text, false)
        };
        let inserts = (1..=typed.len()).map(with);
        let deletes = (0..typed.len()).rev().map(with);
        inserts.chain(deletes).collect()
    }

    fn number_burst(&self, site: Site) -> Vec<(String, bool)> {
        let digits = &self.original[site.start..site.end];
        let with = |n: usize| {
            let text = format!(
                "{}{}{}",
                &self.original[..site.start],
                &digits[..n],
                &self.original[site.end..]
            );
            (text, n == 0)
        };
        let deletes = (0..digits.len()).rev().map(with);
        let retypes = (1..=digits.len()).map(with);
        deletes.chain(retypes).collect()
    }
}

/// A rendered leaf to manipulate and its desired new text: the last
/// number in the leaf's text, incremented. Falls back to the first leaf
/// with a suffix when no leaf shows a number.
fn numeric_leaf(rng: &mut Rng, tree: &BoxNode) -> (Vec<usize>, usize, String) {
    let mut numeric = Vec::new();
    let mut any = None;
    tree.walk(&mut |path, node| {
        for (leaf, value) in node.leaves().enumerate() {
            let text = value.display_text();
            if any.is_none() {
                any = Some((path.to_vec(), leaf, format!("{text}x")));
            }
            if let Some(bumped) = bump_last_number(&text) {
                numeric.push((path.to_vec(), leaf, bumped));
            }
        }
    });
    if numeric.is_empty() {
        return any.unwrap_or_default();
    }
    numeric.swap_remove(rng.below(numeric.len() as u64) as usize)
}

/// `text` with its last run of digits replaced by that number plus one.
fn bump_last_number(text: &str) -> Option<String> {
    let end = text.rfind(|c: char| c.is_ascii_digit())? + 1;
    let start = text[..end]
        .rfind(|c: char| !c.is_ascii_digit())
        .map_or(0, |i| i + 1);
    let n: u64 = text[start..end].parse().ok()?;
    Some(format!("{}{}{}", &text[..start], n + 1, &text[end..]))
}

/// The hosted mix: 85% model writes (taps, back, edit boxes), 5%
/// keystroke-stream commands, 5% `Examples`, 5% `Frame`.
pub fn hosted_step(
    rng: &mut Rng,
    keys: &mut KeyGen,
    sites: &[Site],
    tree: &BoxNode,
    pages: usize,
    undo_depth: usize,
) -> Step {
    match rng.below(20) {
        0 => keys.next(rng, sites, tree, undo_depth),
        1 => Step {
            command: SessionCommand::Examples,
            expect: Expect::Examples,
        },
        2 => Step::frame(SessionCommand::Frame),
        _ => tap_step(rng, tree, pages),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps_the_last_number() {
        assert_eq!(
            bump_last_number("field 2: 79").as_deref(),
            Some("field 2: 80")
        );
        assert_eq!(
            bump_last_number("total 9 over x").as_deref(),
            Some("total 10 over x")
        );
        assert_eq!(bump_last_number("no digits"), None);
    }

    #[test]
    fn bursts_end_on_the_original_text() {
        let src = "global n : number = 12\npage start() { render { post \"ab\"; } }";
        let sites = crate::corpus::literal_sites(src);
        let mut keys = KeyGen::new(src);
        let mut rng = Rng::new(7);
        let tree = BoxNode::default();
        for _ in 0..200 {
            let step = keys.next(&mut rng, &sites, &tree, 1);
            if keys.at_boundary() {
                if let SessionCommand::EditSource(text) = &step.command {
                    assert_eq!(text, src);
                }
            }
        }
        assert!(keys.broken > 0);
    }
}
