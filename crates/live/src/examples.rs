//! Babylonian live examples — continuously evaluated probes.
//!
//! An `example name = expr [expect expr]` item is a pure expression the
//! environment re-evaluates on every edit and every model change, in
//! the style of Babylonian/example-based programming (Rauch et al.):
//! the programmer sees concrete values for the code under edit, always
//! up to date, without running anything by hand. An `expect` clause
//! turns the probe into a live assertion: the probe reports pass/fail
//! continuously instead of only printing the value.
//!
//! Probes evaluate against the *running model* (the store), so an
//! example over a global shows the live value, not the initial one.
//! The system evaluates them ([`System::eval_example`]) on the engine
//! its transitions run on, so a probe computes exactly what the running
//! code would; the VM and the reference bigstep engine agree byte for
//! byte (`tests/example_probes.rs`).

use alive_core::system::System;
use std::fmt;
use std::sync::Arc;

/// The status of one probe after evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeStatus {
    /// No `expect` clause: the probe just shows its value.
    Value,
    /// `expect` present and both sides evaluated to equal values.
    Pass,
    /// `expect` present and the sides disagree; carries the rendered
    /// expected value.
    Fail {
        /// The rendered value of the `expect` clause.
        expected: String,
    },
    /// The body (or the `expect` clause) faulted; the probe's `value`
    /// is the rendered runtime error.
    Fault,
}

/// One evaluated live example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExampleProbe {
    /// The example's name.
    pub name: String,
    /// Rendered probe value (or the fault text for [`ProbeStatus::Fault`]).
    pub value: String,
    /// Pass/fail/value status.
    pub status: ProbeStatus,
}

impl ExampleProbe {
    /// One-line rendering, stable across engines — the wire and panel
    /// format: `name = value`, `name = value ok`, `name = value,
    /// expected <e>`, or `name faulted: <err>`.
    pub fn render_line(&self) -> String {
        match &self.status {
            ProbeStatus::Value => format!("{} = {}", self.name, self.value),
            ProbeStatus::Pass => format!("{} = {} ok", self.name, self.value),
            ProbeStatus::Fail { expected } => {
                format!("{} = {}, expected {}", self.name, self.value, expected)
            }
            ProbeStatus::Fault => format!("{} faulted: {}", self.name, self.value),
        }
    }
}

impl fmt::Display for ExampleProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_line())
    }
}

/// Evaluate every example of the system's program against its model.
pub(crate) fn evaluate_examples(system: &mut System) -> Vec<ExampleProbe> {
    let program = Arc::clone(system.program_shared());
    let mut out = Vec::with_capacity(program.examples().len());
    for (index, def) in program.examples().iter().enumerate() {
        let Some(body) = system.eval_example(index, false) else {
            continue;
        };
        let probe = body.and_then(|value| {
            let status = match system.eval_example(index, true) {
                None => ProbeStatus::Value,
                Some(expected) => match expected? {
                    expected if expected == value => ProbeStatus::Pass,
                    expected => ProbeStatus::Fail {
                        expected: expected.display_text(),
                    },
                },
            };
            Ok(ExampleProbe {
                name: def.name.to_string(),
                value: value.display_text(),
                status,
            })
        });
        out.push(probe.unwrap_or_else(|e| ExampleProbe {
            name: def.name.to_string(),
            value: e.to_string(),
            status: ProbeStatus::Fault,
        }));
    }
    out
}
