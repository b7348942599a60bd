//! Session traces: record a live programming session — interactions
//! *and* code edits — and replay it deterministically.
//!
//! The paper's §1 discusses trace-based approaches to liveness, and
//! §4's model makes determinism easy to state: the same initial source
//! and the same commands reach the same state. A trace is exactly that
//! pair — the initial source plus every [`SessionCommand`]
//! [`LiveSession::apply`] received — written in the protocol's own wire
//! format after a header and a length-prefixed source block:
//!
//! ```text
//! #alive-trace v2
//! source 123
//! <123 bytes of source>
//! tap 1 0
//! poke 0 0 -- 99
//! repair 0
//! ```
//!
//! ```
//! use alive_live::{LiveSession, SessionCommand, SessionTrace};
//!
//! let src = "global n : number = 0
//!     page start() { render { boxed { post n; on tap { n := n + 1; } } } }";
//! let mut session = LiveSession::new(src)?;
//! let mut trace = SessionTrace::new(src);
//! trace.record(&mut session, SessionCommand::TapPath(vec![0]));
//! trace.record(&mut session, SessionCommand::TapPath(vec![0]));
//!
//! let mut replayed = SessionTrace::parse(&trace.serialize())?.replay()?;
//! assert_eq!(replayed.live_view(), "2\n");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::protocol::{parse_commands, ProtocolParseError, SessionCommand, SessionEffect};
use crate::session::{LiveSession, SessionError};

const HEADER: &str = "#alive-trace v2";

/// A recorded session: the initial source plus every command applied
/// to it, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTrace {
    /// The program the session started from.
    pub initial_source: String,
    /// The commands, exactly as [`LiveSession::apply`] received them.
    pub commands: Vec<SessionCommand>,
}

impl SessionTrace {
    /// A new empty trace for a program.
    pub fn new(initial_source: impl Into<String>) -> Self {
        SessionTrace {
            initial_source: initial_source.into(),
            commands: Vec::new(),
        }
    }

    /// Record `command`, then apply it to `session`. Every command is
    /// recorded, refused ones and queries included: `apply` is total
    /// and deterministic, so replaying the whole stream reproduces the
    /// session.
    pub fn record(
        &mut self,
        session: &mut LiveSession,
        command: SessionCommand,
    ) -> Vec<SessionEffect> {
        self.commands.push(command.clone());
        session.apply(command)
    }

    /// Apply every command to a fresh session on the initial source.
    ///
    /// # Errors
    ///
    /// [`SessionError`] if the initial program does not compile.
    pub fn replay(&self) -> Result<LiveSession, SessionError> {
        let mut session = LiveSession::new(&self.initial_source)?;
        for command in &self.commands {
            session.apply(command.clone());
        }
        Ok(session)
    }

    /// The header, the initial source as a `source <len>` block, then
    /// each command in wire form.
    pub fn serialize(&self) -> String {
        let source = &self.initial_source;
        let mut out = format!("{HEADER}\nsource {}\n{source}\n", source.len());
        for command in &self.commands {
            out.push_str(&command.serialize());
        }
        out
    }

    /// Parse the serialized form.
    ///
    /// # Errors
    ///
    /// [`ProtocolParseError`] with the line number in the whole trace.
    pub fn parse(text: &str) -> Result<SessionTrace, ProtocolParseError> {
        let err = |line: usize, message: &str| ProtocolParseError {
            line,
            message: message.to_string(),
        };
        let (header, rest) = text.split_once('\n').unwrap_or((text, ""));
        if header.trim_end() != HEADER {
            return Err(err(1, "missing `#alive-trace v2` header"));
        }
        let (source_line, rest) = rest.split_once('\n').unwrap_or((rest, ""));
        let len: usize = source_line
            .strip_prefix("source ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| err(2, "malformed `source <len>` line"))?;
        let (Some(source), Some(rest)) = (rest.get(..len), rest.get(len..)) else {
            return Err(err(3, "source block truncated"));
        };
        // The header, the length line, and the block with its newline.
        let offset = 3 + source.matches('\n').count();
        let commands = parse_commands(rest.strip_prefix('\n').unwrap_or(rest))
            .map_err(|e| err(e.line + offset, &e.message))?;
        Ok(SessionTrace {
            initial_source: source.to_string(),
            commands,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use SessionEffect as E;

    /// The program [`every_state_changing_command`] drives.
    pub(crate) const APP: &str = r#"global count : number = 0
global note : string = "hi"
page start() {
    render {
        boxed { post "count is " ++ count; on tap { count := count + 1; } }
        boxed { post note; on edited(text : string) { note := text; } }
        boxed { post "open"; on tap { push detail(count); } }
    }
}
page detail(n : number) { render { boxed { post "detail " ++ n; } } }
"#;

    /// A script of 16 commands against a fresh session on [`APP`], one or
    /// more of every state-changing kind, each of which takes effect.
    pub(crate) fn every_state_changing_command() -> Vec<SessionCommand> {
        let edit = SessionCommand::EditSource(APP.replace("count is", "total is"));
        let restore = SessionCommand::Restore("#alive-store v1\ncount := 7\n".into());
        // The restore comes early so that it does not mask the taps.
        let wire = format!(
            "tap 0\n{}tap-at 0 0\neditbox 1 -- two\\nlines \\\\ here\ntap 2\nback\n{}\
             poke 0 0 -- n = 8\nrepair 0\nattredit 0 margin -- 2\n\
             txopen\ntxedit 1 1\n0 0 -- // staged\\n\ntxcommit 1\nundo\nundo\nredo\n",
            restore.serialize(),
            edit.serialize(),
        );
        parse_commands(&wire).expect("parses")
    }

    #[test]
    fn every_state_changing_command_replays() {
        let mut live = LiveSession::new(APP).expect("starts");
        let mut trace = SessionTrace::new(APP);
        for command in every_state_changing_command() {
            let effects = trace.record(&mut live, command.clone());
            // Each command must take effect, or the replay check is vacuous.
            let missed = effects.iter().any(|e| match e {
                E::Refused(_) | E::EditRejected(_) | E::EditQuarantined { .. } => true,
                E::Tap { hit } => !hit,
                E::Undo { outcome, .. } => !outcome.is_applied(),
                _ => false,
            });
            assert!(!missed, "{command:?} did not take effect: {effects:?}");
        }
        assert_eq!(trace.commands.len(), 16);

        let parsed = SessionTrace::parse(&trace.serialize()).expect("parses");
        assert_eq!(parsed, trace);
        let mut replayed = parsed.replay().expect("replays");
        assert_eq!(live.live_view(), replayed.live_view());
        assert_eq!(live.source(), replayed.source());
        assert_eq!(live.system().store(), replayed.system().store());
        assert_eq!(live.undo_depth(), replayed.undo_depth());
    }

    #[test]
    fn parse_errors_carry_whole_trace_line_numbers() {
        assert!(SessionTrace::parse("").is_err());
        assert!(SessionTrace::parse("#alive-trace v1\nsource 1\nx\n").is_err());
        let err = SessionTrace::parse("#alive-trace v2\nnonsense").expect_err("no length");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("source <len>"), "{err}");
        assert!(SessionTrace::parse("#alive-trace v2\nsource 99\nshort").is_err());
        let err = SessionTrace::parse("#alive-trace v2\nsource 3\na\nb\nback\nfly 1 2")
            .expect_err("unknown command");
        assert_eq!(err.line, 6);
        assert!(err.message.contains("unknown command"), "{err}");
    }
}
