//! Pooled evaluation scratch for the bytecode VM.
//!
//! The VM evaluates every call frame on one contiguous register stack:
//! [`Scratch::push_window`] reserves a frame's registers at the top and
//! [`Scratch::pop_window`] releases them, so a whole transition performs
//! at most a handful of `Vec` growths and zero per-value heap
//! allocations for locals. The backing storage is an epoch arena: each
//! transition calls [`Scratch::begin`], which bumps the epoch and
//! resets the *length* but keeps the *capacity*, mirroring the
//! two-generation `LayoutCache` eviction — memory stays warm across the
//! RENDER loop instead of being reallocated per frame.
//!
//! The same object pools the render spine: the `Vec<BoxNode>` of open
//! box frames is borrowed per run ([`Scratch::take_box_spine`]) and
//! returned cleared, so steady-state renders reuse its capacity too;
//! and the text buffer `Concat` writes a `++` chain into
//! ([`Scratch::concat`]), so a chain's string costs one allocation.

use std::sync::Arc;

use crate::bigstep::push_concat_operand;
use crate::boxtree::BoxNode;
use crate::error::RuntimeError;
use crate::value::Value;

use super::Reg;

/// Reusable register/arena storage for one session's VM runs.
///
/// A `Scratch` is *not* part of the semantic state: cloning a system for
/// a transaction checkpoint yields a fresh, empty pool (capacity is a
/// cache, never data), and two runs with different pools are
/// byte-identical in every observable output.
#[derive(Debug, Default)]
pub struct Scratch {
    regs: Vec<Value>,
    box_spine: Vec<BoxNode>,
    text: String,
    hiwater: usize,
    epochs: u64,
}

/// Checkpoint clones must not drag pooled capacity along — a clone is a
/// fresh pool that warms up on first use.
impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::new()
    }
}

impl Scratch {
    /// A new, empty pool.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Start a new epoch: drop all live windows, keep capacity.
    pub(crate) fn begin(&mut self) {
        self.epochs = self.epochs.wrapping_add(1);
        self.regs.clear();
    }

    /// Reserve `n` registers at the top of the stack, initialized to a
    /// filler value, returning the window's base index.
    pub(crate) fn push_window(&mut self, n: u16) -> usize {
        let base = self.regs.len();
        self.regs.resize(base + n as usize, Value::Bool(false));
        if self.regs.len() > self.hiwater {
            self.hiwater = self.regs.len();
        }
        base
    }

    /// Release every register at or above `base`.
    pub(crate) fn pop_window(&mut self, base: usize) {
        self.regs.truncate(base);
    }

    /// Read register `i` (absolute index).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Result<&Value, RuntimeError> {
        self.regs
            .get(i)
            .ok_or(RuntimeError::Internal("vm: register out of range"))
    }

    /// Write register `i` (absolute index).
    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: Value) -> Result<(), RuntimeError> {
        match self.regs.get_mut(i) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(RuntimeError::Internal("vm: register out of range")),
        }
    }

    /// A contiguous run of `n` registers starting at absolute index
    /// `base` — used to pass primitive arguments without re-collecting
    /// them into a fresh `Vec`.
    #[inline]
    pub(crate) fn slice(&self, base: usize, n: usize) -> Result<&[Value], RuntimeError> {
        self.regs
            .get(base..base + n)
            .ok_or(RuntimeError::Internal("vm: register out of range"))
    }

    /// Join the display texts of registers `ops` of the window at `base`
    /// into one string: each operand is written into the pooled text
    /// buffer, and the result is copied out in a single allocation.
    pub(crate) fn concat(&mut self, base: usize, ops: &[Reg]) -> Result<Arc<str>, RuntimeError> {
        self.text.clear();
        for &r in ops {
            let v = self
                .regs
                .get(base + r as usize)
                .ok_or(RuntimeError::Internal("vm: register out of range"))?;
            push_concat_operand(&mut self.text, v)?;
        }
        Ok(Arc::from(self.text.as_str()))
    }

    /// Borrow the pooled render spine (open box frames) for one run.
    pub(crate) fn take_box_spine(&mut self) -> Vec<BoxNode> {
        let mut spine = std::mem::take(&mut self.box_spine);
        spine.clear();
        spine
    }

    /// Return the render spine after a run, keeping its capacity.
    pub(crate) fn return_box_spine(&mut self, mut spine: Vec<BoxNode>) {
        spine.clear();
        self.box_spine = spine;
    }

    /// High-water mark of live register bytes across all epochs.
    pub fn hiwater_bytes(&self) -> u64 {
        (self.hiwater * std::mem::size_of::<Value>()) as u64
    }

    /// Number of epochs started (transitions run on this pool).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_stack_and_reset_keeps_capacity() {
        let mut s = Scratch::new();
        s.begin();
        let a = s.push_window(4);
        assert_eq!(a, 0);
        s.set(0, Value::Number(1.0)).unwrap();
        let b = s.push_window(2);
        assert_eq!(b, 4);
        s.set(4, Value::Number(2.0)).unwrap();
        assert_eq!(s.get(0).unwrap(), &Value::Number(1.0));
        s.pop_window(b);
        assert!(s.get(4).is_err());
        assert_eq!(s.hiwater_bytes(), 6 * std::mem::size_of::<Value>() as u64);
        s.begin();
        assert_eq!(s.epochs(), 2);
        assert!(s.get(0).is_err());
        // Capacity is retained; high-water survives the epoch reset.
        assert_eq!(s.hiwater_bytes(), 6 * std::mem::size_of::<Value>() as u64);
    }

    /// `l ++ r` is the display text of `l` followed by that of `r`, in
    /// `apply_binop` and in the VM's `Concat` alike, for every kind of
    /// operand `++` accepts and the number forms that print specially.
    #[test]
    fn concat_writes_display_texts() {
        use crate::bigstep::apply_binop;
        use crate::value::Color;
        use alive_syntax::ast::BinOp;

        let operands = [
            Value::Number(-0.0),
            Value::Number(f64::NAN),
            Value::Number(f64::INFINITY),
            Value::Number(f64::NEG_INFINITY),
            Value::Number(2.5),
            Value::Number(1e15 - 1.0),
            Value::Number(1e15 + 1.0),
            Value::Number(1e21),
            Value::Color(Color::new(170, 210, 240)),
            Value::Color(Color::new(9, 9, 9)),
            Value::Bool(true),
            Value::Bool(false),
            Value::str("é-日本"),
            Value::str(""),
        ];
        let mut s = Scratch::new();
        s.begin();
        let base = s.push_window(2);
        for l in &operands {
            for r in &operands {
                let expected = l.display_text() + &r.display_text();
                let pair = apply_binop(BinOp::Concat, l, r).unwrap();
                assert_eq!(pair, Value::str(&expected), "{l:?} ++ {r:?}");
                s.set(base, l.clone()).unwrap();
                s.set(base + 1, r.clone()).unwrap();
                let joined = s.concat(base, &[0, 1]).unwrap();
                assert_eq!(&*joined, expected, "{l:?} ++ {r:?}");
            }
        }
        // The forms those texts take.
        let texts: Vec<String> = operands.iter().map(Value::display_text).collect();
        assert_eq!(
            texts,
            [
                "0",
                "NaN",
                "inf",
                "-inf",
                "2.5",
                "999999999999999",
                "1000000000000001",
                "1000000000000000000000",
                "light_blue",
                "#090909",
                "true",
                "false",
                "é-日本",
                "",
            ]
        );
        // Only strings, numbers, bools and colors concatenate.
        s.set(base, Value::unit()).unwrap();
        assert!(s.concat(base, &[1, 0]).is_err());
        assert!(apply_binop(BinOp::Concat, &Value::str("a"), &Value::unit()).is_err());
    }

    #[test]
    fn clone_is_a_fresh_pool() {
        let mut s = Scratch::new();
        s.begin();
        s.push_window(8);
        let c = s.clone();
        assert_eq!(c.epochs(), 0);
        assert_eq!(c.hiwater_bytes(), 0);
    }
}
