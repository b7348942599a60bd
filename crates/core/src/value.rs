//! Runtime values (the paper's `v`).
//!
//! Values are cheap to clone: aggregates are reference-counted and
//! immutable, matching the calculus where values are pure trees.

use crate::expr::{Expr, ParamSig};
use crate::prim::Prim;
use crate::types::{Effect, Name, Type};
use std::fmt;
use std::sync::Arc;

/// An RGB color; a conservative extension used by box attributes
/// (`box.background := colors.light_blue`, paper §3.1 improvement I3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// Construct a color from channels.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Color { r, g, b }
    }

    /// The named color table exposed as the `colors` namespace.
    pub const NAMED: [(&'static str, Color); 12] = [
        ("black", Color::new(0, 0, 0)),
        ("white", Color::new(255, 255, 255)),
        ("red", Color::new(220, 50, 47)),
        ("green", Color::new(60, 160, 60)),
        ("blue", Color::new(38, 110, 200)),
        ("yellow", Color::new(230, 200, 50)),
        ("orange", Color::new(230, 130, 40)),
        ("purple", Color::new(120, 80, 170)),
        ("gray", Color::new(128, 128, 128)),
        ("light_gray", Color::new(210, 210, 210)),
        ("light_blue", Color::new(170, 210, 240)),
        ("transparent", Color::new(1, 2, 3)),
    ];

    /// Look up a named color (`colors.light_blue`).
    pub fn by_name(name: &str) -> Option<Color> {
        Color::NAMED
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| *c)
    }

    /// The name of this color if it is one of the named table entries.
    pub fn name(self) -> Option<&'static str> {
        Color::NAMED
            .iter()
            .find(|(_, c)| *c == self)
            .map(|(n, _)| *n)
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(n) => f.write_str(n),
            None => write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b),
        }
    }
}

/// The environment captured by a closure: a by-value snapshot of the
/// bindings visible at the lambda, innermost last. One allocation holds
/// the count and the bindings; an empty environment allocates nothing
/// (`CapturedEnv::default()`).
pub type CapturedEnv = Arc<[(Name, Value)]>;

/// Collect `len` bindings from `next` into one [`CapturedEnv`]
/// allocation, or `None` if `next` runs dry first. `Arc<[T]>` collects a
/// mapped range in place, where from any other iterator it would fill a
/// `Vec` first and copy it: two allocations instead of one. An empty
/// environment allocates nothing.
pub(crate) fn collect_env(
    len: usize,
    mut next: impl FnMut() -> Option<(Name, Value)>,
) -> Option<CapturedEnv> {
    if len == 0 {
        return Some(CapturedEnv::default());
    }
    let mut complete = true;
    let env = (0..len)
        .map(|_| {
            next().unwrap_or_else(|| {
                complete = false;
                (Name::default(), Value::Bool(false))
            })
        })
        .collect();
    complete.then_some(env)
}

/// A closure value: a lambda plus its captured environment.
///
/// The `version` field records the code version (the system's UPDATE
/// counter) under which the closure was created; the no-stale-code
/// invariant of §4.2 asserts that no closure with an old version is
/// reachable after an UPDATE transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Closure {
    /// Parameter names and types.
    pub params: Arc<[ParamSig]>,
    /// Latent effect of the body.
    pub effect: Effect,
    /// The body expression (from the program's code).
    pub body: Arc<Expr>,
    /// Captured bindings.
    pub env: CapturedEnv,
    /// Code version at creation time.
    pub version: u64,
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number.
    Number(f64),
    /// A string.
    Str(Arc<str>),
    /// A boolean.
    Bool(bool),
    /// A color.
    Color(Color),
    /// A tuple; the empty tuple is the unit value `()`.
    Tuple(Arc<[Value]>),
    /// An immutable list.
    List(Arc<[Value]>),
    /// A closure.
    Closure(Arc<Closure>),
    /// A primitive function as a first-class value.
    Prim(Prim),
    /// A reference to a `remember` view-state slot. Never user-visible:
    /// it only inhabits the local binding a `remember` introduces, and
    /// every read/write site dereferences it.
    WidgetRef(crate::widget::WidgetKey),
}

impl Value {
    /// The unit value `()`.
    pub fn unit() -> Value {
        Value::Tuple(Arc::from(Vec::new()))
    }

    /// A string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// A tuple value.
    pub fn tuple(elems: Vec<Value>) -> Value {
        Value::Tuple(Arc::from(elems))
    }

    /// A list value.
    pub fn list(elems: Vec<Value>) -> Value {
        Value::List(Arc::from(elems))
    }

    /// Whether this is the unit value.
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Tuple(elems) if elems.is_empty())
    }

    /// Structural membership in a type — used by the Fig. 12 fix-up
    /// relations (`C' : S ▷ S'`) and by system-state typing (Fig. 11).
    ///
    /// Closures are checked against their declared parameter types and
    /// effect; the body is trusted because it was type-checked when the
    /// program defining it was accepted. (Closures can never occur where
    /// an →-free type is required, which covers all fix-up cases.)
    pub fn has_type(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Number(_), Type::Number) => true,
            (Value::Str(_), Type::String) => true,
            (Value::Bool(_), Type::Bool) => true,
            (Value::Color(_), Type::Color) => true,
            (Value::Tuple(vs), Type::Tuple(ts)) => {
                vs.len() == ts.len() && vs.iter().zip(ts.iter()).all(|(v, t)| v.has_type(t))
            }
            (Value::List(vs), Type::List(t)) => vs.iter().all(|v| v.has_type(t)),
            (Value::Closure(c), Type::Fn(sig)) => {
                c.params.len() == sig.params.len()
                    && c.effect.subeffect_of(sig.effect)
                    && c.params
                        .iter()
                        .zip(sig.params.iter())
                        .all(|(p, t)| p.ty == *t)
            }
            (Value::Prim(p), Type::Fn(_)) => match p.sig() {
                Some(sig) => Type::Fn(Arc::new(sig)).is_subtype_of(ty),
                None => false,
            },
            // Widget references are an evaluator-internal currency and
            // inhabit no source-level type.
            (Value::WidgetRef(_), _) => false,
            _ => false,
        }
    }

    /// Render a value the way `post` displays it: numbers without a
    /// trailing `.0`, strings bare (no quotes), tuples/lists bracketed.
    /// This is the [`fmt::Display`] text, which writers that append to a
    /// buffer (`++`) use without building a `String` per value.
    pub fn display_text(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn seq(f: &mut fmt::Formatter<'_>, open: &str, vs: &[Value], close: &str) -> fmt::Result {
            f.write_str(open)?;
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt::Display::fmt(v, f)?;
            }
            f.write_str(close)
        }
        match self {
            Value::Number(n) => write_number(f, *n),
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Color(c) => write!(f, "{c}"),
            Value::Tuple(vs) => seq(f, "(", vs, ")"),
            Value::List(vs) => seq(f, "[", vs, "]"),
            Value::Closure(_) => f.write_str("<function>"),
            Value::Prim(p) => write!(f, "<{p}>"),
            Value::WidgetRef(k) => write!(f, "<{k}>"),
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

/// Format a number the way the language displays it: integers without a
/// decimal point, everything else in shortest-roundtrip form.
pub fn fmt_number(n: f64) -> String {
    let mut text = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_number(&mut text, n);
    text
}

/// Write a number the way the language displays it (see [`fmt_number`])
/// straight into `out`: the one number formatter behind `post`, `++`
/// and the source printer.
fn write_number(out: &mut impl fmt::Write, n: f64) -> fmt::Result {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_number(42.0), "42");
        assert_eq!(fmt_number(-3.0), "-3");
        assert_eq!(fmt_number(2.5), "2.5");
        assert_eq!(fmt_number(0.0), "0");
    }

    #[test]
    fn display_text_forms() {
        assert_eq!(Value::Number(7.0).display_text(), "7");
        assert_eq!(Value::str("hi").display_text(), "hi");
        assert_eq!(
            Value::tuple(vec![Value::Number(1.0), Value::str("a")]).display_text(),
            "(1, a)"
        );
        assert_eq!(
            Value::list(vec![Value::Bool(true)]).display_text(),
            "[true]"
        );
        assert_eq!(Value::unit().display_text(), "()");
    }

    #[test]
    fn has_type_structural() {
        let v = Value::tuple(vec![Value::str("addr"), Value::Number(100.0)]);
        let t = Type::tuple(vec![Type::String, Type::Number]);
        assert!(v.has_type(&t));
        assert!(!v.has_type(&Type::tuple(vec![Type::Number, Type::Number])));
        assert!(!v.has_type(&Type::Number));
        // Lists check every element.
        let xs = Value::list(vec![Value::Number(1.0), Value::str("no")]);
        assert!(!xs.has_type(&Type::list(Type::Number)));
        // Empty lists inhabit every list type.
        assert!(Value::list(vec![]).has_type(&Type::list(Type::Color)));
    }

    #[test]
    fn named_colors_roundtrip() {
        let c = Color::by_name("light_blue").expect("exists");
        assert_eq!(c.name(), Some("light_blue"));
        assert_eq!(c.to_string(), "light_blue");
        assert_eq!(Color::new(9, 9, 9).to_string(), "#090909");
        assert_eq!(Color::by_name("nope"), None);
    }
}
