//! Incremental parsing at top-level item granularity.
//!
//! The paper's editor "continuously" re-compiles on every keystroke
//! (§3); TouchDevelop kept that fast with incremental compilation. An
//! [`IncrementalParser`] owns the parsed document: on the next
//! keystroke only the items whose chunk text changed are re-parsed; the
//! rest are *moved* (not cloned) out of the previous tree, with their
//! spans rebased in place when an earlier edit shifted them. The result
//! is guaranteed (and property-tested) to equal a from-scratch parse,
//! spans and diagnostics included.

use crate::ast::{Item, Program};
use crate::diag::{Diagnostic, Diagnostics};
use crate::lexer::lex;
use crate::parser::{parse_program, ParseResult};
use crate::rebase::rebase_item;
use crate::span::Span;
use crate::token::TokenKind;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// One top-level chunk of source text: an item plus its trailing trivia.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Byte range of the chunk in the source.
    pub span: Span,
    /// Hash of the chunk's text.
    pub hash: u64,
}

/// Split a source text into top-level item chunks. A chunk starts at a
/// `global` / `fun` / `page` keyword at bracket depth 0 and runs to the
/// next such keyword (or the end); leading trivia belongs to the first
/// chunk. A source with no item keywords is one big chunk.
pub fn chunk_items(src: &str) -> Vec<Chunk> {
    let mut diags = Diagnostics::new();
    let tokens = lex(src, &mut diags);
    let mut starts: Vec<u32> = Vec::new();
    let mut depth = 0i32;
    for token in &tokens {
        match &token.kind {
            TokenKind::LBrace | TokenKind::LParen | TokenKind::LBracket => depth += 1,
            TokenKind::RBrace | TokenKind::RParen | TokenKind::RBracket => depth -= 1,
            TokenKind::Global | TokenKind::Fun | TokenKind::Page | TokenKind::Example
                if depth <= 0 =>
            {
                starts.push(token.span.start);
            }
            _ => {}
        }
    }
    if starts.is_empty() {
        starts.push(0);
    } else if starts[0] != 0 {
        // Leading trivia joins the first item's chunk.
        starts[0] = 0;
    }
    let mut chunks = Vec::with_capacity(starts.len());
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(src.len() as u32);
        let span = Span::new(start, end);
        let mut hasher = DefaultHasher::new();
        span.slice(src).hash(&mut hasher);
        chunks.push(Chunk {
            span,
            hash: hasher.finish(),
        });
    }
    chunks
}

/// A parsed chunk held by the document: items at absolute offsets.
#[derive(Debug, Clone)]
struct ParsedChunk {
    hash: u64,
    /// Absolute start offset the items are currently based at.
    start: u32,
    /// The chunk's exact text (hash matches are confirmed against it).
    text: Box<str>,
    items: Vec<Item>,
    /// Diagnostics, chunk-relative.
    diagnostics: Vec<Diagnostic>,
}

/// An item-granular incremental parser that owns the current document.
#[derive(Debug, Clone, Default)]
pub struct IncrementalParser {
    chunks: Vec<ParsedChunk>,
    /// Chunks moved out of the previous document this parse.
    pub reused: u64,
    /// Chunks parsed from scratch over the parser's life.
    pub parsed: u64,
}

impl IncrementalParser {
    /// A parser with an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse `src` incrementally and return a fresh [`ParseResult`]
    /// equal to `parse_program(src)`. The result owns its program, so
    /// every item is cloned into it, the unchanged ones included; the
    /// clone-free path is [`IncrementalParser::update`] followed by
    /// [`IncrementalParser::with_program`].
    pub fn parse(&mut self, src: &str) -> ParseResult {
        self.reparse(src);
        ParseResult {
            program: self.assemble_program(src),
            diagnostics: self.assemble_diags(),
        }
    }

    /// Re-synchronize the owned document with `src` (parsing only the
    /// changed chunks) without assembling a program. Pair with
    /// [`IncrementalParser::with_program`] / [`IncrementalParser::diagnostics`]
    /// for the zero-clone pipeline.
    pub fn update(&mut self, src: &str) {
        self.reparse(src);
    }

    /// The current document's diagnostics (absolute spans).
    pub fn diagnostics(&self) -> Diagnostics {
        self.assemble_diags()
    }

    fn reparse(&mut self, src: &str) {
        let new_chunks = chunk_items(src);
        // Index the old chunks by hash (duplicates queue up in order).
        let mut by_hash: HashMap<u64, Vec<ParsedChunk>> = HashMap::new();
        for chunk in self.chunks.drain(..) {
            by_hash.entry(chunk.hash).or_default().push(chunk);
        }
        let mut rebuilt = Vec::with_capacity(new_chunks.len());
        for chunk in &new_chunks {
            let text = chunk.span.slice(src);
            let reusable = by_hash.get_mut(&chunk.hash).and_then(|queue| {
                let pos = queue.iter().position(|c| &*c.text == text)?;
                Some(queue.swap_remove(pos))
            });
            match reusable {
                Some(mut old) => {
                    self.reused += 1;
                    let delta = i64::from(chunk.span.start) - i64::from(old.start);
                    if delta != 0 {
                        for item in &mut old.items {
                            rebase_item(item, delta);
                        }
                        old.start = chunk.span.start;
                    }
                    rebuilt.push(old);
                }
                None => {
                    self.parsed += 1;
                    let parsed = parse_program(text);
                    let mut items = parsed.program.items;
                    let delta = i64::from(chunk.span.start);
                    for item in &mut items {
                        rebase_item(item, delta);
                    }
                    rebuilt.push(ParsedChunk {
                        hash: chunk.hash,
                        start: chunk.span.start,
                        text: Box::from(text),
                        items,
                        diagnostics: parsed.diagnostics.into_vec(),
                    });
                }
            }
        }
        self.chunks = rebuilt;
    }

    fn assemble_program(&self, src: &str) -> Program {
        let mut items = Vec::new();
        for chunk in &self.chunks {
            items.extend(chunk.items.iter().cloned());
        }
        Program {
            items,
            span: Span::new(0, src.len() as u32),
        }
    }

    /// Lower/typecheck straight off the owned document without cloning
    /// items: calls `f` with a program view assembled by move, then puts
    /// the items back.
    pub fn with_program<R>(&mut self, src: &str, f: impl FnOnce(&Program) -> R) -> R {
        let mut items = Vec::new();
        let mut counts = Vec::with_capacity(self.chunks.len());
        for chunk in &mut self.chunks {
            counts.push(chunk.items.len());
            items.append(&mut chunk.items);
        }
        let program = Program {
            items,
            span: Span::new(0, src.len() as u32),
        };
        let result = f(&program);
        // Put the items back where they came from.
        let mut iter = program.items.into_iter();
        for (chunk, count) in self.chunks.iter_mut().zip(counts) {
            chunk.items.extend(iter.by_ref().take(count));
        }
        result
    }

    fn assemble_diags(&self) -> Diagnostics {
        let mut diagnostics = Diagnostics::new();
        for chunk in &self.chunks {
            for diag in &chunk.diagnostics {
                let delta = i64::from(chunk.start);
                let mut d = diag.clone();
                d.span = Span::new(
                    (i64::from(d.span.start) + delta) as u32,
                    (i64::from(d.span.end) + delta) as u32,
                );
                for (nspan, _) in &mut d.notes {
                    *nspan = Span::new(
                        (i64::from(nspan.start) + delta) as u32,
                        (i64::from(nspan.end) + delta) as u32,
                    );
                }
                diagnostics.push(d);
            }
        }
        diagnostics
    }

    /// Whether the current document has parse errors.
    pub fn has_errors(&self) -> bool {
        self.chunks.iter().any(|c| {
            c.diagnostics
                .iter()
                .any(|d| d.severity == crate::Severity::Error)
        })
    }

    /// Drop the document (e.g. on a project switch).
    pub fn clear(&mut self) {
        self.chunks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "// leading comment\n\
        global count : number = 0\n\n\
        fun double(x : number) : number pure { x * 2 }\n\n\
        page start() {\n    init { count := double(count); }\n    \
        render { boxed { post count; } }\n}\n";

    #[test]
    fn chunking_finds_every_item() {
        let chunks = chunk_items(SRC);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].span.start, 0, "leading trivia joins chunk 0");
        assert!(SRC[chunks[1].span.start as usize..].starts_with("fun double"));
        assert!(SRC[chunks[2].span.start as usize..].starts_with("page start"));
        // Chunks tile the source exactly.
        assert_eq!(
            chunks.last().expect("nonempty").span.end as usize,
            SRC.len()
        );
    }

    #[test]
    fn nested_keywords_do_not_split_chunks() {
        // `render`/`page` words inside strings or bodies must not split.
        let src = "page start() {\n    render { post \"fun page global\"; }\n}\n";
        assert_eq!(chunk_items(src).len(), 1);
    }

    #[test]
    fn incremental_equals_full_parse() {
        let mut inc = IncrementalParser::new();
        let first = inc.parse(SRC);
        let full = parse_program(SRC);
        assert_eq!(first.program, full.program);
        assert_eq!(inc.parsed, 3);

        // Edit only the fun's body: other chunks re-use.
        let edited = SRC.replace("x * 2", "x * 3 + 1");
        let second = inc.parse(&edited);
        let full = parse_program(&edited);
        assert_eq!(second.program, full.program, "spans must match exactly");
        assert_eq!(inc.parsed, 4, "only the changed chunk re-parsed");
        assert_eq!(inc.reused, 2);
    }

    #[test]
    fn growing_an_early_item_rebases_later_ones() {
        let mut inc = IncrementalParser::new();
        inc.parse(SRC);
        let edited = SRC.replace(
            "global count : number = 0",
            "global count : number = 100 + 200 + 300",
        );
        let incremental = inc.parse(&edited);
        let full = parse_program(&edited);
        assert_eq!(incremental.program, full.program);
        // The page chunk (unchanged text, shifted offset) was reused.
        assert_eq!(inc.reused, 2);
    }

    #[test]
    fn parse_errors_are_rebased_too() {
        let mut inc = IncrementalParser::new();
        let broken = SRC.replace("x * 2", "x * ");
        let incremental = inc.parse(&broken);
        let full = parse_program(&broken);
        assert!(!incremental.is_ok());
        assert_eq!(
            incremental.diagnostics.into_vec(),
            full.diagnostics.into_vec()
        );
    }

    #[test]
    fn deleting_and_reordering_items_works() {
        let mut inc = IncrementalParser::new();
        inc.parse(SRC);
        // Move the fun below the page.
        let reordered = "// leading comment\n\
            global count : number = 0\n\n\
            page start() {\n    init { count := double(count); }\n    \
            render { boxed { post count; } }\n}\n\n\
            fun double(x : number) : number pure { x * 2 }\n";
        let incremental = inc.parse(reordered);
        let full = parse_program(reordered);
        assert_eq!(incremental.program, full.program);
    }

    #[test]
    fn with_program_moves_and_restores_items() {
        let mut inc = IncrementalParser::new();
        inc.parse(SRC);
        let count = inc.with_program(SRC, |p| p.items.len());
        assert_eq!(count, 3);
        // The document is intact afterwards.
        let again = inc.parse(SRC);
        assert_eq!(again.program.items.len(), 3);
        assert_eq!(inc.reused, 3, "nothing re-parsed after with_program");
    }
}
