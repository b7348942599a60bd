//! Recursive-descent parser for the surface language.
//!
//! The parser is resilient: on error it records a diagnostic and
//! resynchronizes at the next statement or item boundary, so a live editor
//! can parse mid-edit text without losing the rest of the program.

use crate::ast::*;
use crate::diag::{Diagnostic, Diagnostics};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Result of parsing a source text.
#[derive(Debug, Clone)]
pub struct ParseResult {
    /// The (possibly partial) program.
    pub program: Program,
    /// All lexing and parsing diagnostics.
    pub diagnostics: Diagnostics,
}

impl ParseResult {
    /// Whether the program parsed without errors.
    pub fn is_ok(&self) -> bool {
        !self.diagnostics.has_errors()
    }
}

/// Parse a whole program.
pub fn parse_program(src: &str) -> ParseResult {
    let mut diagnostics = Diagnostics::new();
    let tokens = lex(src, &mut diagnostics);
    let mut parser = Parser {
        tokens,
        pos: 0,
        diags: diagnostics,
    };
    let program = parser.program(src.len() as u32);
    ParseResult {
        program,
        diagnostics: parser.diags,
    }
}

/// Parse a single expression (used by direct-manipulation code patches).
pub fn parse_expr(src: &str) -> Result<Expr, Diagnostics> {
    let mut diagnostics = Diagnostics::new();
    let tokens = lex(src, &mut diagnostics);
    let mut parser = Parser {
        tokens,
        pos: 0,
        diags: diagnostics,
    };
    let expr = parser.expr();
    parser.expect(TokenKind::Eof);
    if parser.diags.has_errors() {
        Err(parser.diags)
    } else {
        Ok(expr)
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diags: Diagnostics,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> Token {
        let tok = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(&kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Span {
        if self.at(&kind) {
            self.bump().span
        } else {
            let found = self.peek().describe();
            self.error(format!("expected {}, found {found}", kind.describe()));
            self.span()
        }
    }

    fn error(&mut self, message: impl Into<String>) {
        self.diags.push(Diagnostic::error(self.span(), message));
    }

    fn ident(&mut self) -> Ident {
        match self.peek().clone() {
            TokenKind::Ident(text) => {
                let span = self.bump().span;
                Ident::new(text, span)
            }
            other => {
                self.error(format!("expected identifier, found {}", other.describe()));
                Ident::new("<error>", self.span())
            }
        }
    }

    // ---- items ------------------------------------------------------

    fn program(&mut self, src_len: u32) -> Program {
        let mut items = Vec::new();
        while !self.at(&TokenKind::Eof) {
            let before = self.pos;
            match self.peek() {
                TokenKind::Global => items.push(Item::Global(self.global_def())),
                TokenKind::Fun => items.push(Item::Fun(self.fun_def())),
                TokenKind::Page => items.push(Item::Page(self.page_def())),
                TokenKind::Example => items.push(Item::Example(self.example_def())),
                other => {
                    let msg = format!(
                        "expected `global`, `fun`, `page`, or `example`, found {}",
                        other.describe()
                    );
                    self.error(msg);
                    self.recover_to_item();
                }
            }
            if self.pos == before {
                // Guard against non-progress on malformed input.
                self.bump();
            }
        }
        Program {
            items,
            span: Span::new(0, src_len),
        }
    }

    fn recover_to_item(&mut self) {
        loop {
            match self.peek() {
                TokenKind::Global
                | TokenKind::Fun
                | TokenKind::Page
                | TokenKind::Example
                | TokenKind::Eof => break,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn global_def(&mut self) -> GlobalDef {
        let start = self.expect(TokenKind::Global);
        let name = self.ident();
        self.expect(TokenKind::Colon);
        let ty = self.type_expr();
        self.expect(TokenKind::Eq);
        let init = self.expr();
        let span = start.merge(init.span);
        GlobalDef {
            name,
            ty,
            init,
            span,
        }
    }

    fn example_def(&mut self) -> ExampleDef {
        let start = self.expect(TokenKind::Example);
        let name = self.ident();
        self.expect(TokenKind::Eq);
        let body = self.expr();
        let expect = if self.eat(TokenKind::Expect) {
            Some(self.expr())
        } else {
            None
        };
        let end = expect.as_ref().map(|e| e.span).unwrap_or(body.span);
        let span = start.merge(end);
        ExampleDef {
            name,
            body,
            expect,
            span,
        }
    }

    fn fun_def(&mut self) -> FunDef {
        let start = self.expect(TokenKind::Fun);
        let name = self.ident();
        let params = self.param_list();
        let ret = if self.eat(TokenKind::Colon) {
            Some(self.type_expr())
        } else {
            None
        };
        let effect = self.effect_ann();
        let body = self.block();
        let span = start.merge(body.span);
        FunDef {
            name,
            params,
            ret,
            effect,
            body,
            span,
        }
    }

    fn effect_ann(&mut self) -> EffectAnn {
        if self.eat(TokenKind::Pure) {
            EffectAnn::Pure
        } else if self.eat(TokenKind::State) {
            EffectAnn::State
        } else if self.eat(TokenKind::Render) {
            EffectAnn::Render
        } else {
            EffectAnn::Pure
        }
    }

    fn page_def(&mut self) -> PageDef {
        let start = self.expect(TokenKind::Page);
        let name = self.ident();
        let params = self.param_list();
        self.expect(TokenKind::LBrace);
        let mut init = None;
        let mut render = None;
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            if self.eat(TokenKind::Init) {
                let block = self.block();
                if init.replace(block).is_some() {
                    self.diags.push(Diagnostic::error(
                        self.prev_span(),
                        format!("page `{name}` has more than one init body"),
                    ));
                }
            } else if self.eat(TokenKind::Render) {
                let block = self.block();
                if render.replace(block).is_some() {
                    self.diags.push(Diagnostic::error(
                        self.prev_span(),
                        format!("page `{name}` has more than one render body"),
                    ));
                }
            } else {
                self.error("expected `init` or `render` body in page");
                self.bump();
            }
        }
        let end = self.expect(TokenKind::RBrace);
        let span = start.merge(end);
        PageDef {
            name,
            params,
            init: init.unwrap_or_else(|| Block::empty(span)),
            render: render.unwrap_or_else(|| Block::empty(span)),
            span,
        }
    }

    fn param_list(&mut self) -> Vec<Param> {
        let mut params = Vec::new();
        self.expect(TokenKind::LParen);
        while !self.at(&TokenKind::RParen) && !self.at(&TokenKind::Eof) {
            let name = self.ident();
            self.expect(TokenKind::Colon);
            let ty = self.type_expr();
            params.push(Param { name, ty });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen);
        params
    }

    // ---- types ------------------------------------------------------

    fn type_expr(&mut self) -> TypeExpr {
        let start = self.span();
        let kind = match self.peek().clone() {
            TokenKind::TyNumber => {
                self.bump();
                TypeExprKind::Number
            }
            TokenKind::TyString => {
                self.bump();
                TypeExprKind::String
            }
            TokenKind::TyBool => {
                self.bump();
                TypeExprKind::Bool
            }
            TokenKind::TyColor => {
                self.bump();
                TypeExprKind::Color
            }
            TokenKind::TyList => {
                self.bump();
                let elem = self.type_expr();
                TypeExprKind::List(Box::new(elem))
            }
            TokenKind::LParen => {
                self.bump();
                let mut elems = Vec::new();
                while !self.at(&TokenKind::RParen) && !self.at(&TokenKind::Eof) {
                    elems.push(self.type_expr());
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen);
                if elems.len() == 1 {
                    // `(τ)` is just τ, not a 1-tuple.
                    if let Some(only) = elems.pop() {
                        return TypeExpr {
                            kind: only.kind,
                            span: start.merge(self.prev_span()),
                        };
                    }
                }
                TypeExprKind::Tuple(elems)
            }
            TokenKind::Fn => {
                self.bump();
                self.expect(TokenKind::LParen);
                let mut params = Vec::new();
                while !self.at(&TokenKind::RParen) && !self.at(&TokenKind::Eof) {
                    params.push(self.type_expr());
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen);
                let effect = self.effect_ann();
                self.expect(TokenKind::Arrow);
                let ret = Box::new(self.type_expr());
                TypeExprKind::Fn {
                    params,
                    effect,
                    ret,
                }
            }
            other => {
                self.error(format!("expected a type, found {}", other.describe()));
                if !self.at_recovery_point() {
                    self.bump();
                }
                TypeExprKind::Tuple(Vec::new())
            }
        };
        TypeExpr {
            kind,
            span: start.merge(self.prev_span()),
        }
    }

    // ---- statements and blocks ---------------------------------------

    fn block(&mut self) -> Block {
        let start = self.expect(TokenKind::LBrace);
        let mut stmts = Vec::new();
        let mut tail: Option<Box<Expr>> = None;
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let before = self.pos;
            if let Some(stmt_or_tail) = self.stmt_or_tail() {
                match stmt_or_tail {
                    StmtOrTail::Stmt(s) => stmts.push(s),
                    StmtOrTail::Tail(e) => {
                        tail = Some(Box::new(e));
                        break;
                    }
                }
            }
            if self.pos == before {
                self.bump();
            }
        }
        let end = self.expect(TokenKind::RBrace);
        Block {
            stmts,
            tail,
            span: start.merge(end),
        }
    }

    fn stmt_or_tail(&mut self) -> Option<StmtOrTail> {
        let start = self.span();
        let kind = match self.peek().clone() {
            TokenKind::Let => {
                self.bump();
                let name = self.ident();
                let ty = if self.eat(TokenKind::Colon) {
                    Some(self.type_expr())
                } else {
                    None
                };
                self.expect(TokenKind::Eq);
                let value = self.expr();
                self.expect(TokenKind::Semi);
                StmtKind::Let { name, ty, value }
            }
            TokenKind::If => {
                self.bump();
                let stmt = self.if_stmt(start);
                // An `if` whose branches produce values and which ends the
                // block is the block's tail value (Rust-style).
                if self.at(&TokenKind::RBrace) {
                    if let Some(expr) = if_stmt_to_expr(&stmt) {
                        return Some(StmtOrTail::Tail(expr));
                    }
                }
                return Some(StmtOrTail::Stmt(stmt));
            }
            TokenKind::While => {
                self.bump();
                let cond = self.expr();
                let body = self.block();
                StmtKind::While { cond, body }
            }
            TokenKind::For => {
                self.bump();
                let var = self.ident();
                self.expect(TokenKind::In);
                let lo = self.expr();
                self.expect(TokenKind::DotDot);
                let hi = self.expr();
                let body = self.block();
                StmtKind::ForRange { var, lo, hi, body }
            }
            TokenKind::Foreach => {
                self.bump();
                let var = self.ident();
                self.expect(TokenKind::In);
                let list = self.expr();
                let body = self.block();
                StmtKind::Foreach { var, list, body }
            }
            TokenKind::Boxed => {
                self.bump();
                let body = self.block();
                StmtKind::Boxed { body }
            }
            TokenKind::Remember => {
                self.bump();
                let name = self.ident();
                self.expect(TokenKind::Colon);
                let ty = self.type_expr();
                self.expect(TokenKind::Eq);
                let init = self.expr();
                self.expect(TokenKind::Semi);
                StmtKind::Remember { name, ty, init }
            }
            TokenKind::Post => {
                self.bump();
                let value = self.expr();
                self.expect(TokenKind::Semi);
                StmtKind::Post { value }
            }
            TokenKind::Box_ => {
                self.bump();
                self.expect(TokenKind::Dot);
                let attr = self.ident();
                self.expect(TokenKind::ColonEq);
                let value = self.expr();
                self.expect(TokenKind::Semi);
                StmtKind::SetAttr { attr, value }
            }
            TokenKind::On => {
                self.bump();
                let event = self.ident();
                let params = if self.at(&TokenKind::LParen) {
                    self.param_list()
                } else {
                    Vec::new()
                };
                let body = self.block();
                StmtKind::On {
                    event,
                    params,
                    body,
                }
            }
            TokenKind::Push => {
                self.bump();
                let page = self.ident();
                self.expect(TokenKind::LParen);
                let mut args = Vec::new();
                while !self.at(&TokenKind::RParen) && !self.at(&TokenKind::Eof) {
                    args.push(self.expr());
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen);
                self.expect(TokenKind::Semi);
                StmtKind::Push { page, args }
            }
            TokenKind::Pop => {
                self.bump();
                self.expect(TokenKind::Semi);
                StmtKind::Pop
            }
            // `x := e;` assignment.
            TokenKind::Ident(_) if *self.peek2() == TokenKind::ColonEq => {
                let target = self.ident();
                self.expect(TokenKind::ColonEq);
                let value = self.expr();
                self.expect(TokenKind::Semi);
                StmtKind::Assign { target, value }
            }
            _ => {
                let expr = self.expr();
                if self.eat(TokenKind::Semi) {
                    StmtKind::Expr { expr }
                } else {
                    // No semicolon: this is the block's tail value.
                    return Some(StmtOrTail::Tail(expr));
                }
            }
        };
        let span = start.merge(self.prev_span());
        Some(StmtOrTail::Stmt(Stmt { kind, span }))
    }

    /// Parse an `if` statement whose `if` token is already consumed.
    fn if_stmt(&mut self, start: Span) -> Stmt {
        let cond = self.expr();
        let then_block = self.block();
        let else_block = if self.eat(TokenKind::Else) {
            if self.at(&TokenKind::If) {
                // `else if ...` — wrap the nested if in a synthetic block.
                let nested_start = self.span();
                self.bump();
                let nested = self.if_stmt(nested_start);
                let span = nested.span;
                Some(Block {
                    stmts: vec![nested],
                    tail: None,
                    span,
                })
            } else {
                Some(self.block())
            }
        } else {
            None
        };
        let span = start.merge(self.prev_span());
        Stmt {
            kind: StmtKind::If {
                cond,
                then_block,
                else_block,
            },
            span,
        }
    }

    // ---- expressions --------------------------------------------------

    fn expr(&mut self) -> Expr {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Expr {
        let mut lhs = self.unary_expr();
        loop {
            let op = match self.peek() {
                TokenKind::PipePipe => BinOp::Or,
                TokenKind::AmpAmp => BinOp::And,
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::BangEq => BinOp::Ne,
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                TokenKind::PlusPlus => BinOp::Concat,
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            let prec = op.precedence();
            if prec <= min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec);
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        lhs
    }

    fn unary_expr(&mut self) -> Expr {
        let start = self.span();
        if self.eat(TokenKind::Minus) {
            let inner = self.unary_expr();
            let span = start.merge(inner.span);
            return Expr {
                kind: ExprKind::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(inner),
                },
                span,
            };
        }
        if self.eat(TokenKind::Bang) {
            let inner = self.unary_expr();
            let span = start.merge(inner.span);
            return Expr {
                kind: ExprKind::Unary {
                    op: UnOp::Not,
                    expr: Box::new(inner),
                },
                span,
            };
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Expr {
        let mut expr = self.primary_expr();
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    while !self.at(&TokenKind::RParen) && !self.at(&TokenKind::Eof) {
                        args.push(self.expr());
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                    let end = self.expect(TokenKind::RParen);
                    let span = expr.span.merge(end);
                    expr = Expr {
                        kind: ExprKind::Call {
                            callee: Box::new(expr),
                            args,
                        },
                        span,
                    };
                }
                TokenKind::Dot => {
                    match self.peek2().clone() {
                        TokenKind::Number(n) => {
                            self.bump();
                            let num_span = self.bump().span;
                            let index = n as u32;
                            if index == 0 || (n.fract() != 0.0) {
                                self.diags.push(Diagnostic::error(
                                    num_span,
                                    "tuple projection index must be a positive integer",
                                ));
                            }
                            let span = expr.span.merge(num_span);
                            expr = Expr {
                                kind: ExprKind::Proj {
                                    base: Box::new(expr),
                                    index: index.max(1),
                                },
                                span,
                            };
                        }
                        TokenKind::Ident(name) => {
                            // Namespace access: only valid on a bare name.
                            if let ExprKind::Name(ns_text) = &expr.kind {
                                let ns = Ident::new(ns_text.clone(), expr.span);
                                self.bump();
                                let name_span = self.bump().span;
                                let span = expr.span.merge(name_span);
                                expr = Expr {
                                    kind: ExprKind::Qualified {
                                        ns,
                                        name: Ident::new(name, name_span),
                                    },
                                    span,
                                };
                            } else {
                                self.error(
                                    "`.name` access is only valid on a namespace \
                                     (e.g. `math.floor`); tuple projection uses `.1`",
                                );
                                self.bump();
                                self.bump();
                            }
                        }
                        other => {
                            let msg = format!(
                                "expected projection index or member name after `.`, found {}",
                                other.describe()
                            );
                            self.error(msg);
                            self.bump();
                        }
                    }
                }
                _ => break,
            }
        }
        expr
    }

    fn primary_expr(&mut self) -> Expr {
        let start = self.span();
        let kind = match self.peek().clone() {
            TokenKind::Number(n) => {
                self.bump();
                ExprKind::Number(n)
            }
            TokenKind::Str(s) => {
                self.bump();
                ExprKind::Str(s)
            }
            TokenKind::True => {
                self.bump();
                ExprKind::Bool(true)
            }
            TokenKind::False => {
                self.bump();
                ExprKind::Bool(false)
            }
            TokenKind::Ident(name) => {
                self.bump();
                ExprKind::Name(name)
            }
            // `list` is a type keyword, but it is also the namespace of
            // the list primitives (`list.length(xs)`).
            TokenKind::TyList if *self.peek2() == TokenKind::Dot => {
                self.bump();
                ExprKind::Name("list".to_string())
            }
            TokenKind::LParen => {
                self.bump();
                let mut elems = Vec::new();
                let mut trailing_comma = false;
                while !self.at(&TokenKind::RParen) && !self.at(&TokenKind::Eof) {
                    elems.push(self.expr());
                    trailing_comma = self.eat(TokenKind::Comma);
                    if !trailing_comma {
                        break;
                    }
                }
                let end = self.expect(TokenKind::RParen);
                if elems.len() == 1 && !trailing_comma {
                    // Parenthesized expression.
                    if let Some(mut only) = elems.pop() {
                        only.span = start.merge(end);
                        return only;
                    }
                }
                ExprKind::Tuple(elems)
            }
            TokenKind::LBracket => {
                self.bump();
                let mut elems = Vec::new();
                while !self.at(&TokenKind::RBracket) && !self.at(&TokenKind::Eof) {
                    elems.push(self.expr());
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RBracket);
                ExprKind::ListLit(elems)
            }
            TokenKind::Fn => {
                self.bump();
                let params = self.param_list();
                let effect = self.effect_ann();
                let body = if self.eat(TokenKind::Arrow) {
                    let e = self.expr();
                    let span = e.span;
                    Block {
                        stmts: Vec::new(),
                        tail: Some(Box::new(e)),
                        span,
                    }
                } else {
                    self.block()
                };
                ExprKind::Lambda {
                    params,
                    effect,
                    body: Box::new(body),
                }
            }
            TokenKind::If => {
                self.bump();
                let cond = Box::new(self.expr());
                let then_block = Box::new(self.block());
                self.expect(TokenKind::Else);
                let else_block = Box::new(if self.at(&TokenKind::If) {
                    // `else if` chain in expression position.
                    let nested = self.expr();
                    let span = nested.span;
                    Block {
                        stmts: Vec::new(),
                        tail: Some(Box::new(nested)),
                        span,
                    }
                } else {
                    self.block()
                });
                ExprKind::IfExpr {
                    cond,
                    then_block,
                    else_block,
                }
            }
            other => {
                self.error(format!(
                    "expected an expression, found {}",
                    other.describe()
                ));
                if !self.at_recovery_point() {
                    self.bump();
                }
                ExprKind::Tuple(Vec::new())
            }
        };
        Expr {
            kind,
            span: start.merge(self.prev_span()),
        }
    }
}

impl Parser {
    /// Tokens that error recovery must not consume, because a later parse
    /// stage synchronizes on them.
    fn at_recovery_point(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Global
                | TokenKind::Fun
                | TokenKind::Page
                | TokenKind::Example
                | TokenKind::RBrace
                | TokenKind::Semi
                | TokenKind::Eof
        )
    }
}

enum StmtOrTail {
    Stmt(Stmt),
    Tail(Expr),
}

/// Convert a value-producing `if` statement into an `if` expression, for
/// blocks that end in `if c { v1 } else { v2 }`.
fn if_stmt_to_expr(stmt: &Stmt) -> Option<Expr> {
    let StmtKind::If {
        cond,
        then_block,
        else_block,
    } = &stmt.kind
    else {
        return None;
    };
    let else_block = else_block.as_ref()?;
    then_block.tail.as_ref()?;
    // An `else if` chain was parsed as a block holding a single nested if;
    // convert it recursively.
    let else_converted = if else_block.tail.is_none()
        && else_block.stmts.len() == 1
        && matches!(else_block.stmts[0].kind, StmtKind::If { .. })
    {
        let nested = if_stmt_to_expr(&else_block.stmts[0])?;
        let span = nested.span;
        Block {
            stmts: Vec::new(),
            tail: Some(Box::new(nested)),
            span,
        }
    } else {
        else_block.tail.as_ref()?;
        else_block.clone()
    };
    Some(Expr {
        kind: ExprKind::IfExpr {
            cond: Box::new(cond.clone()),
            then_block: Box::new(then_block.clone()),
            else_block: Box::new(else_converted),
        },
        span: stmt.span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Program {
        let result = parse_program(src);
        assert!(
            result.is_ok(),
            "parse failed:\n{}",
            result.diagnostics.render(src)
        );
        result.program
    }

    #[test]
    fn parses_global() {
        let p = ok("global count : number = 0");
        assert_eq!(p.globals().count(), 1);
        let g = p.globals().next().expect("one global");
        assert_eq!(g.name.text, "count");
        assert_eq!(g.ty.kind, TypeExprKind::Number);
    }

    #[test]
    fn parses_function_with_effect() {
        let p = ok("fun f(x: number): number pure { x + 1 }");
        let f = p.funs().next().expect("one fun");
        assert_eq!(f.effect, EffectAnn::Pure);
        assert_eq!(f.params.len(), 1);
        assert!(f.body.tail.is_some());
    }

    #[test]
    fn parses_page_with_init_and_render() {
        let p = ok("page start() { init { count := 1; } render { post count; } }");
        let pg = p.pages().next().expect("one page");
        assert_eq!(pg.name.text, "start");
        assert_eq!(pg.init.stmts.len(), 1);
        assert_eq!(pg.render.stmts.len(), 1);
    }

    #[test]
    fn parses_boxed_and_attrs() {
        let p = ok(r#"
            page start() {
                render {
                    boxed {
                        post "hi";
                        box.margin := 4;
                        on tap { pop; }
                    }
                }
            }
        "#);
        let pg = p.pages().next().expect("page");
        let StmtKind::Boxed { body } = &pg.render.stmts[0].kind else {
            panic!("expected boxed");
        };
        assert_eq!(body.stmts.len(), 3);
        assert!(matches!(body.stmts[0].kind, StmtKind::Post { .. }));
        assert!(matches!(body.stmts[1].kind, StmtKind::SetAttr { .. }));
        assert!(matches!(body.stmts[2].kind, StmtKind::On { .. }));
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = ok("global g : number = 1 + 2 * 3");
        let g = p.globals().next().expect("global");
        let ExprKind::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = &g.init.kind
        else {
            panic!("expected + at top: {:?}", g.init.kind);
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn concat_binds_looser_than_add() {
        let p = ok(r#"global g : string = "n=" ++ 1 + 2"#);
        let g = p.globals().next().expect("global");
        let ExprKind::Binary {
            op: BinOp::Concat,
            rhs,
            ..
        } = &g.init.kind
        else {
            panic!("expected ++ at top");
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn qualified_names_and_calls() {
        let p = ok("global g : number = math.floor(2.5)");
        let g = p.globals().next().expect("global");
        let ExprKind::Call { callee, args } = &g.init.kind else {
            panic!("expected call");
        };
        assert!(matches!(&callee.kind, ExprKind::Qualified { ns, name }
            if ns.text == "math" && name.text == "floor"));
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn projection_is_one_based() {
        let p = ok("fun f(t: (string, number)): string pure { t.1 }");
        let f = p.funs().next().expect("fun");
        let tail = f.body.tail.as_ref().expect("tail");
        assert!(matches!(tail.kind, ExprKind::Proj { index: 1, .. }));
    }

    #[test]
    fn for_range_and_foreach() {
        let p = ok(r#"
            page start() {
                render {
                    for i in 0 .. 10 { boxed { post i; } }
                    foreach x in [1, 2, 3] { post x; }
                }
            }
        "#);
        let pg = p.pages().next().expect("page");
        assert!(matches!(pg.render.stmts[0].kind, StmtKind::ForRange { .. }));
        assert!(matches!(pg.render.stmts[1].kind, StmtKind::Foreach { .. }));
    }

    #[test]
    fn else_if_chain() {
        let p = ok(r#"
            fun f(x: number): number pure {
                let r = 0;
                if x < 1 { r := 1; } else if x < 2 { r := 2; } else { r := 3; }
                r
            }
        "#);
        let f = p.funs().next().expect("fun");
        let StmtKind::If {
            else_block: Some(else_block),
            ..
        } = &f.body.stmts[1].kind
        else {
            panic!("expected if with else");
        };
        assert!(matches!(else_block.stmts[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn lambda_forms() {
        let p = ok("global f_applied : number = (fn(x: number) -> x + 1)(2)");
        assert_eq!(p.globals().count(), 1);
        let p2 = ok("fun g(): () state { let h = fn(u: ()) state { pop; }; }");
        assert_eq!(p2.funs().count(), 1);
    }

    #[test]
    fn if_expression() {
        let p = ok("fun f(b: bool): number pure { if b { 1 } else { 2 } }");
        let f = p.funs().next().expect("fun");
        assert!(matches!(
            f.body.tail.as_ref().expect("tail").kind,
            ExprKind::IfExpr { .. }
        ));
    }

    #[test]
    fn push_and_pop() {
        let p = ok(r#"
            page start() {
                render {
                    on tap { push detail("a", 2); }
                }
            }
            page detail(addr: string, price: number) {
                render { on tap { pop; } }
            }
        "#);
        assert_eq!(p.pages().count(), 2);
    }

    #[test]
    fn unit_and_tuples() {
        ok("global u : () = ()");
        ok("global t : (number, string) = (1, \"x\")");
        ok("global n : number = (1 + 2) * 3");
    }

    #[test]
    fn error_recovery_keeps_later_items() {
        let result = parse_program("global bad = \nfun ok(): number pure { 1 }");
        assert!(!result.is_ok());
        // The following fun still parses.
        assert_eq!(result.program.funs().count(), 1);
    }

    #[test]
    fn parse_expr_entry_point() {
        let e = parse_expr("1 + 2").expect("parses");
        assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::Add, .. }));
        assert!(parse_expr("1 +").is_err());
    }

    #[test]
    fn spans_cover_source() {
        let src = "global count : number = 42";
        let p = ok(src);
        let g = p.globals().next().expect("global");
        assert_eq!(g.span.slice(src), src);
        assert_eq!(g.init.span.slice(src), "42");
    }
}
