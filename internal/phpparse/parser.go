// Package phpparse parses PHP 5 source code into the AST of package phpast.
//
// The parser is the second half of phpSAFE's model-construction stage
// (DSN 2015, §III.B): it consumes the cleaned token stream produced by
// package phplex and produces one phpast.File per source file. It is
// tolerant by design — plugins in the wild contain constructs outside the
// analyzed subset, and the paper's tools must "finish the analysis and
// produce a result" (robustness, §IV.A) — so unparseable regions degrade
// to Bad nodes and a recorded error instead of failing the file.
package phpparse

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phptoken"
)

// Options carries the optional collaborators of a parse. The zero value
// parses unobserved, ungoverned and uninterned.
type Options struct {
	// Recorder records model-construction cost: a "parse:<name>" span
	// under Parent (with a nested "lex" span from the lexer), parse time
	// in the stage_parse_seconds histogram, and the
	// parse_ast_nodes_total / parse_errors_total / parse_files_total
	// counters.
	Recorder *obs.Recorder
	Parent   *obs.Span
	// Gov is the scan's resource governor: lexing and statement parsing
	// carry cancellation checkpoints (a halted governor terminates the
	// token stream and the statement list early, yielding a truncated but
	// well-formed AST), and expression/statement nesting is bounded by
	// its parse-depth budget — deeper constructs degrade to Bad nodes
	// with a recorded error, exactly like other malformed input. A nil
	// governor still applies the default depth budget, so the parser is
	// stack-safe on hostile input everywhere.
	Gov *govern.Governor
	// Interner deduplicates the case-folded names the parser
	// materializes (function, class, method and call-site names), so each
	// distinct spelling is allocated once per scan instead of once per
	// reference. It is not synchronized: the parallel pipeline hands each
	// worker its own shard. A nil interner still folds case, it just
	// doesn't deduplicate.
	Interner *phplex.Interner
}

// Parse parses PHP source text and returns the file's AST. The returned
// file always has a usable (possibly partial) statement list; recoverable
// problems are listed in File.Errors, and what the parse recorded while
// building the tree in File.Facts.
func Parse(name, src string, o Options) *phpast.File {
	rec := o.Recorder
	sp := rec.StartNamedSpan("parse:", name, o.Parent)
	p := parsers.Get().(*parser)
	p.toks = phplex.TokenizeCode(src, rec, sp, o.Gov)
	p.file = phpast.NewFile(name, strings.Count(src, "\n")+1)
	p.gov = o.Gov
	p.maxDepth = o.Gov.MaxParseDepth()
	p.in = o.Interner
	p.sizeSlabs()
	p.file.Stmts = p.parseStmtList(stopNever)
	// The AST holds no references into the token stream (names are
	// substrings of src or interned copies), so the buffer can go back
	// to the pool as soon as parsing is done.
	phplex.PutTokens(p.toks)
	f := p.file
	facts := f.Facts()
	p.fillFacts(facts)
	p.release()
	sp.EndAndObserve("stage_parse_seconds")
	if rec != nil {
		rec.Counter("parse_files_total").Inc()
		rec.Counter("parse_ast_nodes_total").Add(int64(facts.Nodes))
		rec.Counter("parse_errors_total").Add(int64(len(f.Errors)))
	}
	return f
}

// parsers keeps parsers between parses, so their scratch stacks and
// fact lists keep the capacity they grew to.
var parsers = sync.Pool{New: func() any { return new(parser) }}

// release clears the parse's state, keeping only the emptied scratch,
// and returns p to the pool. Nothing it keeps refers into the AST.
func (p *parser) release() {
	*p = parser{scratch: p.scratch}
	parsers.Put(p)
}

// parser holds the token cursor and the file being built.
type parser struct {
	toks []phptoken.Token
	pos  int
	file *phpast.File

	// gov is the scan's resource governor (nil when ungoverned).
	gov *govern.Governor
	// depth tracks recursive-descent nesting against maxDepth; crossing
	// the budget degrades the construct to a Bad node instead of risking
	// stack exhaustion on hostile input.
	depth        int
	maxDepth     int
	depthErrored bool

	// in deduplicates case-folded identifiers (nil means fold without
	// interning).
	in *phplex.Interner

	// The most numerous nodes, and argument lists, are carved from
	// per-parse slabs sized from the token stream (see sizeSlabs).
	lits      slab[phpast.Literal]
	vars      slab[phpast.Var]
	calls     slab[phpast.FuncCall]
	binaries  slab[phpast.Binary]
	assigns   slab[phpast.Assign]
	exprStmts slab[phpast.ExprStmt]
	echoes    slab[phpast.Echo]
	argSlab   slab[phpast.Arg]

	// nodes counts the nodes built.
	nodes int
	// declDepth counts the function and class declarations being
	// parsed around the cursor, and scopes those plus the closures: code
	// at scopes zero runs in the shared global scope.
	declDepth, scopes int

	scratch
}

// scratch is the per-parse working memory a pooled parser keeps: the
// lists a parse collects are emptied, not freed, when it ends.
type scratch struct {
	// The scratch stacks list parsers collect items on before copying
	// each finished list out at its exact length.
	stmts stack[phpast.Stmt]
	exprs stack[phpast.Expr]
	args  stack[phpast.Arg]
	items stack[phpast.ArrayItem]

	// The facts recorded so far, in the order the parse met them: the
	// declarations, and a journal of every other fact (see fillFacts).
	decls   []phpast.Stmt
	journal []fact
	// distinct and table are where fillFacts gathers each name's kinds.
	distinct []fact
	table    []int32
}

// lower case-folds an identifier through the intern table. It replaces
// strings.ToLower on the hot path: already-lowercase names (the common
// case) cost zero allocations, and distinct spellings are materialized
// once per scan when an interner is attached.
func (p *parser) lower(s string) string {
	return p.in.Lower(s)
}

// enterNesting guards one level of parser recursion. It reports false —
// recording the budget error once — when the depth budget is spent.
func (p *parser) enterNesting() bool {
	if p.depth >= p.maxDepth {
		if !p.depthErrored {
			p.depthErrored = true
			p.errorf("line %d: nesting exceeds parser depth budget (%d); degrading to bad node",
				p.cur().Line, p.maxDepth)
			p.gov.NoteParseDepth()
		}
		return false
	}
	p.depth++
	return true
}

// leaveNesting releases one level taken by enterNesting.
func (p *parser) leaveNesting() { p.depth-- }

// badExprOverDepth consumes one token (to guarantee forward progress in
// every caller's loop) and returns a placeholder expression.
func (p *parser) badExprOverDepth() phpast.Expr {
	line := p.next().Line
	return counted(p, &phpast.BadExpr{Reason: "nesting depth budget exceeded", Position: phpast.NewPosition(line)})
}

// cur returns the current token. The stream ends in EOF and the cursor
// never moves past it, so at the end cur keeps returning that EOF.
// Tokens are returned by address, which stays valid for the parse.
func (p *parser) cur() *phptoken.Token { return &p.toks[p.pos] }

// peek returns the token n positions ahead.
func (p *parser) peek(n int) phptoken.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

// next consumes and returns the current token; at EOF it stays put.
func (p *parser) next() *phptoken.Token {
	t := &p.toks[p.pos]
	if t.Kind != phptoken.EOF {
		p.pos++
	}
	return t
}

// at reports whether the current token has kind k.
func (p *parser) at(k phptoken.Kind) bool { return p.toks[p.pos].Kind == k }

// accept consumes the current token when it has kind k.
func (p *parser) accept(k phptoken.Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a token of kind k or records an error without consuming.
func (p *parser) expect(k phptoken.Kind, ctx string) bool {
	if p.accept(k) {
		return true
	}
	p.errorf("line %d: expected %v in %s, found %v", p.cur().Line, k, ctx, p.cur().Kind)
	return false
}

// errorf records a recoverable parse error.
func (p *parser) errorf(format string, args ...any) {
	p.file.Errors = append(p.file.Errors, fmt.Sprintf(format, args...))
}

// pos builds the embedded position from the current token.
func (p *parser) position() int { return p.cur().Line }

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// parseStmtList parses statements until EOF or until stop returns true for
// the current token. It guarantees forward progress even on malformed
// input.
func (p *parser) parseStmtList(stop func(*phptoken.Token) bool) []phpast.Stmt {
	mark := p.stmts.mark()
	for {
		p.gov.Step()
		if p.gov.Halted() {
			// Cancellation or an exhausted budget: hand back what parsed
			// so far; the engine records the truncation.
			break
		}
		t := p.cur()
		if t.Kind == phptoken.EOF || stop(t) {
			break
		}
		before := p.pos
		s := p.parseStmt()
		if s != nil {
			p.stmts.push(s)
		}
		if p.pos == before {
			// No progress: consume the offending token to avoid loops.
			bad := p.next()
			p.errorf("line %d: unexpected token %v", bad.Line, bad.Kind)
			p.stmts.push(counted(p, &phpast.BadStmt{
				Reason:   "unexpected " + bad.Kind.String(),
				Position: phpast.NewPosition(bad.Line),
			}))
		}
	}
	return p.stmts.popTo(mark, nil)
}

// stopNever is the stop predicate of the file's top-level list.
func stopNever(*phptoken.Token) bool { return false }

// stopAt returns a stop predicate matching any of the given kinds.
func stopAt(kinds ...phptoken.Kind) func(*phptoken.Token) bool {
	return func(t *phptoken.Token) bool {
		for _, k := range kinds {
			if t.Kind == k {
				return true
			}
		}
		return false
	}
}

// stopAtIdents returns a stop predicate matching Ident tokens with any of
// the given case-insensitive spellings (used for endif/endwhile/...).
func stopAtIdents(names ...string) func(*phptoken.Token) bool {
	return func(t *phptoken.Token) bool {
		if t.Kind != phptoken.Ident {
			return false
		}
		for _, n := range names {
			if strings.EqualFold(t.Text, n) {
				return true
			}
		}
		return false
	}
}

// parseStmt parses one statement. It may return nil for tokens that carry
// no statement (open/close tags, stray semicolons).
func (p *parser) parseStmt() phpast.Stmt {
	if !p.enterNesting() {
		line := p.next().Line
		return counted(p, &phpast.BadStmt{Reason: "nesting depth budget exceeded", Position: phpast.NewPosition(line)})
	}
	s := p.parseStmtTail()
	p.leaveNesting()
	return s
}

// parseStmtTail is parseStmt without the depth guard.
func (p *parser) parseStmtTail() phpast.Stmt {
	t := p.cur()
	switch t.Kind {
	case phptoken.OpenTag, phptoken.CloseTag:
		p.next()
		return nil
	case phptoken.Semicolon:
		p.next()
		return nil
	case phptoken.InlineHTML:
		p.next()
		return p.echoes.put(phpast.Echo{
			Args:     []phpast.Expr{p.lit(t.Line, phpast.LitString, t.Text)},
			FromHTML: true,
			Position: phpast.NewPosition(t.Line),
		})
	case phptoken.OpenTagEcho:
		p.next()
		args := p.parseExprListUntil(stopAt(phptoken.Semicolon, phptoken.CloseTag))
		p.accept(phptoken.Semicolon)
		return p.echoes.put(phpast.Echo{Args: args, FromHTML: true, Position: phpast.NewPosition(t.Line)})
	case phptoken.KwEcho:
		p.next()
		args := p.parseExprListUntil(stopAt(phptoken.Semicolon, phptoken.CloseTag))
		p.endStmt()
		return p.echoes.put(phpast.Echo{Args: args, Position: phpast.NewPosition(t.Line)})
	case phptoken.LBrace:
		p.next()
		body := p.parseStmtList(stopAt(phptoken.RBrace))
		p.expect(phptoken.RBrace, "block")
		return counted(p, &phpast.Block{List: body, Position: phpast.NewPosition(t.Line)})
	case phptoken.KwIf:
		return p.parseIf()
	case phptoken.KwWhile:
		return p.parseWhile()
	case phptoken.KwDo:
		return p.parseDoWhile()
	case phptoken.KwFor:
		return p.parseFor()
	case phptoken.KwForeach:
		return p.parseForeach()
	case phptoken.KwSwitch:
		return p.parseSwitch()
	case phptoken.KwReturn:
		p.next()
		var x phpast.Expr
		if !p.at(phptoken.Semicolon) && !p.at(phptoken.CloseTag) && !p.at(phptoken.EOF) {
			x = p.parseExpr()
		}
		p.endStmt()
		return counted(p, &phpast.Return{X: x, Position: phpast.NewPosition(t.Line)})
	case phptoken.KwBreak:
		p.next()
		p.skipOptionalLevel()
		p.endStmt()
		return counted(p, &phpast.Break{Position: phpast.NewPosition(t.Line)})
	case phptoken.KwContinue:
		p.next()
		p.skipOptionalLevel()
		p.endStmt()
		return counted(p, &phpast.Continue{Position: phpast.NewPosition(t.Line)})
	case phptoken.KwGlobal:
		return p.parseGlobal()
	case phptoken.KwStatic:
		// Distinguish "static $v = ..." from "static::" and class members.
		if p.peek(1).Kind == phptoken.Variable {
			return p.parseStaticVars()
		}
		return p.parseExprStmt()
	case phptoken.KwUnset:
		return p.parseUnset()
	case phptoken.KwFunction:
		// "function name(" declares; "function (" is a closure expression.
		if p.peek(1).Kind == phptoken.Ident ||
			(p.peek(1).Kind == phptoken.Amp && p.peek(2).Kind == phptoken.Ident) {
			return p.parseFuncDecl()
		}
		return p.parseExprStmt()
	case phptoken.KwAbstract, phptoken.KwFinal:
		if p.peek(1).Kind == phptoken.KwClass {
			return p.parseClassDecl()
		}
		return p.parseExprStmt()
	case phptoken.KwClass, phptoken.KwInterface, phptoken.KwTrait:
		return p.parseClassDecl()
	case phptoken.KwThrow:
		p.next()
		x := p.parseExpr()
		p.endStmt()
		return counted(p, &phpast.Throw{X: x, Position: phpast.NewPosition(t.Line)})
	case phptoken.KwTry:
		return p.parseTry()
	case phptoken.KwNamespace:
		// namespace Foo\Bar; — record and skip.
		p.next()
		for !p.at(phptoken.Semicolon) && !p.at(phptoken.LBrace) && !p.at(phptoken.EOF) {
			p.next()
		}
		p.accept(phptoken.Semicolon)
		return nil
	case phptoken.KwUse:
		// use Foo\Bar; at top level — skip (aliases not modeled).
		p.next()
		for !p.at(phptoken.Semicolon) && !p.at(phptoken.EOF) {
			p.next()
		}
		p.accept(phptoken.Semicolon)
		return nil
	case phptoken.KwDeclare:
		p.next()
		p.skipParens()
		p.accept(phptoken.Semicolon)
		return nil
	default:
		return p.parseExprStmt()
	}
}

// endStmt consumes a statement terminator: semicolon, or a close tag which
// PHP treats as an implicit semicolon.
func (p *parser) endStmt() {
	if p.accept(phptoken.Semicolon) {
		return
	}
	if p.at(phptoken.CloseTag) || p.at(phptoken.EOF) || p.at(phptoken.RBrace) {
		return
	}
	p.errorf("line %d: expected ';', found %v", p.cur().Line, p.cur().Kind)
}

// skipOptionalLevel consumes the optional integer level of break/continue.
func (p *parser) skipOptionalLevel() {
	p.accept(phptoken.IntLit)
}

// skipParens consumes a balanced parenthesized group starting at "(".
func (p *parser) skipParens() {
	if !p.accept(phptoken.LParen) {
		return
	}
	depth := 1
	for depth > 0 && !p.at(phptoken.EOF) {
		switch p.next().Kind {
		case phptoken.LParen:
			depth++
		case phptoken.RParen:
			depth--
		}
	}
}

// parseExprStmt parses an expression statement.
func (p *parser) parseExprStmt() phpast.Stmt {
	line := p.position()
	x := p.parseExpr()
	p.endStmt()
	return p.exprStmts.put(phpast.ExprStmt{X: x, Position: phpast.NewPosition(line)})
}

// parseIf parses if statements in both brace and alternative (colon)
// syntax.
func (p *parser) parseIf() phpast.Stmt {
	line := p.next().Line // if
	cond := p.parseParenExpr("if condition")
	node := counted(p, &phpast.If{Cond: cond, Position: phpast.NewPosition(line)})

	if p.accept(phptoken.Colon) {
		// Alternative syntax: if (c): ... elseif: ... else: ... endif;
		stop := stopAtIdents("endif")
		node.Then = p.parseStmtListAlt(stop)
		for p.at(phptoken.KwElseif) ||
			(p.at(phptoken.KwElse) && p.peek(1).Kind == phptoken.KwIf) {
			eiLine := p.next().Line
			if p.cur().Kind == phptoken.KwIf { // "else if" split form
				p.next()
			}
			eiCond := p.parseParenExpr("elseif condition")
			p.expect(phptoken.Colon, "elseif")
			node.Elseifs = append(node.Elseifs, phpast.ElseIf{
				Line: eiLine, Cond: eiCond, Body: p.parseStmtListAlt(stop),
			})
		}
		if p.accept(phptoken.KwElse) {
			p.expect(phptoken.Colon, "else")
			node.Else = p.parseStmtListAlt(stop)
		}
		p.acceptIdent("endif")
		p.accept(phptoken.Semicolon)
		return node
	}

	node.Then = p.parseBody()
	for {
		if p.at(phptoken.KwElseif) {
			eiLine := p.next().Line
			eiCond := p.parseParenExpr("elseif condition")
			node.Elseifs = append(node.Elseifs, phpast.ElseIf{
				Line: eiLine, Cond: eiCond, Body: p.parseBody(),
			})
			continue
		}
		if p.at(phptoken.KwElse) && p.peek(1).Kind == phptoken.KwIf {
			eiLine := p.next().Line
			p.next() // if
			eiCond := p.parseParenExpr("else-if condition")
			node.Elseifs = append(node.Elseifs, phpast.ElseIf{
				Line: eiLine, Cond: eiCond, Body: p.parseBody(),
			})
			continue
		}
		break
	}
	if p.accept(phptoken.KwElse) {
		node.Else = p.parseBody()
	}
	return node
}

// parseStmtListAlt parses an alternative-syntax body: statements until
// elseif/else/case markers or the named end keyword.
func (p *parser) parseStmtListAlt(stopEnd func(*phptoken.Token) bool) []phpast.Stmt {
	return p.parseStmtList(func(t *phptoken.Token) bool {
		if t.Kind == phptoken.KwElseif || t.Kind == phptoken.KwElse {
			return true
		}
		return stopEnd(t)
	})
}

// acceptIdent consumes an Ident with the given case-insensitive spelling.
func (p *parser) acceptIdent(name string) bool {
	if p.at(phptoken.Ident) && strings.EqualFold(p.cur().Text, name) {
		p.next()
		return true
	}
	return false
}

// parseParenExpr parses "( expr )".
func (p *parser) parseParenExpr(ctx string) phpast.Expr {
	p.expect(phptoken.LParen, ctx)
	x := p.parseExpr()
	p.expect(phptoken.RParen, ctx)
	return x
}

// parseBody parses a statement body: a braced block, or a single
// statement.
func (p *parser) parseBody() []phpast.Stmt {
	if p.accept(phptoken.LBrace) {
		body := p.parseStmtList(stopAt(phptoken.RBrace))
		p.expect(phptoken.RBrace, "block")
		return body
	}
	if s := p.parseStmt(); s != nil {
		return []phpast.Stmt{s}
	}
	return nil
}

// parseWhile parses while loops in both syntaxes.
func (p *parser) parseWhile() phpast.Stmt {
	line := p.next().Line
	cond := p.parseParenExpr("while condition")
	node := counted(p, &phpast.While{Cond: cond, Position: phpast.NewPosition(line)})
	if p.accept(phptoken.Colon) {
		node.Body = p.parseStmtList(stopAtIdents("endwhile"))
		p.acceptIdent("endwhile")
		p.accept(phptoken.Semicolon)
		return node
	}
	node.Body = p.parseBody()
	return node
}

// parseDoWhile parses do { } while ( );
func (p *parser) parseDoWhile() phpast.Stmt {
	line := p.next().Line
	body := p.parseBody()
	var cond phpast.Expr
	if p.accept(phptoken.KwWhile) {
		cond = p.parseParenExpr("do-while condition")
	} else {
		p.errorf("line %d: expected 'while' after do body", p.cur().Line)
	}
	p.endStmt()
	return counted(p, &phpast.DoWhile{Body: body, Cond: cond, Position: phpast.NewPosition(line)})
}

// parseFor parses for (init; cond; post) body.
func (p *parser) parseFor() phpast.Stmt {
	line := p.next().Line
	node := counted(p, &phpast.For{Position: phpast.NewPosition(line)})
	p.expect(phptoken.LParen, "for")
	node.Init = p.parseExprListUntil(stopAt(phptoken.Semicolon))
	p.accept(phptoken.Semicolon)
	node.Cond = p.parseExprListUntil(stopAt(phptoken.Semicolon))
	p.accept(phptoken.Semicolon)
	node.Post = p.parseExprListUntil(stopAt(phptoken.RParen))
	p.expect(phptoken.RParen, "for")
	if p.accept(phptoken.Colon) {
		node.Body = p.parseStmtList(stopAtIdents("endfor"))
		p.acceptIdent("endfor")
		p.accept(phptoken.Semicolon)
		return node
	}
	node.Body = p.parseBody()
	return node
}

// parseForeach parses foreach (expr as [$k =>] [&]$v) body.
func (p *parser) parseForeach() phpast.Stmt {
	line := p.next().Line
	node := counted(p, &phpast.Foreach{Position: phpast.NewPosition(line)})
	p.expect(phptoken.LParen, "foreach")
	node.Expr = p.parseExpr()
	p.expect(phptoken.KwAs, "foreach")
	first := p.parseForeachTarget(&node.ByRef)
	if p.accept(phptoken.DoubleArrow) {
		node.Key = first
		node.Value = p.parseForeachTarget(&node.ByRef)
		p.noteStore(node.Key)
	} else {
		node.Value = first
	}
	p.noteStore(node.Value)
	p.expect(phptoken.RParen, "foreach")
	if p.accept(phptoken.Colon) {
		node.Body = p.parseStmtList(stopAtIdents("endforeach"))
		p.acceptIdent("endforeach")
		p.accept(phptoken.Semicolon)
		return node
	}
	node.Body = p.parseBody()
	return node
}

// parseForeachTarget parses a foreach key/value target, noting by-ref.
func (p *parser) parseForeachTarget(byRef *bool) phpast.Expr {
	if p.accept(phptoken.Amp) {
		*byRef = true
	}
	if p.at(phptoken.KwList) {
		return p.parseListExpr()
	}
	return p.parseOperand()
}

// parseSwitch parses switch statements in both syntaxes.
func (p *parser) parseSwitch() phpast.Stmt {
	line := p.next().Line
	node := counted(p, &phpast.Switch{Position: phpast.NewPosition(line)})
	node.Cond = p.parseParenExpr("switch")

	alt := false
	if p.accept(phptoken.Colon) {
		alt = true
	} else {
		p.expect(phptoken.LBrace, "switch body")
	}
	stopBody := func(t *phptoken.Token) bool {
		if t.Kind == phptoken.KwCase || t.Kind == phptoken.KwDefault {
			return true
		}
		if alt {
			return t.Kind == phptoken.Ident && strings.EqualFold(t.Text, "endswitch")
		}
		return t.Kind == phptoken.RBrace
	}
	for {
		t := p.cur()
		if t.Kind == phptoken.EOF {
			break
		}
		if alt && p.acceptIdent("endswitch") {
			p.accept(phptoken.Semicolon)
			return node
		}
		if !alt && p.accept(phptoken.RBrace) {
			return node
		}
		switch t.Kind {
		case phptoken.KwCase:
			p.next()
			cond := p.parseExpr()
			if !p.accept(phptoken.Colon) {
				p.accept(phptoken.Semicolon)
			}
			node.Cases = append(node.Cases, phpast.SwitchCase{
				Line: t.Line, Cond: cond, Body: p.parseStmtList(stopBody),
			})
		case phptoken.KwDefault:
			p.next()
			if !p.accept(phptoken.Colon) {
				p.accept(phptoken.Semicolon)
			}
			node.Cases = append(node.Cases, phpast.SwitchCase{
				Line: t.Line, Body: p.parseStmtList(stopBody),
			})
		default:
			p.errorf("line %d: unexpected %v in switch", t.Line, t.Kind)
			p.next()
		}
	}
	return node
}

// parseGlobal parses global $a, $b;
func (p *parser) parseGlobal() phpast.Stmt {
	line := p.next().Line
	node := counted(p, &phpast.Global{Position: phpast.NewPosition(line)})
	for p.at(phptoken.Variable) {
		name := strings.TrimPrefix(p.next().Text, "$")
		// "global $g" aliases the shared scope for reads and writes.
		p.noteGlobal(name, factRead|factWrite)
		node.Names = append(node.Names, name)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.endStmt()
	return node
}

// parseStaticVars parses static $a = 1, $b;
func (p *parser) parseStaticVars() phpast.Stmt {
	line := p.next().Line
	node := counted(p, &phpast.StaticVars{Position: phpast.NewPosition(line)})
	for p.at(phptoken.Variable) {
		v := phpast.StaticVar{Name: strings.TrimPrefix(p.next().Text, "$")}
		if p.accept(phptoken.Assign) {
			v.Default = p.parseExpr()
		}
		if p.scopes == 0 {
			p.noteGlobal(v.Name, factWrite)
		}
		node.Vars = append(node.Vars, v)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.endStmt()
	return node
}

// parseUnset parses unset($a, $b);
func (p *parser) parseUnset() phpast.Stmt {
	line := p.next().Line
	node := counted(p, &phpast.Unset{Position: phpast.NewPosition(line)})
	p.expect(phptoken.LParen, "unset")
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		x := p.parseExpr()
		p.noteStore(x)
		node.Vars = append(node.Vars, x)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.RParen, "unset")
	p.endStmt()
	return node
}

// parseTry parses try/catch/finally.
func (p *parser) parseTry() phpast.Stmt {
	line := p.next().Line
	node := counted(p, &phpast.Try{Position: phpast.NewPosition(line)})
	p.expect(phptoken.LBrace, "try")
	node.Body = p.parseStmtList(stopAt(phptoken.RBrace))
	p.expect(phptoken.RBrace, "try")
	for p.at(phptoken.KwCatch) {
		cLine := p.next().Line
		p.expect(phptoken.LParen, "catch")
		c := phpast.Catch{Line: cLine}
		if p.at(phptoken.Ident) {
			c.Class = p.next().Text
		}
		if p.at(phptoken.Variable) {
			c.Var = strings.TrimPrefix(p.next().Text, "$")
		}
		p.expect(phptoken.RParen, "catch")
		p.expect(phptoken.LBrace, "catch body")
		c.Body = p.parseStmtList(stopAt(phptoken.RBrace))
		p.expect(phptoken.RBrace, "catch body")
		node.Catches = append(node.Catches, c)
	}
	if p.at(phptoken.KwFinally) {
		p.next()
		p.expect(phptoken.LBrace, "finally")
		node.Finally = p.parseStmtList(stopAt(phptoken.RBrace))
		p.expect(phptoken.RBrace, "finally")
	}
	return node
}

// parseFuncDecl parses a named function declaration.
func (p *parser) parseFuncDecl() phpast.Stmt {
	line := p.next().Line // function
	node := counted(p, &phpast.FuncDecl{Position: phpast.NewPosition(line)})
	if p.accept(phptoken.Amp) {
		node.ByRefReturn = true
	}
	if p.at(phptoken.Ident) {
		node.OrigName = p.next().Text
		node.Name = p.lower(node.OrigName)
	} else {
		p.errorf("line %d: expected function name", p.cur().Line)
	}
	p.noteDecl(node, node.Name)
	p.enterDecl()
	node.Params = p.parseParams()
	if p.accept(phptoken.LBrace) {
		node.Body = p.parseStmtList(stopAt(phptoken.RBrace))
		p.expect(phptoken.RBrace, "function body")
	} else {
		p.errorf("line %d: expected function body", p.cur().Line)
	}
	p.leaveDecl()
	return node
}

// parseParams parses a parenthesized parameter list.
func (p *parser) parseParams() []phpast.Param {
	var params []phpast.Param
	if !p.expect(phptoken.LParen, "parameter list") {
		return nil
	}
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		var prm phpast.Param
		// Optional type hint: an identifier or "array" before the variable.
		if p.at(phptoken.Ident) {
			prm.TypeHint = p.next().Text
		} else if p.at(phptoken.KwArray) {
			prm.TypeHint = "array"
			p.next()
		}
		if p.accept(phptoken.Amp) {
			prm.ByRef = true
		}
		if p.at(phptoken.Variable) {
			prm.Name = strings.TrimPrefix(p.next().Text, "$")
		} else {
			p.errorf("line %d: expected parameter, found %v", p.cur().Line, p.cur().Kind)
			p.next()
			continue
		}
		if p.accept(phptoken.Assign) {
			prm.Default = p.parseExpr()
		}
		params = append(params, prm)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.RParen, "parameter list")
	return params
}

// parseClassDecl parses class, interface and trait declarations.
func (p *parser) parseClassDecl() phpast.Stmt {
	node := counted(p, &phpast.ClassDecl{Position: phpast.NewPosition(p.position())})
	for {
		switch p.cur().Kind {
		case phptoken.KwAbstract:
			node.Abstract = true
			p.next()
			continue
		case phptoken.KwFinal:
			p.next()
			continue
		}
		break
	}
	switch p.cur().Kind {
	case phptoken.KwInterface:
		node.IsInterface = true
		p.next()
	case phptoken.KwClass, phptoken.KwTrait:
		p.next()
	default:
		p.errorf("line %d: expected class keyword", p.cur().Line)
	}
	if p.at(phptoken.Ident) {
		node.OrigName = p.next().Text
		node.Name = p.lower(node.OrigName)
	}
	p.noteDecl(node, node.Name)
	p.enterDecl()
	if p.accept(phptoken.KwExtends) {
		if p.at(phptoken.Ident) {
			node.Extends = p.lower(p.next().Text)
		}
	}
	if p.accept(phptoken.KwImplements) {
		for p.at(phptoken.Ident) {
			node.Implements = append(node.Implements, p.lower(p.next().Text))
			if !p.accept(phptoken.Comma) {
				break
			}
		}
	}
	p.expect(phptoken.LBrace, "class body")
	p.parseClassBody(node)
	p.expect(phptoken.RBrace, "class body")
	p.leaveDecl()
	return node
}

// parseClassBody parses class members until the closing brace.
func (p *parser) parseClassBody(node *phpast.ClassDecl) {
	for !p.at(phptoken.RBrace) && !p.at(phptoken.EOF) {
		before := p.pos
		p.parseClassMember(node)
		if p.pos == before {
			bad := p.next()
			p.errorf("line %d: unexpected %v in class body", bad.Line, bad.Kind)
		}
	}
}

// parseClassMember parses one property, constant or method declaration.
func (p *parser) parseClassMember(node *phpast.ClassDecl) {
	vis := phpast.Public
	static := false
	abstract := false
	final := false
	for {
		switch p.cur().Kind {
		case phptoken.KwPublic, phptoken.KwVar:
			vis = phpast.Public
			p.next()
			continue
		case phptoken.KwProtected:
			vis = phpast.Protected
			p.next()
			continue
		case phptoken.KwPrivate:
			vis = phpast.Private
			p.next()
			continue
		case phptoken.KwStatic:
			static = true
			p.next()
			continue
		case phptoken.KwAbstract:
			abstract = true
			p.next()
			continue
		case phptoken.KwFinal:
			final = true
			p.next()
			continue
		}
		break
	}

	switch p.cur().Kind {
	case phptoken.KwConst:
		p.next()
		for p.at(phptoken.Ident) {
			c := phpast.ConstDecl{Line: p.cur().Line, Name: p.next().Text}
			if p.accept(phptoken.Assign) {
				c.Value = p.parseExpr()
			}
			node.Consts = append(node.Consts, c)
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.accept(phptoken.Semicolon)

	case phptoken.Variable:
		for p.at(phptoken.Variable) {
			prop := phpast.PropertyDecl{
				Line:       p.cur().Line,
				Name:       strings.TrimPrefix(p.next().Text, "$"),
				Visibility: vis,
				Static:     static,
			}
			if p.accept(phptoken.Assign) {
				prop.Default = p.parseExpr()
			}
			node.Props = append(node.Props, prop)
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.accept(phptoken.Semicolon)

	case phptoken.KwFunction:
		line := p.next().Line
		p.accept(phptoken.Amp)
		m := phpast.MethodDecl{
			Line:       line,
			Visibility: vis,
			Static:     static,
			Abstract:   abstract,
			Final:      final,
		}
		if name, ok := p.memberName(); ok {
			m.OrigName = name
			m.Name = p.lower(name)
		} else {
			p.errorf("line %d: expected method name", p.cur().Line)
		}
		m.Params = p.parseParams()
		if p.accept(phptoken.LBrace) {
			m.Body = p.parseStmtList(stopAt(phptoken.RBrace))
			p.expect(phptoken.RBrace, "method body")
		} else {
			p.accept(phptoken.Semicolon) // abstract or interface method
		}
		node.Methods = append(node.Methods, m)
	}
}

// memberName consumes a method/property name, allowing keywords to be used
// as names as PHP does for class members.
func (p *parser) memberName() (string, bool) {
	t := p.cur()
	if t.Kind == phptoken.Ident || t.IsKeyword() {
		p.next()
		return t.Text, true
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// parseExprListUntil parses a comma-separated expression list until the
// stop predicate matches.
func (p *parser) parseExprListUntil(stop func(*phptoken.Token) bool) []phpast.Expr {
	mark := p.exprs.mark()
	for {
		t := p.cur()
		if t.Kind == phptoken.EOF || stop(t) {
			break
		}
		before := p.pos
		p.exprs.push(p.parseExpr())
		if p.pos == before {
			p.next() // force progress
		}
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	return p.exprs.popTo(mark, nil)
}

// parseExpr parses a full expression including the low-precedence word
// operators (or, xor, and).
func (p *parser) parseExpr() phpast.Expr {
	if !p.enterNesting() {
		return p.badExprOverDepth()
	}
	x := p.parseWordOps(1)
	p.leaveNesting()
	return x
}

// parseWordOps parses a chain of the word operators at precedence
// level min (at least 1) and tighter by precedence climbing, as
// parseBinary does for the symbolic ones; their operands are
// assignments.
func (p *parser) parseWordOps(min int) phpast.Expr {
	left := p.parseAssign()
	for {
		op := p.curOp()
		if op.word < min {
			return left
		}
		line := p.next().Line
		right := p.parseWordOps(op.word + 1)
		left = p.binaries.put(phpast.Binary{
			Op: op.binary, L: left, R: right,
			Position: phpast.NewPosition(line),
		})
	}
}

// assignOps lists the assignment operators and their spellings.
var assignOps = []struct {
	kind phptoken.Kind
	op   string
}{
	{phptoken.Assign, "="},
	{phptoken.PlusAssign, "+="},
	{phptoken.MinusAssign, "-="},
	{phptoken.StarAssign, "*="},
	{phptoken.SlashAssign, "/="},
	{phptoken.DotAssign, ".="},
	{phptoken.PercentAssign, "%="},
	{phptoken.AmpAssign, "&="},
	{phptoken.PipeAssign, "|="},
	{phptoken.CaretAssign, "^="},
	{phptoken.ShlAssign, "<<="},
	{phptoken.ShrAssign, ">>="},
}

// parseAssign parses right-associative assignment expressions.
func (p *parser) parseAssign() phpast.Expr {
	left := p.parseTernary()
	op := p.curOp().assign
	if op == "" {
		return left
	}
	line := p.next().Line
	node := p.assigns.put(phpast.Assign{LHS: left, Op: op, Position: phpast.NewPosition(line)})
	if op == "=" && p.accept(phptoken.Amp) {
		node.ByRef = true
	}
	node.RHS = p.parseAssign()
	p.noteStore(left)
	return node
}

// parseTernary parses cond ? then : else and the short ?: form.
func (p *parser) parseTernary() phpast.Expr {
	cond := p.parseBinary(1)
	if !p.at(phptoken.Question) {
		return cond
	}
	line := p.next().Line
	node := counted(p, &phpast.Ternary{Cond: cond, Position: phpast.NewPosition(line)})
	if !p.at(phptoken.Colon) {
		node.Then = p.parseExpr()
	}
	p.expect(phptoken.Colon, "ternary")
	node.Else = p.parseTernary()
	return node
}

// binaryLevels lists binary operators from loosest to tightest binding.
var binaryLevels = [][]struct {
	kind phptoken.Kind
	op   string
}{
	{{phptoken.BoolOr, "||"}},
	{{phptoken.BoolAnd, "&&"}},
	{{phptoken.Pipe, "|"}},
	{{phptoken.Caret, "^"}},
	{{phptoken.Amp, "&"}},
	{
		{phptoken.IsEqual, "=="}, {phptoken.IsNotEqual, "!="},
		{phptoken.IsIdentical, "==="}, {phptoken.IsNotIdentical, "!=="},
	},
	{
		{phptoken.Lt, "<"}, {phptoken.Le, "<="},
		{phptoken.Gt, ">"}, {phptoken.Ge, ">="},
	},
	{{phptoken.Shl, "<<"}, {phptoken.Shr, ">>"}},
	{{phptoken.Plus, "+"}, {phptoken.Minus, "-"}, {phptoken.Dot, "."}},
	{{phptoken.Star, "*"}, {phptoken.Slash, "/"}, {phptoken.Percent, "%"}},
}

// wordOps lists the word-form binary operators from loosest to
// tightest binding. All bind looser than assignment.
var wordOps = []struct {
	kind phptoken.Kind
	op   string
}{
	{phptoken.KwLogicalOr, "or"},
	{phptoken.KwLogicalXor, "xor"},
	{phptoken.KwLogicalAnd, "and"},
}

// kindOp is what the expression parser needs to know about a token
// kind as an operator.
type kindOp struct {
	level  int    // binary precedence: 1 is binaryLevels[0]; 0 is not binary
	word   int    // word operator precedence: 1 is wordOps[0]; 0 is not one
	binary string // binary or word operator spelling
	assign string // assignment operator spelling; "" is not an assignment
}

// kindOps indexes binaryLevels, wordOps and assignOps by token kind.
var kindOps = func() []kindOp {
	ops := make([]kindOp, phptoken.KindCount())
	for i, level := range binaryLevels {
		for _, b := range level {
			ops[b.kind].level, ops[b.kind].binary = i+1, b.op
		}
	}
	for i, w := range wordOps {
		ops[w.kind].word, ops[w.kind].binary = i+1, w.op
	}
	for _, a := range assignOps {
		ops[a.kind].assign = a.op
	}
	return ops
}()

// curOp returns the operator entry of the current token's kind.
func (p *parser) curOp() kindOp {
	if k := p.cur().Kind; k >= 0 && int(k) < len(kindOps) {
		return kindOps[k]
	}
	return kindOp{}
}

// parseBinary parses a chain of binary operators at precedence level min
// (at least 1) and tighter by precedence climbing. Every level is
// left-associative, so the right operand of an operator takes only
// tighter operators.
func (p *parser) parseBinary(min int) phpast.Expr {
	left := p.parseUnary()
	for {
		op := p.curOp()
		if op.level < min {
			return left
		}
		line := p.next().Line
		right := p.parseBinary(op.level + 1)
		left = p.binaries.put(phpast.Binary{
			Op: op.binary, L: left, R: right,
			Position: phpast.NewPosition(line),
		})
	}
}

// castNames maps cast token kinds to canonical type names, indexed by
// kind; other kinds map to "". Every operand looks its first token up
// here.
var castNames = func() []string {
	names := make([]string, phptoken.KindCount())
	for k, name := range map[phptoken.Kind]string{
		phptoken.IntCast:    "int",
		phptoken.FloatCast:  "float",
		phptoken.StringCast: "string",
		phptoken.ArrayCast:  "array",
		phptoken.ObjectCast: "object",
		phptoken.BoolCast:   "bool",
		phptoken.UnsetCast:  "unset",
	} {
		names[k] = name
	}
	return names
}()

// parseUnary parses prefix operators, casts and the expression keywords.
func (p *parser) parseUnary() phpast.Expr {
	if !p.enterNesting() {
		return p.badExprOverDepth()
	}
	x := p.parseUnaryTail()
	p.leaveNesting()
	return x
}

// parseUnaryTail is parseUnary without the depth guard; the prefix
// operators self-recurse through the guarded parseUnary.
func (p *parser) parseUnaryTail() phpast.Expr {
	t := p.cur()
	switch t.Kind {
	case phptoken.Bang:
		p.next()
		return counted(p, &phpast.Unary{Op: "!", X: p.parseUnary(), Position: phpast.NewPosition(t.Line)})
	case phptoken.Minus:
		p.next()
		return counted(p, &phpast.Unary{Op: "-", X: p.parseUnary(), Position: phpast.NewPosition(t.Line)})
	case phptoken.Plus:
		p.next()
		return counted(p, &phpast.Unary{Op: "+", X: p.parseUnary(), Position: phpast.NewPosition(t.Line)})
	case phptoken.Tilde:
		p.next()
		return counted(p, &phpast.Unary{Op: "~", X: p.parseUnary(), Position: phpast.NewPosition(t.Line)})
	case phptoken.At:
		p.next()
		return counted(p, &phpast.Unary{Op: "@", X: p.parseUnary(), Position: phpast.NewPosition(t.Line)})
	case phptoken.Inc, phptoken.Dec:
		p.next()
		return p.incDec(t, p.parseUnary(), true)
	case phptoken.KwPrint:
		p.next()
		return counted(p, &phpast.PrintExpr{X: p.parseExpr(), Position: phpast.NewPosition(t.Line)})
	case phptoken.KwClone:
		p.next()
		return counted(p, &phpast.CloneExpr{X: p.parseUnary(), Position: phpast.NewPosition(t.Line)})
	case phptoken.KwNew:
		return p.parseNew()
	case phptoken.KwInclude, phptoken.KwIncludeOnce, phptoken.KwRequire, phptoken.KwRequireOnce:
		kind := includeKinds[t.Kind]
		p.next()
		// Reserve the include's slot before its path, which may hold
		// includes of its own, so the facts list them in AST order.
		slot := len(p.journal)
		p.note(factInclude, "")
		node := counted(p, &phpast.IncludeExpr{Kind: kind, Path: p.parseExpr(), Position: phpast.NewPosition(t.Line)})
		p.journal[slot].name = node.Literal()
		return node
	case phptoken.KwExit:
		p.next()
		node := counted(p, &phpast.ExitExpr{Position: phpast.NewPosition(t.Line)})
		if p.accept(phptoken.LParen) {
			if !p.at(phptoken.RParen) {
				node.X = p.parseExpr()
			}
			p.expect(phptoken.RParen, "exit")
		}
		return node
	}
	if name := castNames[t.Kind]; name != "" {
		p.next()
		return counted(p, &phpast.Cast{Type: name, X: p.parseUnary(), Position: phpast.NewPosition(t.Line)})
	}
	x := p.parseOperand()
	if p.at(phptoken.KwInstanceof) {
		line := p.next().Line
		cls := ""
		if p.at(phptoken.Ident) {
			cls = p.next().Text
		} else if p.at(phptoken.Variable) {
			p.next()
		}
		return counted(p, &phpast.InstanceOf{X: x, Class: cls, Position: phpast.NewPosition(line)})
	}
	return x
}

// includeKinds maps the include-family keywords to their kinds.
var includeKinds = map[phptoken.Kind]phpast.IncludeKind{
	phptoken.KwInclude:     phpast.IncInclude,
	phptoken.KwIncludeOnce: phpast.IncIncludeOnce,
	phptoken.KwRequire:     phpast.IncRequire,
	phptoken.KwRequireOnce: phpast.IncRequireOnce,
}

// parseNew parses new ClassName(args) and new $var(args).
func (p *parser) parseNew() phpast.Expr {
	line := p.next().Line // new
	node := counted(p, &phpast.New{Position: phpast.NewPosition(line)})
	switch {
	case p.at(phptoken.Ident):
		node.Class = p.lower(p.next().Text)
	case p.at(phptoken.KwStatic):
		node.Class = "static"
		p.next()
	case p.at(phptoken.Variable):
		node.ClassExpr = p.parseOperand()
	default:
		p.errorf("line %d: expected class name after new", p.cur().Line)
	}
	p.noteNew(node.Class)
	if p.at(phptoken.LParen) {
		node.Args = p.parseArgs()
	}
	return node
}

// parseArgs parses a parenthesized call argument list.
func (p *parser) parseArgs() []phpast.Arg {
	mark := p.args.mark()
	p.expect(phptoken.LParen, "argument list")
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		var a phpast.Arg
		if p.accept(phptoken.Amp) {
			a.ByRef = true
		}
		before, mark := p.pos, p.markFacts()
		a.Value = p.parseExpr()
		if p.pos == before {
			p.dropFacts(mark)
			p.next() // force progress on malformed input
			continue
		}
		p.args.push(a)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.RParen, "argument list")
	return p.args.popTo(mark, &p.argSlab)
}

// parseOperand parses a primary expression and the member access,
// indexing, calls and postfix inc/dec chained onto it.
func (p *parser) parseOperand() phpast.Expr {
	mark := p.markFacts()
	x := p.parsePrimary()
	for {
		t := p.cur()
		switch t.Kind {
		case phptoken.Arrow:
			p.next()
			if x = p.parseMemberAccess(x, t.Line); x == nil {
				// A missing member name drops the whole chain.
				p.dropFacts(mark)
				x = counted(p, &phpast.BadExpr{Reason: "missing member name", Position: phpast.NewPosition(t.Line)})
			}
		case phptoken.LBracket:
			p.next()
			node := counted(p, &phpast.IndexFetch{Base: x, Position: phpast.NewPosition(t.Line)})
			if !p.at(phptoken.RBracket) {
				node.Index = p.parseExpr()
			}
			p.expect(phptoken.RBracket, "index")
			x = p.indexFetch(node)
		case phptoken.LBrace:
			// String offset access $s{0} (deprecated form). Only treat "{"
			// as an offset when directly after a variable-like expression.
			if !isVarLike(x) {
				return x
			}
			p.next()
			node := counted(p, &phpast.IndexFetch{Base: x, Position: phpast.NewPosition(t.Line)})
			if !p.at(phptoken.RBrace) {
				node.Index = p.parseExpr()
			}
			p.expect(phptoken.RBrace, "string offset")
			x = p.indexFetch(node)
		case phptoken.LParen:
			// Dynamic call through a variable-like expression.
			if !isVarLike(x) {
				return x
			}
			x = p.funcCall(t.Line, "", x)
		case phptoken.Inc, phptoken.Dec:
			p.next()
			x = p.incDec(t, x, false)
		default:
			return x
		}
	}
}

// incDec builds the increment or decrement that token t spells.
func (p *parser) incDec(t *phptoken.Token, x phpast.Expr, prefix bool) *phpast.IncDec {
	op := "++"
	if t.Kind == phptoken.Dec {
		op = "--"
	}
	p.noteStore(x)
	return counted(p, &phpast.IncDec{Op: op, X: x, Prefix: prefix, Position: phpast.NewPosition(t.Line)})
}

// isVarLike reports whether x can be called or brace-indexed.
func isVarLike(x phpast.Expr) bool {
	switch x.(type) {
	case *phpast.Var, *phpast.PropertyFetch, *phpast.IndexFetch,
		*phpast.StaticPropertyFetch, *phpast.VarVar:
		return true
	default:
		return false
	}
}

// parseMemberAccess parses ->name, ->$var, ->{expr} and method calls. It
// records an error and returns nil when no member name follows.
func (p *parser) parseMemberAccess(obj phpast.Expr, line int) phpast.Expr {
	var name string
	var nameExpr phpast.Expr
	switch {
	case p.at(phptoken.Ident) || p.cur().IsKeyword():
		name = p.next().Text
	case p.at(phptoken.Variable):
		nameExpr = p.parsePrimary()
	case p.accept(phptoken.LBrace):
		nameExpr = p.parseExpr()
		p.expect(phptoken.RBrace, "dynamic member name")
	default:
		p.errorf("line %d: expected member name after ->", p.cur().Line)
		return nil
	}
	if p.at(phptoken.LParen) {
		name = p.lower(name)
		if name != "" {
			p.note(factMethod, name)
		}
		return counted(p, &phpast.MethodCall{
			Object: obj, Name: name, NameExpr: nameExpr,
			Args: p.parseArgs(), Position: phpast.NewPosition(line),
		})
	}
	return counted(p, &phpast.PropertyFetch{
		Object: obj, Name: name, NameExpr: nameExpr,
		Position: phpast.NewPosition(line),
	})
}

// parsePrimary parses atoms: literals, variables, identifiers and the
// bracketed constructs.
func (p *parser) parsePrimary() phpast.Expr {
	t := p.cur()
	switch t.Kind {
	case phptoken.Variable:
		p.next()
		return p.newVar(t.Line, strings.TrimPrefix(t.Text, "$"))

	case phptoken.Dollar:
		p.next()
		if p.accept(phptoken.LBrace) {
			inner := p.parseExpr()
			p.expect(phptoken.RBrace, "variable variable")
			return counted(p, &phpast.VarVar{Expr: inner, Position: phpast.NewPosition(t.Line)})
		}
		return counted(p, &phpast.VarVar{Expr: p.parsePrimary(), Position: phpast.NewPosition(t.Line)})

	case phptoken.IntLit:
		p.next()
		return p.lit(t.Line, phpast.LitInt, t.Text)
	case phptoken.FloatLit:
		p.next()
		return p.lit(t.Line, phpast.LitFloat, t.Text)
	case phptoken.StringLit:
		p.next()
		return p.lit(t.Line, phpast.LitString, decodeStringLit(t.Text))

	case phptoken.Quote:
		p.next()
		return p.parseInterp(t.Line, phptoken.Quote, false)
	case phptoken.Backtick:
		p.next()
		return p.parseInterp(t.Line, phptoken.Backtick, true)
	case phptoken.StartHeredoc:
		p.next()
		return p.parseInterp(t.Line, phptoken.EndHeredoc, false)

	case phptoken.LParen:
		p.next()
		x := p.parseExpr()
		p.expect(phptoken.RParen, "parenthesized expression")
		return x

	case phptoken.KwArray:
		p.next()
		if p.at(phptoken.LParen) {
			return p.parseArrayLit(t.Line, phptoken.LParen, phptoken.RParen)
		}
		return counted(p, &phpast.ConstFetch{Name: "array", Position: phpast.NewPosition(t.Line)})
	case phptoken.LBracket:
		return p.parseArrayLit(t.Line, phptoken.LBracket, phptoken.RBracket)

	case phptoken.KwList:
		return p.parseListExpr()

	case phptoken.KwIsset:
		p.next()
		node := counted(p, &phpast.IssetExpr{Position: phpast.NewPosition(t.Line)})
		p.expect(phptoken.LParen, "isset")
		for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
			node.Vars = append(node.Vars, p.parseExpr())
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.expect(phptoken.RParen, "isset")
		return node

	case phptoken.KwEmpty:
		p.next()
		p.expect(phptoken.LParen, "empty")
		x := p.parseExpr()
		p.expect(phptoken.RParen, "empty")
		return counted(p, &phpast.EmptyExpr{X: x, Position: phpast.NewPosition(t.Line)})

	case phptoken.KwFunction:
		return p.parseClosure()

	case phptoken.KwStatic:
		// static::method() late static binding.
		if p.peek(1).Kind == phptoken.DoubleColon {
			p.next()
			return p.parseStaticMember("static", t.Line)
		}
		p.next()
		if p.at(phptoken.KwFunction) {
			return p.parseClosure()
		}
		return counted(p, &phpast.BadExpr{Reason: "unexpected static", Position: phpast.NewPosition(t.Line)})

	case phptoken.Ident:
		p.next()
		if p.at(phptoken.DoubleColon) {
			return p.parseStaticMember(t.Text, t.Line)
		}
		if p.at(phptoken.LParen) {
			return p.funcCall(t.Line, p.lower(t.Text), nil)
		}
		return counted(p, &phpast.ConstFetch{Name: t.Text, Position: phpast.NewPosition(t.Line)})

	case phptoken.Amp:
		// Stray by-ref marker in expression context: parse the operand.
		p.next()
		return p.parseUnary()

	default:
		p.errorf("line %d: unexpected token %v in expression", t.Line, t.Kind)
		return counted(p, &phpast.BadExpr{
			Reason:   "unexpected " + t.Kind.String(),
			Position: phpast.NewPosition(t.Line),
		})
	}
}

// parseStaticMember parses the continuation after "Class::".
func (p *parser) parseStaticMember(class string, line int) phpast.Expr {
	p.expect(phptoken.DoubleColon, "static member")
	class = p.lower(class)
	switch {
	case p.at(phptoken.Variable):
		name := strings.TrimPrefix(p.next().Text, "$")
		p.noteClassRef(class)
		return counted(p, &phpast.StaticPropertyFetch{
			Class: class, Name: name, Position: phpast.NewPosition(line),
		})
	case p.at(phptoken.Ident) || p.cur().IsKeyword():
		name := p.next().Text
		if p.at(phptoken.LParen) {
			name = p.lower(name)
			p.note(factMethod, name)
			p.noteClassRef(class)
			return counted(p, &phpast.StaticCall{
				Class: class, Name: name, Args: p.parseArgs(),
				Position: phpast.NewPosition(line),
			})
		}
		return counted(p, &phpast.ClassConstFetch{
			Class: class, Name: name, Position: phpast.NewPosition(line),
		})
	default:
		p.errorf("line %d: expected member after ::", p.cur().Line)
		return counted(p, &phpast.BadExpr{Reason: "bad static member", Position: phpast.NewPosition(line)})
	}
}

// parseClosure parses function (params) use (vars) { body }.
func (p *parser) parseClosure() phpast.Expr {
	line := p.next().Line // function
	p.accept(phptoken.Amp)
	node := counted(p, &phpast.Closure{Position: phpast.NewPosition(line)})
	// The closure's parameters and body get a fresh scope; its use
	// clause reads the enclosing one.
	p.scopes++
	node.Params = p.parseParams()
	p.scopes--
	if p.accept(phptoken.KwUse) {
		p.expect(phptoken.LParen, "closure use")
		for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
			var u phpast.ClosureUse
			if p.accept(phptoken.Amp) {
				u.ByRef = true
			}
			if p.at(phptoken.Variable) {
				u.Name = strings.TrimPrefix(p.next().Text, "$")
				p.noteVar(u.Name)
				node.Uses = append(node.Uses, u)
			} else {
				p.next()
			}
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.expect(phptoken.RParen, "closure use")
	}
	if p.accept(phptoken.LBrace) {
		p.scopes++
		node.Body = p.parseStmtList(stopAt(phptoken.RBrace))
		p.scopes--
		p.expect(phptoken.RBrace, "closure body")
	}
	return node
}

// parseListExpr parses list($a, , $b).
func (p *parser) parseListExpr() phpast.Expr {
	line := p.next().Line // list
	node := counted(p, &phpast.ListExpr{Position: phpast.NewPosition(line)})
	p.expect(phptoken.LParen, "list")
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		if p.at(phptoken.Comma) {
			node.Targets = append(node.Targets, nil)
			p.next()
			continue
		}
		node.Targets = append(node.Targets, p.parseExpr())
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.RParen, "list")
	return node
}

// parseArrayLit parses array(...) or [...] literals.
func (p *parser) parseArrayLit(line int, open, close phptoken.Kind) phpast.Expr {
	node := counted(p, &phpast.ArrayLit{Position: phpast.NewPosition(line)})
	mark := p.items.mark()
	p.expect(open, "array literal")
	for !p.at(close) && !p.at(phptoken.EOF) {
		var item phpast.ArrayItem
		before, mark := p.pos, p.markFacts()
		first := p.parseExpr()
		if p.accept(phptoken.DoubleArrow) {
			item.Key = first
			if p.accept(phptoken.Amp) {
				item.ByRef = true
			}
			item.Value = p.parseExpr()
		} else {
			item.Value = first
		}
		if p.pos == before {
			p.dropFacts(mark)
			p.next()
			continue
		}
		p.items.push(item)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(close, "array literal")
	node.Items = p.items.popTo(mark, nil)
	return node
}

// parseInterp parses an interpolated string body up to the closing
// delimiter token kind.
func (p *parser) parseInterp(line int, closing phptoken.Kind, shell bool) phpast.Expr {
	node := counted(p, &phpast.InterpString{IsShell: shell, Position: phpast.NewPosition(line)})
	for {
		t := p.cur()
		if t.Kind == phptoken.EOF {
			return node
		}
		if t.Kind == closing {
			p.next()
			return node
		}
		switch t.Kind {
		case phptoken.EncapsedText:
			p.next()
			node.Parts = append(node.Parts, p.lit(t.Line, phpast.LitString, decodeDouble(t.Text)))
		case phptoken.Variable:
			p.next()
			part := p.parseInterpAccess(p.newVar(t.Line, strings.TrimPrefix(t.Text, "$")))
			node.Parts = append(node.Parts, part)
		case phptoken.CurlyOpen:
			p.next()
			node.Parts = append(node.Parts, p.parseExpr())
			p.expect(phptoken.RBrace, "string interpolation")
		case phptoken.DollarCurlyOpen:
			p.next()
			if p.at(phptoken.Ident) {
				name := p.next().Text
				node.Parts = append(node.Parts, p.newVar(t.Line, name))
			} else {
				node.Parts = append(node.Parts, counted(p, &phpast.VarVar{
					Expr: p.parseExpr(), Position: phpast.NewPosition(t.Line),
				}))
			}
			p.expect(phptoken.RBrace, "string interpolation")
		default:
			// Unexpected token inside a string: consume to stay live.
			p.next()
		}
	}
}

// parseInterpAccess parses the simple-syntax continuations of an
// interpolated variable: ->prop and [index].
func (p *parser) parseInterpAccess(base phpast.Expr) phpast.Expr {
	for {
		t := p.cur()
		switch t.Kind {
		case phptoken.Arrow:
			if p.peek(1).Kind != phptoken.Ident {
				return base
			}
			p.next()
			name := p.next().Text
			base = counted(p, &phpast.PropertyFetch{
				Object: base, Name: name, Position: phpast.NewPosition(t.Line),
			})
		case phptoken.LBracket:
			p.next()
			var idx phpast.Expr
			switch p.cur().Kind {
			case phptoken.Ident:
				// Bare word index inside a string is a string key.
				it := p.next()
				idx = p.lit(it.Line, phpast.LitString, it.Text)
			case phptoken.IntLit:
				it := p.next()
				idx = p.lit(it.Line, phpast.LitInt, it.Text)
			case phptoken.Variable:
				it := p.next()
				idx = p.newVar(it.Line, strings.TrimPrefix(it.Text, "$"))
			}
			p.expect(phptoken.RBracket, "string array index")
			base = p.indexFetch(counted(p, &phpast.IndexFetch{
				Base: base, Index: idx, Position: phpast.NewPosition(t.Line),
			}))
		default:
			return base
		}
	}
}

// lit builds a literal node, carved from the parse's slab.
func (p *parser) lit(line int, kind phpast.LiteralKind, value string) *phpast.Literal {
	return p.lits.put(phpast.Literal{Kind: kind, Value: value, Position: phpast.NewPosition(line)})
}

// newVar builds a variable node, carved from the parse's slab.
func (p *parser) newVar(line int, name string) *phpast.Var {
	p.noteVar(name)
	return p.vars.put(phpast.Var{Name: name, Position: phpast.NewPosition(line)})
}

// funcCall parses the argument list of a call to the function name, or
// through nameExpr for a dynamic call, into a node carved from the
// parse's slab.
func (p *parser) funcCall(line int, name string, nameExpr phpast.Expr) *phpast.FuncCall {
	args := p.parseArgs()
	p.noteCall(name, args)
	return p.calls.put(phpast.FuncCall{Name: name, NameExpr: nameExpr, Args: args, Position: phpast.NewPosition(line)})
}

// sizeSlabs sizes the slabs from the token stream, so a parse
// allocates each in a few blocks and leaves little unused capacity
// behind for as long as its AST lives:
//
//   - literals: one per literal, text fragment and inline-HTML token;
//   - variables: one per Variable token (an upper bound: parameters,
//     globals and properties are Variable tokens but not Var nodes) and
//     one per "${" interpolation;
//   - direct calls: one per "name(" not preceded by "->", "::",
//     "function" or "new" (dynamic calls take the fallback);
//   - binary expressions: one per binary or word operator token (an
//     upper bound: "-", "+" and "&" may be unary or a by-reference mark);
//   - assignments: one per assignment operator token;
//   - echo statements: one per "echo", "<?=" and inline-HTML token;
//   - expression statements: the semicolons left after those of the
//     statements that end in one but are not expression statements;
//   - call arguments: one per non-empty argument list plus one per
//     comma directly inside it, where an argument list is a "(" after a
//     name, a variable, "]" or "}", other than a declaration's.
//
// A count that falls short only costs the nodes past it an allocation
// each.
func (p *parser) sizeSlabs() {
	var lits, vars, calls, binaries, assigns, stmts, echoes, args int
	// argLists has bit d set when the bracket open at depth d is an
	// argument list; brackets nested deeper than it tracks are counted
	// as not being one.
	var argLists uint64
	depth := 0
	prev, prev2 := phptoken.EOF, phptoken.EOF
	for i, t := range p.toks {
		switch t.Kind {
		case phptoken.InlineHTML:
			lits++
			echoes++
		case phptoken.IntLit, phptoken.FloatLit, phptoken.StringLit, phptoken.EncapsedText:
			lits++
		case phptoken.Variable:
			vars++
		case phptoken.LParen:
			decl := prev2 == phptoken.KwFunction
			if prev == phptoken.Ident && !decl && prev2 != phptoken.Arrow && prev2 != phptoken.DoubleColon && prev2 != phptoken.KwNew {
				calls++
			}
			list := !decl && (prev == phptoken.Ident || prev == phptoken.Variable ||
				prev == phptoken.RBracket || prev == phptoken.RBrace ||
				prev2 == phptoken.Arrow || prev2 == phptoken.DoubleColon)
			// A "(" is never last: the stream ends in EOF.
			if list && p.toks[i+1].Kind != phptoken.RParen {
				args++
			}
			if depth < 64 {
				argLists &^= 1 << depth
				if list {
					argLists |= 1 << depth
				}
			}
			depth++
		case phptoken.LBracket, phptoken.LBrace, phptoken.CurlyOpen, phptoken.DollarCurlyOpen:
			if t.Kind == phptoken.DollarCurlyOpen {
				vars++
			}
			if depth < 64 {
				argLists &^= 1 << depth
			}
			depth++
		case phptoken.RParen, phptoken.RBracket, phptoken.RBrace:
			depth = max(depth-1, 0)
		case phptoken.Comma:
			if depth > 0 && depth <= 64 && argLists&(1<<(depth-1)) != 0 {
				args++
			}
		case phptoken.Semicolon:
			stmts++
		case phptoken.KwEcho:
			echoes++
			stmts--
		case phptoken.OpenTagEcho:
			echoes++
		case phptoken.KwReturn, phptoken.KwBreak, phptoken.KwContinue,
			phptoken.KwGlobal, phptoken.KwUnset, phptoken.KwThrow, phptoken.KwDo,
			phptoken.KwConst, phptoken.KwVar, phptoken.KwNamespace, phptoken.KwDeclare:
			stmts--
		case phptoken.KwFor:
			stmts -= 2
		default:
			if op := kindOps[t.Kind]; op.level > 0 || op.word > 0 {
				binaries++
			} else if op.assign != "" {
				assigns++
			}
		}
		prev, prev2 = t.Kind, prev
	}
	p.lits.init(lits, &p.nodes)
	p.vars.init(vars, &p.nodes)
	p.calls.init(calls, &p.nodes)
	p.binaries.init(binaries, &p.nodes)
	p.assigns.init(assigns, &p.nodes)
	p.exprStmts.init(max(stmts, 0), &p.nodes)
	p.echoes.init(echoes, &p.nodes)
	p.argSlab.init(args, nil)
}

// Slab block sizes follow the Go allocator: every power of two up to
// maxSlabBlock bytes is a size class, and an object larger than
// headerFreeBlock bytes that holds pointers carries a mallocHeader-byte
// type header inside its size class.
const (
	maxSlabBlock    = 32 << 10
	headerFreeBlock = 512
	mallocHeader    = 8
)

// slab carves nodes of one type, and slices of them, from blocks sized
// from the count the token stream promises (see sizeSlabs). Each block
// is the largest power-of-two size class that holds no more nodes than
// are still promised, filled up to its allocation header, so a file's
// slab costs a few allocations and leaves little unused per block.
// Past the promised count each node or slice is allocated on its own.
type slab[T any] struct {
	free []T
	// want is the number of promised nodes not yet in a block.
	want int
	// count is the counter every node put adds one to.
	count *int
}

// init promises n nodes, counting those put into *count (nil for a
// slab that only carves slices).
func (s *slab[T]) init(n int, count *int) { s.want, s.count = n, count }

// put copies v into the slab and returns its address.
func (s *slab[T]) put(v T) *T {
	*s.count++
	x := &s.carve(1)[0]
	*x = v
	return x
}

// carve returns n zero nodes as a slice of capacity n, so appending to
// it never writes over its neighbours. A nil slab allocates every slice
// on its own.
func (s *slab[T]) carve(n int) []T {
	if s == nil {
		return make([]T, n)
	}
	if len(s.free) < n {
		// The rest of the block is too short: give it up and keep its
		// nodes promised.
		s.want += len(s.free)
		s.free = nil
		if s.want >= n {
			s.refill()
		}
		if len(s.free) < n {
			return make([]T, n)
		}
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// refill allocates the next block.
func (s *slab[T]) refill() {
	size := int(unsafe.Sizeof(*new(T)))
	block := min(1<<(bits.Len(uint(s.want*size))-1), maxSlabBlock)
	if block > headerFreeBlock {
		block -= mallocHeader
	}
	n := min(max(block/size, 1), s.want)
	s.want -= n
	s.free = make([]T, n)
}

// stack is a per-parse scratch stack: a list parser pushes its items,
// nested lists push theirs above, and popTo copies a finished list out
// at its exact length. A list then costs one allocation and keeps no
// spare capacity, where growing it by append cost one per doubling.
type stack[T any] struct{ items []T }

// mark returns the height a list starts at.
func (s *stack[T]) mark() int { return len(s.items) }

// push adds x to the list being collected.
func (s *stack[T]) push(x T) { s.items = append(s.items, x) }

// popTo removes the items pushed since mark and returns them in an
// exact-length slice carved from sl, or nil when there are none.
func (s *stack[T]) popTo(mark int, sl *slab[T]) []T {
	if len(s.items) == mark {
		return nil
	}
	out := sl.carve(len(s.items) - mark)
	copy(out, s.items[mark:])
	clear(s.items[mark:])
	s.items = s.items[:mark]
	return out
}
