// Package phplex tokenizes PHP 5 source code.
//
// It is the Go substitute for the PHP interpreter's token_get_all function,
// which phpSAFE (DSN 2015, §III.B) uses to build its abstract syntax tree:
// the lexer emits the same token taxonomy (see package phptoken), including
// inline HTML segments, line numbers, interpolated string parts and
// heredocs, so the downstream model-construction stage can be implemented
// exactly as the paper describes.
//
// The scanner returns only a token's kind and leaves its extent in the
// lexer (src[start:pos]); a Token value is built only for the tokens a
// caller keeps, and its line is counted only then, over the bytes since
// the last token that was kept.
package phplex

import (
	"strings"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/phptoken"
)

// mode is the lexer's top-level state.
type mode int

const (
	// modeHTML emits inline HTML until a PHP open tag.
	modeHTML mode = iota + 1
	// modePHP lexes ordinary PHP code.
	modePHP
	// modeDQString lexes the inside of an interpolated double-quoted string.
	modeDQString
	// modeBacktick lexes the inside of a backtick (shell) string.
	modeBacktick
	// modeHeredoc lexes the inside of a heredoc body.
	modeHeredoc
)

// Lexer converts PHP source text into a stream of tokens.
// The zero value is not usable; construct with New.
type Lexer struct {
	src string
	// pos is the cursor; start is where the token scan last lexed begins.
	pos, start int

	// line is the 1-based line of byte offset lineOff. lineAt moves both
	// forward when a token's line is asked for, so lines are counted only
	// for the tokens that are built, and each byte at most once.
	line, lineOff int

	mode mode
	// curlyDepth tracks brace nesting while lexing a {$...} interpolation
	// so the lexer knows when to resume string mode. The stack handles
	// strings nested inside interpolations.
	returnModes []mode
	curlyDepths []int
	// heredocLabel is the terminator label of the heredoc being lexed.
	heredocLabel string
}

// New returns a Lexer over src. Lexing starts in HTML mode, as PHP does.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, mode: modeHTML}
}

// Tokenize lexes src completely and returns all tokens, including trivia
// (whitespace and comments), terminated by an EOF token. It never fails:
// unrecognized bytes are emitted as Invalid tokens, mirroring
// token_get_all's tolerance of malformed input.
func Tokenize(src string) []phptoken.Token {
	l := New(src)
	// A rough pre-size: PHP averages about one token per 4 bytes.
	toks := make([]phptoken.Token, 0, len(src)/4+8)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == phptoken.EOF {
			return toks
		}
	}
}

// TokenizeCode lexes src and returns only syntactically meaningful tokens
// (trivia removed), matching phpSAFE's cleaned AST input (paper §III.B).
// Trivia is scanned but never built into tokens, and the stream goes
// straight into a pooled buffer; callers that are done with the stream
// may return it with PutTokens.
//
// A non-nil recorder records lexing cost: tokens lexed (trivia
// included) into lex_tokens_total, source lines into lex_lines_total,
// and lex time under parent as a "lex" span observed into the
// stage_lex_seconds histogram. A non-nil governor adds a checkpoint per
// token, trivia included: when it halts (cancellation, scan deadline,
// step budget, file slice) lexing stops and the stream is terminated
// with an early EOF, so the parser sees a truncated but well-formed
// input. Nil means unobserved or ungoverned.
func TokenizeCode(src string, rec *obs.Recorder, parent *obs.Span, gov *govern.Governor) []phptoken.Token {
	sp := rec.StartSpan("lex", parent)
	l := New(src)
	// A rough pre-size: PHP averages about one code token per 6 bytes
	// once whitespace and comments are dropped.
	code := getTokenBuf(len(src)/6 + 8)
	total := 0
	for {
		gov.Step()
		if gov.Halted() {
			code = append(code, phptoken.Token{Kind: phptoken.EOF, Line: l.lineAt(l.pos), Offset: l.pos})
			total++
			break
		}
		k := l.scan()
		total++
		if !k.IsTrivia() {
			code = append(code, l.token(k))
		}
		if k == phptoken.EOF {
			break
		}
	}
	sp.EndAndObserve("stage_lex_seconds")
	if rec != nil {
		rec.Counter("lex_tokens_total").Add(int64(total))
		rec.Counter("lex_lines_total").Add(int64(l.lineAt(len(src))))
	}
	return code
}

// Next returns the next token. After the end of input it returns EOF
// forever.
func (l *Lexer) Next() phptoken.Token {
	return l.token(l.scan())
}

// scan lexes one token and returns its kind; the token's text is
// src[l.start:l.pos]. After the end of input it returns EOF forever.
func (l *Lexer) scan() phptoken.Kind {
	l.start = l.pos
	if l.pos >= len(l.src) {
		return phptoken.EOF
	}
	switch l.mode {
	case modeHTML:
		return l.lexHTML()
	case modeDQString:
		return l.lexInterpolated('"', phptoken.Quote)
	case modeBacktick:
		return l.lexInterpolated('`', phptoken.Backtick)
	case modeHeredoc:
		return l.lexHeredocBody()
	default:
		return l.lexPHP()
	}
}

// token builds the token of kind k that scan just lexed.
func (l *Lexer) token(k phptoken.Kind) phptoken.Token {
	return phptoken.Token{
		Kind:   k,
		Text:   l.src[l.start:l.pos],
		Line:   l.lineAt(l.start),
		Offset: l.start,
	}
}

// lineAt returns the 1-based line of byte offset off by counting the
// newlines since the offset asked for last. Offsets must be asked for
// in nondecreasing order, which token order gives. Most gaps between
// kept tokens are a few bytes, which a plain loop counts faster than
// strings.Count's vectorised scan; long gaps (comments, inline HTML,
// heredocs) take the vectorised scan.
func (l *Lexer) lineAt(off int) int {
	if gap := l.src[l.lineOff:off]; len(gap) < 32 {
		for i := 0; i < len(gap); i++ {
			if gap[i] == '\n' {
				l.line++
			}
		}
	} else {
		l.line += strings.Count(gap, "\n")
	}
	l.lineOff = off
	return l.line
}

// advance moves the cursor n bytes forward, stopping at the end of input.
func (l *Lexer) advance(n int) {
	l.pos = min(l.pos+n, len(l.src))
}

// peek returns the byte at offset n from the cursor, or 0 past the end.
func (l *Lexer) peek(n int) byte {
	if l.pos+n >= len(l.src) {
		return 0
	}
	return l.src[l.pos+n]
}

// skipIdent moves the cursor past the identifier bytes at it.
func (l *Lexer) skipIdent() {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
}

// hasPrefix reports whether the remaining input starts with s,
// case-sensitively.
func (l *Lexer) hasPrefix(s string) bool {
	return strings.HasPrefix(l.src[l.pos:], s)
}

// hasPrefixFold reports whether the remaining input starts with s ignoring
// ASCII case.
func (l *Lexer) hasPrefixFold(s string) bool {
	if l.pos+len(s) > len(l.src) {
		return false
	}
	return strings.EqualFold(l.src[l.pos:l.pos+len(s)], s)
}

// lexHTML scans inline HTML until an open tag or end of input.
func (l *Lexer) lexHTML() phptoken.Kind {
	if l.hasPrefixFold("<?php") {
		l.advance(5)
		// token_get_all includes one following whitespace char in the tag.
		l.mode = modePHP
		return phptoken.OpenTag
	}
	if l.hasPrefix("<?=") {
		l.advance(3)
		l.mode = modePHP
		return phptoken.OpenTagEcho
	}
	if l.hasPrefix("<?") {
		l.advance(2)
		l.mode = modePHP
		return phptoken.OpenTag
	}
	if i := strings.Index(l.src[l.pos:], "<?"); i >= 0 {
		l.pos += i
	} else {
		l.pos = len(l.src)
	}
	return phptoken.InlineHTML
}

// lexPHP scans one token of ordinary PHP code.
func (l *Lexer) lexPHP() phptoken.Kind {
	c := l.src[l.pos]

	switch {
	case isSpace(c):
		l.pos++
		for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
			l.pos++
		}
		return phptoken.Whitespace

	case c == '?' && l.peek(1) == '>':
		l.advance(2)
		l.mode = modeHTML
		return phptoken.CloseTag

	case c == '/' && l.peek(1) == '/', c == '#':
		return l.lexLineComment()

	case c == '/' && l.peek(1) == '*':
		return l.lexBlockComment()

	case c == '$':
		return l.lexVariable()

	case isIdentStart(c):
		return l.lexIdent()

	case c >= '0' && c <= '9', c == '.' && isDigit(l.peek(1)):
		return l.lexNumber()

	case c == '\'':
		return l.lexSingleQuoted()

	case c == '"':
		return l.lexDoubleQuoted()

	case c == '`':
		l.advance(1)
		l.pushMode(modeBacktick)
		return phptoken.Backtick

	case c == '<' && l.hasPrefix("<<<"):
		return l.lexHeredocStart()

	case c == '(':
		if k, n, ok := l.castAhead(); ok {
			l.advance(n)
			return k
		}
		l.advance(1)
		return phptoken.LParen

	case c == '}':
		l.advance(1)
		// A closing brace may terminate a {$...} interpolation.
		if n := len(l.curlyDepths); n > 0 {
			l.curlyDepths[n-1]--
			if l.curlyDepths[n-1] == 0 {
				l.popMode()
			}
		}
		return phptoken.RBrace

	case c == '{':
		l.advance(1)
		if n := len(l.curlyDepths); n > 0 {
			l.curlyDepths[n-1]++
		}
		return phptoken.LBrace

	default:
		return l.lexOperator()
	}
}

// lexLineComment scans a // or # comment. The comment ends at the newline
// or, as in PHP, immediately before a close tag.
func (l *Lexer) lexLineComment() phptoken.Kind {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\n' || c == '?' && l.peek(1) == '>' {
			break
		}
		l.pos++
	}
	return phptoken.Comment
}

// lexBlockComment scans a /* */ or /** */ comment.
func (l *Lexer) lexBlockComment() phptoken.Kind {
	kind := phptoken.Comment
	if l.peek(2) == '*' && l.peek(3) != '/' {
		kind = phptoken.DocComment
	}
	l.advance(2)
	if i := strings.Index(l.src[l.pos:], "*/"); i >= 0 {
		l.pos += i + 2
	} else {
		l.pos = len(l.src) // unterminated comment runs to EOF
	}
	return kind
}

// lexVariable scans $name, or a bare $ for variable-variables ($$x).
func (l *Lexer) lexVariable() phptoken.Kind {
	l.advance(1)
	if !isIdentStart(l.peek(0)) {
		return phptoken.Dollar
	}
	l.skipIdent()
	return phptoken.Variable
}

// lexIdent scans an identifier and classifies keywords.
func (l *Lexer) lexIdent() phptoken.Kind {
	l.skipIdent()
	if k, ok := phptoken.LookupKeyword(l.src[l.start:l.pos]); ok {
		return k
	}
	return phptoken.Ident
}

// lexNumber scans integer and floating point literals, including hex and
// octal integers and exponent notation.
func (l *Lexer) lexNumber() phptoken.Kind {
	if l.peek(0) == '0' && (l.peek(1) == 'x' || l.peek(1) == 'X') {
		l.advance(2)
		for isHexDigit(l.peek(0)) {
			l.pos++
		}
		return phptoken.IntLit
	}
	float := false
	for isDigit(l.peek(0)) {
		l.pos++
	}
	if l.peek(0) == '.' && isDigit(l.peek(1)) {
		float = true
		l.pos++
		for isDigit(l.peek(0)) {
			l.pos++
		}
	}
	if c := l.peek(0); c == 'e' || c == 'E' {
		next := l.peek(1)
		if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peek(2))) {
			float = true
			l.advance(2)
			for isDigit(l.peek(0)) {
				l.pos++
			}
		}
	}
	if float {
		return phptoken.FloatLit
	}
	return phptoken.IntLit
}

// lexSingleQuoted scans a complete single-quoted string literal.
func (l *Lexer) lexSingleQuoted() phptoken.Kind {
	l.advance(1)
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '\\':
			l.advance(2)
		case '\'':
			l.pos++
			return phptoken.StringLit
		default:
			l.pos++
		}
	}
	return phptoken.StringLit // unterminated
}

// lexDoubleQuoted scans a double-quoted string. Non-interpolated strings
// are emitted as one StringLit; interpolated ones emit the opening Quote
// and switch to string mode, as token_get_all does.
func (l *Lexer) lexDoubleQuoted() phptoken.Kind {
	if end, plain := l.scanPlainDQ(); plain {
		l.advance(end - l.pos)
		return phptoken.StringLit
	}
	l.advance(1)
	l.pushMode(modeDQString)
	return phptoken.Quote
}

// scanPlainDQ looks ahead over a double-quoted string. If the string
// contains no interpolation it returns the position just past the closing
// quote and true.
func (l *Lexer) scanPlainDQ() (end int, plain bool) {
	i := l.pos + 1
	for i < len(l.src) {
		switch l.src[i] {
		case '\\':
			i += 2
		case '"':
			return i + 1, true
		case '$':
			if i+1 < len(l.src) && (isIdentStart(l.src[i+1]) || l.src[i+1] == '{') {
				return 0, false
			}
			i++
		case '{':
			if i+1 < len(l.src) && l.src[i+1] == '$' {
				return 0, false
			}
			i++
		default:
			i++
		}
	}
	return i, true // unterminated: treat as plain
}

// lexInterpolated scans the next token inside a double-quoted or backtick
// string: a text fragment, an interpolated variable, or the delimiter.
func (l *Lexer) lexInterpolated(delim byte, delimKind phptoken.Kind) phptoken.Kind {
	if l.src[l.pos] == delim {
		l.advance(1)
		l.popMode()
		return delimKind
	}
	if k, ok := l.lexInterpolationStart(); ok {
		return k
	}
	// Text fragment until the next interpolation point or delimiter.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == delim {
			break
		}
		if c == '\\' {
			l.advance(2)
			continue
		}
		if c == '$' && (isIdentStart(l.peek(1)) || l.peek(1) == '{') {
			break
		}
		if c == '{' && l.peek(1) == '$' {
			break
		}
		l.pos++
	}
	return phptoken.EncapsedText
}

// lexInterpolationStart handles the three interpolation forms at the
// cursor: $name (with optional ->prop or [idx]), {$expr}, and ${name}.
// It reports false when the cursor is not at an interpolation point.
func (l *Lexer) lexInterpolationStart() (phptoken.Kind, bool) {
	c := l.peek(0)
	if c == '{' && l.peek(1) == '$' {
		l.advance(1)
		l.pushCurly()
		return phptoken.CurlyOpen, true
	}
	if c == '$' && l.peek(1) == '{' {
		l.advance(2)
		l.pushCurly()
		return phptoken.DollarCurlyOpen, true
	}
	if c == '$' && isIdentStart(l.peek(1)) {
		// Simple interpolation: lex the variable now; -> and [ ] accesses
		// are picked up by subsequent calls in simple-syntax mode. PHP's
		// simple syntax only allows one level, which the fragment scanner
		// naturally produces because "->" and "[" are consumed here.
		l.advance(1)
		l.skipIdent()
		return phptoken.Variable, true
	}
	// ->prop directly after an interpolated variable.
	if c == '-' && l.peek(1) == '>' && isIdentStart(l.peek(2)) && l.prevWasInterpVar() {
		l.advance(2)
		return phptoken.Arrow, true
	}
	// The property name directly after an interpolated "->".
	if isIdentStart(c) && l.pos >= 2 && l.src[l.pos-1] == '>' && l.src[l.pos-2] == '-' {
		l.skipIdent()
		return phptoken.Ident, true
	}
	if c == '[' && l.prevWasInterpVar() {
		l.advance(1)
		return phptoken.LBracket, true
	}
	if c == ']' && l.prevWasInterpBracket() {
		l.advance(1)
		return phptoken.RBracket, true
	}
	if l.prevWasInterpBracket() {
		// Index token inside simple-syntax brackets: int, ident or $var.
		if c == '$' {
			return l.lexVariable(), true
		}
		if isDigit(c) {
			for isDigit(l.peek(0)) {
				l.pos++
			}
			return phptoken.IntLit, true
		}
		if isIdentStart(c) {
			l.skipIdent()
			return phptoken.Ident, true
		}
	}
	return phptoken.Invalid, false
}

// prevWasInterpVar reports whether the bytes immediately before the cursor
// end a simple-syntax interpolated variable or property access, enabling
// the ->prop and [idx] continuations.
func (l *Lexer) prevWasInterpVar() bool {
	i := l.pos - 1
	for i >= 0 && isIdentPart(l.src[i]) {
		i--
	}
	if i < 0 || i == l.pos-1 {
		return false
	}
	if l.src[i] == '$' {
		return true
	}
	// ...->prop
	return i >= 1 && l.src[i] == '>' && l.src[i-1] == '-'
}

// prevWasInterpBracket reports whether the cursor is inside a simple-syntax
// [idx] access: scanning back over the index token must reach "[" preceded
// by a variable.
func (l *Lexer) prevWasInterpBracket() bool {
	i := l.pos - 1
	for i >= 0 && (isIdentPart(l.src[i]) || l.src[i] == '$') {
		i--
	}
	if i < 0 || l.src[i] != '[' {
		return false
	}
	j := i - 1
	for j >= 0 && isIdentPart(l.src[j]) {
		j--
	}
	return j >= 0 && j < i-1 && l.src[j] == '$'
}

// lexHeredocStart scans <<<LABEL, <<<"LABEL" or <<<'LABEL' (nowdoc).
func (l *Lexer) lexHeredocStart() phptoken.Kind {
	l.advance(3)
	for l.peek(0) == ' ' || l.peek(0) == '\t' {
		l.pos++
	}
	quote := byte(0)
	if c := l.peek(0); c == '"' || c == '\'' {
		quote = c
		l.pos++
	}
	labelStart := l.pos
	l.skipIdent()
	l.heredocLabel = l.src[labelStart:l.pos]
	if quote != 0 && l.peek(0) == quote {
		l.pos++
	}
	if l.peek(0) == '\r' {
		l.pos++
	}
	if l.peek(0) == '\n' {
		l.pos++
	}
	if quote == '\'' {
		// Nowdoc: no interpolation; consume the whole body here by
		// switching to heredoc mode with interpolation disabled. For
		// simplicity nowdoc bodies are emitted as one EncapsedText by
		// lexHeredocBody because '$' never starts interpolation there.
		l.heredocLabel = "'" + l.heredocLabel
	}
	l.pushMode(modeHeredoc)
	return phptoken.StartHeredoc
}

// lexHeredocBody scans heredoc content, emitting text fragments and
// interpolations until the terminator label.
func (l *Lexer) lexHeredocBody() phptoken.Kind {
	label := l.heredocLabel
	nowdoc := strings.HasPrefix(label, "'")
	if nowdoc {
		label = label[1:]
	}

	if l.atHeredocEnd(label) {
		l.advance(len(label))
		l.popMode()
		l.heredocLabel = ""
		return phptoken.EndHeredoc
	}
	if !nowdoc {
		if k, ok := l.lexInterpolationStart(); ok {
			return k
		}
	}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && !nowdoc {
			l.advance(2)
			continue
		}
		if !nowdoc {
			if c == '$' && (isIdentStart(l.peek(1)) || l.peek(1) == '{') {
				break
			}
			if c == '{' && l.peek(1) == '$' {
				break
			}
		}
		l.pos++
		if c == '\n' && l.atHeredocEnd(label) {
			break
		}
	}
	return phptoken.EncapsedText
}

// atHeredocEnd reports whether the cursor sits at the start of a line whose
// content is the heredoc terminator label. An empty label (a "<<<" with
// no name) never ends the heredoc, so its body runs to the end of input
// instead of ending in an empty EndHeredoc token.
func (l *Lexer) atHeredocEnd(label string) bool {
	if label == "" || l.pos != 0 && l.src[l.pos-1] != '\n' {
		return false
	}
	if !strings.HasPrefix(l.src[l.pos:], label) {
		return false
	}
	after := l.pos + len(label)
	if after >= len(l.src) {
		return true
	}
	c := l.src[after]
	return c == ';' || c == '\n' || c == '\r'
}

// maxCastLen is the length of the longest cast type name.
const maxCastLen = len("boolean")

// casts maps the type names a cast operator accepts to its kind.
var casts = []struct {
	name string
	kind phptoken.Kind
}{
	{"int", phptoken.IntCast}, {"integer", phptoken.IntCast},
	{"float", phptoken.FloatCast}, {"double", phptoken.FloatCast}, {"real", phptoken.FloatCast},
	{"string", phptoken.StringCast}, {"binary", phptoken.StringCast},
	{"array", phptoken.ArrayCast},
	{"object", phptoken.ObjectCast},
	{"bool", phptoken.BoolCast}, {"boolean", phptoken.BoolCast},
	{"unset", phptoken.UnsetCast},
}

// castAhead looks for a cast operator "(type)" at the cursor and returns
// its kind and byte length. It folds case without allocating and gives
// up as soon as the word is longer than any cast type name.
func (l *Lexer) castAhead() (phptoken.Kind, int, bool) {
	i := l.pos + 1
	for i < len(l.src) && (l.src[i] == ' ' || l.src[i] == '\t') {
		i++
	}
	wordStart := i
	for i < len(l.src) && isIdentPart(l.src[i]) {
		if i-wordStart == maxCastLen {
			return 0, 0, false
		}
		i++
	}
	word := l.src[wordStart:i]
	for i < len(l.src) && (l.src[i] == ' ' || l.src[i] == '\t') {
		i++
	}
	if i >= len(l.src) || l.src[i] != ')' {
		return 0, 0, false
	}
	for _, c := range casts {
		if equalFoldASCII(word, c.name) {
			return c.kind, i + 1 - l.pos, true
		}
	}
	return 0, 0, false
}

// equalFoldASCII reports whether s equals the lower-case ASCII word
// lower when ASCII letters are folded. Unlike strings.EqualFold it folds
// no other characters, so "(ſtring)" is not a cast, as in PHP.
func equalFoldASCII(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i]|0x20 != lower[i] {
			return false
		}
	}
	return true
}

// operator is one entry of the operator table.
type operator struct {
	text string
	kind phptoken.Kind
}

// operators lists multi-character operators longest-first so the scanner
// can use simple prefix matching.
var operators = []operator{
	{"===", phptoken.IsIdentical},
	{"!==", phptoken.IsNotIdentical},
	{"<<=", phptoken.ShlAssign},
	{">>=", phptoken.ShrAssign},
	{"...", phptoken.Ellipsis},
	{"==", phptoken.IsEqual},
	{"!=", phptoken.IsNotEqual},
	{"<>", phptoken.IsNotEqual},
	{"<=", phptoken.Le},
	{">=", phptoken.Ge},
	{"&&", phptoken.BoolAnd},
	{"||", phptoken.BoolOr},
	{"++", phptoken.Inc},
	{"--", phptoken.Dec},
	{"+=", phptoken.PlusAssign},
	{"-=", phptoken.MinusAssign},
	{"*=", phptoken.StarAssign},
	{"/=", phptoken.SlashAssign},
	{".=", phptoken.DotAssign},
	{"%=", phptoken.PercentAssign},
	{"&=", phptoken.AmpAssign},
	{"|=", phptoken.PipeAssign},
	{"^=", phptoken.CaretAssign},
	{"<<", phptoken.Shl},
	{">>", phptoken.Shr},
	{"->", phptoken.Arrow},
	{"::", phptoken.DoubleColon},
	{"=>", phptoken.DoubleArrow},
	{"=", phptoken.Assign},
	{"+", phptoken.Plus},
	{"-", phptoken.Minus},
	{"*", phptoken.Star},
	{"/", phptoken.Slash},
	{"%", phptoken.Percent},
	{".", phptoken.Dot},
	{"!", phptoken.Bang},
	{"?", phptoken.Question},
	{":", phptoken.Colon},
	{";", phptoken.Semicolon},
	{",", phptoken.Comma},
	{")", phptoken.RParen},
	{"[", phptoken.LBracket},
	{"]", phptoken.RBracket},
	{"<", phptoken.Lt},
	{">", phptoken.Gt},
	{"&", phptoken.Amp},
	{"|", phptoken.Pipe},
	{"^", phptoken.Caret},
	{"~", phptoken.Tilde},
	{"@", phptoken.At},
	{"\\", phptoken.Backslash},
}

// operatorsByByte indexes operators by their first byte, keeping the
// table's longest-first order within each byte.
var operatorsByByte = func() (idx [256][]operator) {
	for _, op := range operators {
		idx[op.text[0]] = append(idx[op.text[0]], op)
	}
	return idx
}()

// lexOperator scans punctuation and operators with longest-match-first.
func (l *Lexer) lexOperator() phptoken.Kind {
	for _, op := range operatorsByByte[l.src[l.pos]] {
		if l.hasPrefix(op.text) {
			l.advance(len(op.text))
			return op.kind
		}
	}
	l.advance(1)
	return phptoken.Invalid
}

// pushMode enters a string-like mode, remembering where to return.
func (l *Lexer) pushMode(m mode) {
	l.returnModes = append(l.returnModes, l.mode)
	l.mode = m
}

// popMode returns to the mode active before the last pushMode/pushCurly.
func (l *Lexer) popMode() {
	if n := len(l.returnModes); n > 0 {
		l.mode = l.returnModes[n-1]
		l.returnModes = l.returnModes[:n-1]
	} else {
		l.mode = modePHP
	}
	if n := len(l.curlyDepths); n > 0 && l.curlyDepths[n-1] == 0 {
		l.curlyDepths = l.curlyDepths[:n-1]
	}
}

// pushCurly enters PHP mode for a {$...} or ${...} interpolation; the
// matching } returns to the surrounding string mode.
func (l *Lexer) pushCurly() {
	l.returnModes = append(l.returnModes, l.mode)
	l.curlyDepths = append(l.curlyDepths, 1)
	l.mode = modePHP
}

// identParts marks the bytes an identifier may continue with: ASCII
// letters, digits, '_' and every byte of a multi-byte UTF-8 sequence.
var identParts = func() (t [256]bool) {
	for c := range t {
		t[c] = c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c >= 0x80
	}
	return t
}()

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool   { return isDigit(c) || (c|0x20 >= 'a' && c|0x20 <= 'f') }
func isSpace(c byte) bool      { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isIdentStart(c byte) bool { return identParts[c] && !isDigit(c) }
func isIdentPart(c byte) bool  { return identParts[c] }
