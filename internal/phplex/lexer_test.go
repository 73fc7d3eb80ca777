package phplex

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/phptoken"
)

// kinds extracts the kind sequence of non-trivia tokens, dropping EOF.
func kinds(src string) []phptoken.Kind {
	toks := TokenizeCode(src, nil, nil, nil)
	out := make([]phptoken.Kind, 0, len(toks))
	for _, t := range toks {
		if t.Kind == phptoken.EOF {
			break
		}
		out = append(out, t.Kind)
	}
	return out
}

// texts extracts the text sequence of non-trivia tokens, dropping EOF.
func texts(src string) []string {
	toks := TokenizeCode(src, nil, nil, nil)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if t.Kind == phptoken.EOF {
			break
		}
		out = append(out, t.Text)
	}
	return out
}

func eqKinds(a, b []phptoken.Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTokenizeBasicStatement(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php $x = $_GET['id']; echo $x;`)
	want := []phptoken.Kind{
		phptoken.OpenTag,
		phptoken.Variable, phptoken.Assign,
		phptoken.Variable, phptoken.LBracket, phptoken.StringLit, phptoken.RBracket,
		phptoken.Semicolon,
		phptoken.KwEcho, phptoken.Variable, phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeInlineHTML(t *testing.T) {
	t.Parallel()
	src := "<html><?php echo 1; ?></html>"
	got := kinds(src)
	want := []phptoken.Kind{
		phptoken.InlineHTML, phptoken.OpenTag, phptoken.KwEcho,
		phptoken.IntLit, phptoken.Semicolon, phptoken.CloseTag,
		phptoken.InlineHTML,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeShortEchoTag(t *testing.T) {
	t.Parallel()
	got := kinds(`<?= $x ?>`)
	want := []phptoken.Kind{
		phptoken.OpenTagEcho, phptoken.Variable, phptoken.CloseTag,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeObjectOperator(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php $wpdb->get_results($q);`)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.Variable, phptoken.Arrow, phptoken.Ident,
		phptoken.LParen, phptoken.Variable, phptoken.RParen, phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeDoubleColon(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php Foo::bar(); Foo::$baz; Foo::CONST_A;`)
	want := []phptoken.Kind{
		phptoken.OpenTag,
		phptoken.Ident, phptoken.DoubleColon, phptoken.Ident, phptoken.LParen, phptoken.RParen, phptoken.Semicolon,
		phptoken.Ident, phptoken.DoubleColon, phptoken.Variable, phptoken.Semicolon,
		phptoken.Ident, phptoken.DoubleColon, phptoken.Ident, phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeKeywordsCaseInsensitive(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php IF (TRUE) { ECHO 1; } ELSE { Echo 2; }`)
	// TRUE is an identifier (constant), not a keyword.
	want := []phptoken.Kind{
		phptoken.OpenTag,
		phptoken.KwIf, phptoken.LParen, phptoken.Ident, phptoken.RParen,
		phptoken.LBrace, phptoken.KwEcho, phptoken.IntLit, phptoken.Semicolon, phptoken.RBrace,
		phptoken.KwElse,
		phptoken.LBrace, phptoken.KwEcho, phptoken.IntLit, phptoken.Semicolon, phptoken.RBrace,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeNumbers(t *testing.T) {
	t.Parallel()
	tests := []struct {
		src  string
		kind phptoken.Kind
		text string
	}{
		{`<?php 42;`, phptoken.IntLit, "42"},
		{`<?php 0x1F;`, phptoken.IntLit, "0x1F"},
		{`<?php 3.14;`, phptoken.FloatLit, "3.14"},
		{`<?php .5;`, phptoken.FloatLit, ".5"},
		{`<?php 1e10;`, phptoken.FloatLit, "1e10"},
		{`<?php 2E-3;`, phptoken.FloatLit, "2E-3"},
	}
	for _, tt := range tests {
		toks := TokenizeCode(tt.src, nil, nil, nil)
		if len(toks) < 2 {
			t.Fatalf("%q: too few tokens", tt.src)
		}
		if toks[1].Kind != tt.kind || toks[1].Text != tt.text {
			t.Errorf("%q: got %v(%q), want %v(%q)",
				tt.src, toks[1].Kind, toks[1].Text, tt.kind, tt.text)
		}
	}
}

func TestTokenizeSingleQuotedString(t *testing.T) {
	t.Parallel()
	got := texts(`<?php $a = 'it\'s $not interpolated';`)
	want := []string{"<?php", "$a", "=", `'it\'s $not interpolated'`, ";"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("texts = %v, want %v", got, want)
	}
}

func TestTokenizePlainDoubleQuotedString(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php $a = "no vars here";`)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.Variable, phptoken.Assign,
		phptoken.StringLit, phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeInterpolatedString(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php $q = "SELECT * FROM t WHERE id=$id";`)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.Variable, phptoken.Assign,
		phptoken.Quote, phptoken.EncapsedText, phptoken.Variable, phptoken.Quote,
		phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeInterpolatedPropertyAccess(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php echo "name: $row->name!";`)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.KwEcho,
		phptoken.Quote, phptoken.EncapsedText,
		phptoken.Variable, phptoken.Arrow, phptoken.Ident,
		phptoken.EncapsedText, phptoken.Quote,
		phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeInterpolatedArrayAccess(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php echo "v=$_GET[id]";`)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.KwEcho,
		phptoken.Quote, phptoken.EncapsedText,
		phptoken.Variable, phptoken.LBracket, phptoken.Ident, phptoken.RBracket,
		phptoken.Quote, phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeCurlyInterpolation(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php echo "x={$row['name']}!";`)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.KwEcho,
		phptoken.Quote, phptoken.EncapsedText,
		phptoken.CurlyOpen, phptoken.Variable, phptoken.LBracket,
		phptoken.StringLit, phptoken.RBracket, phptoken.RBrace,
		phptoken.EncapsedText, phptoken.Quote, phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeCurlyInterpolationMethodCall(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php $s = "pre {$wpdb->prefix}post";`)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.Variable, phptoken.Assign,
		phptoken.Quote, phptoken.EncapsedText,
		phptoken.CurlyOpen, phptoken.Variable, phptoken.Arrow, phptoken.Ident, phptoken.RBrace,
		phptoken.EncapsedText, phptoken.Quote, phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeHeredoc(t *testing.T) {
	t.Parallel()
	src := "<?php $s = <<<EOT\nHello $name\nmore text\nEOT;\n"
	got := kinds(src)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.Variable, phptoken.Assign,
		phptoken.StartHeredoc, phptoken.EncapsedText, phptoken.Variable,
		phptoken.EncapsedText, phptoken.EndHeredoc, phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeNowdoc(t *testing.T) {
	t.Parallel()
	src := "<?php $s = <<<'EOT'\nliteral $name\nEOT;\n"
	got := kinds(src)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.Variable, phptoken.Assign,
		phptoken.StartHeredoc, phptoken.EncapsedText, phptoken.EndHeredoc,
		phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeCasts(t *testing.T) {
	t.Parallel()
	tests := []struct {
		src  string
		kind phptoken.Kind
	}{
		{`<?php (int)$x;`, phptoken.IntCast},
		{`<?php (integer) $x;`, phptoken.IntCast},
		{`<?php (string)$x;`, phptoken.StringCast},
		{`<?php (bool)$x;`, phptoken.BoolCast},
		{`<?php (float)$x;`, phptoken.FloatCast},
		{`<?php (array)$x;`, phptoken.ArrayCast},
		{`<?php (INT)$x;`, phptoken.IntCast},
		{`<?php ( Integer )$x;`, phptoken.IntCast},
		{`<?php (BOOLEAN)$x;`, phptoken.BoolCast},
		{"<?php (\tunset\t)$x;", phptoken.UnsetCast},
		{`<?php (ABSPATH)$x;`, phptoken.LParen},
		{`<?php (integers)$x;`, phptoken.LParen},
		{`<?php (WP_Query)$x;`, phptoken.LParen},
		{`<?php (ſtring)$x;`, phptoken.LParen},
		{`<?php (int$x);`, phptoken.LParen},
	}
	for _, tt := range tests {
		got := kinds(tt.src)
		if len(got) < 2 || got[1] != tt.kind {
			t.Errorf("%q: kinds = %v, want %v at index 1", tt.src, got, tt.kind)
		}
	}
}

// TestCastAheadDoesNotAllocate checks that looking for a cast after "("
// folds the word's case without allocating, whether or not it is a cast.
func TestCastAheadDoesNotAllocate(t *testing.T) {
	for _, src := range []string{"(ABSPATH)", "(WP_Query)", "( Integer )", "(STRING)"} {
		l := New(src)
		if n := testing.AllocsPerRun(10, func() { l.castAhead() }); n != 0 {
			t.Errorf("castAhead on %q: %v allocations, want 0", src, n)
		}
	}
}

func TestTokenizeParenNotCast(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php ($x);`)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.LParen, phptoken.Variable,
		phptoken.RParen, phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeComments(t *testing.T) {
	t.Parallel()
	src := "<?php // line\n# hash\n/* block */ /** doc */ $x;"
	all := Tokenize(src)
	var comments, docs int
	for _, tok := range all {
		switch tok.Kind {
		case phptoken.Comment:
			comments++
		case phptoken.DocComment:
			docs++
		}
	}
	if comments != 3 || docs != 1 {
		t.Fatalf("comments = %d, docs = %d; want 3, 1", comments, docs)
	}
	got := kinds(src)
	want := []phptoken.Kind{phptoken.OpenTag, phptoken.Variable, phptoken.Semicolon}
	if !eqKinds(got, want) {
		t.Fatalf("code kinds = %v, want %v", got, want)
	}
}

func TestTokenizeLineCommentEndsAtCloseTag(t *testing.T) {
	t.Parallel()
	got := kinds("<?php // comment ?>html")
	want := []phptoken.Kind{phptoken.OpenTag, phptoken.CloseTag, phptoken.InlineHTML}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeOperators(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php $a .= $b === $c ? $d : $e;`)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.Variable, phptoken.DotAssign,
		phptoken.Variable, phptoken.IsIdentical, phptoken.Variable,
		phptoken.Question, phptoken.Variable, phptoken.Colon, phptoken.Variable,
		phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	// Every entry of the operator table lexes alone to its own kind, and
	// between two identifiers to exactly three tokens.
	for _, op := range operators {
		toks := TokenizeCode("<?php "+op.text, nil, nil, nil)
		if len(toks) != 3 || toks[1].Kind != op.kind || toks[1].Text != op.text {
			t.Errorf("%q alone: tokens %v, want open tag, %v, EOF", op.text, toks, op.kind)
		}
		PutTokens(toks)
		got := kinds("<?php a" + op.text + "b")
		want := []phptoken.Kind{phptoken.OpenTag, phptoken.Ident, op.kind, phptoken.Ident}
		if !eqKinds(got, want) {
			t.Errorf("a%sb: kinds = %v, want %v", op.text, got, want)
		}
	}
}

func TestTokenizeLineNumbers(t *testing.T) {
	t.Parallel()
	src := "<?php\n$a = 1;\n\necho $a;\n"
	var echoLine, aLine int
	for _, tok := range Tokenize(src) {
		if tok.Kind == phptoken.KwEcho {
			echoLine = tok.Line
		}
		if tok.Kind == phptoken.Variable && tok.Text == "$a" && aLine == 0 {
			aLine = tok.Line
		}
	}
	if aLine != 2 {
		t.Errorf("first $a on line %d, want 2", aLine)
	}
	if echoLine != 4 {
		t.Errorf("echo on line %d, want 4", echoLine)
	}
}

func TestTokenizeLineNumberInsideInterpolation(t *testing.T) {
	t.Parallel()
	src := "<?php\n$s = \"a\nb $x c\";\n"
	for _, tok := range Tokenize(src) {
		if tok.Kind == phptoken.Variable && tok.Text == "$x" {
			if tok.Line != 3 {
				t.Fatalf("$x on line %d, want 3", tok.Line)
			}
			return
		}
	}
	t.Fatal("$x token not found")
}

func TestTokenizeVariableVariable(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php $$name = 1;`)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.Dollar, phptoken.Variable,
		phptoken.Assign, phptoken.IntLit, phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeEscapedDollarNotInterpolated(t *testing.T) {
	t.Parallel()
	got := kinds(`<?php $a = "price: \$100";`)
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.Variable, phptoken.Assign,
		phptoken.StringLit, phptoken.Semicolon,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeClassDeclaration(t *testing.T) {
	t.Parallel()
	src := `<?php class Foo extends Bar { public $prop = 1; function m() { return $this->prop; } }`
	got := kinds(src)
	want := []phptoken.Kind{
		phptoken.OpenTag,
		phptoken.KwClass, phptoken.Ident, phptoken.KwExtends, phptoken.Ident, phptoken.LBrace,
		phptoken.KwPublic, phptoken.Variable, phptoken.Assign, phptoken.IntLit, phptoken.Semicolon,
		phptoken.KwFunction, phptoken.Ident, phptoken.LParen, phptoken.RParen, phptoken.LBrace,
		phptoken.KwReturn, phptoken.Variable, phptoken.Arrow, phptoken.Ident, phptoken.Semicolon,
		phptoken.RBrace, phptoken.RBrace,
	}
	if !eqKinds(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestTokenizeEOFIsStable(t *testing.T) {
	t.Parallel()
	l := New("<?php")
	for {
		if tok := l.Next(); tok.Kind == phptoken.EOF {
			break
		}
	}
	for i := 0; i < 3; i++ {
		if tok := l.Next(); tok.Kind != phptoken.EOF {
			t.Fatalf("call %d after EOF: got %v, want EOF", i, tok)
		}
	}
}

func TestKindNamesExhaustive(t *testing.T) {
	t.Parallel()
	for k := 0; k < phptoken.KindCount(); k++ {
		if name := phptoken.Kind(k).String(); name == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

// TestQuickTextReassembly verifies the fundamental lexer invariant: the
// concatenation of all token texts reproduces the input exactly, for
// arbitrary inputs. This is the property token_get_all guarantees.
func TestQuickTextReassembly(t *testing.T) {
	t.Parallel()
	f := func(body string) bool {
		src := "<?php " + body
		var sb strings.Builder
		for _, tok := range Tokenize(src) {
			sb.WriteString(tok.Text)
		}
		return sb.String() == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTextReassemblyHTML checks reassembly when the input mixes HTML
// and PHP regions.
func TestQuickTextReassemblyHTML(t *testing.T) {
	t.Parallel()
	f := func(a, b string) bool {
		src := a + "<?php echo 1; ?>" + b
		var sb strings.Builder
		for _, tok := range Tokenize(src) {
			sb.WriteString(tok.Text)
		}
		return sb.String() == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLinesMonotonic verifies that token start lines never decrease
// and stay within the physical line count of the source.
func TestQuickLinesMonotonic(t *testing.T) {
	t.Parallel()
	f := func(body string) bool {
		src := "<?php\n" + body
		maxLine := strings.Count(src, "\n") + 1
		prev := 1
		for _, tok := range Tokenize(src) {
			if tok.Kind == phptoken.EOF {
				break
			}
			if tok.Line < prev || tok.Line > maxLine {
				return false
			}
			prev = tok.Line
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNoEmptyTokens verifies the lexer always makes progress: no
// non-EOF token has empty text.
func TestQuickNoEmptyTokens(t *testing.T) {
	t.Parallel()
	f := func(body string) bool {
		for _, tok := range Tokenize("<?php " + body) {
			if tok.Kind == phptoken.EOF {
				break
			}
			if tok.Text == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	src := `<?php
class Widget {
	public $name;
	function render($id) {
		$row = $this->fetch($id);
		echo "<div class='w'>" . $row->name . "</div>";
		$q = "SELECT * FROM t WHERE id=$id";
		return mysql_query($q);
	}
}
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(src)
	}
}
