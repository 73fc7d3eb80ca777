package phpparse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phptoken"
)

// frontEndDigest pins the front end's output: the token stream and an
// Inspect dump of the AST of every golden fixture. It was computed
// before the lexer's operator index, the parser's precedence tables and
// the allocation-free walk replaced their linear scans, so any change
// to a token, a tree shape, a child order or a parse error moves it.
const frontEndDigest = "b28f867aa6dbfdfc001d67b9441141869bcb655d8928e4cda29ec9e46e01a74a"

// operatorSpellings lists every binary and assignment operator the
// parser folds, written out here rather than read from the parser's
// tables so the fixture does not move when the tables do.
var operatorSpellings = []string{
	"||", "&&", "|", "^", "&", "==", "!=", "<>", "===", "!==",
	"<", "<=", ">", ">=", "<<", ">>", "+", "-", ".", "*", "/", "%",
	"or", "xor", "and",
}

// assignSpellings lists every assignment operator the same way.
var assignSpellings = []string{
	"=", "+=", "-=", "*=", "/=", ".=", "%=", "&=", "|=", "^=", "<<=", ">>=",
}

// precedenceSource builds a file with every pair of binary operators in
// both orders, each assignment operator over a binary chain, and mixes
// with unary operators, casts, ternaries and parentheses.
func precedenceSource() string {
	var b strings.Builder
	b.WriteString("<?php\n")
	for _, x := range operatorSpellings {
		for _, y := range operatorSpellings {
			fmt.Fprintf(&b, "$r = $a %s $b %s $c;\n", x, y)
			fmt.Fprintf(&b, "$r = !$a %s -$b %s ~$c %s @$d;\n", x, y, x)
		}
	}
	for _, op := range assignSpellings {
		fmt.Fprintf(&b, "$r %s $a + $b * $c . $d || $e && $f;\n", op)
		fmt.Fprintf(&b, "$r %s $s %s $t = $a ? $b : $c ?: $d;\n", op, op)
	}
	b.WriteString("$r = (int)$a + (string)$b . $c->d($e, $f[1] * 2) - C::m() % 3;\n")
	b.WriteString("$r = ($a || $b) && ($c | $d) ^ $e & $f == $g < $h << $i + $j * $k;\n")
	b.WriteString("$r = $a * $b + $c << $d < $e == $f & $g ^ $h | $i && $j || $k;\n")
	b.WriteString("$r = $a instanceof B && !$c instanceof D || print $e . $f;\n")
	b.WriteString("$r = $a++ + ++$b - $c-- - --$d;\n")
	b.WriteString("$r =& $a; $r = &$b; $r = array($a => $b + 1, 'k' => $c . $d);\n")
	return b.String()
}

// punctuation is every byte that starts an operator or punctuation
// token, plus the braces and parentheses the lexer scans itself.
const punctuation = "=+-*/.%!<>&|^~@?:;,()[]{}\\"

// punctuationRuns returns every run of one to three punctuation bytes,
// so longest-match lexing is checked on every adjacent combination.
func punctuationRuns() []string {
	var out []string
	for _, a := range punctuation {
		out = append(out, string(a))
		for _, b := range punctuation {
			out = append(out, string(a)+string(b))
			for _, c := range punctuation {
				out = append(out, string(a)+string(b)+string(c))
			}
		}
	}
	return out
}

// goldenFixtures returns every golden fixture by name: each file of both
// default-corpus snapshots, the torture file, the benchmark file, the
// fuzz seeds, the precedence file and every short punctuation run.
func goldenFixtures() (names, sources []string) {
	add := func(name, src string) {
		names = append(names, name)
		sources = append(sources, src)
	}
	c12, c14 := corpus.MustGenerate()
	for _, c := range []*corpus.Corpus{c12, c14} {
		for _, target := range c.Targets {
			for _, sf := range target.Files {
				add(fmt.Sprintf("%v/%s/%s", c.Version, target.Name, sf.Path), sf.Content)
			}
		}
	}
	add("torture.php", tortureSource)
	add("bench.php", benchParseSource)
	for i, s := range parseFuzzSeeds {
		add(fmt.Sprintf("fuzz-%d.php", i), s)
	}
	add("precedence.php", precedenceSource())
	for i, ops := range punctuationRuns() {
		add(fmt.Sprintf("punct-%d.php", i), "<?php $a"+ops+"$b;\n")
	}
	return names, sources
}

// writeTokens hashes the token stream of src: kind, text, line, offset.
func writeTokens(h hash.Hash, src string) {
	toks := phplex.TokenizeCode(src, nil, nil, nil)
	for _, tok := range toks {
		fmt.Fprintf(h, "%d %q %d %d\n", tok.Kind, tok.Text, tok.Line, tok.Offset)
	}
	phplex.PutTokens(toks)
}

// dumpFields are the string fields the AST dump records when a node has
// them: operators, names and literal values.
var dumpFields = []string{"Op", "Name", "Class", "Type", "Value"}

// dumpField is one of dumpFields present on a node type.
type dumpField struct {
	name  string
	index []int
}

// treeDumper hashes Inspect dumps, caching each node type's dumpFields.
type treeDumper struct {
	h      hash.Hash
	fields map[reflect.Type][]dumpField
}

// fieldsOf returns the dumpFields that node type t has as strings.
func (d *treeDumper) fieldsOf(t reflect.Type) []dumpField {
	if fs, ok := d.fields[t]; ok {
		return fs
	}
	var fs []dumpField
	for _, name := range dumpFields {
		if sf, ok := t.FieldByName(name); ok && sf.Type.Kind() == reflect.String {
			fs = append(fs, dumpField{name, sf.Index})
		}
	}
	d.fields[t] = fs
	return fs
}

// writeTree hashes an Inspect dump of f (node type, operator, name,
// line in visit order) and its parse errors.
func (d *treeDumper) writeTree(f *phpast.File) {
	phpast.InspectStmts(f.Stmts, func(n phpast.Node) bool {
		fmt.Fprintf(d.h, "%T %d", n, n.Pos())
		v := reflect.ValueOf(n).Elem()
		for _, fd := range d.fieldsOf(v.Type()) {
			fmt.Fprintf(d.h, " %s=%q", fd.name, v.FieldByIndex(fd.index).String())
		}
		fmt.Fprintln(d.h)
		return true
	})
	for _, e := range f.Errors {
		fmt.Fprintf(d.h, "error %q\n", e)
	}
}

// TestFrontEndGolden is the front-end byte-identity check: lexing and
// parsing every golden fixture must give the pinned digest.
func TestFrontEndGolden(t *testing.T) {
	t.Parallel()
	names, sources := goldenFixtures()
	h := sha256.New()
	d := &treeDumper{h: h, fields: map[reflect.Type][]dumpField{}}
	for i, src := range sources {
		fmt.Fprintf(h, "file %q\n", names[i])
		writeTokens(h, src)
		d.writeTree(Parse(names[i], src, Options{}))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frontEndDigest {
		t.Fatalf("front-end digest over %d fixtures = %s, want %s", len(sources), got, frontEndDigest)
	}
}

// TestTokenLinesMatchOffsets checks the lexer's lazily counted lines
// over every golden fixture (both default-corpus snapshots, the torture
// file and the rest): each token's Line, trivia included, must be one
// plus the number of newlines before its Offset, and the code stream
// must be the full stream with trivia filtered out.
func TestTokenLinesMatchOffsets(t *testing.T) {
	t.Parallel()
	names, sources := goldenFixtures()
	for i, src := range sources {
		all := phplex.Tokenize(src)
		var want []phptoken.Token
		for _, tok := range all {
			if tok.Line != 1+strings.Count(src[:tok.Offset], "\n") {
				t.Fatalf("%s: %v at offset %d has line %d, want %d", names[i], tok.Kind, tok.Offset,
					tok.Line, 1+strings.Count(src[:tok.Offset], "\n"))
			}
			if !tok.IsTrivia() {
				want = append(want, tok)
			}
		}
		code := phplex.TokenizeCode(src, nil, nil, nil)
		if !slices.Equal(code, want) {
			t.Fatalf("%s: TokenizeCode differs from the filtered Tokenize stream", names[i])
		}
		phplex.PutTokens(code)
	}
}
