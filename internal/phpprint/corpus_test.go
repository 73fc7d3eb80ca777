package phpprint

import (
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/phpast"
	"repro/internal/phpparse"
)

// TestCorpusRoundTrip prints and reparses every file of the generated
// corpus: the printed form must parse cleanly and preserve the top-level
// statement structure. This exercises the printer over ~270 KLOC of
// realistic plugin PHP.
func TestCorpusRoundTrip(t *testing.T) {
	t.Parallel()
	c12, c14 := corpus.MustGenerate()
	for _, c := range []*corpus.Corpus{c12, c14} {
		for _, target := range c.Targets {
			for _, file := range target.Files {
				orig := phpparse.Parse(file.Path, file.Content, phpparse.Options{})
				if len(orig.Errors) > 0 {
					t.Fatalf("%s/%s: corpus file has parse errors: %v",
						target.Name, file.Path, orig.Errors)
				}
				printed := File(orig)
				re := phpparse.Parse(file.Path, printed, phpparse.Options{})
				if len(re.Errors) > 0 {
					t.Fatalf("%s/%s: printed form has parse errors: %v\n%s",
						target.Name, file.Path, re.Errors[:min(3, len(re.Errors))], printed)
				}
				if got, want := countNodes(re.Stmts), countNodes(orig.Stmts); got < want {
					t.Errorf("%s/%s: node count shrank %d -> %d",
						target.Name, file.Path, want, got)
				}
			}
		}
	}
}

// countNodes counts AST nodes, ignoring pure-literal echo splitting
// differences.
func countNodes(stmts []phpast.Stmt) int {
	n := 0
	phpast.InspectStmts(stmts, func(node phpast.Node) bool {
		switch node.(type) {
		case *phpast.Literal, *phpast.Echo:
			// Inline HTML normalization merges/splits literal echoes.
			return true
		}
		n++
		return true
	})
	return n
}

// TestQuickPrintedFormAlwaysParses generates small random statement
// sequences via the parser itself and checks print→parse stability.
func TestQuickPrintedFormAlwaysParses(t *testing.T) {
	t.Parallel()
	snippets := []string{
		`$a = %d;`,
		`echo $a . '%d';`,
		`if ($a > %d) { echo 'x'; }`,
		`function f%d($x) { return $x; }`,
		`$arr[%d] = 'v';`,
		`for ($i = 0; $i < %d; $i++) { continue; }`,
	}
	f := func(picks []uint8) bool {
		src := "<?php\n"
		for i, pk := range picks {
			if i > 12 {
				break
			}
			tpl := snippets[int(pk)%len(snippets)]
			src += replaceCount(tpl, i) + "\n"
		}
		orig := phpparse.Parse("gen.php", src, phpparse.Options{})
		if len(orig.Errors) > 0 {
			return true // the generator built something odd; skip
		}
		printed := File(orig)
		re := phpparse.Parse("gen2.php", printed, phpparse.Options{})
		return len(re.Errors) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// replaceCount substitutes the %d placeholder.
func replaceCount(tpl string, n int) string {
	out := ""
	for i := 0; i < len(tpl); i++ {
		if i+1 < len(tpl) && tpl[i] == '%' && tpl[i+1] == 'd' {
			out += itoa(n)
			i++
			continue
		}
		out += string(tpl[i])
	}
	return out
}

// itoa is a minimal integer renderer.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}
