package phplex

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/phptoken"
)

// FuzzTokenize exercises the lexer's invariants on arbitrary input:
// exact text reassembly, guaranteed progress, every token's line equal
// to one plus the newlines before its offset, and TokenizeCode equal to
// Tokenize with trivia filtered out. `go test` runs the seed corpus;
// `go test -fuzz=FuzzTokenize` explores further.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"",
		"<?php echo $_GET['x'];",
		"<?php $a = \"interp $x {$y->z} ${w}\";",
		"<?php /* comment ?> */ $a = 1; ?>html<?= $b ?>",
		"<?php $s = <<<EOT\nbody $v\nEOT;\n",
		"<?php $s = <<<'EOT'\nliteral\nEOT;\n",
		"<?php (int)$x; (string) $y; `cmd $z`;",
		"<?php class A { function b() { return $this->c[1]; } }",
		"<?php \"unterminated",
		"<?php 'unterminated",
		"<?php $x = 0x1F + .5e-3;",
		"no php at all <? $short ?>",
		"<?php $a[$b[$c]] = $$d;",
		"<?<<< \n\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks := Tokenize(src)
		if len(toks) == 0 || toks[len(toks)-1].Kind != phptoken.EOF {
			t.Fatal("stream must end with EOF")
		}
		var sb strings.Builder
		var want []phptoken.Token
		for _, tok := range toks {
			if tok.Kind != phptoken.EOF && tok.Text == "" {
				t.Fatalf("empty non-EOF token %v", tok.Kind)
			}
			if line := 1 + strings.Count(src[:tok.Offset], "\n"); tok.Line != line {
				t.Fatalf("token %v at offset %d: line %d, want %d", tok.Kind, tok.Offset, tok.Line, line)
			}
			if !tok.IsTrivia() {
				want = append(want, tok)
			}
			sb.WriteString(tok.Text)
		}
		if sb.String() != src {
			t.Fatalf("reassembly mismatch:\n in: %q\nout: %q", src, sb.String())
		}
		code := TokenizeCode(src, nil, nil, nil)
		if !slices.Equal(code, want) {
			t.Fatalf("TokenizeCode differs from filtered Tokenize:\n got: %v\nwant: %v", code, want)
		}
		PutTokens(code)
	})
}
