package phpparse_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/phplex"
	"repro/internal/phpparse"
	"repro/internal/phpprint"
	"repro/internal/phptoken"
)

// TestEntrypointOptionsLeaveASTUnchanged is the entrypoint differential:
// over every file of both default-corpus snapshots, observing, governing
// (with default budgets, which never halt on corpus files) and
// interning a parse must not change the AST, and governing the lexer
// must not change the token stream.
func TestEntrypointOptionsLeaveASTUnchanged(t *testing.T) {
	t.Parallel()
	c12, c14 := corpus.MustGenerate()
	rec := obs.NewRecorder()
	in := phplex.NewInterner()
	files := 0
	for _, c := range []*corpus.Corpus{c12, c14} {
		for _, target := range c.Targets {
			parent := rec.StartSpan("plugin", nil)
			for _, sf := range target.Files {
				files++
				plain := phpparse.Parse(sf.Path, sf.Content, phpparse.Options{})
				full := phpparse.Parse(sf.Path, sf.Content, phpparse.Options{
					Recorder: rec, Parent: parent,
					Gov: govern.New(context.Background(), nil, nil), Interner: in,
				})
				if got, want := phpprint.File(full), phpprint.File(plain); got != want {
					t.Errorf("%s/%s: printed AST differs under recorder, governor and interner", target.Name, sf.Path)
				}
				if !reflect.DeepEqual(full.Errors, plain.Errors) {
					t.Errorf("%s/%s: parse errors differ: %v vs %v", target.Name, sf.Path, full.Errors, plain.Errors)
				}

				ungoverned := cloneTokens(phplex.TokenizeCode(sf.Content, nil, nil, nil))
				governed := phplex.TokenizeCode(sf.Content, nil, nil,
					govern.New(context.Background(), nil, nil))
				if !reflect.DeepEqual(governed, ungoverned) {
					t.Errorf("%s/%s: governed token stream differs (%d vs %d tokens)",
						target.Name, sf.Path, len(governed), len(ungoverned))
				}
				phplex.PutTokens(governed)
			}
			parent.End()
		}
	}
	if files == 0 {
		t.Fatal("corpus has no files")
	}
	if rec.Counter("parse_files_total").Value() != int64(files) {
		t.Errorf("parse_files_total = %d, want %d", rec.Counter("parse_files_total").Value(), files)
	}
}

// cloneTokens copies a pooled token stream and returns the original to
// the pool, so the next lex cannot overwrite the copy.
func cloneTokens(toks []phptoken.Token) []phptoken.Token {
	out := append([]phptoken.Token(nil), toks...)
	phplex.PutTokens(toks)
	return out
}
