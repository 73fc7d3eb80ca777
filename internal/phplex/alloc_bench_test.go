package phplex

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchSource builds a representative plugin file: markup, functions,
// a class with methods, superglobal reads, interpolated SQL and echo
// sinks — the token mix the corpus actually exercises. It is synthetic
// so the benchmark has no testdata dependency and a stable size.
func benchSource() string {
	var b strings.Builder
	b.WriteString("<html><body>\n<?php\n")
	for i := 0; i < 40; i++ {
		n := strconv.Itoa(i)
		b.WriteString("function handler_" + n + "($req) {\n")
		b.WriteString("    $id = $_GET['id_" + n + "'];\n")
		b.WriteString("    $name = mysql_real_escape_string($req['name']);\n")
		b.WriteString("    $sql = \"SELECT * FROM t_" + n + " WHERE id = $id AND name = '$name'\";\n")
		b.WriteString("    $res = mysql_query($sql);\n")
		b.WriteString("    if ($res && count($res) > " + n + ") {\n")
		b.WriteString("        echo \"<div id='row-{$id}'>\" . htmlentities($name) . '</div>';\n")
		b.WriteString("    }\n")
		b.WriteString("    return $res; // per-row handler\n")
		b.WriteString("}\n")
	}
	b.WriteString("class Plugin_Widget {\n")
	b.WriteString("    var $options = array('a' => 1, 'b' => 2);\n")
	b.WriteString("    function render($attrs) {\n")
	b.WriteString("        foreach ($attrs as $k => $v) { echo $k . '=' . $v; }\n")
	b.WriteString("        return (int)$this->options['a'];\n")
	b.WriteString("    }\n")
	b.WriteString("}\n?>\n</body></html>\n")
	return b.String()
}

// BenchmarkLexAllocs is the allocation gate for the lexer hot path:
// tokenize a representative file, hand the stream back to the pool,
// repeat. CI compares its allocs/op against the checked-in baseline in
// testdata/lex_allocs_baseline.txt and fails on a >10% regression
// (TestLexAllocsGate enforces the same bound without needing -bench).
func BenchmarkLexAllocs(b *testing.B) {
	src := benchSource()
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		PutTokens(TokenizeCode(src, nil, nil, nil))
	}
}

// lexAllocsPerOp measures steady-state allocations per TokenizeCode +
// PutTokens cycle, after a warm-up pass that populates the buffer pool.
func lexAllocsPerOp() float64 {
	src := benchSource()
	PutTokens(TokenizeCode(src, nil, nil, nil))
	return testing.AllocsPerRun(200, func() {
		PutTokens(TokenizeCode(src, nil, nil, nil))
	})
}

// TestLexAllocsGate fails when the lexer's allocs/op regresses more
// than 10% over the checked-in baseline. Refresh the baseline with
// UPDATE_ALLOCS_BASELINE=1 go test ./internal/phplex -run LexAllocsGate
// after an intentional change.
func TestLexAllocsGate(t *testing.T) {
	const baselinePath = "testdata/lex_allocs_baseline.txt"
	got := lexAllocsPerOp()
	if os.Getenv("UPDATE_ALLOCS_BASELINE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinePath, []byte(strconv.FormatFloat(got, 'f', -1, 64)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline updated: %v allocs/op", got)
		return
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("missing allocs baseline (run with UPDATE_ALLOCS_BASELINE=1 to create): %v", err)
	}
	baseline, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	if err != nil {
		t.Fatalf("bad baseline %q: %v", raw, err)
	}
	// Allow 10% headroom plus one alloc of slack so a tiny integer
	// baseline doesn't make the gate flake on scheduler noise.
	limit := baseline*1.10 + 1
	if got > limit {
		t.Fatalf("lexer allocations regressed: %v allocs/op, baseline %v (limit %.2f)", got, baseline, limit)
	}
	t.Logf("lex allocs/op = %v (baseline %v)", got, baseline)
}
