package taint

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/rulepack"
)

// The testdata/suite directory holds hand-written PHP cases in the style
// of public static-analysis benchmarks: each sink line carries an inline
// "// EXPECT: <CLASS>" marker, and safe files carry none. The driver runs
// phpSAFE over every file and demands an exact match — no missed
// expectations, no extra findings.

// expectMarker is the inline directive.
const expectMarker = "// EXPECT: "

// parseExpectations extracts (line, class) pairs from a suite file.
func parseExpectations(t *testing.T, content string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	for i, line := range strings.Split(content, "\n") {
		idx := strings.Index(line, expectMarker)
		if idx < 0 {
			continue
		}
		name := strings.TrimSpace(line[idx+len(expectMarker):])
		var class analyzer.VulnClass
		switch name {
		case "XSS":
			class = analyzer.XSS
		case "SQLi":
			class = analyzer.SQLi
		case "CMDi":
			class = analyzer.CmdInjection
		case "LFI":
			class = analyzer.FileInclusion
		default:
			t.Fatalf("unknown expectation %q", name)
		}
		want[fmt.Sprintf("%d:%s", i+1, class)] = true
	}
	return want
}

func TestSuite(t *testing.T) {
	t.Parallel()
	entries, err := os.ReadDir(filepath.Join("testdata", "suite"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 15 {
		t.Fatalf("suite has %d files, expected the full set", len(entries))
	}
	engine := New(rulepack.MustCompile("wordpress"), DefaultOptions())

	for _, entry := range entries {
		entry := entry
		if !strings.HasSuffix(entry.Name(), ".php") {
			continue
		}
		t.Run(entry.Name(), func(t *testing.T) {
			t.Parallel()
			raw, err := os.ReadFile(filepath.Join("testdata", "suite", entry.Name()))
			if err != nil {
				t.Fatal(err)
			}
			content := string(raw)
			want := parseExpectations(t, content)

			res, err := engine.AnalyzeContext(context.Background(), &analyzer.Target{
				Name:  entry.Name(),
				Files: []analyzer.SourceFile{{Path: entry.Name(), Content: content}},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}

			got := make(map[string]bool, len(res.Findings))
			for _, f := range res.Findings {
				got[fmt.Sprintf("%d:%s", f.Line, f.Class)] = true
			}
			for key := range want {
				if !got[key] {
					t.Errorf("missed expected finding at %s", key)
				}
			}
			for key := range got {
				if !want[key] {
					t.Errorf("unexpected finding at %s", key)
				}
			}
		})
	}
}

// TestSuiteBaselinesEnvelope spot-checks the capability envelopes on the
// suite: the baselines must miss the OOP cases and Pixy must miss the
// uncalled-hook case.
func TestSuiteBaselinesEnvelope(t *testing.T) {
	t.Parallel()
	read := func(name string) string {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("testdata", "suite", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	oopCase := &analyzer.Target{
		Name:  "oop",
		Files: []analyzer.SourceFile{{Path: "x.php", Content: read("03-xss-wpdb-rows.php")}},
	}

	php := New(rulepack.MustCompile("wordpress"), DefaultOptions())
	res, err := php.AnalyzeContext(context.Background(), oopCase, nil)
	if err != nil || len(res.Findings) != 1 {
		t.Fatalf("phpSAFE on OOP case: %v findings, err %v", len(res.Findings), err)
	}

	blind := DefaultOptions()
	blind.OOP = false
	res, err = New(rulepack.MustCompile("wordpress"), blind).AnalyzeContext(context.Background(), oopCase, nil)
	if err != nil || len(res.Findings) != 0 {
		t.Fatalf("OOP-blind engine on OOP case: %d findings, err %v (must be 0)",
			len(res.Findings), err)
	}
}
