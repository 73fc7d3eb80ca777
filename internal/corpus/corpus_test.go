package corpus

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/phpparse"
)

// generateOnce caches one generation for the whole test package.
var gen2012, gen2014 = MustGenerate()

func TestPopulationShape(t *testing.T) {
	t.Parallel()
	spec := DefaultSpec()

	if got := len(gen2012.Targets); got != spec.Plugins {
		t.Errorf("2012 plugins = %d, want %d", got, spec.Plugins)
	}
	if got := len(gen2014.Targets); got != spec.Plugins {
		t.Errorf("2014 plugins = %d, want %d", got, spec.Plugins)
	}

	// Line counts should land near the paper's 89,560 / 180,801 (±15%).
	check := func(name string, got, want int) {
		t.Helper()
		lo, hi := want*85/100, want*115/100
		if got < lo || got > hi {
			t.Errorf("%s lines = %d, want within [%d, %d]", name, got, lo, hi)
		}
	}
	check("2012", gen2012.Lines(), spec.TargetLines2012)
	check("2014", gen2014.Lines(), spec.TargetLines2014)

	// File counts near 266 / 356 (±20%).
	files12, files14 := gen2012.Files(), gen2014.Files()
	if files12 < 212 || files12 > 320 {
		t.Errorf("2012 files = %d, want near 266", files12)
	}
	if files14 < 285 || files14 > 427 {
		t.Errorf("2014 files = %d, want near 356", files14)
	}
}

func TestTableIIVectorSums(t *testing.T) {
	t.Parallel()
	// The seeded distribution must reproduce Table II's columns exactly.
	wantRows := map[string][3]int{ // row → {2012, 2014, both}
		"POST":                {22, 43, 11},
		"GET":                 {96, 111, 36},
		"POST/GET/COOKIE":     {24, 57, 19},
		"DB":                  {211, 363, 162},
		"File/Function/Array": {41, 11, 4},
	}
	count := func(c *Corpus) map[string]int {
		m := make(map[string]int)
		for _, g := range c.Truths {
			m[g.Vector.TableIIRow()]++
		}
		return m
	}
	got12, got14 := count(gen2012), count(gen2014)
	persisting := make(map[string]int)
	for _, g := range gen2014.Truths {
		if g.Persists {
			persisting[g.Vector.TableIIRow()]++
		}
	}
	for row, want := range wantRows {
		if got12[row] != want[0] {
			t.Errorf("2012 %s = %d, want %d", row, got12[row], want[0])
		}
		if got14[row] != want[1] {
			t.Errorf("2014 %s = %d, want %d", row, got14[row], want[1])
		}
		if persisting[row] != want[2] {
			t.Errorf("both %s = %d, want %d", row, persisting[row], want[2])
		}
	}
}

func TestOOPVulnCounts(t *testing.T) {
	t.Parallel()
	// §V.A: 151 WordPress-object vulnerabilities in 2012, 179 in 2014.
	countOOP := func(c *Corpus) int {
		n := 0
		for _, g := range c.Truths {
			if g.OOP && g.Class == analyzer.XSS {
				n++
			}
		}
		return n
	}
	if got := countOOP(gen2012); got != 151 {
		t.Errorf("2012 OOP XSS vulns = %d, want 151", got)
	}
	if got := countOOP(gen2014); got != 179 {
		t.Errorf("2014 OOP XSS vulns = %d, want 179", got)
	}
}

func TestSQLiCounts(t *testing.T) {
	t.Parallel()
	countSQLi := func(c *Corpus) int {
		n := 0
		for _, g := range c.Truths {
			if g.Class == analyzer.SQLi {
				n++
			}
		}
		return n
	}
	if got := countSQLi(gen2012); got != 8 {
		t.Errorf("2012 SQLi = %d, want 8", got)
	}
	if got := countSQLi(gen2014); got != 9 {
		t.Errorf("2014 SQLi = %d, want 9", got)
	}
}

func TestPersistenceShare(t *testing.T) {
	t.Parallel()
	// §V.D / §VI: roughly 40% of the 2014 vulnerabilities persist.
	persisting := 0
	for _, g := range gen2014.Truths {
		if g.Persists {
			persisting++
		}
	}
	share := float64(persisting) / float64(len(gen2014.Truths))
	if share < 0.32 || share > 0.48 {
		t.Errorf("persistence share = %.2f, want ≈ 0.40", share)
	}
	// Persisting IDs must exist in the 2012 truth set.
	ids12 := make(map[string]bool, len(gen2012.Truths))
	for _, g := range gen2012.Truths {
		ids12[g.ID] = true
	}
	for _, g := range gen2014.Truths {
		if g.Persists && !ids12[g.ID] {
			t.Errorf("persisting vuln %s not present in 2012 corpus", g.ID)
		}
	}
}

func TestNumericShare(t *testing.T) {
	t.Parallel()
	// §V.C: about 39% of vulnerable variables store numeric values.
	numeric := 0
	for _, g := range gen2014.Truths {
		if g.Numeric {
			numeric++
		}
	}
	share := float64(numeric) / float64(len(gen2014.Truths))
	if share < 0.30 || share > 0.48 {
		t.Errorf("numeric share = %.2f, want ≈ 0.39", share)
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	a12, a14, err := Generate(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*Corpus{{gen2012, a12}, {gen2014, a14}} {
		x, y := pair[0], pair[1]
		if len(x.Truths) != len(y.Truths) || len(x.Traps) != len(y.Traps) {
			t.Fatalf("non-deterministic label counts")
		}
		for i := range x.Targets {
			if len(x.Targets[i].Files) != len(y.Targets[i].Files) {
				t.Fatalf("plugin %s file count differs", x.Targets[i].Name)
			}
			for j := range x.Targets[i].Files {
				if x.Targets[i].Files[j].Content != y.Targets[i].Files[j].Content {
					t.Fatalf("plugin %s file %s differs between runs",
						x.Targets[i].Name, x.Targets[i].Files[j].Path)
				}
			}
		}
	}
}

func TestAllFilesParse(t *testing.T) {
	t.Parallel()
	for _, c := range []*Corpus{gen2012, gen2014} {
		for _, target := range c.Targets {
			for _, f := range target.Files {
				parsed := phpparse.Parse(f.Path, f.Content, phpparse.Options{})
				if len(parsed.Errors) > 0 {
					t.Errorf("%s %s/%s: parse errors: %v",
						c.Version, target.Name, f.Path, parsed.Errors[:min(3, len(parsed.Errors))])
				}
			}
		}
	}
}

func TestGroundTruthLinesPointAtSinks(t *testing.T) {
	t.Parallel()
	// Every ground-truth line must contain sink-looking source text.
	for _, c := range []*Corpus{gen2012, gen2014} {
		for _, g := range c.Truths {
			target := c.Target(g.Plugin)
			if target == nil {
				t.Fatalf("missing plugin %s", g.Plugin)
			}
			file, ok := target.File(g.File)
			if !ok {
				t.Fatalf("%s: missing file %s", g.Plugin, g.File)
			}
			lines := strings.Split(file.Content, "\n")
			if g.Line < 1 || g.Line > len(lines) {
				t.Fatalf("%s %s:%d out of range", g.Plugin, g.File, g.Line)
			}
			text := lines[g.Line-1]
			if !strings.Contains(text, "echo") && !strings.Contains(text, "print") &&
				!strings.Contains(text, "query") {
				t.Errorf("%s %s %s:%d does not look like a sink: %q",
					c.Version, g.Plugin, g.File, g.Line, text)
			}
		}
	}
}

func TestHugeFilesPresent(t *testing.T) {
	t.Parallel()
	countHuge := func(c *Corpus) int {
		n := 0
		for _, target := range c.Targets {
			for _, f := range target.Files {
				if strings.HasSuffix(f.Path, "huge-admin.php") {
					n++
				}
			}
		}
		return n
	}
	if got := countHuge(gen2012); got != 1 {
		t.Errorf("2012 huge files = %d, want 1", got)
	}
	if got := countHuge(gen2014); got != 3 {
		t.Errorf("2014 huge files = %d, want 3", got)
	}
}

func TestOOPPluginShare(t *testing.T) {
	t.Parallel()
	// 19 of 35 plugins declare classes (§V.A).
	oop := 0
	for _, target := range gen2012.Targets {
		hasClass := false
		for _, f := range target.Files {
			if strings.Contains(f.Content, "class ") && strings.Contains(f.Path, "class-") {
				hasClass = true
			}
		}
		if hasClass {
			oop++
		}
	}
	if oop != DefaultSpec().OOPPlugins {
		t.Errorf("OOP plugins = %d, want %d", oop, DefaultSpec().OOPPlugins)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	t.Parallel()
	if _, _, err := Generate(Spec{Plugins: 0}); err == nil {
		t.Error("zero plugins should be rejected")
	}
	if _, _, err := Generate(Spec{Plugins: 3, OOPPlugins: 5}); err == nil {
		t.Error("OOP > plugins should be rejected")
	}
}

func TestWriteTo(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := gen2012.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	// Spot-check structure: stub, one plugin file, labels.
	for _, rel := range []string{
		"2012/wp-stubs.php",
		"2012/mail-subscribe-list/mail-subscribe-list.php",
		"2012/labels.tsv",
	} {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(rel))); err != nil {
			t.Errorf("missing %s: %v", rel, err)
		}
	}
	labels, err := os.ReadFile(filepath.Join(dir, "2012", "labels.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(labels), "\n")
	want := 1 + len(gen2012.Truths) + len(gen2012.Traps)
	if lines != want {
		t.Errorf("labels lines = %d, want %d", lines, want)
	}
	if !strings.Contains(string(labels), "register_globals") {
		t.Error("labels header missing expected column")
	}
}
