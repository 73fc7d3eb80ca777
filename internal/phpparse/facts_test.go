package phpparse

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/phpast"
)

// walkFacts is the facts oracle: it computes a file's facts with the
// AST walks the engine's model stage, its include budget and the
// incremental planner ran before the parser recorded the facts as it
// built the tree.
func walkFacts(f *phpast.File) phpast.Facts {
	var out phpast.Facts
	phpast.InspectStmts(f.Stmts, func(phpast.Node) bool {
		out.Nodes++
		return true
	})

	// Declarations: nested declarations are invisible to the inventory.
	phpast.InspectStmts(f.Stmts, func(n phpast.Node) bool {
		switch d := n.(type) {
		case *phpast.FuncDecl:
			if d.Name != "" {
				out.Funcs = append(out.Funcs, d)
			}
			return false
		case *phpast.ClassDecl:
			if d.Name != "" {
				out.Classes = append(out.Classes, d)
			}
			return false
		}
		return true
	})

	// Call sites, class references, includes and global aliases,
	// everywhere in the file.
	var globals []phpast.GlobalRef
	global := func(name string, read, write bool) {
		if name != "" {
			globals = append(globals, phpast.GlobalRef{Name: name, Read: read, Write: write})
		}
	}
	phpast.InspectStmts(f.Stmts, func(n phpast.Node) bool {
		switch x := n.(type) {
		case *phpast.FuncCall:
			if x.Name != "" {
				out.CalledFuncs = append(out.CalledFuncs, x.Name)
				switch x.Name {
				case "call_user_func", "call_user_func_array", "array_map":
					if len(x.Args) > 0 {
						if lit, ok := x.Args[0].Value.(*phpast.Literal); ok &&
							lit.Kind == phpast.LitString && lit.Value != "" {
							out.Callbacks = append(out.Callbacks, strings.ToLower(lit.Value))
						}
					}
				}
			}
		case *phpast.MethodCall:
			if x.Name != "" {
				out.CalledMethods = append(out.CalledMethods, x.Name)
			}
		case *phpast.StaticCall:
			out.CalledMethods = append(out.CalledMethods, x.Name)
			if x.Class != "" {
				out.ClassRefs = append(out.ClassRefs, x.Class)
			}
		case *phpast.New:
			if x.Class != "" {
				out.CalledFuncs = append(out.CalledFuncs, x.Class)
				out.CalledMethods = append(out.CalledMethods, "__construct")
				out.Constructed = append(out.Constructed, x.Class)
			}
		case *phpast.StaticPropertyFetch:
			if x.Class != "" {
				out.ClassRefs = append(out.ClassRefs, x.Class)
			}
		case *phpast.IncludeExpr:
			if lit, ok := trailingPathLiteral(x.Path); ok && lit != "" {
				if lit = strings.TrimPrefix(lit, "/"); lit != "" {
					out.Includes = append(out.Includes, lit)
				}
			}
		case *phpast.Global:
			for _, name := range x.Names {
				global(name, true, true)
			}
		case *phpast.IndexFetch:
			if base, ok := x.Base.(*phpast.Var); ok && base.Name == "GLOBALS" {
				if key, ok := x.Index.(*phpast.Literal); ok && key.Kind == phpast.LitString {
					global(key.Value, true, true)
				}
			}
		}
		return true
	})

	// Top-level variable flow, stopping at function scopes.
	var topRead func(n phpast.Node)
	var topWrite func(lhs phpast.Expr)
	topRead = func(n phpast.Node) {
		switch x := n.(type) {
		case nil:
			return
		case *phpast.FuncDecl, *phpast.ClassDecl:
			return
		case *phpast.Closure:
			for _, u := range x.Uses {
				global(u.Name, true, false)
			}
			return
		case *phpast.Var:
			global(x.Name, true, false)
			return
		case *phpast.Assign:
			topWrite(x.LHS)
			topRead(x.RHS)
			return
		case *phpast.IncDec:
			topWrite(x.X)
			return
		case *phpast.Foreach:
			topRead(x.Expr)
			if x.Key != nil {
				topWrite(x.Key)
			}
			if x.Value != nil {
				topWrite(x.Value)
			}
			for _, s := range x.Body {
				topRead(s)
			}
			return
		case *phpast.Unset:
			for _, t := range x.Vars {
				topWrite(t)
			}
			return
		case *phpast.StaticVars:
			for _, sv := range x.Vars {
				if sv.Default != nil {
					topRead(sv.Default)
				}
				global(sv.Name, false, true)
			}
			return
		}
		phpast.EachChild(n, topRead)
	}
	topWrite = func(lhs phpast.Expr) {
		switch t := lhs.(type) {
		case nil:
			return
		case *phpast.Var:
			global(t.Name, true, true)
		case *phpast.IndexFetch:
			topWrite(t.Base)
			if t.Index != nil {
				topRead(t.Index)
			}
		case *phpast.PropertyFetch:
			topRead(t.Object)
			if t.NameExpr != nil {
				topRead(t.NameExpr)
			}
		case *phpast.ListExpr:
			for _, target := range t.Targets {
				topWrite(target)
			}
		case *phpast.StaticPropertyFetch:
		default:
			topRead(lhs)
		}
	}
	for _, s := range f.Stmts {
		topRead(s)
	}

	for _, names := range []*[]string{&out.CalledFuncs, &out.CalledMethods, &out.Constructed, &out.ClassRefs, &out.Callbacks} {
		slices.Sort(*names)
		*names = slices.Clip(slices.Compact(*names))
	}
	merged := map[string]phpast.GlobalRef{}
	for _, g := range globals {
		m := merged[g.Name]
		m.Name, m.Read, m.Write = g.Name, m.Read || g.Read, m.Write || g.Write
		merged[g.Name] = m
	}
	for _, g := range merged {
		out.Globals = append(out.Globals, g)
	}
	slices.SortFunc(out.Globals, func(a, b phpast.GlobalRef) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// trailingPathLiteral is the include resolver's literal extraction as
// it was written before IncludeExpr.Literal.
func trailingPathLiteral(e phpast.Expr) (string, bool) {
	switch x := e.(type) {
	case *phpast.Literal:
		if x.Kind == phpast.LitString {
			return x.Value, true
		}
	case *phpast.Binary:
		if x.Op == "." {
			return trailingPathLiteral(x.R)
		}
	case *phpast.InterpString:
		if n := len(x.Parts); n > 0 {
			return trailingPathLiteral(x.Parts[n-1])
		}
	}
	return "", false
}

// checkFacts fails t when the facts the parser recorded for src differ
// from the oracle's, or are not stored at exact length.
func checkFacts(t *testing.T, name, src string) {
	t.Helper()
	f := Parse(name, src, Options{})
	got, want := *f.Facts(), walkFacts(f)
	for _, n := range [][]string{got.CalledFuncs, got.CalledMethods, got.Constructed, got.ClassRefs, got.Callbacks, got.Includes} {
		if len(n) != cap(n) {
			t.Fatalf("%s: a name list of length %d keeps capacity %d", name, len(n), cap(n))
		}
	}
	if len(got.Funcs) != cap(got.Funcs) || len(got.Classes) != cap(got.Classes) || len(got.Globals) != cap(got.Globals) {
		t.Fatalf("%s: a declaration or global list keeps spare capacity", name)
	}
	// The name lists are in parse order and the oracle's in sorted
	// order; sorting copies compares them as sets of distinct names.
	if got := sortedFacts(got); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: parser facts differ from the walks\n got: %s\nwant: %s", name, describeFacts(got), describeFacts(want))
	}
}

// sortedFacts returns f with sorted copies of its name and global
// lists.
func sortedFacts(f phpast.Facts) phpast.Facts {
	for _, names := range []*[]string{&f.CalledFuncs, &f.CalledMethods, &f.Constructed, &f.ClassRefs, &f.Callbacks} {
		*names = slices.Clone(*names)
		slices.Sort(*names)
	}
	f.Globals = slices.Clone(f.Globals)
	slices.SortFunc(f.Globals, func(a, b phpast.GlobalRef) int { return strings.Compare(a.Name, b.Name) })
	return f
}

// describeFacts renders facts with declaration names instead of
// pointers.
func describeFacts(f phpast.Facts) string {
	var funcs, classes []string
	for _, d := range f.Funcs {
		funcs = append(funcs, fmt.Sprintf("%s@%d", d.Name, d.Line))
	}
	for _, d := range f.Classes {
		classes = append(classes, fmt.Sprintf("%s@%d", d.Name, d.Line))
	}
	return fmt.Sprintf("nodes %d funcs %v classes %v calledFuncs %q calledMethods %q constructed %q classRefs %q callbacks %q includes %q globals %+v",
		f.Nodes, funcs, classes, f.CalledFuncs, f.CalledMethods, f.Constructed, f.ClassRefs, f.Callbacks, f.Includes, f.Globals)
}

// TestFactsMatchWalks requires the facts the parser records, node count
// included, to equal the oracle's walks over every golden fixture: both
// corpus snapshots, the torture file and the rest.
func TestFactsMatchWalks(t *testing.T) {
	names, sources := goldenFixtures()
	for i := range names {
		checkFacts(t, names[i], sources[i])
	}
}

// TestFactsEdgeCases pins the recording rules the corpus may not
// exercise.
func TestFactsEdgeCases(t *testing.T) {
	cases := []string{
		// Nested declarations: inside a function or class they are not
		// listed; inside a closure or a control block they are.
		"<?php function a() { function b() {} class C {} } if ($x) { function d() {} } $f = function () { function e() {} class G {} };",
		// The first declaration of a name stays first.
		"<?php function a() {} function A() {} class K {} class k {}",
		// Static calls, new and PHP 4 constructors.
		"<?php K::m(); K::$p; new K; new K(); new $c; new static; static::x(); $o->m(); $o->$m(); $o->{'n'}();",
		// String callables.
		"<?php call_user_func('Foo'); call_user_func_array('bar', []); array_map('', $a); array_map($f, $a); call_user_func(1);",
		// Includes: nested, literal-less, slash-only and interpolated.
		"<?php include (include 'a.php') . '/b.php'; require $x; include '/'; require_once \"$d/c.php\"; include dirname(__FILE__) . '/d' . '.php';",
		// Top-level variable flow and global aliases.
		"<?php $a = $b; $c .= 1; $d[] = $e; $f->g = $h; list($i, , list($j)) = $k; foreach ($l as $m => &$n) {} unset($o, $p[1]); static $q = $r; $s++; --$t; $GLOBALS['u'] = 1; function v() { global $w; $x = $GLOBALS['y']; static $z; } $cl = function ($pa = 1) use ($ua, &$ub) { $inner = 1; };",
		// Discarded arguments and items leave no nodes behind.
		"<?php f(,); $a = array(, 1); f(1,,2);",
		"<?php \"$GLOBALS[g] ${h} {$i}\"; $$j = 1;",
	}
	for i, src := range cases {
		checkFacts(t, fmt.Sprintf("edge-%d.php", i), src)
	}
}

// TestFactsRequireParser checks that a File the parser did not build
// has no facts to read.
func TestFactsRequireParser(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reading the facts of a hand-built File did not panic")
		}
	}()
	(&phpast.File{Name: "hand.php"}).Facts()
}

// FuzzFacts requires the recorded facts to equal the oracle's walks on
// arbitrary input. It is seeded from the golden fixtures, leaving out
// the short punctuation runs, which are many and make the fuzzer spend
// its time measuring seeds.
func FuzzFacts(f *testing.F) {
	names, sources := goldenFixtures()
	for i := range names {
		if !strings.HasPrefix(names[i], "punct-") {
			f.Add(sources[i])
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkFacts(t, "fuzz.php", src)
	})
}
