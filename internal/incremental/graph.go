// Package incremental reuses per-file analysis artifacts across scans of
// nearly-identical snapshots — the plugin-update workload at the heart of
// the paper's evaluation (two versions of the same 35 plugins, most files
// byte-identical between them).
//
// The unit of reuse is not the file but the *dependency component*: the
// taint engine's function summaries are context-sensitive (the first
// call's concrete arguments are folded into the parameter bindings), and
// summarization itself mutates shared state (class properties, globals)
// and emits findings inline, so a file's recorded outcome is only valid
// while every file it could interact with is unchanged too. The graph in
// this file over-approximates "could interact with" symmetrically —
// includes, cross-file calls by name, class references, shared globals —
// and the planner (planner.go) reuses a file's artifact only when its
// entire component is unchanged. A changed file therefore transitively
// invalidates its dependents: stale summaries are structurally
// unreachable, never filtered by a heuristic.
package incremental

import (
	"sort"
	"strings"

	"repro/internal/phpast"
)

// resKind is the namespace of a shared resource: functions, classes,
// methods and globals with one name are distinct resources.
type resKind uint8

const (
	resFunc resKind = iota
	resClass
	resMethod
	resGlobal
)

// resKey names one shared resource.
type resKey struct {
	kind resKind
	name string
}

// refUse flags how a file touches a resource.
type refUse uint8

const (
	// declares: the file declares the resource (for globals: writes it).
	declares refUse = 1 << iota
	// uses: the file refers to the resource (for globals: reads it).
	uses
)

// fileRefs is the dependency-relevant surface of one parsed file: the
// resources it declares or refers to by name, and what it includes.
type fileRefs struct {
	// keys maps each resource the file touches to how it touches it.
	keys map[resKey]refUse

	// includeLits are the trailing path literals of include/require
	// expressions, normalized like the engine's resolver input.
	includeLits []string
}

// note records one touch of a resource.
func (r *fileRefs) note(kind resKind, name string, u refUse) {
	r.keys[resKey{kind, name}] |= u
}

// extractRefs collects a file's dependency surface. isSuper filters the
// engine's configured superglobals out of the global-variable edges:
// superglobal reads mint fresh taint and writes are discarded, so they
// carry no state between files.
func extractRefs(f *phpast.File, isSuper func(string) bool) *fileRefs {
	r := &fileRefs{keys: make(map[resKey]refUse)}

	// Declarations, mirroring the engine's inventory walk (declarations
	// nested inside other declarations are invisible to both).
	phpast.InspectStmts(f.Stmts, func(n phpast.Node) bool {
		switch d := n.(type) {
		case *phpast.FuncDecl:
			if d.Name != "" {
				r.note(resFunc, d.Name, declares)
			}
			return false
		case *phpast.ClassDecl:
			if d.Name != "" {
				r.note(resClass, d.Name, declares)
				if d.Extends != "" {
					r.note(resClass, d.Extends, uses)
				}
				for _, impl := range d.Implements {
					r.note(resClass, impl, uses)
				}
				for i := range d.Methods {
					if mn := d.Methods[i].Name; mn != "" {
						r.note(resMethod, mn, declares)
					}
				}
			}
			return false
		}
		return true
	})

	// Name references, everywhere in the file (function and method
	// bodies included) — mirroring the engine's call-site inventory plus
	// the name resolutions its evaluator performs.
	phpast.InspectStmts(f.Stmts, func(n phpast.Node) bool {
		switch x := n.(type) {
		case *phpast.FuncCall:
			if x.Name != "" {
				r.note(resFunc, x.Name, uses)
				switch x.Name {
				case "call_user_func", "call_user_func_array", "array_map":
					// String-callable dispatch resolves a literal first
					// argument to a user function.
					if len(x.Args) > 0 {
						if lit, ok := x.Args[0].Value.(*phpast.Literal); ok &&
							lit.Kind == phpast.LitString && lit.Value != "" {
							r.note(resFunc, strings.ToLower(lit.Value), uses)
						}
					}
				}
			}
		case *phpast.MethodCall:
			if x.Name != "" {
				r.note(resMethod, x.Name, uses)
			}
		case *phpast.StaticCall:
			if x.Name != "" {
				r.note(resMethod, x.Name, uses)
			}
			if x.Class != "" {
				r.note(resClass, x.Class, uses)
			}
		case *phpast.New:
			if x.Class != "" {
				r.note(resClass, x.Class, uses)
				r.note(resMethod, "__construct", uses)
				// PHP4-style constructors: "new foo" both calls a method
				// named foo and marks a function named foo as called.
				r.note(resMethod, x.Class, uses)
				r.note(resFunc, x.Class, uses)
			}
		case *phpast.StaticPropertyFetch:
			if x.Class != "" {
				r.note(resClass, x.Class, uses)
			}
		case *phpast.IncludeExpr:
			if lit, ok := trailingPathLiteral(x.Path); ok && lit != "" {
				r.includeLits = append(r.includeLits, strings.TrimPrefix(lit, "/"))
			}
		case *phpast.Global:
			// "global $g" aliases the shared scope for reads and writes.
			for _, name := range x.Names {
				r.global(name, isSuper, true, true)
			}
		case *phpast.IndexFetch:
			// $GLOBALS['name'] aliases the global directly, in any scope.
			// Position-insensitive (read+write) is conservative.
			if base, ok := x.Base.(*phpast.Var); ok && base.Name == "GLOBALS" {
				if key, ok := x.Index.(*phpast.Literal); ok && key.Kind == phpast.LitString {
					r.global(key.Value, isSuper, true, true)
				}
			}
		}
		return true
	})

	// Top-level variable flow. Only top-level code (plus "global"
	// declarations and $GLOBALS, handled above) touches the shared
	// global scope; function, method and closure bodies get fresh
	// scopes, so the walk stops at their boundaries.
	for _, s := range f.Stmts {
		r.topRead(s, isSuper)
	}

	return r
}

// global records a global-variable touch unless the name is a
// superglobal.
func (r *fileRefs) global(name string, isSuper func(string) bool, read, write bool) {
	if name == "" || isSuper(name) {
		return
	}
	var u refUse
	if read {
		u |= uses
	}
	if write {
		u |= declares
	}
	r.note(resGlobal, name, u)
}

// topRead walks top-level code recording global reads, dispatching
// assignment targets to topWrite and stopping at function-scope
// boundaries.
func (r *fileRefs) topRead(n phpast.Node, isSuper func(string) bool) {
	switch x := n.(type) {
	case nil:
		return
	case *phpast.FuncDecl, *phpast.ClassDecl:
		// Fresh scopes; their global interactions (global/$GLOBALS) are
		// collected by the whole-file walk above.
		return
	case *phpast.Closure:
		// The body runs in a fresh scope; only use-clause captures read
		// the enclosing (here: global) scope.
		for _, u := range x.Uses {
			r.global(u.Name, isSuper, true, false)
		}
		return
	case *phpast.Var:
		r.global(x.Name, isSuper, true, false)
		return
	case *phpast.Assign:
		r.topWrite(x.LHS, isSuper)
		r.topRead(x.RHS, isSuper)
		return
	case *phpast.IncDec:
		r.topWrite(x.X, isSuper)
		return
	case *phpast.Foreach:
		r.topRead(x.Expr, isSuper)
		if x.Key != nil {
			r.topWrite(x.Key, isSuper)
		}
		if x.Value != nil {
			r.topWrite(x.Value, isSuper)
		}
		for _, s := range x.Body {
			r.topRead(s, isSuper)
		}
		return
	case *phpast.Unset:
		for _, t := range x.Vars {
			r.topWrite(t, isSuper)
		}
		return
	case *phpast.StaticVars:
		for _, sv := range x.Vars {
			if sv.Default != nil {
				r.topRead(sv.Default, isSuper)
			}
			r.global(sv.Name, isSuper, false, true)
		}
		return
	}
	phpast.EachChild(n, func(c phpast.Node) { r.topRead(c, isSuper) })
}

// topWrite records the variables written by storing into lhs at top
// level. Assignment targets are conservatively marked read+write
// (compound assignments and element stores read the old value).
func (r *fileRefs) topWrite(lhs phpast.Expr, isSuper func(string) bool) {
	switch t := lhs.(type) {
	case nil:
		return
	case *phpast.Var:
		r.global(t.Name, isSuper, true, true)
	case *phpast.IndexFetch:
		// Element store taints the whole container; $GLOBALS['x'] is
		// handled by the whole-file walk.
		r.topWrite(t.Base, isSuper)
		if t.Index != nil {
			r.topRead(t.Index, isSuper)
		}
	case *phpast.PropertyFetch:
		r.topRead(t.Object, isSuper)
		if t.NameExpr != nil {
			r.topRead(t.NameExpr, isSuper)
		}
	case *phpast.ListExpr:
		for _, target := range t.Targets {
			r.topWrite(target, isSuper)
		}
	case *phpast.StaticPropertyFetch:
		// Class-level state; covered by the class-name resource.
	default:
		r.topRead(lhs, isSuper)
	}
}

// trailingPathLiteral extracts the rightmost string-literal component of
// an include path expression, exactly like the engine's resolver.
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

// Graph partitions a snapshot's files into dependency components.
type Graph struct {
	paths  []string // sorted
	index  map[string]int
	parent []int
}

// BuildGraph extracts every file's dependency surface and unions files
// that share a resource. Resources are keyed names — functions, methods,
// classes, globals — and a resource only links files when someone
// *declares* it (for globals: writes it); references to undeclared names
// resolve to built-ins or to nothing and carry no cross-file state.
// Method and class-constructor resources are name-only (class-agnostic),
// matching the engine's called-name inventory, which suppresses the
// uncalled-function pass by bare name. Include edges link the includer
// to every file its path literal *could* resolve to, because the
// engine's basename-suffix resolution scans the whole file list and must
// see the same candidates in any sub-scope.
func BuildGraph(files map[string]*phpast.File, isSuper func(string) bool) *Graph {
	g := &Graph{
		paths: make([]string, 0, len(files)),
		index: make(map[string]int, len(files)),
	}
	for p := range files {
		g.paths = append(g.paths, p)
	}
	sort.Strings(g.paths)
	g.parent = make([]int, len(g.paths))
	for i := range g.parent {
		g.parent[i] = i
		g.index[g.paths[i]] = i
	}

	if isSuper == nil {
		isSuper = func(string) bool { return false }
	}

	// A resource links its declarers to each other and its users to its
	// declarers, so every toucher of a declared resource is unioned with
	// its first declarer.
	refs := make([]*fileRefs, len(g.paths))
	first := make(map[resKey]int)
	for i, p := range g.paths {
		r := extractRefs(files[p], isSuper)
		refs[i] = r
		for k, u := range r.keys {
			if u&declares == 0 {
				continue
			}
			if d0, ok := first[k]; ok {
				g.union(d0, i)
			} else {
				first[k] = i
			}
		}
	}
	for i, r := range refs {
		for k, u := range r.keys {
			if u&uses == 0 {
				continue
			}
			if d0, ok := first[k]; ok {
				g.union(d0, i)
			}
		}
	}

	// Include edges: link each includer to every candidate resolution.
	for i, r := range refs {
		for _, lit := range r.includeLits {
			for _, j := range g.includeCandidates(g.paths[i], lit) {
				g.union(i, j)
			}
		}
	}

	return g
}

// includeCandidates returns the indices of every file an include literal
// could resolve to: the exact target-relative path, the path relative to
// the including file's directory, and every basename-suffix match — a
// superset containing the engine's actual resolution in any scan scope.
func (g *Graph) includeCandidates(fromFile, lit string) []int {
	var out []int
	if j, ok := g.index[lit]; ok {
		out = append(out, j)
	}
	if dir := dirOf(fromFile); dir != "" {
		if j, ok := g.index[dir+"/"+lit]; ok {
			out = append(out, j)
		}
	}
	for j, p := range g.paths {
		if strings.HasSuffix(p, "/"+lit) || p == lit {
			out = append(out, j)
		}
	}
	return out
}

// dirOf returns the directory part of a slash-separated path, or "".
func dirOf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return ""
}

// find is union-find root lookup with path compression.
func (g *Graph) find(i int) int {
	for g.parent[i] != i {
		g.parent[i] = g.parent[g.parent[i]]
		i = g.parent[i]
	}
	return i
}

// union merges the components of i and j.
func (g *Graph) union(i, j int) {
	ri, rj := g.find(i), g.find(j)
	if ri != rj {
		g.parent[rj] = ri
	}
}

// Components returns the dependency components as sorted path lists,
// ordered by their first member for determinism.
func (g *Graph) Components() [][]string {
	groups := make(map[int][]string)
	for i, p := range g.paths {
		root := g.find(i)
		groups[root] = append(groups[root], p)
	}
	out := make([][]string, 0, len(groups))
	for _, members := range groups {
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
