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

	"repro/internal/phpast"
	"repro/internal/taint"
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

// Graph partitions a snapshot's files into dependency components.
type Graph struct {
	paths  []string // sorted
	parent []int
}

// BuildGraph unions files that share a resource, reading each file's
// dependency surface from the facts its parse recorded (phpast.Facts),
// so a warm scan's cached ASTs bring their surfaces with them and the
// graph walks no AST. Resources are keyed names — functions, methods,
// classes, globals — and a resource only links files when someone
// *declares* it (for globals: writes it); references to undeclared names
// resolve to built-ins or to nothing and carry no cross-file state.
// Method and class-constructor resources are name-only (class-agnostic),
// matching the engine's called-name inventory, which suppresses the
// uncalled-function pass by bare name. isSuper filters the engine's
// configured superglobals out of the global-variable edges: superglobal
// reads mint fresh taint and writes are discarded, so they carry no
// state between files. Include edges link the includer to every
// candidate resolution (taint.IncludeResolver), because the engine's
// basename-suffix resolution scans the whole file list and must see the
// same candidates in any sub-scope.
func BuildGraph(files map[string]*phpast.File, isSuper func(string) bool) *Graph {
	g := &Graph{paths: make([]string, 0, len(files))}
	for p := range files {
		g.paths = append(g.paths, p)
	}
	sort.Strings(g.paths)
	g.parent = make([]int, len(g.paths))
	for i := range g.parent {
		g.parent[i] = i
	}
	if isSuper == nil {
		isSuper = func(string) bool { return false }
	}
	facts := make([]*phpast.Facts, len(g.paths))
	for i, p := range g.paths {
		facts[i] = files[p].Facts()
	}

	// A resource links its declarers to each other and its users to its
	// declarers, so every toucher of a declared resource is unioned with
	// its first declarer. Declarations nested inside other declarations
	// are invisible to the engine's inventory, and so to the facts.
	first := make(map[resKey]int)
	for i, f := range facts {
		declare := func(kind resKind, name string) {
			k := resKey{kind, name}
			if d0, ok := first[k]; ok {
				g.union(d0, i)
			} else {
				first[k] = i
			}
		}
		for _, d := range f.Funcs {
			declare(resFunc, d.Name)
		}
		for _, d := range f.Classes {
			declare(resClass, d.Name)
			for j := range d.Methods {
				if mn := d.Methods[j].Name; mn != "" {
					declare(resMethod, mn)
				}
			}
		}
		for _, gl := range f.Globals {
			if gl.Write && !isSuper(gl.Name) {
				declare(resGlobal, gl.Name)
			}
		}
	}
	for i, f := range facts {
		use := func(kind resKind, name string) {
			if d0, ok := first[resKey{kind, name}]; ok {
				g.union(d0, i)
			}
		}
		for _, d := range f.Classes {
			if d.Extends != "" {
				use(resClass, d.Extends)
			}
			for _, impl := range d.Implements {
				use(resClass, impl)
			}
		}
		// Name references, everywhere in the file (function and method
		// bodies included), mirror the engine's call-site inventory plus
		// the name resolutions its evaluator performs: string-callable
		// dispatch, and "new foo", which may run a PHP 4 constructor
		// method named foo.
		for _, name := range f.CalledFuncs {
			use(resFunc, name)
		}
		for _, name := range f.Callbacks {
			use(resFunc, name)
		}
		for _, name := range f.CalledMethods {
			if name != "" {
				use(resMethod, name)
			}
		}
		for _, name := range f.Constructed {
			use(resClass, name)
			use(resMethod, name)
		}
		for _, name := range f.ClassRefs {
			use(resClass, name)
		}
		for _, gl := range f.Globals {
			if gl.Read && !isSuper(gl.Name) {
				use(resGlobal, gl.Name)
			}
		}
	}

	// Include edges: link each includer to every candidate resolution.
	includes := taint.NewIncludeResolver(g.paths)
	for i, f := range facts {
		for _, lit := range f.Includes {
			includes.Candidates(g.paths[i], lit, func(j int) bool {
				g.union(i, j)
				return true
			})
		}
	}
	return g
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
