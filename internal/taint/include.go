package taint

import (
	"sort"
	"strings"
)

// IncludeResolver statically resolves include literals (see
// phpast.IncludeExpr.Literal) against one scan's file set. It is the
// one resolver both the engine and the incremental planner use: the
// engine follows an include to its first candidate, and the planner
// links the includer to all of them, because the basename-suffix
// matches depend on which files a scan holds.
type IncludeResolver struct {
	// paths is the scan's file paths, sorted.
	paths []string
	// byBase lists the indices into paths of each last path segment, in
	// path order. It is built on the first suffix lookup.
	byBase map[string][]int
}

// NewIncludeResolver returns a resolver over paths, which must be
// sorted. It keeps paths.
func NewIncludeResolver(paths []string) IncludeResolver {
	return IncludeResolver{paths: paths}
}

// Candidates calls fn with the index into the resolver's paths of every
// file the include literal lit, written in file from, could name, in
// resolution order: the path relative to the target root, the path
// relative to from's directory, then every path that ends in "/"+lit
// or is lit, in sorted order (plugin_dir_path(__FILE__) style). A
// candidate may repeat. It stops early when fn returns false.
func (r *IncludeResolver) Candidates(from, lit string, fn func(int) bool) {
	if lit == "" {
		return
	}
	if i, ok := r.find(lit); ok && !fn(i) {
		return
	}
	if dir := dirOf(from); dir != "" {
		if i, ok := r.find(dir + "/" + lit); ok && !fn(i) {
			return
		}
	}
	if r.byBase == nil {
		r.byBase = make(map[string][]int, len(r.paths))
		for i, p := range r.paths {
			b := baseOf(p)
			r.byBase[b] = append(r.byBase[b], i)
		}
	}
	// A path ending in "/"+lit ends in lit's last segment, so only the
	// paths with that segment can match.
	for _, i := range r.byBase[baseOf(lit)] {
		if p := r.paths[i]; (p == lit || strings.HasSuffix(p, "/"+lit)) && !fn(i) {
			return
		}
	}
}

// Resolve returns the file the include literal lit, written in file
// from, resolves to: its first candidate.
func (r *IncludeResolver) Resolve(from, lit string) (string, bool) {
	found := -1
	r.Candidates(from, lit, func(i int) bool {
		found = i
		return false
	})
	if found < 0 {
		return "", false
	}
	return r.paths[found], true
}

// find returns the index of path in the sorted paths.
func (r *IncludeResolver) find(path string) (int, bool) {
	i := sort.SearchStrings(r.paths, path)
	return i, i < len(r.paths) && r.paths[i] == path
}

// dirOf returns the directory part of a slash-separated path, or "".
func dirOf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return ""
}

// baseOf returns the last segment of a slash-separated path.
func baseOf(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}
