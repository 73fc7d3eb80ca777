package taint

import (
	"fmt"
	"sort"

	"repro/internal/analyzer"
)

// ModelInfo is the inspectable output of the model-construction stage —
// the paper's results-processing resources beyond the findings themselves
// (§III.D: "variables, functions, PHP files included, tokens ... can be
// very useful in helping security practitioners").
type ModelInfo struct {
	// Functions lists the plugin's user-defined functions.
	Functions []FunctionInfo
	// Classes lists the plugin's class declarations.
	Classes []ClassInfo
	// Includes lists the statically resolved include edges.
	Includes []IncludeEdge
	// ParseErrors aggregates recoverable parse problems per file.
	ParseErrors []string
}

// FunctionInfo describes one user-defined function.
type FunctionInfo struct {
	// Name is the lower-case function name.
	Name string
	// File and Line locate the declaration.
	File string
	Line int
	// Params is the parameter count.
	Params int
	// Called reports whether plugin code calls the function. Uncalled
	// functions are typically CMS hook callbacks and are exactly the
	// ones a plugin analyzer must still analyze (§III.B).
	Called bool
}

// ClassInfo describes one class declaration.
type ClassInfo struct {
	// Name is the lower-case class name; Extends its parent or "".
	Name    string
	Extends string
	// File and Line locate the declaration.
	File string
	Line int
	// Props is the number of declared properties.
	Props int
	// Methods lists the class's methods.
	Methods []MethodInfoSummary
}

// MethodInfoSummary describes one method of a class.
type MethodInfoSummary struct {
	// Name is the lower-case method name.
	Name string
	// Line is the declaration line.
	Line int
	// Called reports whether plugin code calls a method of this name.
	Called bool
	// Static marks static methods.
	Static bool
}

// IncludeEdge is one statically resolved include/require relation.
type IncludeEdge struct {
	// From is the including file, To the resolved target.
	From string
	To   string
}

// Model builds the model-construction inventory for a target without
// running the taint analysis.
func (e *Engine) Model(target *analyzer.Target) (*ModelInfo, error) {
	if target == nil {
		return nil, fmt.Errorf("taint: nil target")
	}
	a := newAnalysis(e, target)
	a.buildModel(nil, nil)
	return a.modelInfo(), nil
}

// modelInfo renders the inventory of the model buildModel linked.
func (a *analysis) modelInfo() *ModelInfo {
	info := &ModelInfo{}

	names := make([]string, 0, len(a.funcs))
	for name := range a.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fi := a.funcs[name]
		info.Functions = append(info.Functions, FunctionInfo{
			Name:   name,
			File:   fi.file,
			Line:   fi.decl.Pos(),
			Params: len(fi.decl.Params),
			Called: a.calledFuncs[name],
		})
	}

	classNames := make([]string, 0, len(a.classes))
	for name := range a.classes {
		classNames = append(classNames, name)
	}
	sort.Strings(classNames)
	for _, name := range classNames {
		ci := a.classes[name]
		entry := ClassInfo{
			Name:    name,
			Extends: ci.decl.Extends,
			File:    ci.file,
			Line:    ci.decl.Pos(),
			Props:   len(ci.decl.Props),
		}
		methodNames := make([]string, 0, len(ci.methods))
		for mn := range ci.methods {
			methodNames = append(methodNames, mn)
		}
		sort.Strings(methodNames)
		for _, mn := range methodNames {
			mi := ci.methods[mn]
			entry.Methods = append(entry.Methods, MethodInfoSummary{
				Name:   mn,
				Line:   mi.decl.Line,
				Called: a.calledMethods[mn],
				Static: mi.decl.Static,
			})
		}
		info.Classes = append(info.Classes, entry)
	}

	for _, path := range a.fileOrder {
		f := a.files[path]
		for _, e := range f.Errors {
			info.ParseErrors = append(info.ParseErrors, path+": "+e)
		}
		for _, lit := range f.Facts().Includes {
			if to, resolved := a.includes.Resolve(path, lit); resolved {
				info.Includes = append(info.Includes, IncludeEdge{From: path, To: to})
			}
		}
	}
	return info
}

// Uncalled returns the functions never called from plugin code, the set
// the paper's uncalled-function pass analyzes first (§III.C).
func (m *ModelInfo) Uncalled() []FunctionInfo {
	out := make([]FunctionInfo, 0, len(m.Functions))
	for _, f := range m.Functions {
		if !f.Called {
			out = append(out, f)
		}
	}
	return out
}

// Class returns a class entry by lower-case name.
func (m *ModelInfo) Class(name string) (ClassInfo, bool) {
	for _, c := range m.Classes {
		if c.Name == name {
			return c, true
		}
	}
	return ClassInfo{}, false
}
