package phpparse

import (
	"hash/maphash"
	"math/bits"
	"strings"

	"repro/internal/phpast"
)

// The parser records a file's facts (phpast.Facts) at the sites that
// build the nodes, so no consumer walks the tree for them: every node
// constructor counts, declarations append to one list, and every other
// fact is an entry of one journal — a name and the kind of fact it
// is. fillFacts folds the journal into the file's Facts at the end.

// Kinds of journal entries. All but factInclude are bits, so a name's
// kinds fold into one mask.
const (
	factCall        uint8 = 1 << iota // Facts.CalledFuncs
	factMethod                        // Facts.CalledMethods
	factConstructed                   // Facts.Constructed
	factClassRef                      // Facts.ClassRefs
	factCallback                      // Facts.Callbacks
	factRead                          // a read of the global
	factWrite                         // a write of the global
	factInclude                       // Facts.Includes, kept in order
)

// nameKinds is the number of name lists, selected by the mask bits
// below factRead.
const nameKinds = 5

// fact is one journal entry.
type fact struct {
	kind uint8
	name string
}

// counted counts the node n, built outside the slabs, and returns it.
func counted[T any](p *parser, n *T) *T {
	p.nodes++
	return n
}

// factsMark is how much a parse had recorded at one point.
type factsMark struct{ nodes, decls, journal int }

// markFacts returns how much the parse has recorded so far.
func (p *parser) markFacts() factsMark {
	return factsMark{p.nodes, len(p.decls), len(p.journal)}
}

// dropFacts forgets what the parse recorded since m, for a parser that
// discards everything it built since then. Facts are recorded in parse
// order, so those are the lists' tails.
func (p *parser) dropFacts(m factsMark) {
	p.nodes = m.nodes
	clear(p.decls[m.decls:])
	p.decls = p.decls[:m.decls]
	clear(p.journal[m.journal:])
	p.journal = p.journal[:m.journal]
}

// note adds a journal entry.
func (p *parser) note(kind uint8, name string) {
	p.journal = append(p.journal, fact{kind, name})
}

// noteDecl records a named function or class declaration; those nested
// in another declaration are not listed.
func (p *parser) noteDecl(d phpast.Stmt, name string) {
	if p.declDepth == 0 && name != "" {
		p.decls = append(p.decls, d)
	}
}

// enterDecl and leaveDecl bracket the parse of a function or class
// declaration: nothing declared inside one is listed in the facts, and
// its variables are not the global scope's.
func (p *parser) enterDecl() { p.declDepth++; p.scopes++ }
func (p *parser) leaveDecl() { p.declDepth--; p.scopes-- }

// noteGlobal records a touch of the global variable name.
func (p *parser) noteGlobal(name string, kind uint8) {
	if name != "" {
		p.note(kind, name)
	}
}

// noteVar records a variable node: at the top level it reads the
// global of that name.
func (p *parser) noteVar(name string) {
	if p.scopes == 0 {
		p.noteGlobal(name, factRead)
	}
}

// noteStore records a store into lhs. At the top level a stored
// variable is written (and read: see phpast.GlobalRef), an element
// store writes its container, and a list writes each target; the
// variables lhs reads were recorded when its nodes were built.
func (p *parser) noteStore(lhs phpast.Expr) {
	if p.scopes > 0 {
		return
	}
	for {
		switch t := lhs.(type) {
		case *phpast.Var:
			p.noteGlobal(t.Name, factRead|factWrite)
		case *phpast.IndexFetch:
			lhs = t.Base
			continue
		case *phpast.ListExpr:
			for _, target := range t.Targets {
				p.noteStore(target)
			}
		}
		return
	}
}

// indexFetch records an element fetch: $GLOBALS['name'] reads and
// writes that global directly, in any scope.
func (p *parser) indexFetch(x *phpast.IndexFetch) *phpast.IndexFetch {
	if base, ok := x.Base.(*phpast.Var); ok && base.Name == "GLOBALS" {
		if key, ok := x.Index.(*phpast.Literal); ok && key.Kind == phpast.LitString {
			p.noteGlobal(key.Value, factRead|factWrite)
		}
	}
	return x
}

// noteCall records a direct call to name with args, and the function
// a string-callable dispatcher names by a literal first argument.
func (p *parser) noteCall(name string, args []phpast.Arg) {
	if name == "" {
		return
	}
	p.note(factCall, name)
	switch name {
	case "call_user_func", "call_user_func_array", "array_map":
		if len(args) > 0 {
			if lit, ok := args[0].Value.(*phpast.Literal); ok && lit.Kind == phpast.LitString && lit.Value != "" {
				p.note(factCallback, strings.ToLower(lit.Value))
			}
		}
	}
}

// noteNew records new class: PHP 4 constructors make it a call of the
// function and the method named class as well as of __construct.
func (p *parser) noteNew(class string) {
	if class != "" {
		p.note(factCall|factConstructed, class)
		p.note(factMethod, "__construct")
	}
}

// noteClassRef records a static reference to class.
func (p *parser) noteClassRef(class string) {
	if class != "" {
		p.note(factClassRef, class)
	}
}

// factSeed seeds the hash fillFacts deduplicates names by. The order
// of the lists does not depend on it.
var factSeed = maphash.MakeSeed()

// fillFacts folds what the parse recorded into f and empties the
// scratch lists. A name list holds each name once, in the order the
// parse first recorded it: fillFacts gathers each name's kinds in one
// entry of p.distinct, found through an open-addressed table of
// indices sized from the journal, then cuts the lists at exact length.
func (p *parser) fillFacts(f *phpast.Facts) {
	f.Nodes = p.nodes

	funcs := 0
	for _, d := range p.decls {
		if _, ok := d.(*phpast.FuncDecl); ok {
			funcs++
		}
	}
	if funcs > 0 {
		f.Funcs = make([]*phpast.FuncDecl, 0, funcs)
	}
	if n := len(p.decls) - funcs; n > 0 {
		f.Classes = make([]*phpast.ClassDecl, 0, n)
	}
	for _, d := range p.decls {
		switch d := d.(type) {
		case *phpast.FuncDecl:
			f.Funcs = append(f.Funcs, d)
		case *phpast.ClassDecl:
			f.Classes = append(f.Classes, d)
		}
	}

	size := 1 << bits.Len(uint(2*len(p.journal)))
	if cap(p.table) < size {
		p.table = make([]int32, size)
	} else {
		p.table = p.table[:size]
		clear(p.table)
	}
	mask := size - 1
	includes := 0
	for _, e := range p.journal {
		if e.kind == factInclude {
			// An include without a literal reserved its slot too.
			if e.name != "" {
				includes++
			}
			continue
		}
		for h := int(maphash.String(factSeed, e.name)) & mask; ; h = (h + 1) & mask {
			i := p.table[h]
			if i == 0 {
				p.distinct = append(p.distinct, e)
				p.table[h] = int32(len(p.distinct))
				break
			}
			if d := &p.distinct[i-1]; d.name == e.name {
				d.kind |= e.kind
				break
			}
		}
	}

	var counts [nameKinds]int
	globals := 0
	for _, d := range p.distinct {
		for k := d.kind & (1<<nameKinds - 1); k != 0; k &= k - 1 {
			counts[bits.TrailingZeros8(k)]++
		}
		if d.kind&(factRead|factWrite) != 0 {
			globals++
		}
	}
	var names [nameKinds][]string
	for k, n := range counts {
		if n > 0 {
			names[k] = make([]string, 0, n)
		}
	}
	if globals > 0 {
		f.Globals = make([]phpast.GlobalRef, 0, globals)
	}
	for _, d := range p.distinct {
		for k := d.kind & (1<<nameKinds - 1); k != 0; k &= k - 1 {
			i := bits.TrailingZeros8(k)
			names[i] = append(names[i], d.name)
		}
		if d.kind&(factRead|factWrite) != 0 {
			f.Globals = append(f.Globals, phpast.GlobalRef{Name: d.name, Read: d.kind&factRead != 0, Write: d.kind&factWrite != 0})
		}
	}
	f.CalledFuncs, f.CalledMethods, f.Constructed, f.ClassRefs, f.Callbacks =
		names[0], names[1], names[2], names[3], names[4]

	if includes > 0 {
		f.Includes = make([]string, 0, includes)
		for _, e := range p.journal {
			if e.kind == factInclude && e.name != "" {
				f.Includes = append(f.Includes, e.name)
			}
		}
	}

	clear(p.decls)
	p.decls = p.decls[:0]
	clear(p.journal)
	p.journal = p.journal[:0]
	clear(p.distinct)
	p.distinct = p.distinct[:0]
}
