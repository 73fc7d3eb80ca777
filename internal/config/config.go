// Package config models phpSAFE's configuration stage (DSN 2015, §III.A).
//
// phpSAFE ships three configuration files — class-vulnerable-input.php,
// class-vulnerable-filter.php and class-vulnerable_output.php — holding the
// potentially malicious sources, the sanitization/revert functions, and the
// sensitive output sinks, for generic PHP and for the WordPress framework.
// This package holds the types those rules load into: declarative Profile
// values plus a Compiled form with constant-time lookups used by the
// analysis engines. The rules themselves live in the JSON rule packs of
// package rulepack, which resolve to a Profile.
//
// Profiles compose: the wordpress pack extends the generic PHP pack, and
// callers can extend further for other CMSs (the paper's §VI names
// Drupal and Joomla as future work; see examples/custom-cms).
package config

import (
	"strings"

	"repro/internal/analyzer"
)

// SourceKind distinguishes how a source is referenced in code.
type SourceKind int

// Source kinds.
const (
	// SuperglobalSource is a PHP superglobal array such as $_GET.
	SuperglobalSource SourceKind = iota + 1
	// FunctionSource is a function whose return value is attacker
	// influenced (e.g. file_get_contents, mysql_fetch_assoc).
	FunctionSource
	// MethodSource is a method whose return value is attacker influenced
	// (e.g. $wpdb->get_results).
	MethodSource
)

// Source declares one potentially malicious input vector
// (class-vulnerable-input.php).
type Source struct {
	// Kind is how the source appears in code.
	Kind SourceKind
	// Name is the superglobal name without "$" (e.g. "_GET") or the
	// lower-case function/method name.
	Name string
	// Class is the lower-case class name for MethodSource entries; empty
	// matches any receiver whose class is unknown.
	Class string
	// Vector is the input-vector classification of data from this source.
	Vector analyzer.Vector
	// Taints lists the vulnerability classes the data is dangerous for;
	// empty means all classes.
	Taints []analyzer.VulnClass
}

// Sanitizer declares one filtering function
// (class-vulnerable-filter.php). A sanitizer's return value is safe for
// the listed vulnerability classes.
type Sanitizer struct {
	// Name is the lower-case function or method name.
	Name string
	// Class is the lower-case class name for method sanitizers
	// ($wpdb->prepare); empty for plain functions.
	Class string
	// Untaints lists the classes the function protects against; empty
	// means all classes.
	Untaints []analyzer.VulnClass
}

// Sink declares one sensitive output function
// (class-vulnerable_output.php). Language constructs (echo, print) are
// handled natively by the engines and need no entry here.
type Sink struct {
	// Name is the lower-case function or method name.
	Name string
	// Class is the lower-case class name for method sinks ($wpdb->query);
	// empty for plain functions.
	Class string
	// Vuln is the vulnerability class the sink is sensitive to.
	Vuln analyzer.VulnClass
	// Args lists the 0-based sensitive argument positions; empty means
	// every argument.
	Args []int
	// CWE is the rule's Common Weakness Enumeration identifier; zero
	// means the class default (Vuln.CWE()), filled in by Compile.
	CWE int
	// Severity is the rule's severity label; empty means the class
	// default (Vuln.Severity()), filled in by Compile.
	Severity string
}

// Profile is one named configuration layer.
type Profile struct {
	// Name identifies the profile (e.g. "packs:generic+wordpress").
	Name string
	// Sources are the profile's input vectors.
	Sources []Source
	// Sanitizers are the profile's filtering functions.
	Sanitizers []Sanitizer
	// Reverts are lower-case names of functions that undo sanitization
	// (e.g. stripslashes), re-enabling an attack (§III.A).
	Reverts []string
	// Sinks are the profile's sensitive output functions.
	Sinks []Sink
	// ObjectClasses maps well-known global object variable names (without
	// "$") to their lower-case class names, letting the engine resolve
	// methods on framework globals such as $wpdb.
	ObjectClasses map[string]string
}

// Merge combines profiles left to right into one profile. Later profiles
// extend earlier ones; entries are concatenated (lookups tolerate
// duplicates) and object-class bindings of later profiles win.
func Merge(name string, profiles ...Profile) Profile {
	out := Profile{Name: name, ObjectClasses: make(map[string]string)}
	for _, p := range profiles {
		out.Sources = append(out.Sources, p.Sources...)
		out.Sanitizers = append(out.Sanitizers, p.Sanitizers...)
		out.Reverts = append(out.Reverts, p.Reverts...)
		out.Sinks = append(out.Sinks, p.Sinks...)
		for k, v := range p.ObjectClasses {
			out.ObjectClasses[k] = v
		}
	}
	return out
}

// allClasses is the expansion of an empty Taints/Untaints list.
var allClasses = analyzer.Classes()

// classesOrAll returns the given classes, or all classes when empty.
func classesOrAll(cs []analyzer.VulnClass) []analyzer.VulnClass {
	if len(cs) == 0 {
		return allClasses
	}
	return cs
}

// Compiled is a Profile preprocessed for constant-time lookup. It is
// immutable after Compile and safe for concurrent use.
type Compiled struct {
	profile Profile

	superglobals map[string]Source
	funcSources  map[string]Source
	// methodSources is keyed by "class::name"; class may be empty for
	// wildcard entries.
	methodSources map[string]Source

	funcSanitizers   map[string][]analyzer.VulnClass
	methodSanitizers map[string][]analyzer.VulnClass

	reverts map[string]bool

	funcSinks   map[string][]Sink
	methodSinks map[string][]Sink

	objectClasses map[string]string

	digest string
}

// Compile preprocesses a profile.
func Compile(p Profile) *Compiled {
	c := &Compiled{
		profile:          p,
		superglobals:     make(map[string]Source),
		funcSources:      make(map[string]Source),
		methodSources:    make(map[string]Source),
		funcSanitizers:   make(map[string][]analyzer.VulnClass),
		methodSanitizers: make(map[string][]analyzer.VulnClass),
		reverts:          make(map[string]bool, len(p.Reverts)),
		funcSinks:        make(map[string][]Sink),
		methodSinks:      make(map[string][]Sink),
		objectClasses:    make(map[string]string, len(p.ObjectClasses)),
	}
	for _, s := range p.Sources {
		switch s.Kind {
		case SuperglobalSource:
			c.superglobals[s.Name] = s
		case FunctionSource:
			c.funcSources[strings.ToLower(s.Name)] = s
		case MethodSource:
			c.methodSources[methodKey(s.Class, s.Name)] = s
		}
	}
	for _, s := range p.Sanitizers {
		classes := classesOrAll(s.Untaints)
		if s.Class == "" {
			name := strings.ToLower(s.Name)
			c.funcSanitizers[name] = unionClasses(c.funcSanitizers[name], classes)
		} else {
			k := methodKey(s.Class, s.Name)
			c.methodSanitizers[k] = unionClasses(c.methodSanitizers[k], classes)
		}
	}
	for _, r := range p.Reverts {
		c.reverts[strings.ToLower(r)] = true
	}
	for _, s := range p.Sinks {
		if s.CWE == 0 {
			s.CWE = s.Vuln.CWE()
		}
		if s.Severity == "" {
			s.Severity = s.Vuln.Severity()
		}
		if s.Class == "" {
			name := strings.ToLower(s.Name)
			c.funcSinks[name] = append(c.funcSinks[name], s)
		} else {
			k := methodKey(s.Class, s.Name)
			c.methodSinks[k] = append(c.methodSinks[k], s)
		}
	}
	for k, v := range p.ObjectClasses {
		c.objectClasses[k] = strings.ToLower(v)
	}
	c.digest = profileDigest(p)
	return c
}

// unionClasses merges two sanitizer class lists, preserving first-seen
// order. Duplicate sanitizer entries (a layered profile re-declaring a
// function for additional classes) widen what the function protects
// against rather than overwriting it.
func unionClasses(have, add []analyzer.VulnClass) []analyzer.VulnClass {
	if len(have) == 0 {
		return add
	}
	out := have
	copied := false
	for _, c := range add {
		seen := false
		for _, h := range out {
			if h == c {
				seen = true
				break
			}
		}
		if !seen {
			if !copied {
				// Profiles share class-list slices between entries; never
				// append into a caller-owned backing array.
				out = append(append([]analyzer.VulnClass(nil), out...), c)
				copied = true
			} else {
				out = append(out, c)
			}
		}
	}
	return out
}

// methodKey builds the lookup key for class-qualified names.
func methodKey(class, name string) string {
	return strings.ToLower(class) + "::" + strings.ToLower(name)
}

// Name returns the underlying profile name.
func (c *Compiled) Name() string { return c.profile.Name }

// Superglobal looks up a superglobal source by name (without "$").
func (c *Compiled) Superglobal(name string) (Source, bool) {
	s, ok := c.superglobals[name]
	return s, ok
}

// FunctionSource looks up a function source by lower-case name.
func (c *Compiled) FunctionSource(name string) (Source, bool) {
	s, ok := c.funcSources[name]
	return s, ok
}

// MethodSource looks up a method source. An exact class match is
// preferred; an empty-class wildcard entry matches any class, and an
// unknown receiver class ("") matches both wildcard entries and any
// class-qualified entry with the same method name.
func (c *Compiled) MethodSource(class, name string) (Source, bool) {
	if s, ok := c.methodSources[methodKey(class, name)]; ok {
		return s, ok
	}
	if class != "" {
		s, ok := c.methodSources[methodKey("", name)]
		return s, ok
	}
	// Unknown receiver: match any class with this method name.
	for k, s := range c.methodSources {
		if strings.HasSuffix(k, "::"+strings.ToLower(name)) {
			return s, true
		}
	}
	return Source{}, false
}

// FunctionSanitizer returns the classes a function sanitizes.
func (c *Compiled) FunctionSanitizer(name string) ([]analyzer.VulnClass, bool) {
	cs, ok := c.funcSanitizers[name]
	return cs, ok
}

// MethodSanitizer returns the classes a method sanitizes, with the same
// matching rules as MethodSource.
func (c *Compiled) MethodSanitizer(class, name string) ([]analyzer.VulnClass, bool) {
	if cs, ok := c.methodSanitizers[methodKey(class, name)]; ok {
		return cs, ok
	}
	if class != "" {
		cs, ok := c.methodSanitizers[methodKey("", name)]
		return cs, ok
	}
	for k, cs := range c.methodSanitizers {
		if strings.HasSuffix(k, "::"+strings.ToLower(name)) {
			return cs, true
		}
	}
	return nil, false
}

// Revert reports whether the function undoes sanitization.
func (c *Compiled) Revert(name string) bool { return c.reverts[name] }

// FunctionSinks returns the sink declarations for a function name.
func (c *Compiled) FunctionSinks(name string) []Sink { return c.funcSinks[name] }

// MethodSinks returns the sink declarations for a method, with the same
// matching rules as MethodSource.
func (c *Compiled) MethodSinks(class, name string) []Sink {
	if sinks, ok := c.methodSinks[methodKey(class, name)]; ok {
		return sinks
	}
	if class != "" {
		return c.methodSinks[methodKey("", name)]
	}
	for k, sinks := range c.methodSinks {
		if strings.HasSuffix(k, "::"+strings.ToLower(name)) {
			return sinks
		}
	}
	return nil
}

// ObjectClass returns the configured class of a well-known global object
// variable (e.g. "wpdb" → "wpdb").
func (c *Compiled) ObjectClass(varName string) (string, bool) {
	cls, ok := c.objectClasses[varName]
	return cls, ok
}

// SinkSensitiveArg reports whether argument position i is sensitive for
// the sink declaration.
func SinkSensitiveArg(s Sink, i int) bool {
	if len(s.Args) == 0 {
		return true
	}
	for _, a := range s.Args {
		if a == i {
			return true
		}
	}
	return false
}
