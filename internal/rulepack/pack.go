// Package rulepack loads data-driven rule packs: JSON documents that
// declare the sources, sanitizers, reverts and sinks an analysis engine
// scans with, plus per-rule CWE and severity metadata. The embedded
// builtin packs (generic, wordpress, drupal, joomla, security-extended)
// are the only source of rule knowledge; users add packs of their own,
// and packs compose through an extends chain — the paper's §VI names
// Drupal and Joomla support as future work that should require "only"
// new configuration, which is exactly what a pack is.
//
// A pack resolves to a config.Profile and compiles into the
// config.Compiled lookups the engines scan with.
package rulepack

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/config"
)

// SchemaVersion is the pack schema this package reads and writes.
const SchemaVersion = 1

// Pack is one rule pack document, the unit of loading and composition.
type Pack struct {
	// SchemaVersion must equal SchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Name identifies the pack: lower-case letters, digits and dashes.
	Name string `json:"name"`
	// Description is a human-readable summary shown in pack listings.
	Description string `json:"description,omitempty"`
	// Extends lists pack names whose rules this pack builds on. Bases
	// must be resolvable from the registry the pack is resolved with.
	Extends []string `json:"extends,omitempty"`
	// Sources declare potentially malicious inputs.
	Sources []SourceRule `json:"sources,omitempty"`
	// Sanitizers declare filtering functions.
	Sanitizers []SanitizerRule `json:"sanitizers,omitempty"`
	// Reverts declare functions that undo sanitization (stripslashes).
	Reverts []string `json:"reverts,omitempty"`
	// Sinks declare sensitive output functions.
	Sinks []SinkRule `json:"sinks,omitempty"`
	// ObjectClasses maps global object variable names (without "$") to
	// class names, e.g. {"wpdb": "wpdb"}.
	ObjectClasses map[string]string `json:"object_classes,omitempty"`
}

// SourceRule declares one input vector.
type SourceRule struct {
	// ID optionally names the rule; defaults to a derived identifier.
	ID string `json:"id,omitempty"`
	// Kind is "superglobal", "function" or "method".
	Kind string `json:"kind"`
	// Name is the superglobal name without "$" or the function/method name.
	Name string `json:"name"`
	// Class is the receiver class for method rules.
	Class string `json:"class,omitempty"`
	// Vector is "get", "post", "cookie", "request", "db", "file" or "other".
	Vector string `json:"vector"`
	// Taints lists class slugs the data is dangerous for; empty = all.
	Taints []string `json:"taints,omitempty"`
}

// SanitizerRule declares one filtering function.
type SanitizerRule struct {
	// ID optionally names the rule; defaults to a derived identifier.
	ID string `json:"id,omitempty"`
	// Name is the function or method name.
	Name string `json:"name"`
	// Class is the receiver class for method sanitizers ($wpdb->prepare).
	Class string `json:"class,omitempty"`
	// Untaints lists class slugs the function protects; empty = all.
	Untaints []string `json:"untaints,omitempty"`
}

// SinkRule declares one sensitive output function.
type SinkRule struct {
	// ID optionally names the rule; defaults to a derived identifier.
	ID string `json:"id,omitempty"`
	// Name is the function or method name.
	Name string `json:"name"`
	// Class is the receiver class for method sinks ($wpdb->query).
	Class string `json:"class,omitempty"`
	// Vuln is the vulnerability class slug the sink is sensitive to.
	Vuln string `json:"vuln"`
	// Args lists 0-based sensitive argument positions; empty = all.
	Args []int `json:"args,omitempty"`
	// CWE overrides the class-default CWE identifier.
	CWE int `json:"cwe,omitempty"`
	// Severity overrides the class-default severity:
	// "low", "medium", "high" or "critical".
	Severity string `json:"severity,omitempty"`
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// vectors maps pack vector labels to the analyzer enumeration.
var vectors = map[string]analyzer.Vector{
	"get":     analyzer.VectorGET,
	"post":    analyzer.VectorPOST,
	"cookie":  analyzer.VectorCookie,
	"request": analyzer.VectorRequest,
	"db":      analyzer.VectorDB,
	"file":    analyzer.VectorFile,
	"other":   analyzer.VectorOther,
}

// sourceKinds maps pack source kind labels to the config enumeration.
var sourceKinds = map[string]config.SourceKind{
	"superglobal": config.SuperglobalSource,
	"function":    config.FunctionSource,
	"method":      config.MethodSource,
}

// severities are the accepted severity labels (besides empty = default).
var severities = map[string]bool{
	"low": true, "medium": true, "high": true, "critical": true,
}

// Load parses and validates one pack from JSON. Unknown fields, unknown
// kinds/vectors/class slugs, bad severities and duplicate rule IDs are
// all errors — a pack either loads fully understood or not at all.
func Load(data []byte) (*Pack, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Pack
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("rulepack: parse: %w", err)
	}
	// A second document in the stream is as suspicious as an unknown field.
	if dec.More() {
		return nil, fmt.Errorf("rulepack: trailing data after pack document")
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadFile loads and validates a pack from a file path.
func LoadFile(path string) (*Pack, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rulepack: %w", err)
	}
	p, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// validate checks the pack document for structural problems.
func (p *Pack) validate() error {
	if p.SchemaVersion != SchemaVersion {
		return fmt.Errorf("rulepack: unsupported schema_version %d (want %d)",
			p.SchemaVersion, SchemaVersion)
	}
	if !nameRE.MatchString(p.Name) {
		return fmt.Errorf("rulepack: invalid pack name %q (want lower-case letters, digits, dashes)", p.Name)
	}
	for _, base := range p.Extends {
		if !nameRE.MatchString(base) {
			return fmt.Errorf("rulepack %s: invalid extends entry %q", p.Name, base)
		}
		if base == p.Name {
			return fmt.Errorf("rulepack %s: pack extends itself", p.Name)
		}
	}
	ids := make(map[string]string, len(p.Sources)+len(p.Sanitizers)+len(p.Sinks))
	claim := func(id, what string) error {
		if prev, dup := ids[id]; dup {
			return fmt.Errorf("rulepack %s: duplicate rule id %q (%s and %s)", p.Name, id, prev, what)
		}
		ids[id] = what
		return nil
	}
	for i, s := range p.Sources {
		what := fmt.Sprintf("sources[%d]", i)
		if _, ok := sourceKinds[s.Kind]; !ok {
			return fmt.Errorf("rulepack %s: %s: unknown kind %q", p.Name, what, s.Kind)
		}
		if s.Name == "" {
			return fmt.Errorf("rulepack %s: %s: missing name", p.Name, what)
		}
		if _, ok := vectors[s.Vector]; !ok {
			return fmt.Errorf("rulepack %s: %s: unknown vector %q", p.Name, what, s.Vector)
		}
		if s.Class != "" && s.Kind != "method" {
			return fmt.Errorf("rulepack %s: %s: class %q on non-method source", p.Name, what, s.Class)
		}
		if _, err := classSlugs(s.Taints); err != nil {
			return fmt.Errorf("rulepack %s: %s: %w", p.Name, what, err)
		}
		if err := claim(s.ruleID(), what); err != nil {
			return err
		}
	}
	for i, s := range p.Sanitizers {
		what := fmt.Sprintf("sanitizers[%d]", i)
		if s.Name == "" {
			return fmt.Errorf("rulepack %s: %s: missing name", p.Name, what)
		}
		if _, err := classSlugs(s.Untaints); err != nil {
			return fmt.Errorf("rulepack %s: %s: %w", p.Name, what, err)
		}
		if err := claim(s.ruleID(), what); err != nil {
			return err
		}
	}
	for i, r := range p.Reverts {
		if r == "" {
			return fmt.Errorf("rulepack %s: reverts[%d]: empty name", p.Name, i)
		}
	}
	for i, s := range p.Sinks {
		what := fmt.Sprintf("sinks[%d]", i)
		if s.Name == "" {
			return fmt.Errorf("rulepack %s: %s: missing name", p.Name, what)
		}
		if _, ok := analyzer.ParseClassSlug(s.Vuln); !ok {
			return fmt.Errorf("rulepack %s: %s: unknown vulnerability class %q", p.Name, what, s.Vuln)
		}
		for _, a := range s.Args {
			if a < 0 {
				return fmt.Errorf("rulepack %s: %s: negative arg index %d", p.Name, what, a)
			}
		}
		if s.CWE < 0 {
			return fmt.Errorf("rulepack %s: %s: negative cwe", p.Name, what)
		}
		if s.Severity != "" && !severities[s.Severity] {
			return fmt.Errorf("rulepack %s: %s: unknown severity %q", p.Name, what, s.Severity)
		}
		if err := claim(s.ruleID(), what); err != nil {
			return err
		}
	}
	return nil
}

// ruleID returns the rule's explicit ID or a derived stable identifier.
func (s SourceRule) ruleID() string {
	if s.ID != "" {
		return s.ID
	}
	return strings.ToLower(fmt.Sprintf("source/%s/%s%s", s.Kind, prefixClass(s.Class), s.Name))
}

func (s SanitizerRule) ruleID() string {
	if s.ID != "" {
		return s.ID
	}
	return strings.ToLower(fmt.Sprintf("sanitizer/%s%s", prefixClass(s.Class), s.Name))
}

func (s SinkRule) ruleID() string {
	if s.ID != "" {
		return s.ID
	}
	return strings.ToLower(fmt.Sprintf("sink/%s/%s%s", s.Vuln, prefixClass(s.Class), s.Name))
}

func prefixClass(class string) string {
	if class == "" {
		return ""
	}
	return class + "::"
}

// classSlugs converts class slug labels to analyzer classes.
func classSlugs(slugs []string) ([]analyzer.VulnClass, error) {
	if len(slugs) == 0 {
		return nil, nil
	}
	out := make([]analyzer.VulnClass, 0, len(slugs))
	for _, slug := range slugs {
		c, ok := analyzer.ParseClassSlug(slug)
		if !ok {
			return nil, fmt.Errorf("unknown vulnerability class %q", slug)
		}
		out = append(out, c)
	}
	return out, nil
}

// Profile converts the pack body (ignoring extends) to a config.Profile.
// Validation has already run, so slug conversions cannot fail.
func (p *Pack) Profile() config.Profile {
	out := config.Profile{Name: p.Name}
	for _, s := range p.Sources {
		taints, _ := classSlugs(s.Taints)
		out.Sources = append(out.Sources, config.Source{
			Kind:   sourceKinds[s.Kind],
			Name:   s.Name,
			Class:  s.Class,
			Vector: vectors[s.Vector],
			Taints: taints,
		})
	}
	for _, s := range p.Sanitizers {
		untaints, _ := classSlugs(s.Untaints)
		out.Sanitizers = append(out.Sanitizers, config.Sanitizer{
			Name: s.Name, Class: s.Class, Untaints: untaints,
		})
	}
	out.Reverts = append(out.Reverts, p.Reverts...)
	for _, s := range p.Sinks {
		vuln, _ := analyzer.ParseClassSlug(s.Vuln)
		out.Sinks = append(out.Sinks, config.Sink{
			Name: s.Name, Class: s.Class, Vuln: vuln,
			Args: s.Args, CWE: s.CWE, Severity: s.Severity,
		})
	}
	if len(p.ObjectClasses) > 0 {
		out.ObjectClasses = make(map[string]string, len(p.ObjectClasses))
		for k, v := range p.ObjectClasses {
			out.ObjectClasses[k] = v
		}
	}
	return out
}

// RuleCount returns the number of rules the pack body declares.
func (p *Pack) RuleCount() int {
	return len(p.Sources) + len(p.Sanitizers) + len(p.Reverts) + len(p.Sinks)
}

// Marshal renders the pack as stable, indented JSON (keys in struct
// order, object_classes sorted by Go's map marshaling).
func (p *Pack) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sortedNames returns map keys in order, for deterministic listings.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
