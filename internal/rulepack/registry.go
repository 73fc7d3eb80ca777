package rulepack

import (
	"embed"
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
)

//go:embed builtin/*.json
var builtinFS embed.FS

// Registry resolves pack names to packs and composes them into compiled
// configurations. A registry starts with the builtin packs; callers add
// file-loaded packs with Register/RegisterFile.
type Registry struct {
	packs map[string]*Pack
}

// NewRegistry returns a registry seeded with the builtin packs.
func NewRegistry() *Registry {
	r := &Registry{packs: make(map[string]*Pack, 8)}
	for _, p := range Builtins() {
		r.packs[p.Name] = p
	}
	return r
}

// builtins are loaded once; the embedded files are validated at init so
// a malformed builtin fails every test immediately.
var builtinPacks = loadBuiltins()

func loadBuiltins() []*Pack {
	entries, err := builtinFS.ReadDir("builtin")
	if err != nil {
		panic(fmt.Sprintf("rulepack: embedded builtins: %v", err))
	}
	packs := make([]*Pack, 0, len(entries))
	for _, e := range entries {
		data, err := builtinFS.ReadFile("builtin/" + e.Name())
		if err != nil {
			panic(fmt.Sprintf("rulepack: embedded %s: %v", e.Name(), err))
		}
		p, err := Load(data)
		if err != nil {
			panic(fmt.Sprintf("rulepack: embedded %s: %v", e.Name(), err))
		}
		packs = append(packs, p)
	}
	sort.Slice(packs, func(i, j int) bool { return packs[i].Name < packs[j].Name })
	return packs
}

// Builtins returns the embedded builtin packs, sorted by name.
func Builtins() []*Pack { return builtinPacks }

// Register adds a pack to the registry, shadowing any builtin or
// previously registered pack with the same name.
func (r *Registry) Register(p *Pack) { r.packs[p.Name] = p }

// RegisterFile loads a pack from disk and registers it, returning the
// loaded pack.
func (r *Registry) RegisterFile(path string) (*Pack, error) {
	p, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	r.Register(p)
	return p, nil
}

// Get returns a registered pack by name.
func (r *Registry) Get(name string) (*Pack, bool) {
	p, ok := r.packs[name]
	return p, ok
}

// Names lists the registered pack names, sorted.
func (r *Registry) Names() []string { return sortedNames(r.packs) }

// SplitSpec parses a comma-separated pack spec ("wordpress,security-extended")
// into trimmed, non-empty names.
func SplitSpec(spec string) []string {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Resolve composes the named packs — each with its transitive extends
// chain, depth first, bases before extenders, every pack applied once —
// into a single merged profile. The profile name records the resolved
// pack order, e.g. "packs:generic+wordpress".
func (r *Registry) Resolve(names ...string) (config.Profile, error) {
	var order []*Pack
	seen := make(map[string]bool, len(names)*2)
	onPath := make(map[string]bool, 4)

	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		if seen[name] {
			return nil
		}
		if onPath[name] {
			return fmt.Errorf("rulepack: extends cycle: %s", strings.Join(append(path, name), " -> "))
		}
		p, ok := r.packs[name]
		if !ok {
			return fmt.Errorf("rulepack: unknown pack %q (known packs: %s)",
				name, strings.Join(r.Names(), ", "))
		}
		onPath[name] = true
		for _, base := range p.Extends {
			if err := visit(base, append(path, name)); err != nil {
				return err
			}
		}
		delete(onPath, name)
		seen[name] = true
		order = append(order, p)
		return nil
	}
	if len(names) == 0 {
		return config.Profile{}, fmt.Errorf("rulepack: no packs named")
	}
	for _, name := range names {
		if err := visit(name, nil); err != nil {
			return config.Profile{}, err
		}
	}

	profiles := make([]config.Profile, len(order))
	labels := make([]string, len(order))
	for i, p := range order {
		profiles[i] = p.Profile()
		labels[i] = p.Name
	}
	return config.Merge("packs:"+strings.Join(labels, "+"), profiles...), nil
}

// Compile resolves the named packs and compiles the merged profile into
// the engines' lookup form.
func (r *Registry) Compile(names ...string) (*config.Compiled, error) {
	p, err := r.Resolve(names...)
	if err != nil {
		return nil, err
	}
	return config.Compile(p), nil
}

// MustCompile compiles the named builtin packs. The builtins are
// validated at init, so an error here is a programmer error (an unknown
// pack name) and panics.
func MustCompile(names ...string) *config.Compiled {
	cfg, err := NewRegistry().Compile(names...)
	if err != nil {
		panic(err)
	}
	return cfg
}
