package analyzer

import (
	"encoding/json"
	"fmt"
	"strings"
	"unicode/utf8"
)

// ValidUTF8 returns s with each byte that is not part of a valid UTF-8
// sequence replaced by U+FFFD, one rune per byte, which is the string
// a JSON encoding of s decodes to.
func ValidUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			b.WriteRune(utf8.RuneError)
		} else {
			b.WriteString(s[i : i+n])
		}
		i += n
	}
	return b.String()
}

// ToValidUTF8 returns r as a JSON round trip delivers it, every string
// made valid UTF-8 (see ValidUTF8): r itself when every string already
// is, otherwise a decoded copy. r is not modified. A server applies it
// to each engine result, so a daemon that ran the engine and one that
// received the result over the wire hold, render and journal the same
// bytes.
func (r *Result) ToValidUTF8() *Result {
	if r == nil || r.validUTF8() {
		return r
	}
	raw, err := json.Marshal(r)
	out := new(Result)
	if err != nil || json.Unmarshal(raw, out) != nil {
		return r
	}
	return out
}

// validUTF8 reports whether every string of r is valid UTF-8.
func (r *Result) validUTF8() bool {
	valid := func(ss ...string) bool {
		for _, s := range ss {
			if !utf8.ValidString(s) {
				return false
			}
		}
		return true
	}
	if !valid(r.Tool, r.Target) || !valid(r.FilesFailed...) || !valid(r.Errors...) || !valid(r.TruncatedBy...) {
		return false
	}
	for _, f := range r.Findings {
		if !valid(f.Tool, f.File, f.Sink, f.Variable, f.Severity) {
			return false
		}
		for _, st := range f.Trace {
			if !valid(st.File, st.Var, st.Note) {
				return false
			}
		}
	}
	for _, rf := range r.RobustnessFailures {
		if !valid(rf.File, rf.Reason) {
			return false
		}
	}
	return true
}

// MarshalJSON renders the class as its display name.
func (c VulnClass) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// UnmarshalJSON parses a class display name.
func (c *VulnClass) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for _, cand := range Classes() {
		if cand.String() == s {
			*c = cand
			return nil
		}
	}
	return fmt.Errorf("analyzer: unknown vulnerability class %q", s)
}

// MarshalJSON renders the vector as its display name.
func (v Vector) MarshalJSON() ([]byte, error) {
	return json.Marshal(v.String())
}

// UnmarshalJSON parses a vector display name.
func (v *Vector) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for _, cand := range []Vector{
		VectorGET, VectorPOST, VectorCookie, VectorRequest,
		VectorDB, VectorFile, VectorOther,
	} {
		if cand.String() == s {
			*v = cand
			return nil
		}
	}
	return fmt.Errorf("analyzer: unknown vector %q", s)
}
