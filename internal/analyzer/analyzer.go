// Package analyzer defines the common vocabulary shared by the three
// static analysis tools in this repository: phpSAFE (package taint) and
// the two comparison baselines RIPS (package rips) and Pixy (package pixy).
//
// The paper (DSN 2015, §IV) evaluates all tools over the same plugin
// corpus and normalizes their reports "into a single repository"; this
// package is that normalized report model.
package analyzer

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// VulnClass identifies a vulnerability class. The paper's phpSAFE detects
// Cross-Site Scripting and SQL Injection (§III).
type VulnClass int

// Vulnerability classes. XSS and SQLi are the paper's evaluated classes
// (§III); CmdInjection and FileInclusion extend the coverage along the
// paper's §VI future work ("improvement of phpSAFE, mainly regarding ...
// vulnerability coverage").
const (
	// XSS is Cross-Site Scripting: tainted data reaching an HTML output
	// sink.
	XSS VulnClass = iota + 1
	// SQLi is SQL Injection: tainted data reaching a query sink.
	SQLi
	// CmdInjection is OS command injection: tainted data reaching a
	// shell-execution sink (system, exec, backticks).
	CmdInjection
	// FileInclusion is local/remote file inclusion: tainted data used as
	// an include/require path.
	FileInclusion
	// CodeEval is dynamic code evaluation / remote code execution:
	// tainted data reaching an eval-like sink (assert, create_function).
	CodeEval
	// PathTraversal is directory traversal: tainted data used as a
	// filesystem path in a read/write/delete operation.
	PathTraversal
	// OpenRedirect is an open redirect: tainted data controlling a
	// Location header or redirect target.
	OpenRedirect
)

// Classes lists all vulnerability classes in display order.
func Classes() []VulnClass {
	return []VulnClass{XSS, SQLi, CmdInjection, FileInclusion, CodeEval, PathTraversal, OpenRedirect}
}

// String returns the conventional abbreviation.
func (c VulnClass) String() string {
	switch c {
	case XSS:
		return "XSS"
	case SQLi:
		return "SQLi"
	case CmdInjection:
		return "CMDi"
	case FileInclusion:
		return "LFI"
	case CodeEval:
		return "EVAL"
	case PathTraversal:
		return "TRAVERSAL"
	case OpenRedirect:
		return "REDIRECT"
	default:
		return fmt.Sprintf("VulnClass(%d)", int(c))
	}
}

// Slug returns the lower-case identifier used in rule packs and SARIF
// rule IDs.
func (c VulnClass) Slug() string {
	switch c {
	case XSS:
		return "xss"
	case SQLi:
		return "sqli"
	case CmdInjection:
		return "cmdi"
	case FileInclusion:
		return "lfi"
	case CodeEval:
		return "eval"
	case PathTraversal:
		return "traversal"
	case OpenRedirect:
		return "redirect"
	default:
		return fmt.Sprintf("class-%d", int(c))
	}
}

// ParseClassSlug resolves a rule-pack class slug to its VulnClass.
func ParseClassSlug(slug string) (VulnClass, bool) {
	for _, c := range Classes() {
		if c.Slug() == slug {
			return c, true
		}
	}
	return 0, false
}

// CWE returns the class's default CWE identifier (MITRE Common Weakness
// Enumeration); rule packs may override it per sink rule.
func (c VulnClass) CWE() int {
	switch c {
	case XSS:
		return 79
	case SQLi:
		return 89
	case CmdInjection:
		return 78
	case FileInclusion:
		return 98
	case CodeEval:
		return 95
	case PathTraversal:
		return 22
	case OpenRedirect:
		return 601
	default:
		return 0
	}
}

// Severity returns the class's default severity label ("medium",
// "high", "critical"); rule packs may override it per sink rule.
func (c VulnClass) Severity() string {
	switch c {
	case SQLi, CmdInjection, CodeEval, FileInclusion:
		return "critical"
	case XSS, PathTraversal:
		return "high"
	case OpenRedirect:
		return "medium"
	default:
		return "high"
	}
}

// Description returns the one-line rule description used in reports.
func (c VulnClass) Description() string {
	switch c {
	case XSS:
		return "Cross-Site Scripting: attacker data reaches an HTML output sink"
	case SQLi:
		return "SQL Injection: attacker data reaches a query sink"
	case CmdInjection:
		return "Command Injection: attacker data reaches a shell-execution sink"
	case FileInclusion:
		return "File Inclusion: attacker data used as an include path"
	case CodeEval:
		return "Code Injection: attacker data evaluated as PHP code"
	case PathTraversal:
		return "Path Traversal: attacker data used as a filesystem path"
	case OpenRedirect:
		return "Open Redirect: attacker data controls a redirect target"
	default:
		return "Tainted data reaches a sensitive sink"
	}
}

// Vector classifies where the malicious data enters the plugin. It matches
// the paper's Table II input-vector taxonomy (§V.C).
type Vector int

// Input vectors.
const (
	// VectorGET is direct manipulation through $_GET.
	VectorGET Vector = iota + 1
	// VectorPOST is direct manipulation through $_POST.
	VectorPOST
	// VectorCookie is manipulation through $_COOKIE.
	VectorCookie
	// VectorRequest is mixed GET/POST/COOKIE input ($_REQUEST).
	VectorRequest
	// VectorDB is data read back from the database (second-order).
	VectorDB
	// VectorFile is data read from files, functions or arrays — the
	// paper's "unlikely to be easily manipulated" class.
	VectorFile
	// VectorOther covers remaining indirect sources (environment, server
	// variables).
	VectorOther
)

// String returns a short vector name.
func (v Vector) String() string {
	switch v {
	case VectorGET:
		return "GET"
	case VectorPOST:
		return "POST"
	case VectorCookie:
		return "COOKIE"
	case VectorRequest:
		return "POST/GET/COOKIE"
	case VectorDB:
		return "DB"
	case VectorFile:
		return "File/Function/Array"
	case VectorOther:
		return "Other"
	default:
		return fmt.Sprintf("Vector(%d)", int(v))
	}
}

// TableIIRow maps the vector to the row label of the paper's Table II.
// COOKIE and REQUEST vectors share the "POST/GET/COOKIE" row; File and
// Other share "File/Function/Array".
func (v Vector) TableIIRow() string {
	switch v {
	case VectorGET:
		return "GET"
	case VectorPOST:
		return "POST"
	case VectorCookie, VectorRequest:
		return "POST/GET/COOKIE"
	case VectorDB:
		return "DB"
	default:
		return "File/Function/Array"
	}
}

// DirectlyManipulable reports whether an attacker controls the vector
// directly (the paper's root-cause class 1, §V.C): GET, POST and COOKIE
// input.
func (v Vector) DirectlyManipulable() bool {
	switch v {
	case VectorGET, VectorPOST, VectorCookie, VectorRequest:
		return true
	default:
		return false
	}
}

// TraceStep is one hop of a tainted data flow, from the source toward the
// sink. phpSAFE's results-processing stage exposes this flow "from
// variable to variable" (§III.D).
type TraceStep struct {
	// File is the source file of this hop.
	File string `json:"file"`
	// Line is the 1-based line of this hop.
	Line int `json:"line"`
	// Var is the variable (or property, or function return) holding the
	// tainted value at this hop.
	Var string `json:"var"`
	// Note describes the hop (e.g. "source $_GET", "assigned", "returned
	// from get_name", "sanitized by esc_html reverted by stripslashes").
	Note string `json:"note"`
}

// Finding is one reported vulnerability.
type Finding struct {
	// Tool is the reporting tool's name.
	Tool string `json:"tool"`
	// File is the path of the file containing the sink.
	File string `json:"file"`
	// Line is the sink's 1-based line.
	Line int `json:"line"`
	// Class is the vulnerability class.
	Class VulnClass `json:"class"`
	// Sink is the sink function or construct (echo, mysql_query, ...).
	Sink string `json:"sink"`
	// Variable is the vulnerable variable reaching the sink, when known.
	Variable string `json:"variable,omitempty"`
	// Vector is the input vector the taint entered through.
	Vector Vector `json:"vector"`
	// CWE is the finding's Common Weakness Enumeration identifier. Zero
	// means unset; readers should fall back to Class.CWE().
	CWE int `json:"cwe,omitempty"`
	// Severity is the finding's severity label ("medium", "high",
	// "critical"). Empty means unset; readers should fall back to
	// Class.Severity().
	Severity string `json:"severity,omitempty"`
	// Trace is the data-flow path from source to sink, oldest first.
	Trace []TraceStep `json:"trace,omitempty"`
}

// EffectiveCWE returns the finding's CWE, defaulting to the class CWE.
func (f Finding) EffectiveCWE() int {
	if f.CWE != 0 {
		return f.CWE
	}
	return f.Class.CWE()
}

// EffectiveSeverity returns the finding's severity, defaulting to the
// class severity.
func (f Finding) EffectiveSeverity() string {
	if f.Severity != "" {
		return f.Severity
	}
	return f.Class.Severity()
}

// Key returns a stable identity for deduplication: tools reporting the
// same sink location and class are reporting the same vulnerability.
func (f Finding) Key() string {
	return fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Class)
}

// String renders a one-line summary.
func (f Finding) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s] %s at %s:%d (sink %s", f.Class, f.Vector, f.File, f.Line, f.Sink)
	if f.Variable != "" {
		fmt.Fprintf(&sb, ", var $%s", f.Variable)
	}
	sb.WriteString(")")
	return sb.String()
}

// Result is the outcome of analyzing one target.
type Result struct {
	// Tool is the analyzer's name.
	Tool string `json:"tool"`
	// Target is the analyzed plugin's name.
	Target string `json:"target"`
	// Findings lists the reported vulnerabilities.
	Findings []Finding `json:"findings"`
	// FilesAnalyzed counts files the tool completed.
	FilesAnalyzed int `json:"files_analyzed"`
	// FilesFailed lists files the tool could not analyze (robustness,
	// paper §V.E).
	FilesFailed []string `json:"files_failed,omitempty"`
	// Errors lists error messages the tool raised while analyzing.
	Errors []string `json:"errors,omitempty"`
	// LinesAnalyzed counts source lines in completed files.
	LinesAnalyzed int `json:"lines_analyzed"`
	// Truncated marks a scan that stopped early because a resource
	// budget was exhausted. The findings gathered up to that point are
	// valid; completeness is not guaranteed.
	Truncated bool `json:"truncated,omitempty"`
	// TruncatedBy lists the exhausted budget dimensions ("deadline",
	// "steps", "findings", ...), first exhaustion first.
	TruncatedBy []string `json:"truncated_by,omitempty"`
	// RobustnessFailures lists files whose analysis panicked and was
	// isolated (crash-grade FilesFailed entries).
	RobustnessFailures []RobustnessFailure `json:"robustness_failures,omitempty"`
}

// MarkTruncated flags the result as truncated by the given dimension,
// keeping TruncatedBy duplicate-free.
func (r *Result) MarkTruncated(dim string) {
	r.Truncated = true
	for _, d := range r.TruncatedBy {
		if d == dim {
			return
		}
	}
	r.TruncatedBy = append(r.TruncatedBy, dim)
}

// Merge appends other's counters and findings into r.
func (r *Result) Merge(other *Result) {
	if other == nil {
		return
	}
	r.Findings = append(r.Findings, other.Findings...)
	r.FilesAnalyzed += other.FilesAnalyzed
	r.FilesFailed = append(r.FilesFailed, other.FilesFailed...)
	r.Errors = append(r.Errors, other.Errors...)
	r.LinesAnalyzed += other.LinesAnalyzed
	for _, dim := range other.TruncatedBy {
		r.MarkTruncated(dim)
	}
	if other.Truncated {
		r.Truncated = true
	}
	r.RobustnessFailures = append(r.RobustnessFailures, other.RobustnessFailures...)
}

// Dedup removes duplicate findings (same key), keeping the first
// occurrence, and sorts findings by file, line and class for stable
// output.
func (r *Result) Dedup() {
	seen := make(map[string]bool, len(r.Findings))
	out := r.Findings[:0]
	for _, f := range r.Findings {
		k := f.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	r.Findings = out
	sort.Slice(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Class < b.Class
	})
}

// SourceFile is one PHP file of a target.
type SourceFile struct {
	// Path is the file's path relative to the plugin root.
	Path string
	// Content is the PHP source text.
	Content string
	// Hash is the content's address (HashContent), set once at intake
	// by Target.HashFiles; the result cache key, the incremental
	// planner and the scan journal all read it. Empty means not yet
	// hashed.
	Hash string
}

// HashContent returns the hex SHA-256 of a file's content: the address
// under which the daemon caches, plans and journals it.
func HashContent(content string) string {
	sum := sha256.Sum256([]byte(content))
	return hex.EncodeToString(sum[:])
}

// Digest returns the file's content address: Hash when intake set it,
// otherwise computed from the content.
func (f *SourceFile) Digest() string {
	if f.Hash != "" {
		return f.Hash
	}
	return HashContent(f.Content)
}

// Target is one analyzable unit: a plugin with its files.
type Target struct {
	// Name identifies the plugin (e.g. "mail-subscribe-list").
	Name string
	// Files are the plugin's PHP files.
	Files []SourceFile
}

// HashFiles sets Hash on every file that lacks it, so each file's
// content is hashed once per process however many layers read its
// address.
func (t *Target) HashFiles() {
	for i := range t.Files {
		if t.Files[i].Hash == "" {
			t.Files[i].Hash = HashContent(t.Files[i].Content)
		}
	}
}

// Lines returns the total number of source lines across all files.
func (t *Target) Lines() int {
	total := 0
	for _, f := range t.Files {
		total += strings.Count(f.Content, "\n") + 1
	}
	return total
}

// File returns the file with the given path and whether it exists.
func (t *Target) File(path string) (SourceFile, bool) {
	for _, f := range t.Files {
		if f.Path == path {
			return f, true
		}
	}
	return SourceFile{}, false
}

// Analyzer is a static vulnerability analysis tool. The contract is
// context-first: every scan observes a context and resource budgets.
// Implementations must be safe for concurrent use by multiple
// goroutines on distinct targets.
//
// AnalyzeContext returns a non-nil partial Result whenever any file
// was processed, even alongside a non-nil error. Context cancellation
// (or expiry) is the only budget reported as an error — the returned
// error wraps ctx.Err() and the partial result is still valid. All
// other exhausted budgets degrade: the scan stops early, the Result
// carries Truncated/TruncatedBy, and the error is nil. Per-file
// problems are recorded in the Result, never returned as errors
// (robustness requirement, paper §IV.A).
type Analyzer interface {
	// Name returns the tool's display name.
	Name() string
	// AnalyzeContext scans one target under ctx and the given resource
	// budgets (nil opts means defaults).
	AnalyzeContext(ctx context.Context, t *Target, opts *ScanOptions) (*Result, error)
}
