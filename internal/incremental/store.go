package incremental

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/phpast"
	"repro/internal/taint"
)

// Capacity bounds for the in-memory maps. Insertions beyond a bound are
// simply not retained (content addressing makes dropping an entry
// always safe — the next scan recomputes it), which keeps a long-lived
// daemon's memory flat without LRU bookkeeping on the scan hot path.
const (
	maxMemoryASTs      = 8192
	maxMemoryArtifacts = 16384
)

// Artifact is one file's recorded analysis outcome, addressed by the
// content of its whole dependency component.
type Artifact struct {
	// Path is the file's target-relative path.
	Path string `json:"path"`
	// FileHash is the SHA-256 of the file's content.
	FileHash string `json:"file_hash"`
	// ComponentHash identifies the dependency component (fingerprint +
	// every member path and content hash) this outcome is valid for.
	ComponentHash string `json:"component_hash"`
	// AnalysisSeconds is the file's share of its scan's analysis time,
	// used to report time saved by reuse.
	AnalysisSeconds float64 `json:"analysis_seconds"`
	// Result is the replayable per-file outcome.
	Result *taint.FileResult `json:"result"`
}

// Store is the content-addressed artifact store: parsed ASTs keyed by
// (path, content hash, parse depth) and per-file analysis artifacts
// keyed by their component closure. It is safe for concurrent use.
// With a directory it persists artifacts as JSON (one file per key) and
// survives restarts; ASTs are memory-only. The recorder (which may be
// nil) receives the inc_{artifact,ast}_{hits,misses}_total and
// inc_artifacts_stored_total counters.
type Store struct {
	rec *obs.Recorder
	dir string

	mu        sync.Mutex
	asts      map[astKey]*phpast.File
	artifacts map[string]*Artifact
	// lastKey remembers the most recent artifact key stored per path, so
	// the planner can tell "invalidated" (prior artifact, different
	// component) from "never seen".
	lastKey map[string]string
}

// NewStore returns a store. dir may be empty for a memory-only store;
// otherwise it is created and used for artifact persistence.
func NewStore(dir string, rec *obs.Recorder) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("incremental: cache dir: %w", err)
		}
	}
	return &Store{
		rec:       rec,
		dir:       dir,
		asts:      make(map[astKey]*phpast.File),
		artifacts: make(map[string]*Artifact),
		lastKey:   make(map[string]string),
	}, nil
}

// astKey addresses a parsed AST by path, content hash and parse-depth
// budget: the parser records the path inside the File, so identical
// content under two paths still parses twice, and the depth budget
// shapes the tree.
type astKey struct {
	path, hash string
	depth      int
}

// hashFields hashes length-prefixed fields so no concatenation of
// values collides with another.
func hashFields(fields ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, f := range fields {
		binary.BigEndian.PutUint64(n[:], uint64(len(f)))
		h.Write(n[:])
		h.Write([]byte(f))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// AST returns the cached parse of path with content hash hash under
// parse-depth budget depth, if present.
func (s *Store) AST(path, hash string, depth int) (*phpast.File, bool) {
	s.mu.Lock()
	f, ok := s.asts[astKey{path, hash, depth}]
	s.mu.Unlock()
	if ok {
		s.rec.Counter("inc_ast_hits_total").Inc()
	} else {
		s.rec.Counter("inc_ast_misses_total").Inc()
	}
	return f, ok
}

// PutAST caches a parse that ran clean under parse-depth budget depth.
func (s *Store) PutAST(path, hash string, depth int, f *phpast.File) {
	s.mu.Lock()
	if len(s.asts) < maxMemoryASTs {
		s.asts[astKey{path, hash, depth}] = f
	}
	s.mu.Unlock()
}

// Artifact returns the artifact stored under key, consulting the disk
// tier on a memory miss.
func (s *Store) Artifact(key string) (*Artifact, bool) {
	s.mu.Lock()
	a, ok := s.artifacts[key]
	s.mu.Unlock()
	if !ok && s.dir != "" {
		a = s.readDisk(key)
		if a != nil {
			ok = true
			s.mu.Lock()
			if len(s.artifacts) < maxMemoryArtifacts {
				s.artifacts[key] = a
			}
			s.mu.Unlock()
		}
	}
	if ok {
		s.rec.Counter("inc_artifact_hits_total").Inc()
	} else {
		s.rec.Counter("inc_artifact_misses_total").Inc()
	}
	return a, ok
}

// Put stores an artifact under key, write-through to disk when
// persistence is configured.
func (s *Store) Put(key string, a *Artifact) {
	if a == nil {
		return
	}
	s.mu.Lock()
	if len(s.artifacts) < maxMemoryArtifacts {
		s.artifacts[key] = a
	}
	s.lastKey[a.Path] = key
	s.mu.Unlock()
	s.rec.Counter("inc_artifacts_stored_total").Inc()
	if s.dir != "" {
		s.writeDisk(key, a)
	}
}

// LastKey returns the most recent artifact key stored for path in this
// process, if any.
func (s *Store) LastKey(path string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k, ok := s.lastKey[path]
	return k, ok
}

// diskPath shards artifacts by the first byte of the key to keep
// directories small.
func (s *Store) diskPath(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// readDisk loads an artifact from the disk tier; any problem (missing,
// corrupt, truncated) is treated as a miss.
func (s *Store) readDisk(key string) *Artifact {
	data, err := os.ReadFile(s.diskPath(key))
	if err != nil {
		return nil
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil || a.Result == nil {
		return nil
	}
	return &a
}

// writeDisk persists an artifact; failures are ignored (the disk tier
// is an optimization, never a correctness dependency).
func (s *Store) writeDisk(key string, a *Artifact) {
	data, err := json.Marshal(a)
	if err != nil {
		return
	}
	path := s.diskPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	// Unique temp + rename: concurrent writers of the same key are
	// writing identical content, so whoever renames last wins safely.
	tmp, err := os.CreateTemp(filepath.Dir(path), key+".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	_ = os.Rename(tmp.Name(), path)
}
