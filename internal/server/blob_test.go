package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/obs"
)

// journalLines parses one journal file into its records, in order.
func journalLines(t *testing.T, path string) []durable.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var recs []durable.Record
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r durable.Record
		if err := json.Unmarshal(line[9:], &r); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	return recs
}

// blobLines counts the blob records of one journal file, and how many
// of them hold hash.
func blobLines(t *testing.T, path, hash string) (all, matching int) {
	t.Helper()
	for _, r := range journalLines(t, path) {
		if r.Type == durable.RecBlob {
			all++
			if r.Hash == hash {
				matching++
			}
		}
	}
	return all, matching
}

// TestJournalBlobsDedupAcrossVersions: a new version of a plugin
// journals only the content that changed, and content whose scans were
// evicted and compacted away is journaled again when it comes back.
func TestJournalBlobsDedupAcrossVersions(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal.jsonl")
	e := newJournalEnv(t, dir, func(cfg *Config) { cfg.MaxScans = 2 })
	v1 := map[string]string{
		"a.php": vulnerablePHP + "// a\n",
		"b.php": "<?php echo 'b';\n",
		"c.php": "<?php echo 'c';\n",
	}
	v2 := map[string]string{"a.php": v1["a.php"], "b.php": v1["b.php"], "c.php": "<?php echo 'c2';\n"}

	_, sc := e.submitJSON(t, submissionFiles("dedup", v1))
	e.wait(t, sc.ID)
	if n, _ := blobLines(t, wal, ""); n != 3 {
		t.Fatalf("first version wrote %d blob lines, want 3", n)
	}
	_, sc = e.submitJSON(t, submissionFiles("dedup", v2))
	e.wait(t, sc.ID)
	if n, _ := blobLines(t, wal, ""); n != 4 {
		t.Errorf("after the one-file edit the WAL holds %d blob lines, want 4 (one new)", n)
	}
	if got := e.counter("journal_blobs_deduped_total"); got != 2 {
		t.Errorf("journal_blobs_deduped_total = %d, want 2", got)
	}

	// Two unrelated plugins evict both versions (MaxScans 2); the
	// compaction then drops their blobs.
	for _, name := range []string{"other-x", "other-y"} {
		_, sc := e.submitJSON(t, submissionFiles(name, map[string]string{name + ".php": "<?php echo '" + name + "';\n"}))
		e.wait(t, sc.ID)
	}
	e.waitAppends(t, 6+4+2*4) // v1: 3 blobs + 3 records; v2: 1 + 3; others: 1 + 3 each
	e.srv.CompactJournal()
	aHash := analyzer.HashContent(v1["a.php"])
	if _, n := blobLines(t, filepath.Join(dir, "snapshot.jsonl"), aHash); n != 0 {
		t.Errorf("compacted snapshot still holds an evicted plugin's blob")
	}

	// The same content again (under other budgets, so the result cache
	// does not answer it): its blobs are journaled again.
	body, _ := json.Marshal(map[string]any{"name": "dedup", "files": v1, "max_steps": 123456})
	_, sc = e.submitJSON(t, string(body))
	e.wait(t, sc.ID)
	if n, _ := blobLines(t, wal, ""); n != 3 {
		t.Errorf("resubmission after compaction wrote %d blob lines, want 3", n)
	}
	if got := e.counter("journal_blobs_deduped_total"); got != 2 {
		t.Errorf("journal_blobs_deduped_total = %d after the resubmission, want 2", got)
	}
}

// appendSubmission journals one submission as the daemon does: its new
// blobs, then its accepted record.
func appendSubmission(t *testing.T, j *durable.Journal, id string, files []analyzer.SourceFile) {
	t.Helper()
	target := &analyzer.Target{Name: id, Files: files}
	target.HashFiles()
	blobs, refs, addrs := durable.FileBlobs(target.Files, nil)
	payload, err := json.Marshal(submissionPayload{
		Name: id, Tool: "phpsafe", Profile: "wordpress", Key: id + "-key",
		Created: time.Now(), Files: refs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(append(blobs, durable.Record{Type: durable.RecAccepted, ScanID: id, Refs: addrs, Payload: payload})...); err != nil {
		t.Fatal(err)
	}
}

// TestBlobOrphanedByTornTailIsGarbage: a crash that cuts the WAL after a
// submission's blob line and before its accepted line replays no scan
// for it; the orphaned blob counts as garbage and the next compaction
// drops it.
func TestBlobOrphanedByTornTailIsGarbage(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendSubmission(t, j, "kept", []analyzer.SourceFile{{Path: "kept.php", Content: vulnerablePHP}})
	orphan := "<?php echo $_GET['orphan'];\n"
	appendSubmission(t, j, "torn", []analyzer.SourceFile{{Path: "torn.php", Content: orphan}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the WAL just before the torn submission's accepted line.
	wal := filepath.Join(dir, "wal.jsonl")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.Index(data, []byte(`"type":"accepted","time"`))
	cut = bytes.Index(data[cut+1:], []byte(`"type":"accepted","time"`)) + cut + 1
	cut = bytes.LastIndexByte(data[:cut], '\n') + 1
	if err := os.WriteFile(wal, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	orphanHash := analyzer.HashContent(orphan)
	if _, n := blobLines(t, wal, orphanHash); n != 1 {
		t.Fatalf("cut WAL holds %d lines of the torn submission's blob, want 1", n)
	}
	orphanLine := int64(cut - (bytes.LastIndexByte(data[:cut-1], '\n') + 1))

	e := newJournalEnv(t, dir)
	if done := e.wait(t, "kept"); done.Status != stateDone {
		t.Fatalf("kept scan = %+v, want done", done)
	}
	e.srv.mu.Lock()
	_, replayed := e.srv.scans["torn"]
	e.srv.mu.Unlock()
	if replayed {
		t.Fatal("a submission whose accepted line was lost was replayed")
	}
	if u := e.srv.cfg.Journal.Usage(); u.GarbageBytes < orphanLine {
		t.Errorf("garbage_bytes = %d, want >= the orphaned blob line (%d)", u.GarbageBytes, orphanLine)
	}
	e.waitAppends(t, 2) // the kept scan's started and completed records
	e.srv.CompactJournal()
	if _, n := blobLines(t, filepath.Join(dir, "snapshot.jsonl"), orphanHash); n != 0 {
		t.Error("compaction kept the orphaned blob")
	}
	if _, n := blobLines(t, filepath.Join(dir, "snapshot.jsonl"), analyzer.HashContent(vulnerablePHP)); n != 1 {
		t.Error("compaction dropped the live scan's blob")
	}
}

// TestBlobDamagedMakesScanUndecodable: a blob whose bytes do not hash
// to its address makes the scan referencing it undecodable; it is never
// scanned as the wrong bytes.
func TestBlobDamagedMakesScanUndecodable(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash := analyzer.HashContent(vulnerablePHP)
	payload, _ := json.Marshal(submissionPayload{
		Name: "damaged", Tool: "phpsafe", Profile: "wordpress", Key: "damaged-key",
		Created: time.Now(), Files: []durable.FileRef{{Path: "damaged.php", Hash: hash}},
	})
	if err := j.Append(
		durable.Record{Type: durable.RecBlob, Hash: hash, Blob: []byte("<?php echo 'tampered';")},
		durable.Record{Type: durable.RecAccepted, ScanID: "damaged", Refs: []string{hash}, Payload: payload},
	); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	e := newJournalEnv(t, dir)
	if got := e.counter("replay_undecodable_total"); got != 1 {
		t.Errorf("replay_undecodable_total = %d, want 1", got)
	}
	if got := e.counter("scans_replayed_total"); got != 0 {
		t.Errorf("scans_replayed_total = %d, want 0", got)
	}
	e.srv.mu.Lock()
	_, replayed := e.srv.scans["damaged"]
	e.srv.mu.Unlock()
	if replayed {
		t.Error("a scan whose blob is damaged was replayed")
	}
}

// TestBlobJournalReadsHeadInlineFormat: journals written before blob
// records, with each file's content inline in the accepted payload,
// replay to the same bytes and the same result a live submission gets.
func TestBlobJournalReadsHeadInlineFormat(t *testing.T) {
	t.Parallel()
	// The accepted payload's shape before blob records.
	type headFile struct {
		Path    string `json:"path"`
		Content []byte `json:"content"`
	}
	type headSubmission struct {
		Name    string                `json:"name"`
		Tool    string                `json:"tool"`
		Profile string                `json:"profile"`
		Key     string                `json:"key"`
		Created time.Time             `json:"created"`
		Files   []headFile            `json:"files"`
		Opts    *analyzer.ScanOptions `json:"opts,omitempty"`
	}
	raw := "<?php $q\xff = $_GET['q']; echo $q\xff; // \xfe\x80 latin1\n"
	dir := t.TempDir()
	j, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(headSubmission{
		Name: "head", Tool: "phpsafe", Profile: "wordpress", Key: "head-key",
		Created: time.Now(), Files: []headFile{{Path: "head.php", Content: []byte(raw)}},
	})
	if err := j.Append(durable.Record{Type: durable.RecAccepted, ScanID: "head-scan", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	e := newJournalEnv(t, dir)
	replayed := e.wait(t, "head-scan")
	if replayed.Status != stateDone {
		t.Fatalf("replayed scan = %+v, want done", replayed)
	}
	e.srv.mu.Lock()
	got := e.srv.scans["head-scan"].Target.Files[0]
	e.srv.mu.Unlock()
	if got.Content != raw || got.Hash != analyzer.HashContent(raw) {
		t.Errorf("replayed file = %q (hash %s), want the original bytes", got.Content, got.Hash)
	}

	id, _, _ := e.srv.Accept(SubmitSpec{Name: "head", Target: &analyzer.Target{
		Files: []analyzer.SourceFile{{Path: "head.php", Content: raw}},
	}})
	live := e.wait(t, id)
	want, _ := json.Marshal(live.Result)
	have, _ := json.Marshal(replayed.Result)
	if !bytes.Equal(have, want) {
		t.Errorf("replayed result differs from a live scan:\nreplayed: %s\nlive:     %s", have, want)
	}
}

// nopAnalyzer finds nothing, at once.
type nopAnalyzer struct{}

func (nopAnalyzer) Name() string { return "nop" }

func (nopAnalyzer) AnalyzeContext(_ context.Context, t *analyzer.Target, _ *analyzer.ScanOptions) (*analyzer.Result, error) {
	return &analyzer.Result{Tool: "nop", Target: t.Name}, nil
}

// TestBuildOncePerSpec: a server builds each (tool, profile) engine
// once, cache hits included; past the memo's cap, specs build per
// submission; a failed build is not kept.
func TestBuildOncePerSpec(t *testing.T) {
	t.Parallel()
	var builds atomic.Int64
	e := newEnv(t, 2, 16, func(cfg *Config) {
		cfg.BuildTool = func(tool, profile string, rec *obs.Recorder) (analyzer.Analyzer, error) {
			builds.Add(1)
			return eval.BuildTool(tool, profile, eval.ToolOptions{Recorder: rec})
		}
	})
	for i := 0; i < 4; i++ {
		_, sc := e.submitJSON(t, submissionFiles("once", map[string]string{"once.php": fmt.Sprintf("%s// %d\n", vulnerablePHP, i)}))
		e.wait(t, sc.ID)
	}
	code, hit := e.submitJSON(t, submissionFiles("once", map[string]string{"once.php": vulnerablePHP + "// 0\n"}))
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("resubmission = HTTP %d cached=%v, want a cache hit", code, hit.Cached)
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("five submissions of one spec built %d engines, want 1", got)
	}
	body, _ := json.Marshal(map[string]any{
		"name": "once", "files": map[string]string{"once.php": vulnerablePHP},
		"rule_packs": []string{"wordpress", "security-extended"},
	})
	_, sc := e.submitJSON(t, string(body))
	e.wait(t, sc.ID)
	if got := builds.Load(); got != 2 {
		t.Errorf("two specs built %d engines, want 2", got)
	}

	// The cap, and failures, on a stub engine.
	var stubBuilds atomic.Int64
	e = newEnv(t, 1, 4, func(cfg *Config) {
		cfg.BuildTool = func(_, profile string, _ *obs.Recorder) (analyzer.Analyzer, error) {
			stubBuilds.Add(1)
			if strings.HasPrefix(profile, "broken") {
				return nil, fmt.Errorf("profile %s does not build", profile)
			}
			return nopAnalyzer{}, nil
		}
	})
	for i := 0; i <= maxEngines; i++ {
		if _, _, err := e.srv.engine("phpsafe", fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	e.srv.engine("phpsafe", "p0")                           // memoized
	e.srv.engine("phpsafe", fmt.Sprintf("p%d", maxEngines)) // past the cap: built again
	if got, want := stubBuilds.Load(), int64(maxEngines+2); got != want {
		t.Errorf("stub builds = %d, want %d", got, want)
	}
	for i := 0; i < 2; i++ {
		if _, status, _ := e.srv.Accept(SubmitSpec{Profile: "broken", Target: &analyzer.Target{
			Files: []analyzer.SourceFile{{Path: "x.php", Content: "<?php"}},
		}}); status != http.StatusBadRequest {
			t.Errorf("broken spec = HTTP %d, want 400", status)
		}
	}
	if got, want := stubBuilds.Load(), int64(maxEngines+4); got != want {
		t.Errorf("stub builds after two failed builds = %d, want %d (failures are not kept)", got, want)
	}
}
