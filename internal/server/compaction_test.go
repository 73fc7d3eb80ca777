package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/govern"
)

// counter reads one counter from the env's recorder.
func (e *env) counter(name string) int64 { return e.rec.Snapshot().Counters[name] }

// waitAppends waits until the journal has taken n appends in total: a
// scan's final record lands after its settled state is observable.
func (e *env) waitAppends(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.counter("journal_appends_total") < n {
		if time.Now().After(deadline) {
			t.Fatalf("journal_appends_total = %d, want %d", e.counter("journal_appends_total"), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// journalDiskBytes is the size of a journal directory's snapshot and WAL.
func journalDiskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	for _, name := range []string{"snapshot.jsonl", "wal.jsonl"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

func TestGrowingRegistryNeverCompacts(t *testing.T) {
	t.Parallel()
	e := newJournalEnv(t, t.TempDir(), func(cfg *Config) { cfg.CompactWALBytes = 1 })
	for i := 0; i < 12; i++ {
		_, sc := e.submitJSON(t, submission(fmt.Sprintf("grow%d", i)))
		e.wait(t, sc.ID)
	}
	e.waitAppends(t, 1+3*12) // one shared blob, then three records per scan
	// Only attempt records are garbage, and they never outweigh the
	// registry they describe.
	if n := e.counter("journal_compactions_total"); n != 0 {
		t.Errorf("journal_compactions_total = %d on a registry that only grows, want 0", n)
	}
}

func TestEvictionHeavyStreamCompactsWithinBounds(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	const floor = 1 << 10
	cfg := func(cfg *Config) {
		cfg.MaxScans = 4
		cfg.CompactWALBytes = floor
	}
	e1 := newJournalEnv(t, dir, cfg)
	for i := 0; i < 100; i++ {
		_, sc := e1.submitJSON(t, submission(fmt.Sprintf("evict%03d", i)))
		if done := e1.wait(t, sc.ID); done.Status != stateDone {
			t.Fatalf("scan %d = %+v", i, done)
		}
	}
	e1.crash(t)

	compactions := e1.counter("journal_compactions_total")
	if compactions == 0 {
		t.Fatal("an eviction-heavy stream never compacted")
	}
	appended := e1.counter("journal_appended_bytes_total")
	compacted := e1.counter("journal_compacted_bytes_total")
	if compacted > 2*appended+floor {
		t.Errorf("compaction rewrote %d bytes for %d appended, want <= 2x+%d", compacted, appended, floor)
	}
	u := e1.srv.cfg.Journal.Usage()
	disk := journalDiskBytes(t, dir)
	if u.LiveBytes+u.GarbageBytes != disk {
		t.Errorf("live %d + garbage %d != %d bytes on disk", u.LiveBytes, u.GarbageBytes, disk)
	}
	if disk > 2*u.LiveBytes+floor {
		t.Errorf("journal holds %d bytes for %d live, want <= 2x+%d", disk, u.LiveBytes, floor)
	}
	t.Logf("%d compactions, %d bytes compacted, %d appended, %d on disk, %d live",
		compactions, compacted, appended, disk, u.LiveBytes)

	// The compacted journal replays to exactly the live registry.
	want := registryResults(t, e1)
	e2 := newJournalEnv(t, dir, cfg)
	got := registryResults(t, e2)
	if len(got) != len(want) {
		t.Fatalf("replayed registry has %d scans, live registry had %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("scan %s replayed as %s, was %s", id, got[id], w)
		}
	}
}

// registryResults renders every tracked scan's state and result.
func registryResults(t *testing.T, e *env) map[string]string {
	t.Helper()
	e.srv.mu.Lock()
	defer e.srv.mu.Unlock()
	out := make(map[string]string, len(e.srv.scans))
	for id, sc := range e.srv.scans {
		res, err := json.Marshal(sc.Result)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = string(sc.State) + " " + string(res)
	}
	return out
}

func TestHealthzJournalBytesMove(t *testing.T) {
	t.Parallel()
	e := newJournalEnv(t, t.TempDir(), func(cfg *Config) { cfg.MaxScans = 1 })
	type journalHealth struct {
		WAL     int64 `json:"wal_bytes"`
		Live    int64 `json:"live_bytes"`
		Garbage int64 `json:"garbage_bytes"`
	}
	health := func() journalHealth {
		var body struct {
			Journal journalHealth `json:"journal"`
		}
		e.getJSON(t, "/healthz", &body)
		return body.Journal
	}
	if h := health(); h != (journalHealth{}) {
		t.Fatalf("fresh journal health = %+v, want zeros", h)
	}

	// Submitting moves live: the accepted record and its blob land
	// before the 202.
	_, first := e.submitJSON(t, submission("health-first"))
	if h := health(); h.Live == 0 {
		t.Errorf("live_bytes after submit = 0")
	}
	e.wait(t, first.ID)
	e.waitAppends(t, 4) // blob, accepted, started, completed
	before := health()

	// Evicting the first scan (MaxScans 1) moves its bytes to garbage.
	// The second scan shares no content with it: a shared blob would
	// stay live.
	_, second := e.submitJSON(t, submissionFiles("health-second",
		map[string]string{"health-second.php": vulnerablePHP + "// second\n"}))
	after := health()
	if after.Garbage < before.Garbage+before.Live {
		t.Errorf("garbage_bytes after eviction = %d, want >= %d + %d", after.Garbage, before.Garbage, before.Live)
	}
	e.wait(t, second.ID)
	e.waitAppends(t, 8)

	// Compaction zeroes garbage.
	e.srv.CompactJournal()
	if h := health(); h.Garbage != 0 || h.WAL != 0 || h.Live == 0 {
		t.Errorf("health after compaction = %+v, want garbage 0, wal 0, live > 0", h)
	}
}

// Not parallel: installs the global I/O fault hook.
func TestJournalCountersCountedOnce(t *testing.T) {
	dir := t.TempDir()
	e := newJournalEnv(t, dir)
	e.srv.CompactJournal()
	if n := e.counter("journal_compactions_total"); n != 1 {
		t.Errorf("journal_compactions_total = %d after one compaction, want 1", n)
	}

	govern.IOFaultHookForTesting = func(op, path string) error {
		if strings.Contains(path, dir) {
			return errors.New("injected disk failure")
		}
		return nil
	}
	defer func() { govern.IOFaultHookForTesting = nil }()

	// The append that hits the failure, then one on the degraded journal.
	for want := int64(1); want <= 2; want++ {
		e.srv.journal(durable.Record{Type: durable.RecStarted, ScanID: "x", Attempt: 1})
		if n := e.counter("journal_append_errors_total"); n != want {
			t.Errorf("journal_append_errors_total = %d after %d failed appends, want %d", n, want, want)
		}
	}
	e.srv.CompactJournal()
	if n := e.counter("journal_compact_errors_total"); n != 1 {
		t.Errorf("journal_compact_errors_total = %d after one failed compaction, want 1", n)
	}
	if n := e.counter("journal_compactions_total"); n != 1 {
		t.Errorf("journal_compactions_total = %d, want 1 (a failed compaction is not a compaction)", n)
	}
}
