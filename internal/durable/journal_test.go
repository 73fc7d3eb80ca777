package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/govern"
	"repro/internal/obs"
)

// openT opens a journal in dir, failing the test on error.
func openT(t *testing.T, dir string, opt Options) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, recs := openT(t, dir, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	payload, _ := json.Marshal(map[string]string{"name": "plugin-a"})
	appends := []Record{
		{Type: RecAccepted, ScanID: "s1", Payload: payload},
		{Type: RecStarted, ScanID: "s1", Attempt: 1},
		{Type: RecAttemptFailed, ScanID: "s1", Attempt: 1, Error: "deadline", BackoffMS: 100},
		{Type: RecStarted, ScanID: "s1", Attempt: 2},
		{Type: RecCompleted, ScanID: "s1", Payload: payload},
		{Type: RecAccepted, ScanID: "s2", Payload: payload},
	}
	for i, r := range appends {
		if err := j.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2, got := openT(t, dir, Options{})
	defer j2.Close()
	if len(got) != len(appends) {
		t.Fatalf("replayed %d records, want %d", len(got), len(appends))
	}
	for i, r := range got {
		if r.Type != appends[i].Type || r.ScanID != appends[i].ScanID ||
			r.Attempt != appends[i].Attempt || r.Error != appends[i].Error {
			t.Errorf("record %d = %+v, want %+v", i, r, appends[i])
		}
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d, want %d", i, r.Seq, i+1)
		}
		if r.Time.IsZero() {
			t.Errorf("record %d has zero timestamp", i)
		}
	}
	if string(got[0].Payload) != string(payload) {
		t.Errorf("payload round trip = %s, want %s", got[0].Payload, payload)
	}

	// Sequence numbering continues past a reopen.
	if err := j2.Append(Record{Type: RecStarted, ScanID: "s2", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	_, got2, err := Open(t.TempDir(), Options{})
	if err != nil || len(got2) != 0 {
		t.Fatalf("fresh dir not empty: %d records, err %v", len(got2), err)
	}
}

func TestTruncatedTailTolerated(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := j.Append(Record{Type: RecAccepted, ScanID: fmt.Sprintf("s%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Tear the final record mid-line, as a crash mid-write would.
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-7]
	if err := os.WriteFile(wal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	j2, got := openT(t, dir, Options{Recorder: rec})
	if len(got) != 4 {
		t.Fatalf("replayed %d records after torn tail, want 4", len(got))
	}
	// The WAL must have been cut back to the intact prefix so new
	// appends don't interleave with garbage.
	if err := j2.Append(Record{Type: RecAccepted, ScanID: "s9"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, got3 := openT(t, dir, Options{})
	defer j3.Close()
	if len(got3) != 5 || got3[4].ScanID != "s9" {
		t.Fatalf("after tail repair replayed %v", got3)
	}
	if n := rec.Snapshot().Counters["journal_tail_truncations_total"]; n != 1 {
		t.Errorf("journal_tail_truncations_total = %d, want 1", n)
	}
}

func TestCorruptRecordStopsReplayAtPrefix(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if err := j.Append(Record{Type: RecAccepted, ScanID: fmt.Sprintf("s%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Flip one byte inside the second record's JSON: its checksum no
	// longer matches, so replay must stop after record one.
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = strings.Replace(lines[1], `"s1"`, `"sX"`, 1)
	if err := os.WriteFile(wal, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	j2, got := openT(t, dir, Options{Recorder: rec})
	defer j2.Close()
	if len(got) != 1 || got[0].ScanID != "s0" {
		t.Fatalf("replayed %v, want just s0", got)
	}
	if n := rec.Snapshot().Counters["journal_corrupt_records_total"]; n != 1 {
		t.Errorf("journal_corrupt_records_total = %d, want 1", n)
	}
}

func TestCompactionShrinksWALAndPreservesState(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("s%d", i)
		j.Append(Record{Type: RecAccepted, ScanID: id})
		j.Append(Record{Type: RecStarted, ScanID: id, Attempt: 1})
		j.Append(Record{Type: RecCompleted, ScanID: id})
	}
	if j.Usage().WALBytes == 0 {
		t.Fatal("WAL empty before compaction")
	}
	// Live state: two records per scan instead of three.
	var live []Record
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("s%d", i)
		live = append(live,
			Record{Type: RecAccepted, ScanID: id},
			Record{Type: RecCompleted, ScanID: id})
	}
	if err := j.Compact(live); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if j.Usage().WALBytes != 0 {
		t.Fatalf("WAL bytes after compaction = %d, want 0", j.Usage().WALBytes)
	}
	// Post-compaction appends land in the WAL and replay after it.
	if err := j.Append(Record{Type: RecAccepted, ScanID: "fresh"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, got, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	states := Fold(got)
	if len(states) != 21 {
		t.Fatalf("folded %d scans, want 21", len(states))
	}
	settled := 0
	for _, st := range states {
		if st.Settled() {
			settled++
		}
	}
	if settled != 20 {
		t.Errorf("settled = %d, want 20", settled)
	}
}

func TestAppendsAfterCompactedReopenSurviveNextReplay(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	j.Append(Record{Type: RecAccepted, ScanID: "s1"})
	j.Append(Record{Type: RecCompleted, ScanID: "s1"})
	if err := j.Compact([]Record{
		{Type: RecAccepted, ScanID: "s1"},
		{Type: RecCompleted, ScanID: "s1"},
	}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	j.Close()

	// Clean restart from the compacted journal, then new work: the
	// reopened journal must number the append above the snapshot's
	// horizon, or the next replay's stale-WAL filter discards it.
	j2, recs := openT(t, dir, Options{})
	if len(recs) != 2 {
		t.Fatalf("replayed %d records from snapshot, want 2", len(recs))
	}
	if err := j2.Append(Record{Type: RecAccepted, ScanID: "s2"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	// The crash: reopen again and fold. s2 must still be owed work.
	j3, recs3 := openT(t, dir, Options{})
	defer j3.Close()
	states := Fold(recs3)
	if len(states) != 2 {
		t.Fatalf("folded %d scans after compacted-reopen append, want 2 (post-compaction append lost)", len(states))
	}
	s2 := states[1]
	if s2.ScanID != "s2" || s2.Settled() {
		t.Errorf("scan s2 = %+v, want unsettled accepted scan", s2)
	}
	// And the WAL append carries a sequence number above the snapshot's
	// horizon, so it survives the Seq <= coveredSeq filter.
	last := recs3[len(recs3)-1]
	for _, r := range recs3[:len(recs3)-1] {
		if r.Seq >= last.Seq {
			t.Errorf("post-compaction append seq %d not above snapshot record seq %d", last.Seq, r.Seq)
		}
	}
}

func TestSnapshotAbsorbsStaleWALRecords(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	j.Append(Record{Type: RecAccepted, ScanID: "s1"})
	j.Append(Record{Type: RecCompleted, ScanID: "s1"})
	// Simulate a crash between the snapshot rename and the WAL reset:
	// compact, then restore the pre-compaction WAL contents.
	preWAL, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact([]Record{
		{Type: RecAccepted, ScanID: "s1"},
		{Type: RecCompleted, ScanID: "s1"},
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.WriteFile(filepath.Join(dir, walName), preWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	// Replay must not double-apply: the stale accepted record would
	// otherwise re-open the completed scan.
	j2, got := openT(t, dir, Options{})
	defer j2.Close()
	states := Fold(got)
	if len(states) != 1 {
		t.Fatalf("folded %d scans, want 1", len(states))
	}
	if !states[0].Settled() {
		t.Errorf("scan phase = %s, want completed (stale WAL record re-opened it)", states[0].Phase)
	}
}

func TestFoldLifecycle(t *testing.T) {
	t.Parallel()
	states := Fold([]Record{
		{Type: RecAccepted, ScanID: "a"},
		{Type: RecAccepted, ScanID: "b"},
		{Type: RecStarted, ScanID: "a", Attempt: 1},
		{Type: RecAttemptFailed, ScanID: "a", Attempt: 1, Error: "deadline"},
		{Type: RecStarted, ScanID: "b", Attempt: 1},
		{Type: RecStarted, ScanID: "a", Attempt: 2},
		{Type: RecAttemptFailed, ScanID: "a", Attempt: 2, Error: "deadline"},
		{Type: RecQuarantined, ScanID: "a", Error: "deadline"},
		{Type: RecCompleted, ScanID: "b"},
		// Orphan records (acceptance lost in a damaged tail) are dropped.
		{Type: RecStarted, ScanID: "ghost", Attempt: 1},
		// Manual retry re-opens a quarantined scan with a fresh budget.
		{Type: RecAccepted, ScanID: "a"},
	})
	if len(states) != 2 {
		t.Fatalf("folded %d scans, want 2", len(states))
	}
	a, b := states[0], states[1]
	if a.ScanID != "a" || b.ScanID != "b" {
		t.Fatalf("fold order = %s, %s", a.ScanID, b.ScanID)
	}
	if a.Phase != RecAccepted || a.Attempts != 0 || a.Settled() {
		t.Errorf("retried scan a: phase=%s attempts=%d", a.Phase, a.Attempts)
	}
	if b.Phase != RecCompleted || !b.Settled() {
		t.Errorf("scan b: phase=%s", b.Phase)
	}

	// Without the trailing re-accept, a is quarantined with 2 attempts.
	states = Fold([]Record{
		{Type: RecAccepted, ScanID: "a"},
		{Type: RecAttemptFailed, ScanID: "a", Attempt: 1},
		{Type: RecAttemptFailed, ScanID: "a", Attempt: 2},
		{Type: RecQuarantined, ScanID: "a"},
	})
	if states[0].Phase != RecQuarantined || states[0].Final == nil {
		t.Errorf("quarantined fold: %+v", states[0])
	}

	// An in-flight scan resumes its attempt count.
	states = Fold([]Record{
		{Type: RecAccepted, ScanID: "a"},
		{Type: RecAttemptFailed, ScanID: "a", Attempt: 1},
		{Type: RecStarted, ScanID: "a", Attempt: 2},
	})
	if states[0].Settled() || states[0].Attempts != 1 {
		t.Errorf("in-flight fold: %+v", states[0])
	}
}

func TestDiskFailureDegradesWithoutBlocking(t *testing.T) {
	// Not parallel: installs the global fault hook.
	dir := t.TempDir()
	rec := obs.NewRecorder()
	j, _ := openT(t, dir, Options{Recorder: rec})
	if err := j.Append(Record{Type: RecAccepted, ScanID: "s1"}); err != nil {
		t.Fatal(err)
	}

	failing := true
	govern.IOFaultHookForTesting = func(op, path string) error {
		if failing {
			return errors.New("injected disk failure")
		}
		return nil
	}
	defer func() { govern.IOFaultHookForTesting = nil }()

	err := j.Append(Record{Type: RecStarted, ScanID: "s1", Attempt: 1})
	if err == nil || !strings.Contains(err.Error(), "injected disk failure") {
		t.Fatalf("append during fault = %v, want injected failure", err)
	}
	if deg, _ := j.Degraded(); !deg {
		t.Fatal("journal not degraded after disk failure")
	}
	// Later appends fail fast with ErrDegraded even once the disk
	// recovers: degraded is sticky for the journal's lifetime.
	failing = false
	if err := j.Append(Record{Type: RecCompleted, ScanID: "s1"}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append after degrade = %v, want ErrDegraded", err)
	}
	if err := j.Compact(nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("compact after degrade = %v, want ErrDegraded", err)
	}
	snap := rec.Snapshot()
	if snap.Counters["journal_degraded_events_total"] != 1 {
		t.Errorf("journal_degraded_events_total = %d, want 1",
			snap.Counters["journal_degraded_events_total"])
	}

	// The record accepted before the failure survived.
	_, got, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ScanID != "s1" {
		t.Fatalf("post-degrade replay = %v", got)
	}
}

func TestSyncEveryBatchesFsyncs(t *testing.T) {
	t.Parallel()
	rec := obs.NewRecorder()
	j, _ := openT(t, t.TempDir(), Options{SyncEvery: 4, Recorder: rec})
	for i := 0; i < 10; i++ {
		if err := j.Append(Record{Type: RecAccepted, ScanID: fmt.Sprintf("s%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := rec.Snapshot().Counters["journal_fsyncs_total"]; n != 2 {
		t.Errorf("journal_fsyncs_total = %d after 10 appends at SyncEvery=4, want 2", n)
	}
	// Close flushes the remainder.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if n := rec.Snapshot().Counters["journal_fsyncs_total"]; n != 3 {
		t.Errorf("journal_fsyncs_total after close = %d, want 3", n)
	}
}

// appendSize appends r and returns the length of the line it wrote.
func appendSize(t *testing.T, j *Journal, r Record) int64 {
	t.Helper()
	before := j.Usage().WALBytes
	if err := j.Append(r); err != nil {
		t.Fatal(err)
	}
	return j.Usage().WALBytes - before
}

// checkUsage fails unless the journal's live/garbage split is exactly
// live and garbage, and the split covers every byte on disk.
func checkUsage(t *testing.T, j *Journal, live, garbage int64) {
	t.Helper()
	u := j.Usage()
	if u.LiveBytes != live || u.GarbageBytes != garbage {
		t.Errorf("usage live=%d garbage=%d, want live=%d garbage=%d", u.LiveBytes, u.GarbageBytes, live, garbage)
	}
	if disk := diskBytes(t, j.dir); u.LiveBytes+u.GarbageBytes != disk {
		t.Errorf("live+garbage = %d, want the %d bytes on disk", u.LiveBytes+u.GarbageBytes, disk)
	}
}

// diskBytes is the size of a journal directory's snapshot and WAL.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	for _, name := range []string{snapName, walName} {
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

func TestAccountingSplitsLiveFromGarbage(t *testing.T) {
	t.Parallel()
	j, _ := openT(t, t.TempDir(), Options{})
	defer j.Close()
	payload, _ := json.Marshal(strings.Repeat("source ", 64))
	acc := appendSize(t, j, Record{Type: RecAccepted, ScanID: "s1", Payload: payload})
	checkUsage(t, j, acc, 0)
	st := appendSize(t, j, Record{Type: RecStarted, ScanID: "s1", Attempt: 1})
	af := appendSize(t, j, Record{Type: RecAttemptFailed, ScanID: "s1", Attempt: 1, Error: "deadline"})
	st2 := appendSize(t, j, Record{Type: RecStarted, ScanID: "s1", Attempt: 2})
	fin := appendSize(t, j, Record{Type: RecCompleted, ScanID: "s1", Payload: payload})
	checkUsage(t, j, acc+fin, st+af+st2)
	// Records of a scan with no accepted record are garbage too.
	orphan := appendSize(t, j, Record{Type: RecCompleted, ScanID: "ghost"})
	// Fleet membership is live.
	member := appendSize(t, j, Record{Type: RecFleetMember, Worker: "http://w1"})
	checkUsage(t, j, acc+fin+member, st+af+st2+orphan)
	if j.NeedsCompaction(0) {
		t.Error("NeedsCompaction with garbage < live")
	}
}

func TestReacceptanceRetiresOldPair(t *testing.T) {
	t.Parallel()
	j, _ := openT(t, t.TempDir(), Options{})
	defer j.Close()
	acc := appendSize(t, j, Record{Type: RecAccepted, ScanID: "s1"})
	q := appendSize(t, j, Record{Type: RecQuarantined, ScanID: "s1", Error: "crashed"})
	// The manual retry path: a fresh accepted record, then a final one.
	acc2 := appendSize(t, j, Record{Type: RecAccepted, ScanID: "s1"})
	checkUsage(t, j, acc2, acc+q)
	fin := appendSize(t, j, Record{Type: RecCompleted, ScanID: "s1"})
	checkUsage(t, j, acc2+fin, acc+q)
	// A later final record supersedes the earlier one.
	fin2 := appendSize(t, j, Record{Type: RecCompleted, ScanID: "s1", Error: "cancelled"})
	checkUsage(t, j, acc2+fin2, acc+q+fin)
}

func TestRetireMovesScanToGarbage(t *testing.T) {
	t.Parallel()
	j, _ := openT(t, t.TempDir(), Options{})
	defer j.Close()
	acc := appendSize(t, j, Record{Type: RecAccepted, ScanID: "s1"})
	fin := appendSize(t, j, Record{Type: RecCompleted, ScanID: "s1"})
	keep := appendSize(t, j, Record{Type: RecAccepted, ScanID: "s2"})
	j.Retire("unknown")
	checkUsage(t, j, acc+fin+keep, 0)
	j.Retire("s1")
	checkUsage(t, j, keep, acc+fin)
	j.Retire("s1")
	checkUsage(t, j, keep, acc+fin)
	if !j.NeedsCompaction(1) {
		t.Error("NeedsCompaction false with garbage >= max(floor, live)")
	}
	if j.NeedsCompaction(acc + fin + 1) {
		t.Error("NeedsCompaction true with garbage below the floor")
	}
}

func TestCompactZeroesGarbage(t *testing.T) {
	t.Parallel()
	rec := obs.NewRecorder()
	j, _ := openT(t, t.TempDir(), Options{Recorder: rec})
	defer j.Close()
	var live []Record
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("s%d", i)
		j.Append(Record{Type: RecAccepted, ScanID: id})
		j.Append(Record{Type: RecStarted, ScanID: id, Attempt: 1})
		j.Append(Record{Type: RecCompleted, ScanID: id})
		if i%2 == 0 {
			j.Retire(id)
			continue
		}
		live = append(live, Record{Type: RecAccepted, ScanID: id}, Record{Type: RecCompleted, ScanID: id})
	}
	if err := j.Compact(live); err != nil {
		t.Fatal(err)
	}
	snap := diskBytes(t, j.dir)
	checkUsage(t, j, snap, 0)
	if j.NeedsCompaction(0) {
		t.Error("NeedsCompaction right after a compaction")
	}
	if got := rec.Snapshot().Counters["journal_compacted_bytes_total"]; got != snap {
		t.Errorf("journal_compacted_bytes_total = %d, want the %d-byte snapshot", got, snap)
	}
	// Snapshot records stay attributed to their scans.
	j.Retire("s1")
	if u := j.Usage(); u.GarbageBytes == 0 || u.LiveBytes >= snap {
		t.Errorf("retiring a snapshot scan moved nothing: %+v", u)
	}
}

func TestOpenRestoresAccounting(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	j.Append(Record{Type: RecAccepted, ScanID: "s1"})
	j.Append(Record{Type: RecStarted, ScanID: "s1", Attempt: 1})
	j.Append(Record{Type: RecCompleted, ScanID: "s1"})
	if err := j.Compact([]Record{
		{Type: RecAccepted, ScanID: "s1"},
		{Type: RecCompleted, ScanID: "s1"},
		{Type: RecAccepted, ScanID: "s2"},
		{Type: RecAttemptFailed, ScanID: "s2", Attempt: 1},
	}); err != nil {
		t.Fatal(err)
	}
	// Post-compaction traffic: s2 settles (superseding its snapshot
	// attempt marker), s1 is retried, s3 arrives, a worker joins.
	for _, r := range []Record{
		{Type: RecStarted, ScanID: "s2", Attempt: 2},
		{Type: RecCompleted, ScanID: "s2"},
		{Type: RecAccepted, ScanID: "s1"},
		{Type: RecAccepted, ScanID: "s3"},
		{Type: RecAttemptFailed, ScanID: "s3", Attempt: 1},
		{Type: RecFleetMember, Worker: "http://w1"},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	running := j.Usage()
	if running.GarbageBytes == 0 {
		t.Fatal("no garbage before the crash")
	}
	j.Close() // the crash: no compaction on the way down

	j2, _ := openT(t, dir, Options{})
	if got := j2.Usage(); got != running {
		t.Errorf("reopened usage = %+v, running journal had %+v", got, running)
	}
	j2.Close()

	// A crash between the snapshot rename and the WAL reset leaves WAL
	// records the snapshot absorbed: they are garbage.
	preWAL, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	j3, _ := openT(t, dir, Options{})
	if err := j3.Compact([]Record{{Type: RecAccepted, ScanID: "s3"}}); err != nil {
		t.Fatal(err)
	}
	snap := j3.Usage().LiveBytes
	j3.Close()
	if err := os.WriteFile(filepath.Join(dir, walName), preWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	j4, _ := openT(t, dir, Options{})
	defer j4.Close()
	checkUsage(t, j4, snap, int64(len(preWAL)))
}
