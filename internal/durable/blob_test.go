package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/obs"
)

// blob returns the blob record of content.
func blob(content string) Record {
	return Record{Type: RecBlob, Hash: analyzer.HashContent(content), Blob: []byte(content)}
}

// accepted returns an accepted record referencing contents' blobs.
func accepted(scan string, contents ...string) Record {
	r := Record{Type: RecAccepted, ScanID: scan}
	for _, c := range contents {
		r.Refs = append(r.Refs, analyzer.HashContent(c))
	}
	return r
}

// TestBlobAppendDedupsInOneSync: one Append writes a batch in one sync,
// skipping blobs the journal already holds and repeats within the
// batch.
func TestBlobAppendDedupsInOneSync(t *testing.T) {
	t.Parallel()
	rec := obs.NewRecorder()
	j, _ := openT(t, t.TempDir(), Options{Recorder: rec})
	defer j.Close()
	counter := func(name string) int64 { return rec.Counter(name).Value() }

	if err := j.Append(blob("a"), blob("b"), blob("a"), accepted("s1", "a", "b", "a")); err != nil {
		t.Fatal(err)
	}
	if a, f, d := counter("journal_appends_total"), counter("journal_fsyncs_total"), counter("journal_blobs_deduped_total"); a != 3 || f != 1 || d != 1 {
		t.Errorf("first batch: appends %d fsyncs %d deduped %d, want 3 1 1", a, f, d)
	}
	if err := j.Append(blob("a"), blob("c"), accepted("s2", "a", "c")); err != nil {
		t.Fatal(err)
	}
	if a, f, d := counter("journal_appends_total"), counter("journal_fsyncs_total"), counter("journal_blobs_deduped_total"); a != 5 || f != 2 || d != 2 {
		t.Errorf("second batch: appends %d fsyncs %d deduped %d, want 5 2 2", a, f, d)
	}
}

// TestBlobLiveWhileReferenced: a blob is live while a live record
// references it, garbage once the last one is retired or superseded,
// revived by a new reference, and an orphan from the start; Open
// rebuilds the same split.
func TestBlobLiveWhileReferenced(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	if err := j.Append(blob("shared"), blob("only-s1"), accepted("s1", "shared", "only-s1")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(blob("shared"), accepted("s2", "shared")); err != nil {
		t.Fatal(err)
	}
	if u := j.Usage(); u.GarbageBytes != 0 {
		t.Fatalf("every blob referenced, yet garbage = %d", u.GarbageBytes)
	}
	j.Retire("s1")
	u := j.Usage()
	wantGarbage := int64(0)
	recs, lens := walLines(t, dir)
	for i, r := range recs {
		if r.ScanID == "s1" || (r.Type == RecBlob && r.Hash == analyzer.HashContent("only-s1")) {
			wantGarbage += lens[i]
		}
	}
	if u.GarbageBytes != wantGarbage {
		t.Errorf("after retiring s1: garbage %d, want %d (s1's record and its unshared blob)", u.GarbageBytes, wantGarbage)
	}
	j.Retire("s2")
	if u := j.Usage(); u.LiveBytes != 0 {
		t.Errorf("every scan retired, yet live = %d", u.LiveBytes)
	}
	// A new reference revives the blob still on disk: no new blob line.
	if err := j.Append(blob("shared"), accepted("s3", "shared")); err != nil {
		t.Fatal(err)
	}
	if recs, _ := walLines(t, dir); len(recs) != 5 {
		t.Errorf("WAL holds %d lines, want 5 (no second line of a blob on disk)", len(recs))
	}
	// An orphan (a torn submission's blob) is garbage from the start.
	before := j.Usage().GarbageBytes
	if err := j.Append(blob("orphan")); err != nil {
		t.Fatal(err)
	}
	_, lens = walLines(t, dir)
	orphanLine := lens[len(lens)-1]
	if got := j.Usage().GarbageBytes - before; got != orphanLine {
		t.Errorf("orphan added %d garbage bytes, want its line (%d)", got, orphanLine)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Retirements are not journaled: a reopened journal holds every scan
	// live again, and only the orphan as garbage.
	j2, _ := openT(t, dir, Options{})
	defer j2.Close()
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	u = j2.Usage()
	if u.LiveBytes+u.GarbageBytes != fi.Size() || u.GarbageBytes != orphanLine {
		t.Errorf("reopened split live %d garbage %d of %d bytes, want only the orphan as garbage", u.LiveBytes, u.GarbageBytes, fi.Size())
	}
}

// walLines reads the WAL's records and line lengths as Open would.
func walLines(t *testing.T, dir string) ([]Record, []int64) {
	t.Helper()
	recs, lens, _, err := readLog(filepath.Join(dir, walName), nil)
	if err != nil {
		t.Fatal(err)
	}
	return recs, lens
}

// TestBlobIndexResolves: IndexBlobs keeps blobs whose bytes hash to
// their address, Files resolves addressed and inline files, and a
// damaged or missing blob fails the resolution.
func TestBlobIndexResolves(t *testing.T) {
	t.Parallel()
	damaged := blob("good")
	damaged.Blob = []byte("bad")
	idx := IndexBlobs([]Record{blob("<?php \xff"), damaged, accepted("s", "x")})
	files, err := idx.Files([]FileRef{
		{Path: "a.php", Hash: analyzer.HashContent("<?php \xff")},
		{Path: "old.php", Content: []byte("inline \xfe")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if files[0].Content != "<?php \xff" || files[0].Hash != analyzer.HashContent("<?php \xff") ||
		files[1].Content != "inline \xfe" || files[1].Hash != "" {
		t.Errorf("resolved %+v", files)
	}
	for _, ref := range []FileRef{
		{Path: "damaged.php", Hash: analyzer.HashContent("good")},
		{Path: "missing.php", Hash: analyzer.HashContent("never journaled")},
	} {
		if _, err := idx.Files([]FileRef{ref}); err == nil {
			t.Errorf("%s resolved, want an error", ref.Path)
		}
	}
}

// TestFileBlobsCopyOnlyWhatIsWritten: the blob records FileBlobs builds
// hold their content by reference. Appending one writes its bytes (and
// Compact rewrites them), while a blob the journal already holds is
// skipped without its content ever being copied.
func TestFileBlobsCopyOnlyWhatIsWritten(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	defer j.Close()
	big := "<?php // " + strings.Repeat("\xff", 1<<20)
	target := &analyzer.Target{Files: []analyzer.SourceFile{{Path: "big.php", Content: big}}}
	target.HashFiles()
	submit := func(scan string) {
		t.Helper()
		blobs, _, addrs := FileBlobs(target.Files, nil)
		if err := j.Append(append(blobs, Record{Type: RecAccepted, ScanID: scan, Refs: addrs})...); err != nil {
			t.Fatal(err)
		}
	}

	submit("s1")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	submit("s2")
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= uint64(len(big))/2 {
		t.Errorf("appending a submission whose blob the journal holds allocated %d bytes, want far under its %d-byte content", n, len(big))
	}

	blobs, _, addrs := FileBlobs(target.Files, nil)
	if err := j.Compact(append(blobs, Record{Type: RecAccepted, ScanID: "s2", Refs: addrs})); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{walName, snapName} {
		recs, _, _, err := readLog(filepath.Join(dir, name), nil)
		if err != nil {
			t.Fatal(err)
		}
		if name == walName && len(recs) != 0 {
			t.Errorf("WAL holds %d records after the compaction", len(recs))
		}
		if name == snapName {
			files, err := IndexBlobs(recs).Files([]FileRef{{Path: "big.php", Hash: target.Files[0].Hash}})
			if err != nil || files[0].Content != big {
				t.Errorf("compacted blob does not resolve to the content: %v", err)
			}
		}
	}
}

// blobLineContents covers every byte value, the empty blob, each
// length mod 3, and contents longer than one base64 chunk.
func blobLineContents() []string {
	var all strings.Builder
	for c := 0; c < 256; c++ {
		all.WriteByte(byte(c))
	}
	contents := []string{"", "a", "ab", "abc", "abcd", "abcde", all.String(), "<?php echo $_GET['x'] & 1 > 0;\n"}
	for c := 0; c < 256; c++ {
		contents = append(contents, string(rune(c)), string([]byte{byte(c)}))
	}
	for _, n := range []int{3 << 10, 3<<10 + 1, 3<<10 + 2, 10000} {
		contents = append(contents, strings.Repeat(all.String(), n/256+1)[:n])
	}
	return contents
}

// TestBlobLineMatchesMarshal: the direct blob-line writer writes the
// bytes json.Marshal does, for content held by reference (as FileBlobs
// builds it) or as decoded bytes (as replay returns it), and times with
// and without nanoseconds, in UTC or not. Records it must leave to
// json.Marshal are left to it.
func TestBlobLineMatchesMarshal(t *testing.T) {
	times := []time.Time{
		{},
		time.Date(2024, 3, 9, 10, 11, 12, 0, time.UTC),
		time.Date(2024, 3, 9, 10, 11, 12, 123456789, time.UTC),
		time.Date(2024, 3, 9, 10, 11, 12, 500, time.UTC),
		time.Date(2024, 3, 9, 10, 11, 12, 120000000, time.FixedZone("", 5*3600+30*60)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", -23*3600-59*60)),
	}
	n := 0
	for _, content := range blobLineContents() {
		for i, tm := range times {
			byRef := Record{Seq: uint64(n) * 7919, Type: RecBlob, Time: tm, Hash: analyzer.HashContent(content), content: content}
			decoded := byRef
			decoded.content, decoded.Blob = "", []byte(content)
			for _, r := range []Record{byRef, decoded} {
				direct, ok := encodeBlobLine(&r)
				if !ok {
					t.Fatalf("content %q, time %d: blob record left to json.Marshal", content, i)
				}
				want, err := marshalLine(r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(direct, want) {
					t.Fatalf("content %q, time %d:\n direct  %q\n marshal %q", content, i, direct, want)
				}
				n++
			}
		}
	}

	for name, r := range map[string]Record{
		"year past 9999":   {Type: RecBlob, Hash: "h", Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), content: "x"},
		"offset of a day":  {Type: RecBlob, Hash: "h", Time: time.Date(2024, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)), content: "x"},
		"hash to escape":   {Type: RecBlob, Hash: "a<b", content: "x"},
		"no hash":          {Type: RecBlob, content: "x"},
		"scan id":          {Type: RecBlob, Hash: "h", ScanID: "s", content: "x"},
		"refs":             {Type: RecBlob, Hash: "h", Refs: []string{"h"}},
		"not a blob":       {Type: RecAccepted, Hash: "h"},
		"payload":          {Type: RecBlob, Hash: "h", Payload: []byte(`{}`)},
		"worker and error": {Type: RecBlob, Hash: "h", Worker: "w", Error: "e"},
	} {
		if _, ok := encodeBlobLine(&r); ok {
			t.Errorf("%s: written directly, want json.Marshal", name)
		}
		got, gotErr := encodeLine(r)
		want, wantErr := marshalLine(r)
		if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Errorf("%s: encodeLine = %q, %v; marshalLine = %q, %v", name, got, gotErr, want, wantErr)
		}
	}
}

// TestBlobLinesReplayAfterCompaction: blobs appended by reference and
// rewritten by Compact, from the records replay returned, resolve to
// their content after a reopen.
func TestBlobLinesReplayAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	var files []analyzer.SourceFile
	for i, content := range blobLineContents() {
		files = append(files, analyzer.SourceFile{Path: fmt.Sprintf("f%d.php", i), Content: content})
	}
	target := &analyzer.Target{Files: files}
	target.HashFiles()
	blobs, refs, addrs := FileBlobs(target.Files, nil)
	if err := j.Append(append(blobs, Record{Type: RecAccepted, ScanID: "s", Refs: addrs})...); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, recs := openT(t, dir, Options{})
	if err := j.Compact(recs); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs = openT(t, dir, Options{})
	got, err := IndexBlobs(recs).Files(refs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range got {
		if f.Content != files[i].Content {
			t.Fatalf("%s replays %q, want %q", f.Path, f.Content, files[i].Content)
		}
	}
}
