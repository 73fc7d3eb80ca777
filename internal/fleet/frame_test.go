package fleet

import (
	"archive/zip"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scancache"
	"repro/internal/server"
)

// frameCap is the content cap the frame tests decode under.
const frameCap = 1 << 16

// request is a dispatch of files, each given as path then content.
func request(scanID, name string, pathContent ...string) *server.DispatchRequest {
	req := &server.DispatchRequest{
		ScanID: scanID, Attempt: 1, Name: name, Tool: "phpsafe", Profile: "wordpress",
		Target: &analyzer.Target{Name: name},
	}
	for i := 0; i+1 < len(pathContent); i += 2 {
		req.Target.Files = append(req.Target.Files, analyzer.SourceFile{Path: pathContent[i], Content: pathContent[i+1]})
	}
	return req
}

// FuzzDispatchFrame: no input panics the decoder, every frame it
// accepts re-encodes to the same bytes and carries a valid scan id, and
// every frame encodeDispatch writes (here with the input as header
// strings and content) decodes to the same content with the header's
// strings made valid UTF-8.
func FuzzDispatchFrame(f *testing.F) {
	for _, req := range []*server.DispatchRequest{
		request("s", "p"),
		request("s", "empty", "a.php", "", "b.php", ""),
		request("s", "ff", "a.php", "<?php // \xff\xfe\n", "\xff.php", "\xff"),
		request("s-1", "caf\xe9", "caf\xe9.php", "<?php echo 'caf\xe9';"),
	} {
		frame, err := encodeDispatch(req)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := decodeDispatch(bytes.NewReader(frame), frameCap); err != nil {
			f.Fatalf("decoder rejects the frame encodeDispatch wrote for %q: %v\n%q", req.Name, err, frame)
		}
		f.Add(frame)
	}
	// The JSON body dispatches used to be: it must be rejected.
	old, _ := json.Marshal(map[string]any{
		"scan_id": "s", "attempt": 1, "name": "p",
		"files": []map[string]any{{"path": "a.php", "content": []byte("<?php")}},
	})
	for _, body := range [][]byte{old, append(old, '\n')} {
		if _, err := decodeDispatch(bytes.NewReader(body), frameCap); err == nil {
			f.Fatalf("decoder accepts the old JSON body %q", body)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeDispatch(bytes.NewReader(data), frameCap); err == nil {
			if err := server.CheckScanID(req.ScanID); err != nil {
				t.Fatalf("accepted frame carries a bad scan id: %v", err)
			}
			again, err := encodeDispatch(req)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("accepted frame re-encodes differently:\nin:  %q\nout: %q", data, again)
			}
		}

		s := string(data)
		in := request("s", s, s+".php", s, "b.php", s)
		in.Tool, in.Profile = s, s
		frame, err := encodeDispatch(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeDispatch(bytes.NewReader(frame), int64(2*len(data)))
		if err != nil {
			t.Fatalf("decoder rejects the frame encodeDispatch wrote: %v\n%q", err, frame)
		}
		text := analyzer.ValidUTF8(s)
		if out.ScanID != "s" || out.Name != text || out.Tool != text || out.Profile != text ||
			len(out.Target.Files) != 2 || out.Target.Files[0].Path != text+".php" || out.Target.Files[1].Path != "b.php" {
			t.Fatalf("header decoded as %+v, files %+v; want every string %q", out, out.Target.Files, text)
		}
		for _, f := range out.Target.Files {
			if f.Content != s {
				t.Fatalf("%s content decoded as %q, want %q", f.Path, f.Content, s)
			}
		}
	})
}

func TestDispatchFrameRoundTrip(t *testing.T) {
	t.Parallel()
	in := request("c-1", "caf\xe9", "a.php", "<?php echo 1;", "empty.php", "", "caf\xe9.php", "\xff\x00\n")
	in.Attempt = 2
	frame, err := encodeDispatch(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeDispatch(bytes.NewReader(frame), frameCap)
	if err != nil {
		t.Fatalf("decode: %v\n%q", err, frame)
	}
	if out.ScanID != in.ScanID || out.Attempt != in.Attempt || out.Name != "caf\uFFFD" || out.Target.Name != out.Name ||
		out.Tool != in.Tool || out.Profile != in.Profile || len(out.Target.Files) != len(in.Target.Files) {
		t.Fatalf("decoded %+v, want %+v with the name made valid UTF-8", out, in)
	}
	for i, f := range out.Target.Files {
		want := in.Target.Files[i]
		if f.Path != analyzer.ValidUTF8(want.Path) || f.Content != want.Content {
			t.Errorf("file %d = %q %q, want %q %q (the path made valid UTF-8, the content as sent)", i, f.Path, f.Content, want.Path, want.Content)
		}
	}
	again, err := encodeDispatch(out)
	if err != nil || !bytes.Equal(again, frame) {
		t.Errorf("decoded frame re-encodes as %q (%v), want %q", again, err, frame)
	}
}

// TestDispatchFrameRejects: the worker answers 413 for a body past its
// cap (its upload limit for the content, as much again for the header)
// and 400 for a malformed frame or a scan id it cannot name a scan by,
// and journals nothing for either; a frame whose content fills the
// upload limit is accepted.
func TestDispatchFrameRejects(t *testing.T) {
	t.Parallel()
	const limit = 4096
	dir := t.TempDir()
	rec := obs.NewRecorder()
	jrnl, _, err := durable.Open(dir, durable.Options{Recorder: rec, Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	pool := jobs.New(jobs.Config{Workers: 1, QueueSize: 4, Recorder: rec})
	wk := NewWorker(WorkerConfig{})
	api := server.New(server.Config{
		Pool: pool, Cache: scancache.New(1<<20, rec), Recorder: rec, MaxUploadBytes: limit,
		Retry: jobs.RetryPolicy{MaxAttempts: 1}, Journal: jrnl,
	})
	wk.Bind(api, pool)
	ts := httptest.NewServer(wk.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Shutdown(ctx)
		jrnl.Close()
	})

	header := func(files ...durable.FileRef) []byte {
		for i := range files {
			if files[i].Path == "" {
				files[i].Path = "f" + strconv.Itoa(i) + ".php"
			}
		}
		head, _ := json.Marshal(dispatchHeader{ScanID: "rej", Attempt: 1, Name: "rej", Files: files})
		return append(head, '\n')
	}
	sized := func(n int64) durable.FileRef { return durable.FileRef{Size: n} }
	post := func(body []byte) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/internal/v1/scan", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	good, _ := encodeDispatch(request("rej", "rej", "a.php", vulnerablePHP))
	badID := func(id string) []byte {
		frame, _ := encodeDispatch(request(id, "rej", "a.php", vulnerablePHP))
		return frame
	}
	old, _ := json.Marshal(map[string]any{
		"scan_id": "rej", "attempt": 1, "name": "rej",
		"files": []map[string]any{{"path": "a.php", "content": []byte(vulnerablePHP)}},
	})
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"past the cap", append(header(sized(limit)), strings.Repeat("x", 2*limit)...), http.StatusRequestEntityTooLarge},
		{"header past the cap", append([]byte(`{"name":"`), strings.Repeat("x", 2*limit)...), http.StatusRequestEntityTooLarge},
		{"negative size", append(header(sized(-1), sized(4)), "<?ph"...), http.StatusBadRequest},
		{"sizes sum past the cap", header(sized(limit/2), sized(limit/2+1)), http.StatusBadRequest},
		{"fewer bytes than sizes", append(header(sized(10)), "<?php"...), http.StatusBadRequest},
		{"more bytes than sizes", append(good, '\n'), http.StatusBadRequest},
		{"non-canonical header", append([]byte(" "), good...), http.StatusBadRequest},
		{"file named by hash", header(durable.FileRef{Hash: analyzer.HashContent("")}), http.StatusBadRequest},
		{"inline content", header(durable.FileRef{Content: []byte("<?php")}), http.StatusBadRequest},
		{"old JSON body", old, http.StatusBadRequest},
		{"scan id past 64 bytes", badID(strings.Repeat("a", 65)), http.StatusBadRequest},
		{"scan id with a slash", badID("a/b"), http.StatusBadRequest},
		{"scan id ..", badID(".."), http.StatusBadRequest},
		{"empty body", nil, http.StatusBadRequest},
	} {
		if status, body := post(tc.body); status != tc.want || body["error"] == nil {
			t.Errorf("%s: HTTP %d %v, want %d with an error", tc.name, status, body, tc.want)
		}
	}
	if n := rec.Counter("journal_appends_total").Value(); n != 0 {
		t.Errorf("rejected frames journaled %d lines, want 0", n)
	}
	if u := jrnl.Usage(); u.WALBytes != 0 {
		t.Errorf("WAL holds %d bytes after rejected frames, want 0", u.WALBytes)
	}

	// Content that fills the upload limit fits: the header has room of
	// its own.
	full := vulnerablePHP + "//" + strings.Repeat("x", limit-len(vulnerablePHP)-2)
	frame, _ := encodeDispatch(request("full", "full", "a.php", full))
	if status, body := post(frame); status != http.StatusAccepted {
		t.Errorf("frame with %d bytes of content: HTTP %d %v, want 202", len(full), status, body)
	}

	// The decoder reports the cap as the reader's error.
	_, err = decodeDispatch(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(good)), 16), 16)
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) {
		t.Errorf("decode past the cap = %v, want *http.MaxBytesError", err)
	}
}

// TestFleetNonUTF8ZipMatchesStandalone: a zip whose source holds bytes
// that are not UTF-8 scans through a coordinator to the same result as
// on a standalone daemon: the frame carries the bytes as they are. The
// two variables differ only in a byte that is not UTF-8; mangled into
// U+FFFD they would be one variable, overwritten with a safe value, and
// the finding would vanish. Members whose names are not UTF-8 (an old
// Latin-1 archive) are reported under the same names both ways, each
// invalid byte as one U+FFFD. Both daemons write the same result bytes
// and the same SARIF and HTML reports.
func TestFleetNonUTF8ZipMatchesStandalone(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, m := range []struct{ name, src string }{
		{"latin1.php", "<?php\n$a\xfe = $_GET['q'];\n$a\xff = 'caf\xe9';\necho $a\xfe;\n"},
		{"caf\xe9.php", "<?php\necho $_GET['menu'];\n"},
		{"d\xe9\xe8.php", "<?php\necho $_GET['two'];\n"},
	} {
		fw, err := zw.CreateHeader(&zip.FileHeader{Name: m.name, NonUTF8: true})
		if err != nil {
			t.Fatal(err)
		}
		fw.Write([]byte(m.src))
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	submitZip := func(base string) scanView {
		t.Helper()
		resp, err := http.Post(base+"/v1/scans?name=latin1%E9", "application/zip", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sc scanView
		if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
			t.Fatal(err)
		}
		return waitSettled(t, base, sc.ID)
	}
	report := func(base, id, format string) []byte {
		t.Helper()
		resp, err := http.Get(base + "/v1/scans/" + id + "?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s report of %s = HTTP %d (%v): %s", format, id, resp.StatusCode, err, body)
		}
		return body
	}

	w1 := newWorker(t)
	coord, _, _ := newCoordinator(t, []string{w1.URL})
	saRec := obs.NewRecorder()
	saPool := jobs.New(jobs.Config{Workers: 1, QueueSize: 4, Recorder: saRec})
	standalone := httptest.NewServer(server.New(server.Config{
		Pool: saPool, Cache: scancache.New(1<<20, saRec), Recorder: saRec,
	}))
	t.Cleanup(func() {
		standalone.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		saPool.Shutdown(ctx)
	})

	fleetRes, soloRes := submitZip(coord.URL), submitZip(standalone.URL)
	if fleetRes.Status != "done" || soloRes.Status != "done" {
		t.Fatalf("fleet %s (%s), standalone %s (%s), want both done", fleetRes.Status, fleetRes.Error, soloRes.Status, soloRes.Error)
	}
	if !bytes.Equal(fleetRes.Result, soloRes.Result) {
		t.Errorf("fleet result differs from standalone:\nfleet: %s\nsolo:  %s", fleetRes.Result, soloRes.Result)
	}
	var res struct {
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(fleetRes.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 3 {
		t.Errorf("fleet result has %d findings, want the XSS the raw bytes carry and one in each Latin-1-named file: %s", len(res.Findings), fleetRes.Result)
	}
	for _, name := range []string{"caf\uFFFD.php", "d\uFFFD\uFFFD.php"} {
		if !bytes.Contains(fleetRes.Result, []byte(name)) {
			t.Errorf("fleet result does not name %q: %s", name, fleetRes.Result)
		}
	}
	for _, format := range []string{"sarif", "html"} {
		if f, s := report(coord.URL, fleetRes.ID, format), report(standalone.URL, soloRes.ID, format); !bytes.Equal(f, s) {
			t.Errorf("fleet %s report differs from standalone:\nfleet: %s\nsolo:  %s", format, f, s)
		}
	}
}

// TestFleetZipPastUploadCapMatchesStandalone: intake bounds the content
// a zip expands to by the upload cap, for a coordinator as for a
// standalone daemon, so both refuse an archive that expands past it
// with 413, and both scan one that expands to exactly the cap (the
// worker's frame has room for its header beside that content).
func TestFleetZipPastUploadCapMatchesStandalone(t *testing.T) {
	t.Parallel()
	const limit = 8 << 10
	zipOf := func(size int) []byte {
		var buf bytes.Buffer
		zw := zip.NewWriter(&buf)
		fw, err := zw.Create("big.php")
		if err != nil {
			t.Fatal(err)
		}
		fw.Write([]byte(vulnerablePHP + "//" + strings.Repeat("x", size-len(vulnerablePHP)-2)))
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() >= limit {
			t.Fatalf("zip of %d bytes is %d bytes compressed, not under the %d-byte cap", size, buf.Len(), limit)
		}
		return buf.Bytes()
	}
	daemon := func(dispatch func(context.Context, *server.DispatchRequest) (*server.DispatchResult, error)) string {
		rec := obs.NewRecorder()
		pool := jobs.New(jobs.Config{Workers: 2, QueueSize: 8, Recorder: rec})
		ts := httptest.NewServer(server.New(server.Config{
			Pool: pool, Cache: scancache.New(1<<20, rec), Recorder: rec, MaxUploadBytes: limit,
			Retry: jobs.RetryPolicy{MaxAttempts: 2}, Dispatch: dispatch,
		}))
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			pool.Shutdown(ctx)
		})
		return ts.URL
	}
	wrec := obs.NewRecorder()
	wpool := jobs.New(jobs.Config{Workers: 1, QueueSize: 8, Recorder: wrec})
	wk := NewWorker(WorkerConfig{})
	wk.Bind(server.New(server.Config{
		Pool: wpool, Cache: scancache.New(1<<20, wrec), Recorder: wrec, MaxUploadBytes: limit,
		Retry: jobs.RetryPolicy{MaxAttempts: 1},
	}), wpool)
	worker := httptest.NewServer(wk.Handler())
	fl := New(Config{Workers: []string{worker.URL}, Recorder: obs.NewRecorder()})
	fl.Start()
	t.Cleanup(func() {
		fl.Stop()
		worker.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		wpool.Shutdown(ctx)
	})
	coord, standalone := daemon(fl.Dispatch), daemon(nil)

	submit := func(base string, body []byte) (int, scanView) {
		t.Helper()
		resp, err := http.Post(base+"/v1/scans?name=big", "application/zip", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sc scanView
		json.NewDecoder(resp.Body).Decode(&sc)
		return resp.StatusCode, sc
	}
	past := zipOf(limit + 1)
	for name, base := range map[string]string{"coordinator": coord, "standalone": standalone} {
		if status, _ := submit(base, past); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: zip expanding past the cap = HTTP %d, want 413", name, status)
		}
	}
	atCap := zipOf(limit)
	for name, base := range map[string]string{"coordinator": coord, "standalone": standalone} {
		status, sc := submit(base, atCap)
		if status != http.StatusAccepted {
			t.Fatalf("%s: zip expanding to the cap = HTTP %d, want 202", name, status)
		}
		if got := waitSettled(t, base, sc.ID); got.Status != "done" {
			t.Errorf("%s: zip expanding to the cap settled %s (%s), want done", name, got.Status, got.Error)
		}
	}
}
