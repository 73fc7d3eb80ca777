package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/corpus"
)

// pluginBody is one corpus plugin marshalled as a client submits it.
type pluginBody struct {
	target *analyzer.Target
	body   []byte
}

var (
	corpusBodiesOnce         sync.Once
	corpusV2012, corpusV2014 []pluginBody
)

// marshalPlugin marshals files of a plugin the way a Go client does:
// {"name":…,"files":{path:source}}.
func marshalPlugin(name string, files []analyzer.SourceFile) []byte {
	m := make(map[string]string, len(files))
	for _, f := range files {
		m[f.Path] = f.Content
	}
	b, err := json.Marshal(struct {
		Name  string            `json:"name"`
		Files map[string]string `json:"files"`
	}{name, m})
	if err != nil {
		panic(err)
	}
	return b
}

// corpusBodies marshals every plugin of both corpus snapshots.
func corpusBodies(t testing.TB) (v2012, v2014 []pluginBody) {
	t.Helper()
	corpusBodiesOnce.Do(func() {
		c12, c14 := corpus.MustGenerate()
		marshal := func(c *corpus.Corpus) []pluginBody {
			out := make([]pluginBody, 0, len(c.Targets))
			for _, tg := range c.Targets {
				out = append(out, pluginBody{tg, marshalPlugin(tg.Name, tg.Files)})
			}
			return out
		}
		corpusV2012, corpusV2014 = marshal(c12), marshal(c14)
	})
	return corpusV2012, corpusV2014
}

// fuzzSeed marshals the first plugin of a snapshot cut to the head of
// its first two files: real PHP source with the escapes a Go client
// writes, short enough that the fuzzer minimizes what it finds in
// seconds (on a whole plugin a 30 s run spends its time minimizing).
func fuzzSeed(bodies []pluginBody) []byte {
	tg := bodies[0].target
	var files []analyzer.SourceFile
	for _, f := range tg.Files[:min(2, len(tg.Files))] {
		if len(f.Content) > 160 {
			f.Content = f.Content[:strings.LastIndexByte(f.Content[:160], '\n')+1]
		}
		files = append(files, f)
	}
	return marshalPlugin(tg.Name, files)
}

// checkDecode requires decodeSubmission to agree with encoding/json on
// body: the same error text or the same submitRequest.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := decodeSubmission(body)
	want := &submitRequest{}
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("decodeSubmission(%q) error = %v, encoding/json error = %v", body, gotErr, wantErr)
	case wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("decodeSubmission(%q) error = %q, encoding/json error = %q", body, gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decodeSubmission(%q) = %#v, encoding/json = %#v", body, got, want)
	}
}

// FuzzSubmissionDecode: the one-pass decoder and encoding/json give the
// same result for any body, canonical or not.
func FuzzSubmissionDecode(f *testing.F) {
	v2012, v2014 := corpusBodies(f)
	f.Add(fuzzSeed(v2012))
	f.Add(fuzzSeed(v2014))
	full, _ := json.Marshal(submitRequest{
		Name: "p<&>", Tool: "phpsafe", Profile: "wordpress", RulePacks: []string{"wordpress", "security-extended"},
		Files:      map[string]string{"a.php": "<?php echo \" \xff\";\n", "b/c.PHP": "", "\x01.php": "\t"},
		DeadlineMS: 60000, MaxParseDepth: -1, MaxSteps: 1 << 40, MaxFindings: 7, FileSliceMS: 5, FileWorkers: 2,
	})
	f.Add(full)
	for _, seed := range []string{
		// Canonical bodies.
		`{}`,
		` {"files":{}} `,
		`{"rule_packs":[],"files":{"a.php":""}}`,
		`{"files":{"a.php":"1","a.php":"2"}}`,
		`{"name":"\"\\\/\b\f\n\r\t<é€😀"}`,
		`{"name":"x"}`,
		`{"max_steps":-0,"max_findings":9,"deadline_ms":-12}`,
		`{"max_steps":999999999999999999}`,
		"{\"files\":{\"\xc3\xa9.php\":\"\xe2\x82\xac\xf0\x9f\x98\x80\x7f\"}}",
		// Case-variant, unknown, nested and repeated keys.
		`{"Name":"x","FILES":{"a.php":"1"}}`,
		`{"name":"a","name":"b"}`,
		`{"files":{"a.php":"1"},"files":{"b.php":"2"}}`,
		`{"rule_packs":["a"],"rule_packs":["b","c"]}`,
		`{"name":"x","extra":{"nested":[1,{"a":null}]},"files":{"a.php":"1"}}`,
		// null values.
		`{"name":null,"files":null,"rule_packs":null,"max_steps":null}`,
		`{"files":{"a.php":null}}`,
		`{"rule_packs":[null,"a"]}`,
		// Numbers that are not plain in-range integers.
		`{"max_steps":1e2}`,
		`{"max_steps":1.5}`,
		`{"max_steps":-}`,
		`{"max_steps":01}`,
		`{"max_steps":9223372036854775807}`,
		`{"max_steps":-9223372036854775808}`,
		`{"max_steps":9223372036854775808}`,
		`{"max_steps":99999999999999999999}`,
		`{"max_findings":"5"}`,
		`{"max_findings":true}`,
		// Lone and misordered surrogates, bad escapes.
		`{"name":"\ud83d"}`,
		`{"name":"\ud83dx"}`,
		`{"name":"\ude00\ud83d"}`,
		`{"name":"\ud83dA"}`,
		`{"name":"\x"}`,
		`{"name":"\u12"}`,
		`{"name":"\u12G4"}`,
		// Invalid UTF-8 and raw control bytes.
		"{\"files\":{\"a.php\":\"\xff\xfe\"}}",
		"{\"name\":\"\xc0\xaf\"}",
		"{\"name\":\"\xed\xa0\x80\"}",
		"{\"files\":{\"\xe2\x82.php\":\"x\"}}",
		"{\"name\":\"a\x01b\"}",
		"{\"name\":\"a\tb\"}",
		// Trailing bytes, other top-level values and broken syntax.
		`{"name":"x"} trailing`,
		`{"name":"x"}{"name":"y"}`,
		"{\"name\":\"x\"}\n\t ",
		``,
		`[]`,
		`"files"`,
		`{`,
		`{"name":"x",}`,
		`{"files":{"a.php":"1",}}`,
		`{"rule_packs":["a",]}`,
		`{"name" "x"}`,
		"\xef\xbb\xbf{}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkDecode)
}

// TestCanonicalBodiesTakeFastPath: every marshalled corpus plugin, and
// a body setting every field, decodes without encoding/json and to what
// encoding/json makes of it.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	v2012, v2014 := corpusBodies(t)
	bodies := [][]byte{[]byte(`{"name":"x","tool":"pixy","profile":"generic","rule_packs":["generic"],` +
		`"files":{"a.php":"<?php"},"deadline_ms":1,"max_parse_depth":2,"max_steps":3,"max_findings":4,` +
		`"file_slice_ms":5,"file_workers":6}`)}
	for _, p := range append(v2012, v2014...) {
		bodies = append(bodies, p.body)
	}
	for i, body := range bodies {
		if _, ok := decodeCanonical(body); !ok {
			t.Fatalf("body %d (%d bytes) falls back to encoding/json", i, len(body))
		}
		checkDecode(t, body)
	}
}

// TestSubmissionDecodeAllocs bounds what decoding a plugin body
// allocates: one string per file plus a constant (the request, the
// shared path string, the map, the entry list and the scratch buffer's
// doublings). encoding/json takes several allocations per file.
func TestSubmissionDecodeAllocs(t *testing.T) {
	_, v2014 := corpusBodies(t)
	const slack = 16
	for i, p := range v2014 {
		files := len(p.target.Files)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := decodeSubmission(p.body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(files+slack) {
			t.Errorf("plugin %d: decoding its %d files (%d bytes) allocates %v times, want <= %d",
				i, files, len(p.body), allocs, files+slack)
		}
	}
}

// BenchmarkSubmissionDecode decodes every marshalled v2014 plugin with
// decodeSubmission and, for reference, with encoding/json.
func BenchmarkSubmissionDecode(b *testing.B) {
	_, v2014 := corpusBodies(b)
	var size int64
	for _, p := range v2014 {
		size += int64(len(p.body))
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"canonical", func(body []byte) error { _, err := decodeSubmission(body); return err }},
		{"encoding-json", func(body []byte) error {
			return json.NewDecoder(bytes.NewReader(body)).Decode(&submitRequest{})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range v2014 {
					if err := bc.decode(p.body); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestSubmitBodyPastCap: a JSON body longer than the upload cap is 413
// even when a complete submission precedes the cap, a body of exactly
// the cap is accepted, and a body of unknown length (chunked) decodes
// like one with a Content-Length.
func TestSubmitBodyPastCap(t *testing.T) {
	t.Parallel()
	body := submission("capped")
	e := newEnv(t, 1, 4, func(c *Config) { c.MaxUploadBytes = int64(len(body)) + 8 })
	post := func(r io.Reader) int {
		t.Helper()
		resp, err := http.Post(e.ts.URL+"/v1/scans", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(strings.NewReader(body + strings.Repeat(" ", 9))); got != http.StatusRequestEntityTooLarge {
		t.Errorf("complete submission padded past the cap = HTTP %d, want 413", got)
	}
	if got := post(strings.NewReader(body + strings.Repeat(" ", 8))); got != http.StatusAccepted {
		t.Errorf("submission padded to exactly the cap = HTTP %d, want 202", got)
	}
	// A reader of unknown length makes the client send chunked.
	chunked := struct{ *strings.Reader }{strings.NewReader(submission("chunked"))}
	if got := post(chunked); got != http.StatusAccepted {
		t.Errorf("chunked submission = HTTP %d, want 202", got)
	}

}
