package server

// Intake: reading and decoding POST /v1/scans bodies.
//
// A JSON body is read whole under the upload cap and decoded in one
// pass when it has the canonical shape a client marshals: one object
// whose keys are submitRequest's exact names, each at most once, with
// strings, a string→string files object, a string array and plain
// integer literals as values. Everything else (other spellings of a
// key, unknown or repeated keys, null, fractions, invalid UTF-8,
// trailing bytes, ...) is decoded by encoding/json, which stays the
// reference: both paths give the same submitRequest and the same error
// for every body (FuzzSubmissionDecode).

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/analyzer"
)

// parseSubmission decodes a POST /v1/scans body in either encoding.
// The upload cap bounds both the body and the PHP content a zip body
// expands to; either past it fails with *http.MaxBytesError (HTTP
// 413), even when a complete JSON value precedes the cap. A fleet
// worker takes any dispatch whose content fits the same cap, so a
// coordinator never accepts a submission its workers refuse.
func (s *Server) parseSubmission(r *http.Request) (*submitRequest, error) {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxUploadBytes)
	defer body.Close()

	ct := r.Header.Get("Content-Type")
	zipped := ct == "application/zip" || ct == "application/x-zip-compressed"
	data, err := readBody(body, r.ContentLength, s.cfg.MaxUploadBytes)
	if err != nil {
		kind := "JSON"
		if zipped {
			kind = "zip"
		}
		return nil, fmt.Errorf("reading %s body: %w", kind, err)
	}

	var req *submitRequest
	if zipped {
		files, err := filesFromZip(data, s.cfg.MaxUploadBytes)
		if err != nil {
			return nil, err
		}
		req = &submitRequest{Files: files}
		q := r.URL.Query()
		req.Name, req.Tool, req.Profile = q.Get("name"), q.Get("tool"), q.Get("profile")
		if packs := q.Get("packs"); packs != "" {
			req.Profile = packs
		}
	} else if req, err = decodeSubmission(data); err != nil {
		return nil, fmt.Errorf("decoding JSON body: %w", err)
	}
	if len(req.RulePacks) > 0 {
		req.Profile = strings.Join(req.RulePacks, ",")
	}
	return req, nil
}

// readBody reads r to its end into a buffer presized from the
// request's Content-Length, so a body arrives in one allocation. A
// Content-Length past limit fails before anything is read.
func readBody(r io.Reader, contentLength, limit int64) ([]byte, error) {
	if contentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	size := int64(512)
	if contentLength >= 0 {
		// One spare byte lets the read that meets EOF land without
		// growing the buffer.
		size = contentLength + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeSubmission decodes a JSON submission body: the canonical shape
// in one pass, anything else through encoding/json.
func decodeSubmission(body []byte) (*submitRequest, error) {
	if req, ok := decodeCanonical(body); ok {
		return req, nil
	}
	req := &submitRequest{}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(req); err != nil {
		return nil, err
	}
	return req, nil
}

// submissionDecoder is the canonical decoder's state: the body, the
// read offset, and the scratch buffer strings with escapes decode into.
type submissionDecoder struct {
	data    []byte
	off     int
	scratch []byte
}

// decodeCanonical decodes a body of the canonical shape and reports
// false for any other. Whenever it reports true, encoding/json decodes
// the body to the same request.
func decodeCanonical(body []byte) (*submitRequest, bool) {
	d := submissionDecoder{data: body}
	req := &submitRequest{}
	if !d.object(req) {
		return nil, false
	}
	d.space()
	return req, d.off == len(d.data)
}

// object decodes the top-level object into req. Each key may appear
// once; encoding/json would merge or overwrite a repeated one.
func (d *submissionDecoder) object(req *submitRequest) bool {
	var seen uint16
	d.space()
	return d.items('{', '}', func() bool {
		key, ok := d.key()
		if !ok {
			return false
		}
		var bit uint16
		switch string(key) {
		case "name":
			bit, ok = 1<<0, d.text(&req.Name)
		case "tool":
			bit, ok = 1<<1, d.text(&req.Tool)
		case "profile":
			bit, ok = 1<<2, d.text(&req.Profile)
		case "rule_packs":
			bit, ok = 1<<3, d.texts(&req.RulePacks)
		case "files":
			bit, ok = 1<<4, d.files(&req.Files)
		case "deadline_ms":
			bit, ok = 1<<5, d.integer64(&req.DeadlineMS)
		case "max_parse_depth":
			bit, ok = 1<<6, d.integer(&req.MaxParseDepth)
		case "max_steps":
			bit, ok = 1<<7, d.integer64(&req.MaxSteps)
		case "max_findings":
			bit, ok = 1<<8, d.integer(&req.MaxFindings)
		case "file_slice_ms":
			bit, ok = 1<<9, d.integer64(&req.FileSliceMS)
		case "file_workers":
			bit, ok = 1<<10, d.integer(&req.FileWorkers)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
}

// files decodes the files object. The paths share one allocation and
// each content string is its own, of exactly its decoded length, so no
// decoding slack stays referenced from a scan. A repeated path keeps
// its last content, as encoding/json does.
func (d *submissionDecoder) files(m *map[string]string) bool {
	type entry struct {
		pathEnd int
		content string
	}
	paths := make([]byte, 0, 512)
	entries := make([]entry, 0, 32)
	ok := d.items('{', '}', func() bool {
		path, ok := d.key()
		if !ok {
			return false
		}
		paths = append(paths, path...)
		var content string
		ok = d.text(&content)
		entries = append(entries, entry{len(paths), content})
		return ok
	})
	if !ok {
		return false
	}
	*m = make(map[string]string, len(entries))
	all, start := string(paths), 0
	for _, e := range entries {
		(*m)[all[start:e.pathEnd]] = e.content
		start = e.pathEnd
	}
	return true
}

// texts decodes an array of strings; an empty array is an empty,
// non-nil slice, as encoding/json makes it.
func (d *submissionDecoder) texts(v *[]string) bool {
	list := []string{}
	ok := d.items('[', ']', func() bool {
		var s string
		ok := d.text(&s)
		list = append(list, s)
		return ok
	})
	if ok {
		*v = list
	}
	return ok
}

// items decodes an object or an array: the open byte, item for each
// comma-separated member, and the close byte.
func (d *submissionDecoder) items(open, close byte, item func() bool) bool {
	if !d.consume(open) {
		return false
	}
	d.space()
	if d.consume(close) {
		return true
	}
	for {
		if !item() {
			return false
		}
		d.space()
		if d.consume(close) {
			return true
		}
		if !d.consume(',') {
			return false
		}
		d.space()
	}
}

// key decodes an object member's key and the colon after it. The key
// is valid until the next string is decoded.
func (d *submissionDecoder) key() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	k, ok := d.str()
	d.space()
	if !ok || !d.consume(':') {
		return nil, false
	}
	d.space()
	return k, true
}

// text decodes a string value.
func (d *submissionDecoder) text(v *string) bool {
	if !d.consume('"') {
		return false
	}
	b, ok := d.str()
	if ok {
		*v = string(b)
	}
	return ok
}

// integer64 decodes a plain integer literal: an optional minus sign and up
// to 18 digits with no leading zero, so it fits in an int64. A
// fraction or exponent leaves a byte the caller does not expect.
func (d *submissionDecoder) integer64(v *int64) bool {
	b, i := d.data, d.off
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + int64(b[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 18 || (digits > 1 && b[start] == '0') {
		return false
	}
	if neg {
		n = -n
	}
	d.off, *v = i, n
	return true
}

// integer decodes a plain integer literal that fits in an int.
func (d *submissionDecoder) integer(v *int) bool {
	var n int64
	if !d.integer64(&n) || n < -1<<(strconv.IntSize-1) || n > 1<<(strconv.IntSize-1)-1 {
		return false
	}
	*v = int(n)
	return true
}

// strPlain marks the bytes a JSON string holds as themselves: printable
// ASCII other than the quote and the backslash.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str decodes the string whose opening quote was just consumed,
// leaving the offset past its closing quote. The result aliases the
// body when the string holds no escape and the scratch buffer
// otherwise, so it is valid until the next call. It gives up on raw
// control bytes, invalid UTF-8 and lone surrogates, which encoding/json
// rejects or replaces with U+FFFD.
func (d *submissionDecoder) str() ([]byte, bool) {
	b := d.data
	i, run := d.off, d.off
	out := d.scratch[:0]
	escaped := false
	for i < len(b) {
		c := b[i]
		if strPlain[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			d.off = i + 1
			if !escaped {
				return b[run:i], true
			}
			out = append(reserve(out, i-run), b[run:i]...)
			d.scratch = out
			return out, true
		case c == '\\':
			escaped = true
			out = append(reserve(out, i-run+utf8.UTFMax), b[run:i]...)
			var ok bool
			if out, i, ok = unescape(out, b, i); !ok {
				return nil, false
			}
			run = i
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			i += size
		default:
			return nil, false
		}
	}
	return nil, false
}

// reserve makes room for n more bytes in out, at least doubling its
// capacity when it grows, so one body's scratch buffer grows a handful
// of times.
func reserve(out []byte, n int) []byte {
	if cap(out)-len(out) >= n {
		return out
	}
	grown := make([]byte, len(out), max(2*cap(out), len(out)+n, 4096))
	copy(grown, out)
	return grown
}

// unescape appends the escape sequence at b[i] (a backslash) to out,
// which has room for utf8.UTFMax bytes, and returns the offset past it.
func unescape(out, b []byte, i int) ([]byte, int, bool) {
	if i+1 >= len(b) {
		return out, i, false
	}
	switch c := b[i+1]; c {
	case '"', '\\', '/':
		return append(out, c), i + 2, true
	case 'b':
		return append(out, '\b'), i + 2, true
	case 'f':
		return append(out, '\f'), i + 2, true
	case 'n':
		return append(out, '\n'), i + 2, true
	case 'r':
		return append(out, '\r'), i + 2, true
	case 't':
		return append(out, '\t'), i + 2, true
	case 'u':
		r := hex4(b, i+2)
		if r < 0 {
			return out, i, false
		}
		i += 6
		if utf16.IsSurrogate(r) {
			low := rune(-1)
			if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
				low = hex4(b, i+2)
			}
			if r = utf16.DecodeRune(r, low); r == utf8.RuneError {
				return out, i, false
			}
			i += 6
		}
		return utf8.AppendRune(out, r), i, true
	}
	return out, i, false
}

// hex4 decodes the four hex digits at b[i], or returns -1.
func hex4(b []byte, i int) rune {
	if i+4 > len(b) {
		return -1
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// space skips JSON whitespace.
func (d *submissionDecoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// consume advances past c when it is the next byte.
func (d *submissionDecoder) consume(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// filesFromMap converts a path→source map into sorted source files,
// keeping only PHP paths (case-insensitive, like the directory
// loader).
func filesFromMap(m map[string]string) []analyzer.SourceFile {
	files := make([]analyzer.SourceFile, 0, len(m))
	for path, content := range m {
		if !analyzer.IsPHPPath(path) {
			continue
		}
		files = append(files, analyzer.SourceFile{Path: path, Content: content})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	return files
}

// filesFromZip extracts the PHP members of a zip archive, refusing an
// archive whose members expand past limit bytes together.
func filesFromZip(data []byte, limit int64) (map[string]string, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("invalid zip: %w", err)
	}
	files := make(map[string]string)
	left := limit
	for _, f := range zr.File {
		if f.FileInfo().IsDir() || !analyzer.IsPHPPath(f.Name) {
			continue
		}
		rc, err := f.Open()
		if err != nil {
			return nil, fmt.Errorf("zip member %s: %w", f.Name, err)
		}
		content, err := io.ReadAll(io.LimitReader(rc, left+1))
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("zip member %s: %w", f.Name, err)
		}
		if left -= int64(len(content)); left < 0 {
			return nil, fmt.Errorf("zip members expand past the %d-byte upload cap: %w", limit, &http.MaxBytesError{Limit: limit})
		}
		files[f.Name] = string(content)
	}
	return files, nil
}
