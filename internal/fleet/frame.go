// The dispatch frame: the body of POST /internal/v1/scan. It is one
// JSON header line, the submission with each file's path and size,
// followed by the files' bytes back to back in header order:
//
//	{"scan_id":"…","attempt":1,…,"files":[{"path":"a.php","size":12},…]}\n
//	<12 bytes of a.php><bytes of the next file>…
//
// File content crosses the wire once, as raw bytes: no base64, and no
// JSON string that would mangle non-UTF-8 source into U+FFFD. The
// header's strings (paths, name, tool, profile) are JSON text, so
// encodeDispatch writes them as valid UTF-8, each invalid byte as
// U+FFFD, exactly as a JSON encoding of the submission always has. The
// scan id must pass server.CheckScanID: the worker names its scan by
// it. The header must be canonical (exactly what encodeDispatch
// writes), so any frame decodeDispatch accepts re-encodes to the same
// bytes. These two functions are the only code that knows the format;
// coordinator and workers run one build, so there is no other encoding
// to accept.

package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/server"
)

// dispatchHeader is the frame header: a dispatch's submission with
// each file named by path and size, not carried.
type dispatchHeader struct {
	ScanID  string                `json:"scan_id"`
	Attempt int                   `json:"attempt"`
	Name    string                `json:"name"`
	Tool    string                `json:"tool"`
	Profile string                `json:"profile"`
	Files   []durable.FileRef     `json:"files"`
	Opts    *analyzer.ScanOptions `json:"opts,omitempty"`
}

// errMalformedFrame marks a body decodeDispatch refuses (HTTP 400). A
// body past the reader's size cap surfaces as its *http.MaxBytesError
// instead (HTTP 413).
var errMalformedFrame = errors.New("malformed dispatch frame")

// encodeDispatch renders req as a dispatch frame.
func encodeDispatch(req *server.DispatchRequest) ([]byte, error) {
	text := analyzer.ValidUTF8
	hdr := dispatchHeader{
		ScanID: text(req.ScanID), Attempt: req.Attempt, Name: text(req.Name),
		Tool: text(req.Tool), Profile: text(req.Profile), Opts: req.Opts,
		Files: make([]durable.FileRef, len(req.Target.Files)),
	}
	total := 0
	for i, f := range req.Target.Files {
		hdr.Files[i] = durable.FileRef{Path: text(f.Path), Size: int64(len(f.Content))}
		total += len(f.Content)
	}
	head, err := json.Marshal(&hdr)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(head)+1+total)
	buf = append(append(buf, head...), '\n')
	for _, f := range req.Target.Files {
		buf = append(buf, f.Content...)
	}
	return buf, nil
}

// decodeDispatch reads one dispatch frame from r, whose files hold at
// most maxContent bytes together, and returns the request it carries
// (routing key unset). It checks the header before it allocates for
// content: files carry path and size only, sizes must be non-negative,
// sum to at most maxContent, and equal the bytes that follow. Every
// file's content is a slice of one string.
func decodeDispatch(r io.Reader, maxContent int64) (*server.DispatchRequest, error) {
	br := bufio.NewReader(r)
	head, err := br.ReadBytes('\n')
	if err != nil {
		return nil, frameError(err, "no header line")
	}
	head = head[:len(head)-1]
	var hdr dispatchHeader
	if err := json.Unmarshal(head, &hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", errMalformedFrame, err)
	}
	if canon, err := json.Marshal(&hdr); err != nil || !bytes.Equal(canon, head) {
		return nil, fmt.Errorf("%w: header is not canonical", errMalformedFrame)
	}
	if err := server.CheckScanID(hdr.ScanID); err != nil {
		return nil, fmt.Errorf("%w: %v", errMalformedFrame, err)
	}
	var total int64
	for _, f := range hdr.Files {
		if f.Hash != "" || f.Content != nil {
			return nil, fmt.Errorf("%w: %s: a frame names files by path and size only", errMalformedFrame, f.Path)
		}
		if f.Size < 0 || f.Size > maxContent-total {
			return nil, fmt.Errorf("%w: %s: size %d is negative or past the %d-byte cap", errMalformedFrame, f.Path, f.Size, maxContent)
		}
		total += f.Size
	}
	var content strings.Builder
	content.Grow(int(total))
	if _, err := io.CopyN(&content, br, total); err != nil {
		return nil, frameError(err, "content shorter than the header's sizes")
	}
	// Read to the end (the reader's cap bounds it), so a body past the
	// cap reads as such however far past the content it runs.
	if n, err := io.Copy(io.Discard, br); err != nil || n > 0 {
		return nil, frameError(err, "content longer than the header's sizes")
	}
	req := &server.DispatchRequest{
		ScanID: hdr.ScanID, Attempt: hdr.Attempt, Name: hdr.Name,
		Tool: hdr.Tool, Profile: hdr.Profile, Opts: hdr.Opts,
		Target: &analyzer.Target{Name: hdr.Name, Files: make([]analyzer.SourceFile, len(hdr.Files))},
	}
	all, off := content.String(), int64(0)
	for i, f := range hdr.Files {
		req.Target.Files[i] = analyzer.SourceFile{Path: f.Path, Content: all[off : off+f.Size]}
		off += f.Size
	}
	return req, nil
}

// frameError passes a size-cap error through and reports anything else
// as a malformed frame.
func frameError(err error, what string) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return err
	}
	return fmt.Errorf("%w: %s", errMalformedFrame, what)
}
