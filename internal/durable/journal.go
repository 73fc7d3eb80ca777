// Package durable is the crash-safety substrate of the scan daemon: a
// write-ahead journal that makes an accepted scan survive process
// death. The daemon appends one record per lifecycle transition
// (accepted, started, attempt_failed, completed, quarantined); on
// restart it replays the journal, rehydrates finished scans from their
// persisted results and resubmits everything still in flight.
//
// Format. The journal is a directory holding two append-only JSONL
// files: snapshot.jsonl (the compacted state as of the last
// compaction) and wal.jsonl (every record since). Each line is
//
//	<crc32-ieee hex8> <record JSON>\n
//
// where the checksum covers the JSON bytes. The checksum plus the
// trailing newline make torn writes detectable: replay stops at the
// first line that is incomplete, unparsable or checksum-damaged,
// truncates the WAL back to the last intact record, and carries on
// with the prefix — a crash mid-append loses at most the record being
// written, never the journal.
//
// Blobs. File content is journaled once per distinct file: a blob
// record carries one file's bytes under its SHA-256 address, and the
// accepted records that need it list the address in Refs (their
// payloads name files by path and address only). One
// Append writes a submission's new blobs ahead of its record, in one
// write and one sync, and skips every blob the journal already holds
// (journal_blobs_deduped_total). A torn tail can therefore orphan a
// blob but never leave a record without its blob. Replay resolves
// addresses through IndexBlobs, which drops any blob whose bytes do not
// hash to its address. Records of the older inline format (base64
// content in the payload) still replay; nothing writes them any more.
//
// Durability policy. Options.SyncEvery picks how many appends may pass
// between fsyncs: 1 (the default) syncs every Append call, so an
// accepted scan survives OS-level crash and power loss; N amortizes the
// sync over N appends (process-crash-safe; power loss may lose the last
// N-1 appends); negative never syncs explicitly.
//
// Compaction. Compact rewrites the snapshot from the caller's live
// record set (atomically: temp file, fsync, rename) and resets the
// WAL. The snapshot's first line is a meta record carrying the highest
// sequence number it covers, so a crash between the rename and the WAL
// reset is harmless: replay skips WAL records the snapshot already
// absorbed.
//
// Accounting. The journal files every line it holds, by its length, as
// live or garbage. Live: each scan's latest accepted record and latest
// completed/quarantined record, fleet_member records, and everything a
// snapshot holds. A blob is live while some live record references it.
// Garbage: started and attempt_failed records, accepted and final
// records a later record of the same kind superseded (re-acceptance
// retires the whole old pair), records of scans the caller retired
// (Retire), blobs no live record references (orphans of a torn tail
// included), WAL records a snapshot already absorbed, and every line
// of a type the journal no longer writes (a fleet worker's retired
// dispatch records), in the snapshot too: nothing replays those, so
// the first compaction drops them. NeedsCompaction asks for a
// compaction only once garbage outweighs both the live bytes and a
// floor, so compaction rewrites at most as many bytes as it drops and
// disk use stays under 2 × live + floor. Open rebuilds the same split from the files.
// Retirements are not journaled: the caller re-applies them as it
// replays (the daemon's registry bound evicts the same scans again).
//
// Failure. The journal is an aid, never a gate: when the disk fails
// mid-flight the journal flips to degraded (Degraded reports it,
// journal_degraded_events_total counts it), stops touching the disk,
// and every later Append returns ErrDegraded immediately — the scan
// path keeps running in-memory. govern.IOFaultHookForTesting injects
// exactly these failures in tests.
package durable

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/analyzer"
	"repro/internal/govern"
	"repro/internal/obs"
)

// RecordType is a scan lifecycle transition.
type RecordType string

const (
	// RecAccepted marks a scan accepted into the queue; its payload is
	// the submission (target files, tool, budgets) so replay can rebuild
	// and resubmit the job.
	RecAccepted RecordType = "accepted"
	// RecStarted marks one attempt beginning on a worker.
	RecStarted RecordType = "started"
	// RecAttemptFailed marks one attempt failing retryably; the job
	// goes back to the queue after backoff.
	RecAttemptFailed RecordType = "attempt_failed"
	// RecCompleted marks the scan finished; its payload is the
	// persisted result, from which replay rehydrates the registry.
	RecCompleted RecordType = "completed"
	// RecQuarantined marks the scan dead-lettered after exhausting its
	// attempts (or failing terminally).
	RecQuarantined RecordType = "quarantined"
	// RecFleetMember marks a worker joining the coordinator's fleet
	// (Worker carries the address). Replaying these rebuilds the
	// dispatch ring after a coordinator restart, so auto-registered
	// workers survive without re-announcing.
	RecFleetMember RecordType = "fleet_member"
	// RecBlob holds one file's content (Blob) under its hex SHA-256
	// address (Hash). Accepted records reference it through Refs.
	RecBlob RecordType = "blob"
	// recSnapshot is the meta record heading a snapshot file; it
	// carries the highest sequence number the snapshot absorbed.
	recSnapshot RecordType = "snapshot"
)

// Record is one journal line. Payload is opaque to the journal; the
// server stores its submission and result envelopes there.
type Record struct {
	Seq       uint64     `json:"seq"`
	Type      RecordType `json:"type"`
	Time      time.Time  `json:"time"`
	ScanID    string     `json:"scan,omitempty"`
	Attempt   int        `json:"attempt,omitempty"`
	Error     string     `json:"error,omitempty"`
	BackoffMS int64      `json:"backoff_ms,omitempty"`
	// Worker names the fleet worker that executed the transition, when
	// the daemon runs as a coordinator; empty in standalone mode. It
	// makes the journal a forensic record of where each scan actually
	// ran across ownership handoffs.
	Worker string `json:"worker,omitempty"`
	// Hash and Blob are a blob record's address and content.
	Hash string `json:"hash,omitempty"`
	Blob []byte `json:"blob,omitempty"`
	// Refs lists the blob addresses an accepted record's payload names;
	// a blob stays live while a live record references it.
	Refs    []string        `json:"refs,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// content is the file content of a blob record FileBlobs built;
	// encodeLine encodes it from here when the record is written.
	content string
}

// FileRef names one file of a submission: its path and the address of
// the blob record holding its content. Size is the content's length
// where the content travels beside the refs rather than in blobs (a
// fleet dispatch frame). Content is the inline form journals held
// before blob records existed; it is read, never written.
type FileRef struct {
	Path    string `json:"path"`
	Size    int64  `json:"size,omitempty"`
	Hash    string `json:"hash,omitempty"`
	Content []byte `json:"content,omitempty"`
}

// Blobs holds a replayed stream's file content by address.
type Blobs map[string]string

// IndexBlobs collects the blob records of a replayed stream. A blob
// whose bytes do not hash to its address is left out, so the records
// that reference it fail to resolve instead of replaying wrong bytes.
func IndexBlobs(records []Record) Blobs {
	b := Blobs{}
	for _, r := range records {
		if r.Type != RecBlob {
			continue
		}
		if content := r.blobContent(); analyzer.HashContent(content) == r.Hash {
			b[r.Hash] = content
		}
	}
	return b
}

// blobContent is a blob record's content, as decoded or as FileBlobs
// built it.
func (r *Record) blobContent() string {
	if r.Blob == nil {
		return r.content
	}
	return string(r.Blob)
}

// Files resolves a journaled submission's files: each from the blob
// its Hash addresses, or from the inline Content of a record in the
// older format (left unhashed). It fails when an addressed blob is
// missing or was damaged.
func (b Blobs) Files(refs []FileRef) ([]analyzer.SourceFile, error) {
	files := make([]analyzer.SourceFile, 0, len(refs))
	for _, f := range refs {
		content := string(f.Content)
		if f.Hash != "" {
			var ok bool
			if content, ok = b[f.Hash]; !ok {
				return nil, fmt.Errorf("durable: %s: blob %s missing or damaged", f.Path, f.Hash)
			}
		}
		files = append(files, analyzer.SourceFile{Path: f.Path, Content: content, Hash: f.Hash})
	}
	return files, nil
}

// FileBlobs splits a submission's hashed files into what its journal
// record needs: a blob record for each address not yet in seen (which
// it extends; nil dedups within this call only), the refs its payload
// names the files by, and the addresses the record lists in Refs. A
// blob record it builds holds the file's content by reference; the
// bytes are copied only when the record is written, so a blob the
// journal already holds costs no copy.
func FileBlobs(files []analyzer.SourceFile, seen map[string]bool) (blobs []Record, refs []FileRef, addrs []string) {
	if seen == nil {
		seen = make(map[string]bool, len(files))
	}
	refs = make([]FileRef, 0, len(files))
	addrs = make([]string, 0, len(files))
	for i := range files {
		f := &files[i]
		h := f.Digest()
		refs = append(refs, FileRef{Path: f.Path, Hash: h})
		addrs = append(addrs, h)
		if !seen[h] {
			seen[h] = true
			blobs = append(blobs, Record{Type: RecBlob, Hash: h, content: f.Content})
		}
	}
	return blobs, refs, addrs
}

// ErrDegraded is returned by Append once the journal has flipped to
// degraded mode after a disk failure; the caller should keep working
// in-memory.
var ErrDegraded = errors.New("durable: journal degraded, running in-memory")

// Options tunes a Journal.
type Options struct {
	// SyncEvery is how many appends may pass between fsyncs: 0 or 1
	// syncs every append, N>1 every Nth, negative never.
	SyncEvery int
	// Recorder, which may be nil, receives the journal_* counters.
	Recorder *obs.Recorder
	// Logger, when non-nil, receives structured journal events (tail
	// truncation, degradation); nil discards them.
	Logger *slog.Logger
}

const (
	walName  = "wal.jsonl"
	snapName = "snapshot.jsonl"
)

// Journal is an open scan journal. All methods are safe for
// concurrent use.
type Journal struct {
	dir string
	opt Options
	rec *obs.Recorder
	log *slog.Logger

	mu          sync.Mutex
	wal         *os.File
	seq         uint64
	unsynced    int
	walBytes    int64
	degraded    bool
	degradedErr error

	// live and garbage split every byte of the snapshot and WAL; scans
	// holds each scan's live line lengths so a superseding record or
	// Retire can move them to garbage, and blobs holds every blob line
	// on disk with the count of live records referencing it.
	live, garbage int64
	scans         map[string]*scanBytes
	blobs         map[string]*blobBytes
}

// scanBytes is one scan's live journal bytes: its latest accepted line
// and its latest final line (in a snapshot, also the attempt marker),
// plus the blob addresses its accepted line references.
type scanBytes struct {
	accepted, final int64
	refs            []string
}

// blobBytes is one blob line: its length and how many live records
// reference it. An unreferenced blob stays on disk, as garbage, until
// the next compaction; a record that references it again revives it.
type blobBytes struct {
	n    int64
	refs int
}

// Open opens (creating if needed) the journal in dir and replays it:
// the returned records are every intact lifecycle record, snapshot
// first, in append order. The WAL is truncated back to its last
// intact record so subsequent appends continue from a clean tail.
func Open(dir string, opt Options) (*Journal, []Record, error) {
	if dir == "" {
		return nil, nil, errors.New("durable: empty journal directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: creating journal dir: %w", err)
	}
	logger := opt.Logger
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	j := &Journal{
		dir: dir, opt: opt, rec: opt.Recorder, log: logger.With("component", "journal"),
		scans: make(map[string]*scanBytes), blobs: make(map[string]*blobBytes),
	}

	snapRecs, snapLens, _, err := readLog(filepath.Join(dir, snapName), j.rec)
	if err != nil {
		return nil, nil, err
	}
	// The snapshot's meta record tells us which WAL records it already
	// absorbed (a crash between snapshot rename and WAL reset leaves
	// them behind).
	var coveredSeq uint64
	records := make([]Record, 0, len(snapRecs))
	for i, r := range snapRecs {
		j.accountLocked(r, snapLens[i], true)
		if r.Type == recSnapshot {
			coveredSeq = r.Seq
			continue
		}
		records = append(records, r)
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	// Resume numbering above the snapshot's horizon, not just above the
	// live records it carries: otherwise appends after a reopen would
	// reuse sequence numbers the meta record already covers, and the
	// next replay's Seq <= coveredSeq filter would silently drop them.
	if coveredSeq > j.seq {
		j.seq = coveredSeq
	}

	walPath := filepath.Join(dir, walName)
	walRecs, walLens, goodLen, err := readLog(walPath, j.rec)
	if err != nil {
		return nil, nil, err
	}
	for i, r := range walRecs {
		if r.Seq <= coveredSeq {
			j.garbage += walLens[i]
			continue
		}
		j.accountLocked(r, walLens[i], false)
		records = append(records, r)
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	// Cut any damaged tail off before reopening for append.
	if fi, statErr := os.Stat(walPath); statErr == nil && fi.Size() > goodLen {
		if err := os.Truncate(walPath, goodLen); err != nil {
			return nil, nil, fmt.Errorf("durable: truncating damaged WAL tail: %w", err)
		}
		j.count("journal_tail_truncations_total")
		j.log.Warn("truncated damaged WAL tail", "bytes_dropped", fi.Size()-goodLen)
	}
	j.wal, err = os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: opening WAL: %w", err)
	}
	j.walBytes = goodLen
	j.count("journal_opens_total")
	if n := len(records); n > 0 {
		j.add("journal_replayed_records_total", int64(n))
	}
	return j, records, nil
}

// readLog parses one CRC-guarded JSONL file, tolerating a damaged
// tail: it returns every intact record with its line length, plus the
// byte offset where the intact prefix ends. A missing file is an empty
// log.
func readLog(path string, rec *obs.Recorder) ([]Record, []int64, int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, 0, nil
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("durable: reading %s: %w", filepath.Base(path), err)
	}
	var records []Record
	var lens []int64
	var good int64
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Incomplete final line: a torn write. Keep the prefix.
			break
		}
		line := data[off : off+nl]
		r, ok := parseLine(line)
		if !ok {
			// Checksum or format damage. Nothing after a damaged
			// record can be trusted to be ordered, so stop here.
			if rec != nil {
				rec.Counter("journal_corrupt_records_total").Inc()
			}
			break
		}
		records = append(records, r)
		lens = append(lens, int64(nl+1))
		off += nl + 1
		good = int64(off)
	}
	return records, lens, good, nil
}

// parseLine decodes one "crc8hex json" line, verifying the checksum.
func parseLine(line []byte) (Record, bool) {
	var r Record
	if len(line) < 10 || line[8] != ' ' {
		return r, false
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return r, false
	}
	body := line[9:]
	if crc32.ChecksumIEEE(body) != sum {
		return r, false
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, false
	}
	return r, true
}

// encodeLine renders a record as its CRC-guarded journal line: a blob
// record through encodeBlobLine, any other through json.Marshal.
func encodeLine(r Record) ([]byte, error) {
	if line, ok := encodeBlobLine(&r); ok {
		return line, nil
	}
	return marshalLine(r)
}

// marshalLine renders a record through json.Marshal.
func marshalLine(r Record) ([]byte, error) {
	if r.Blob == nil && r.content != "" {
		r.Blob = []byte(r.content)
	}
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 9, len(body)+10)
	line = append(line, body...)
	line = append(line, '\n')
	frameLine(line)
	return line, nil
}

// encodeBlobLine renders a blob record byte for byte as marshalLine
// would, without reflection or a []byte copy of the content: the
// fields in Record's tag order, the RFC 3339 time and the standard
// base64 of the content, into one buffer sized up front. It reports
// false for a record it leaves to marshalLine: one that is not a blob
// or sets a field a blob never carries, a hash that needs escaping,
// or a time encoding/json refuses.
func encodeBlobLine(r *Record) ([]byte, bool) {
	if r.Type != RecBlob || r.ScanID != "" || r.Attempt != 0 || r.Error != "" || r.BackoffMS != 0 ||
		r.Worker != "" || len(r.Refs) != 0 || len(r.Payload) != 0 || !plainJSON(r.Hash) {
		return nil, false
	}
	if y := r.Time.Year(); y < 0 || y > 9999 {
		return nil, false
	}
	if _, off := r.Time.Zone(); off <= -24*3600 || off >= 24*3600 {
		return nil, false
	}
	n := len(r.Blob)
	if r.Blob == nil {
		n = len(r.content)
	}
	const head, tail = `{"seq":`, `,"type":"blob","time":"`
	size := 9 + len(head) + 20 + len(tail) + len(time.RFC3339Nano) + len(`","hash":"`) + len(r.Hash) +
		len(`","blob":"`) + base64.StdEncoding.EncodedLen(n) + len(`"}`) + 1
	line := make([]byte, 9, size)
	line = append(line, head...)
	line = strconv.AppendUint(line, r.Seq, 10)
	line = append(line, tail...)
	line = r.Time.AppendFormat(line, time.RFC3339Nano)
	line = append(line, `","hash":"`...)
	line = append(line, r.Hash...)
	line = append(line, '"')
	if n > 0 {
		line = append(line, `,"blob":"`...)
		if r.Blob != nil {
			line = base64.StdEncoding.AppendEncode(line, r.Blob)
		} else {
			// Whole 3-byte groups encode without padding, so encoding
			// the string a chunk at a time gives the bytes of encoding
			// it at once.
			var chunk [3 << 10]byte
			for s := r.content; s != ""; {
				k := copy(chunk[:], s)
				line = base64.StdEncoding.AppendEncode(line, chunk[:k])
				s = s[k:]
			}
		}
		line = append(line, '"')
	}
	line = append(line, '}', '\n')
	frameLine(line)
	return line, true
}

// plainJSON reports whether s is non-empty and json.Marshal writes it
// unescaped: printable ASCII other than the quote, the backslash and
// the HTML-escaped <, > and &.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return s != ""
}

// frameLine fills the first nine bytes of line with the checksum of
// the JSON between them and the trailing newline, as "%08x ".
func frameLine(line []byte) {
	const hex = "0123456789abcdef"
	sum := crc32.ChecksumIEEE(line[9 : len(line)-1])
	for i := 7; i >= 0; i-- {
		line[i] = hex[sum&0xf]
		sum >>= 4
	}
	line[8] = ' '
}

// Append journals records in order, assigning their sequence numbers
// and timestamps, in one write, and fsyncs once per the sync policy. A
// blob record whose address the journal already holds is skipped and
// counted in journal_blobs_deduped_total, so a caller passes a
// submission's blobs ahead of its record and only new content reaches
// the disk. After a disk failure the journal is degraded and Append
// returns ErrDegraded without touching the disk; it never blocks on a
// broken device. Every failed Append, the ErrDegraded fast-fail
// included, counts once in journal_append_errors_total.
func (j *Journal) Append(recs ...Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(recs); err != nil {
		j.count("journal_append_errors_total")
		return err
	}
	return nil
}

func (j *Journal) appendLocked(recs []Record) error {
	if j.degraded {
		return ErrDegraded
	}
	written := make([]Record, 0, len(recs))
	lines := make([][]byte, 0, len(recs))
	var batchBlobs map[string]bool
	deduped := int64(0)
	seq := j.seq
	for _, r := range recs {
		if r.Type == RecBlob {
			if j.blobs[r.Hash] != nil || batchBlobs[r.Hash] {
				deduped++
				continue
			}
			if batchBlobs == nil {
				batchBlobs = make(map[string]bool)
			}
			batchBlobs[r.Hash] = true
		}
		seq++
		r.Seq = seq
		if r.Time.IsZero() {
			r.Time = time.Now().UTC()
		}
		line, err := encodeLine(r)
		if err != nil {
			return fmt.Errorf("durable: encoding record: %w", err)
		}
		written = append(written, r)
		lines = append(lines, line)
	}
	j.add("journal_blobs_deduped_total", deduped)
	if len(written) == 0 {
		return nil
	}
	buf := lines[0]
	if len(lines) > 1 {
		buf = bytes.Join(lines, nil)
	}
	if err := j.faultLocked("append", j.wal.Name()); err != nil {
		return j.degradeLocked(err)
	}
	if _, err := j.wal.Write(buf); err != nil {
		return j.degradeLocked(err)
	}
	j.seq = seq
	j.walBytes += int64(len(buf))
	for i, r := range written {
		j.accountLocked(r, int64(len(lines[i])), false)
	}
	j.add("journal_appends_total", int64(len(written)))
	j.add("journal_appended_bytes_total", int64(len(buf)))
	j.unsynced++
	every := j.opt.SyncEvery
	if every == 0 {
		every = 1
	}
	if every > 0 && j.unsynced >= every {
		if err := j.syncLocked(); err != nil {
			return j.degradeLocked(err)
		}
	}
	return nil
}

// syncLocked fsyncs the WAL; caller holds j.mu.
func (j *Journal) syncLocked() error {
	if err := j.faultLocked("fsync", j.wal.Name()); err != nil {
		return err
	}
	if err := j.wal.Sync(); err != nil {
		return err
	}
	j.unsynced = 0
	j.count("journal_fsyncs_total")
	return nil
}

// Compact atomically replaces the snapshot with the live record set
// and resets the WAL. Callers pass the minimal records that
// reconstruct current state (typically one accepted plus one terminal
// record per retained scan); sequence numbers are reassigned. The
// accounting restarts from the snapshot: all of it live, no garbage.
// Every failed Compact counts once in journal_compact_errors_total.
func (j *Journal) Compact(live []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.compactLocked(live); err != nil {
		j.count("journal_compact_errors_total")
		return err
	}
	j.count("journal_compactions_total")
	return nil
}

func (j *Journal) compactLocked(live []Record) error {
	if j.degraded {
		return ErrDegraded
	}
	// The meta record pins the sequence horizon: every WAL record with
	// Seq <= the horizon is absorbed by this snapshot, and a reopened
	// journal resumes numbering above it. Live records get fresh
	// sequence numbers under that horizon (the max() keeps the horizon
	// sound even if the caller hands us more records than were ever
	// journaled).
	horizon := j.seq
	if n := uint64(len(live)); n > horizon {
		horizon = n
	}
	recs := make([]Record, 0, len(live)+1)
	recs = append(recs, Record{Seq: horizon, Type: recSnapshot, Time: time.Now().UTC()})
	for i, r := range live {
		r.Seq = uint64(i + 1)
		if r.Time.IsZero() {
			r.Time = time.Now().UTC()
		}
		recs = append(recs, r)
	}
	tmp := filepath.Join(j.dir, snapName+".tmp")
	lens, err := j.writeSnapshotLocked(tmp, recs)
	if err != nil {
		return j.degradeLocked(err)
	}
	if err := j.faultLocked("rename", tmp); err != nil {
		return j.degradeLocked(err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapName)); err != nil {
		return j.degradeLocked(err)
	}
	// Make the rename durable before touching the WAL: if the truncate
	// persisted while the rename did not, power loss would leave an
	// empty WAL beside the stale snapshot — the whole journal gone.
	if err := j.syncDirLocked(); err != nil {
		return j.degradeLocked(err)
	}
	if err := j.wal.Truncate(0); err != nil {
		return j.degradeLocked(err)
	}
	if _, err := j.wal.Seek(0, 0); err != nil {
		return j.degradeLocked(err)
	}
	if err := j.syncLocked(); err != nil {
		return j.degradeLocked(err)
	}
	j.seq = horizon
	j.walBytes = 0
	j.live, j.garbage = 0, 0
	j.scans = make(map[string]*scanBytes, len(j.scans))
	j.blobs = make(map[string]*blobBytes, len(j.blobs))
	for i, r := range recs {
		j.accountLocked(r, lens[i], true)
	}
	j.add("journal_compacted_bytes_total", j.live)
	return nil
}

// accountLocked files one n-byte journal line as live or garbage (see
// Accounting in the package comment); caller holds j.mu. Lines of a
// snapshot are live by construction: Compact wrote exactly the live
// set, so inSnapshot only attributes them to their scan. A line of a
// type the journal no longer writes is garbage wherever it lies.
func (j *Journal) accountLocked(r Record, n int64, inSnapshot bool) {
	switch r.Type {
	case RecBlob:
		// Unreferenced until a record names it; a second line for an
		// address already on disk is never needed again.
		if j.blobs[r.Hash] == nil {
			j.blobs[r.Hash] = &blobBytes{n: n}
		}
		j.garbage += n
		return
	case RecFleetMember, recSnapshot:
		j.live += n
		return
	case RecAccepted, RecStarted, RecAttemptFailed, RecCompleted, RecQuarantined:
	default:
		// Nothing replays it (a fleet worker's retired dispatch
		// records), so it must not hold a compaction back.
		j.garbage += n
		return
	}
	sb := j.scans[r.ScanID]
	final := r.Type == RecCompleted || r.Type == RecQuarantined
	switch {
	case r.Type == RecAccepted:
		if sb == nil {
			sb = &scanBytes{}
			j.scans[r.ScanID] = sb
		} else if !inSnapshot {
			j.dropLocked(sb)
		}
		sb.accepted += n
		for _, h := range r.Refs {
			if b := j.blobs[h]; b != nil {
				if b.refs++; b.refs == 1 {
					j.garbage -= b.n
					j.live += b.n
				}
				sb.refs = append(sb.refs, h)
			}
		}
	case sb != nil && (inSnapshot || final):
		if !inSnapshot {
			j.live -= sb.final
			j.garbage += sb.final
			sb.final = 0
		}
		sb.final += n
	default:
		// Attempt bookkeeping, or a record whose scan has no accepted
		// record left (retired, or lost in a damaged tail).
		j.garbage += n
		return
	}
	j.live += n
}

// dropLocked moves all of one scan's live bytes to garbage, with every
// blob no other live record references; caller holds j.mu.
func (j *Journal) dropLocked(sb *scanBytes) {
	n := sb.accepted + sb.final
	for _, h := range sb.refs {
		b := j.blobs[h]
		if b.refs--; b.refs == 0 {
			n += b.n
		}
	}
	j.live -= n
	j.garbage += n
	*sb = scanBytes{}
}

// Retire marks every record of scanID as garbage: the caller no longer
// needs the scan (the daemon evicted it), so the next compaction drops
// it. Retiring an unknown or already retired scan is a no-op.
func (j *Journal) Retire(scanID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if sb, ok := j.scans[scanID]; ok {
		j.dropLocked(sb)
		delete(j.scans, scanID)
	}
}

// NeedsCompaction reports whether a compaction would drop at least as
// many bytes as it rewrites, and at least floor bytes: garbage >=
// max(floor, live). Always false once the journal is degraded.
func (j *Journal) NeedsCompaction(floor int64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.degraded && j.garbage >= max(floor, j.live)
}

// syncDirLocked fsyncs the journal directory, making the snapshot
// rename (a directory-metadata operation) durable; caller holds j.mu.
func (j *Journal) syncDirLocked() error {
	if err := j.faultLocked("syncdir", j.dir); err != nil {
		return err
	}
	d, err := os.Open(j.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeSnapshotLocked writes and fsyncs one snapshot file, returning
// each record's line length.
func (j *Journal) writeSnapshotLocked(path string, recs []Record) ([]int64, error) {
	if err := j.faultLocked("snapshot", path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	lens := make([]int64, 0, len(recs))
	for _, r := range recs {
		line, err := encodeLine(r)
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(line); err != nil {
			f.Close()
			return nil, err
		}
		lens = append(lens, int64(len(line)))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return lens, f.Close()
}

// faultLocked consults the test-only disk fault hook.
func (j *Journal) faultLocked(op, path string) error {
	if hook := govern.IOFaultHookForTesting; hook != nil {
		return hook(op, path)
	}
	return nil
}

// degradeLocked flips the journal to in-memory mode on its first disk
// failure; caller holds j.mu. The triggering error is returned so the
// caller can log it.
func (j *Journal) degradeLocked(err error) error {
	if !j.degraded {
		j.degraded = true
		j.degradedErr = err
		j.count("journal_degraded_events_total")
		j.wal.Close()
		j.log.Error("journal degraded to in-memory mode", "error", err.Error())
	}
	return fmt.Errorf("durable: journal degraded: %w", err)
}

// Degraded reports whether a disk failure has flipped the journal to
// in-memory mode (and with which error).
func (j *Journal) Degraded() (bool, error) {
	if j == nil {
		return false, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded, j.degradedErr
}

// Usage is a point-in-time view of the journal's size.
type Usage struct {
	// WALBytes is the current WAL size.
	WALBytes int64
	// LiveBytes and GarbageBytes split the snapshot and WAL: what the
	// next compaction would keep and what it would drop.
	LiveBytes, GarbageBytes int64
}

// Usage reports the journal's current size and live/garbage split.
func (j *Journal) Usage() Usage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Usage{WALBytes: j.walBytes, LiveBytes: j.live, GarbageBytes: j.garbage}
}

// Close fsyncs and closes the WAL. The journal must not be used after.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded {
		return nil
	}
	if j.unsynced > 0 && j.opt.SyncEvery >= 0 {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	return j.wal.Close()
}

func (j *Journal) count(name string) { j.add(name, 1) }

func (j *Journal) add(name string, n int64) {
	if j.rec != nil {
		j.rec.Counter(name).Add(n)
	}
}

// JobState is one scan's folded journal state: the latest
// lifecycle-determining record plus the bookkeeping replay needs.
type JobState struct {
	// ScanID identifies the scan across records.
	ScanID string
	// Phase is the scan's current lifecycle position: RecCompleted and
	// RecQuarantined are settled; anything else means the scan is still
	// owed an execution and must be resubmitted.
	Phase RecordType
	// Attempts is how many attempts have already failed (the count of
	// attempt_failed records since the last accepted), so a resubmitted
	// job resumes its retry budget instead of resetting it.
	Attempts int
	// Accepted is the submission record (payload: the target).
	Accepted Record
	// Final is the completed or quarantined record when settled
	// (payload: the persisted result, if any).
	Final *Record
}

// Settled reports whether the scan needs no further execution.
func (s *JobState) Settled() bool {
	return s.Phase == RecCompleted || s.Phase == RecQuarantined
}

// Fold collapses a replayed record stream into per-scan states, in
// first-accepted order. A fresh accepted record after a terminal one
// (the manual retry path) re-opens the scan with a reset attempt
// budget. Records for scans with no accepted record (their acceptance
// fell in a lost tail) are dropped: there is nothing to resubmit.
func Fold(records []Record) []*JobState {
	byID := make(map[string]*JobState)
	var order []*JobState
	for _, r := range records {
		switch r.Type {
		case RecAccepted:
			st, ok := byID[r.ScanID]
			if !ok {
				st = &JobState{ScanID: r.ScanID}
				byID[r.ScanID] = st
				order = append(order, st)
			}
			st.Phase = RecAccepted
			st.Attempts = 0
			st.Accepted = r
			st.Final = nil
		case RecStarted, RecAttemptFailed, RecCompleted, RecQuarantined:
			st, ok := byID[r.ScanID]
			if !ok {
				continue
			}
			st.Phase = r.Type
			if r.Type == RecAttemptFailed {
				st.Attempts = r.Attempt
			}
			if r.Type == RecCompleted || r.Type == RecQuarantined {
				rr := r
				st.Final = &rr
			}
		}
	}
	return order
}
