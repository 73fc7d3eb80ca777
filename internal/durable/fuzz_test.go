package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to the journal reader as a
// WAL file. Whatever the corruption — bit flips, torn lines, hostile
// JSON, binary garbage — Open must never panic and must return an
// intact prefix: every record it yields round-trips through the line
// codec, and the file offset it reports as good must itself replay to
// the same records.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a healthy journal, a torn tail, a flipped checksum and
	// assorted garbage.
	j, _, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	j.Append(Record{Type: RecAccepted, ScanID: "s1"})
	j.Append(Record{Type: RecStarted, ScanID: "s1", Attempt: 1})
	j.Append(Record{Type: RecCompleted, ScanID: "s1"})
	healthy, err := os.ReadFile(filepath.Join(j.dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	j.Close()
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-5])
	if len(healthy) > 20 {
		flipped := append([]byte(nil), healthy...)
		flipped[15] ^= 0xff
		f.Add(flipped)
	}
	f.Add([]byte(""))
	f.Add([]byte("00000000 {}\n"))
	f.Add([]byte("not a journal at all\x00\xff\n"))
	f.Add([]byte("zzzzzzzz {\"type\":\"accepted\"}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		wal := filepath.Join(dir, walName)
		if err := os.WriteFile(wal, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := Open(dir, Options{})
		if err != nil {
			// Only environmental errors may surface; corruption must
			// degrade to a shorter replay, not an error.
			t.Fatalf("Open on corrupt WAL errored: %v", err)
		}
		defer j.Close()

		// Each replayed record must survive its own encode/decode.
		for _, r := range recs {
			line, err := encodeLine(r)
			if err != nil {
				t.Fatalf("replayed record does not re-encode: %+v: %v", r, err)
			}
			if _, ok := parseLine(line[:len(line)-1]); !ok {
				t.Fatalf("re-encoded record does not parse: %q", line)
			}
		}
		// Folding arbitrary replays must not panic either.
		_ = Fold(recs)

		// The accounting is never negative and covers exactly the intact
		// WAL prefix Open kept.
		u := j.Usage()
		if u.LiveBytes < 0 || u.GarbageBytes < 0 || u.LiveBytes+u.GarbageBytes != u.WALBytes {
			t.Fatalf("accounting after Open: %+v", u)
		}

		// Open truncated the WAL to its intact prefix; a second open
		// must replay identically (replay is deterministic and stable).
		j2, recs2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer j2.Close()
		if len(recs2) != len(recs) {
			t.Fatalf("second replay %d records, first %d", len(recs2), len(recs))
		}
		if u2 := j2.Usage(); u2 != u {
			t.Fatalf("second Open accounting %+v, first %+v", u2, u)
		}
	})
}
