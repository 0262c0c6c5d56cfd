package resilience

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanWAL pins the WAL's durability contract against arbitrary tail
// corruption: given a log holding acknowledged labels followed by any
// bytes a crash could have left behind, recovery must never panic and
// must never lose an acknowledged record. Either OpenLabelWAL refuses
// the file outright, or it returns every acknowledged label (the fuzz
// tail may legitimately extend the sequence if it happens to decode as
// valid next-in-sequence records) and leaves a file that re-opens to the
// identical state — recovery must be idempotent across re-crashes.
func FuzzScanWAL(f *testing.F) {
	f.Add(0, []byte{})
	f.Add(3, []byte("{\"seq\":9}"))                                      // out-of-sequence intact tail line
	f.Add(2, []byte("{\"seq\":3,\"index\":7,\"label\":true"))            // torn: no newline
	f.Add(1, []byte("{\"seq\":2,\"index\":1,\"label\":true}\n{garbage")) // valid extension then tear
	f.Add(4, []byte("\x00\xff\x00binary junk"))
	f.Fuzz(func(t *testing.T, acked int, tail []byte) {
		if acked < 0 || acked > 64 {
			return
		}
		path := filepath.Join(t.TempDir(), "labels.wal")
		w, records, err := OpenLabelWAL(path)
		if err != nil {
			t.Fatalf("fresh WAL: %v", err)
		}
		if len(records) != 0 {
			t.Fatalf("fresh WAL replayed %d records", len(records))
		}
		for i := 1; i <= acked; i++ {
			if err := w.Append(i, i*3, i%2 == 0); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		w.Close()

		// The crash: arbitrary bytes land after the acknowledged records.
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		fh.Write(tail)
		fh.Close()

		w2, got, err := OpenLabelWAL(path)
		if err != nil {
			// Refusing a corrupt file is allowed; silently dropping
			// acknowledged labels is not, and is checked on the accept path.
			return
		}
		if len(got) < acked {
			t.Fatalf("recovery lost acknowledged labels: %d of %d survive", len(got), acked)
		}
		for i := 0; i < acked; i++ {
			want := LabelRecord{Seq: i + 1, Index: (i + 1) * 3, Label: (i+1)%2 == 0}
			if got[i] != want {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], want)
			}
		}
		w2.Close()

		// Re-crash immediately: the truncated file must re-open to the
		// identical record set with no error.
		w3, again, err := OpenLabelWAL(path)
		if err != nil {
			t.Fatalf("re-opening recovered WAL: %v", err)
		}
		defer w3.Close()
		if len(again) != len(got) {
			t.Fatalf("recovery not idempotent: %d then %d records", len(got), len(again))
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("record %d changed across re-open: %+v vs %+v", i, got[i], again[i])
			}
		}
	})
}
