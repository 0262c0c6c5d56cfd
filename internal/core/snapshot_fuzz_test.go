package core

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/resilience"
)

// fuzzSimConfig prices and abstains so the seed runs journal billed
// abstentions as well as labels.
var fuzzSimConfig = oracle.LLMSimConfig{
	AbstainRate: 0.3,
	Price:       oracle.PriceTable{PerLabel: 0.002, PerAbstain: 0.0005},
}

// fuzzSeedRun runs a priced session for two steps over pool and returns
// its snapshot together with the WAL it journaled.
func fuzzSeedRun(f *testing.F, pool *Pool) (*Snapshot, []resilience.LabelRecord) {
	f.Helper()
	s, err := NewBatchSession(pool, linear.NewSVM(5), Margin{}, simPoolOracle(pool, fuzzSimConfig, 5), Config{Seed: 5, MaxLabels: 50})
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "labels.wal")
	w, _, err := resilience.OpenLabelWAL(path)
	if err != nil {
		f.Fatal(err)
	}
	s.SetLabelSink(w)
	for i := 0; i < 2; i++ {
		if _, err := s.Step(context.Background()); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	w, wal, err := resilience.OpenLabelWAL(path)
	if err != nil {
		f.Fatal(err)
	}
	w.Close()
	return s.Snapshot(), wal
}

// encodeFuzzInput renders a snapshot and its WAL in their on-disk forms:
// Encode's JSON and one JSON record per line.
func encodeFuzzInput(f *testing.F, sn *Snapshot, wal []resilience.LabelRecord) ([]byte, []byte) {
	f.Helper()
	var snap, log bytes.Buffer
	if err := sn.Encode(&snap); err != nil {
		f.Fatal(err)
	}
	enc := json.NewEncoder(&log)
	for _, rec := range wal {
		if err := enc.Encode(rec); err != nil {
			f.Fatal(err)
		}
	}
	return snap.Bytes(), log.Bytes()
}

// decodeWAL parses one record per line, skipping lines that do not
// decode, the way a torn or garbled journal reaches Restore.
func decodeWAL(data []byte) []resilience.LabelRecord {
	var wal []resilience.LabelRecord
	for _, line := range bytes.Split(data, []byte("\n")) {
		var rec resilience.LabelRecord
		if json.Unmarshal(line, &rec) == nil {
			wal = append(wal, rec)
		}
	}
	return wal
}

// maxFuzzDraws bounds the RNG position a fuzzed snapshot may claim:
// Restore replays every recorded draw, so a larger counter only spends
// time without reaching new code.
const maxFuzzDraws = 1 << 16

// FuzzSnapshotRestore restores hostile snapshot bytes and WAL records
// against a fixed 60-pair pool, once through oracle.Batched and once
// through the simulated LLM labeler, whose per-pair attempt ordinals are
// realigned from the WAL by pool index. Restore must either return an
// error or a session whose first Step keeps every pool index at most
// once across the labeled and unlabeled sets.
func FuzzSnapshotRestore(f *testing.F) {
	pool := syntheticPool(60, 5)
	sn, wal := fuzzSeedRun(f, pool)
	snap, log := encodeFuzzInput(f, sn, wal)
	f.Add(snap, log)

	// Reproducer: a negative curve count sizes the training replay's
	// buffers.
	neg := *sn
	neg.Curve = append(neg.Curve[:0:0], neg.Curve...)
	neg.Curve[0].Labels = -1
	snap, log = encodeFuzzInput(f, &neg, wal)
	f.Add(snap, log)

	// Reproducer: an abstention inside the answer cursor with an index
	// outside the pool indexes the pool while the simulated LLM's attempt
	// ordinals are realigned.
	bad := append([]resilience.LabelRecord(nil), wal...)
	for i := range bad {
		if bad[i].Abstained() {
			bad[i].Index = -7
			break
		}
	}
	snap, log = encodeFuzzInput(f, sn, bad)
	f.Add(snap, log)

	f.Fuzz(func(t *testing.T, snapData, walData []byte) {
		sn, err := ReadSnapshot(bytes.NewReader(snapData))
		if err != nil {
			return
		}
		if sn.Draws63 > maxFuzzDraws || sn.Draws64 > maxFuzzDraws || sn.OracleDraws > maxFuzzDraws {
			return
		}
		wal := decodeWAL(walData)
		for _, bo := range []oracle.BatchOracle{
			oracle.Batched(poolOracle(pool)),
			simPoolOracle(pool, fuzzSimConfig, 5),
		} {
			s, err := Restore(pool, linear.NewSVM(5), Margin{}, bo, sn, wal)
			if err != nil {
				continue
			}
			_, _ = s.Step(context.Background())
			seen := make(map[int]bool, pool.Len())
			for _, idx := range [][]int{s.labeled, s.unlabeled} {
				for _, i := range idx {
					if seen[i] {
						t.Fatalf("pool index %d is labeled or pending twice after the first Step", i)
					}
					seen[i] = true
				}
			}
		}
	})
}
