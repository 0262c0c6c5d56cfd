package core

// Equivalence pins for the labeling path: every session labels through a
// BatchOracle, and a per-pair oracle lifted by oracle.Batched or
// resilience.BatchOf must reproduce the per-pair engine loop it replaced
// — same snapshot bytes at every step (labeled order, RNG draw
// positions, curve), same oracle query count, same WAL bytes — at every
// worker count. The reference is recorded in testdata/batch_equiv.json
// (per-step snapshot digests) and testdata/batch_equiv_*.wal (WAL bytes),
// captured from the per-pair loop before it was removed. Run with
// `make equiv`; regenerate only for an intended change with
//
//	go test ./internal/core/ -run BatchOracleEquivalence -update

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/resilience"
)

// equivGolden is one reference run: the SHA-256 of the timeless snapshot
// after every Step, and the oracle's final query count. The run's WAL
// bytes live next to it in testdata/batch_equiv_<oracle>.wal.
type equivGolden struct {
	Steps   []string `json:"steps"`
	Queries int      `json:"queries"`
}

const equivGoldenPath = "testdata/batch_equiv.json"

func equivWALPath(oracleName string) string {
	return filepath.Join("testdata", "batch_equiv_"+oracleName+".wal")
}

// encodeTimeless serializes a snapshot with its wall-clock latency
// fields zeroed: timings are measurements, not protocol state, and they
// are the only snapshot bytes a bit-identical pair of runs may differ in.
func encodeTimeless(t *testing.T, sn *Snapshot, buf *bytes.Buffer) {
	t.Helper()
	for i := range sn.Curve {
		sn.Curve[i].TrainTime = 0
		sn.Curve[i].CommitteeCreateTime = 0
		sn.Curve[i].ScoreTime = 0
	}
	if err := sn.Encode(buf); err != nil {
		t.Fatal(err)
	}
}

// traceRun drives s to completion with a fresh WAL attached, returning
// the digest of the timeless snapshot after every step and the WAL bytes.
func traceRun(t *testing.T, s *Session) ([]string, []byte) {
	t.Helper()
	walPath := filepath.Join(t.TempDir(), "labels.wal")
	wal, _, err := resilience.OpenLabelWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLabelSink(wal)
	var steps []string
	for {
		done, err := s.Step(context.Background())
		if err != nil {
			t.Fatalf("step %d: %v", len(steps), err)
		}
		var buf bytes.Buffer
		encodeTimeless(t, s.Snapshot(), &buf)
		sum := sha256.Sum256(buf.Bytes())
		steps = append(steps, hex.EncodeToString(sum[:]))
		if done {
			break
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	return steps, walBytes
}

// checkEquivGolden runs s and compares it against the named reference
// run (or records it under -update).
func checkEquivGolden(t *testing.T, key, oracleName string, s *Session, queries func() int) {
	t.Helper()
	steps, walBytes := traceRun(t, s)
	got := equivGolden{Steps: steps, Queries: queries()}

	goldens := map[string]equivGolden{}
	if _, err := os.Stat(equivGoldenPath); err == nil || !*update {
		readGolden(t, equivGoldenPath, &goldens)
	}
	if *update {
		goldens[key] = got
		writeGolden(t, equivGoldenPath, goldens)
		if err := os.WriteFile(equivWALPath(oracleName), walBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := goldens[key]
	if !ok {
		t.Fatalf("no reference run %q in %s", key, equivGoldenPath)
	}
	if len(got.Steps) != len(want.Steps) {
		t.Errorf("%d steps, reference run took %d", len(got.Steps), len(want.Steps))
	}
	for i := range min(len(got.Steps), len(want.Steps)) {
		if got.Steps[i] != want.Steps[i] {
			var buf bytes.Buffer
			encodeTimeless(t, s.Snapshot(), &buf)
			t.Fatalf("step %d: snapshot diverges from the reference run\nfinal snapshot:\n%s", i, buf.String())
		}
	}
	if got.Queries != want.Queries {
		t.Errorf("oracle queries = %d, reference run paid %d", got.Queries, want.Queries)
	}
	wantWAL, err := os.ReadFile(equivWALPath(oracleName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(walBytes, wantWAL) {
		t.Errorf("WAL bytes diverge from the reference run\ngot:\n%s\nwant:\n%s", walBytes, wantWAL)
	}
}

// TestBatchOracleEquivalenceBitIdentical pins the free, perfect oracle
// through every construction — NewSession, NewBatchSession over
// oracle.Batched, and NewBatchSession over resilience.BatchOf — against
// the per-pair reference run, under serial and parallel scoring alike.
func TestBatchOracleEquivalenceBitIdentical(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pool := syntheticPool(500, 21)
			cfg := Config{Seed: 21, MaxLabels: 100, Workers: workers}
			key := fmt.Sprintf("perfect/workers=%d", workers)

			ora := poolOracle(pool)
			s, err := NewSession(pool, linear.NewSVM(21), Margin{}, ora, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var batches [][]int
			s.AddObserver(ObserverFunc(func(e Event) {
				if bs, ok := e.(BatchSelected); ok {
					batches = append(batches, append([]int(nil), bs.Batch...))
				}
			}))
			checkEquivGolden(t, key, "perfect", s, ora.Queries)
			if *update {
				return
			}
			// The free adapter's ledger is trivial: all answers are labels,
			// nothing spent, nothing abstained.
			want := CostLedger{Labels: s.Result().LabelsUsed, Answers: s.Result().LabelsUsed}
			if led := s.Ledger(); led != want {
				t.Errorf("ledger = %+v, want %+v", led, want)
			}

			for _, ad := range perPairAdapters {
				t.Run(ad.name, func(t *testing.T) {
					ora := poolOracle(pool)
					s, err := NewBatchSession(pool, linear.NewSVM(21), Margin{}, ad.lift(ora), cfg)
					if err != nil {
						t.Fatal(err)
					}
					var got [][]int
					s.AddObserver(ObserverFunc(func(e Event) {
						if bs, ok := e.(BatchSelected); ok {
							got = append(got, append([]int(nil), bs.Batch...))
						}
					}))
					checkEquivGolden(t, key, "perfect", s, ora.Queries)
					if !reflect.DeepEqual(got, batches) {
						t.Error("selected batches diverge between NewSession and NewBatchSession")
					}
				})
			}
		})
	}
}

// TestBatchOracleEquivalenceNoisy repeats the pin over a Noisy oracle:
// both adapters must consume the noise RNG at exactly the reference
// run's draw positions, so every run flips the same labels.
func TestBatchOracleEquivalenceNoisy(t *testing.T) {
	pool := syntheticPool(500, 22)
	cfg := Config{Seed: 22, MaxLabels: 100}
	const noise, noiseSeed = 0.2, 13

	noisy := noisyPoolOracle(pool, noise, noiseSeed)
	s, err := NewSession(pool, linear.NewSVM(22), Margin{}, noisy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivGolden(t, "noisy", "noisy", s, noisy.Queries)
	if *update {
		return
	}

	noisy = noisyPoolOracle(pool, noise, noiseSeed)
	s, err = NewBatchSession(pool, linear.NewSVM(22), Margin{},
		resilience.BatchOf(resilience.Wrap(noisy)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.stateful == nil {
		t.Fatal("NewBatchSession did not discover the Noisy oracle's Stateful hook through the adapters")
	}
	checkEquivGolden(t, "noisy", "noisy", s, noisy.Queries)
}
