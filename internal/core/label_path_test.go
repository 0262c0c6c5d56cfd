package core

// Pins for the two guarantees the session's single labeling loop keeps
// for per-pair labelers lifted into the BatchOracle contract: every
// grant is durable before the next query is sent, and WAL-cached
// answers interleave with live queries in batch order across a
// kill/resume.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/resilience"
)

// queryProbeSink is a label-only LabelSink recording how many queries the
// oracle had answered when each grant was journaled.
type queryProbeSink struct {
	queries func() int
	seen    []int
}

func (q *queryProbeSink) Append(seq, index int, label bool) error {
	q.seen = append(q.seen, q.queries())
	return nil
}

// TestLabelSinkDurableBeforeNextQuery pins LabelSink's promise that a
// label is durable the moment it is granted: through either per-pair
// adapter, grant k reaches the sink before query k+1 is sent, within
// multi-pair rounds as well as across them.
func TestLabelSinkDurableBeforeNextQuery(t *testing.T) {
	pool := syntheticPool(300, 25)
	for _, ad := range perPairAdapters {
		t.Run(ad.name, func(t *testing.T) {
			ora := poolOracle(pool)
			s, err := NewBatchSession(pool, linear.NewSVM(25), Margin{}, ad.lift(ora),
				Config{Seed: 25, MaxLabels: 60})
			if err != nil {
				t.Fatal(err)
			}
			sink := &queryProbeSink{queries: ora.Queries}
			s.SetLabelSink(sink)
			res, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(sink.seen) != res.LabelsUsed || res.LabelsUsed < 2*DefaultBatchSize {
				t.Fatalf("sink saw %d grants of %d labels", len(sink.seen), res.LabelsUsed)
			}
			for k, q := range sink.seen {
				if q != k+1 {
					t.Fatalf("grant %d was journaled after %d oracle queries, want %d", k+1, q, k+1)
				}
			}
		})
	}
}

// callRecorder logs the outcome of every label query, tagged with the
// labeling round it belongs to (-1 for the seed bootstrap).
type callRecorder struct {
	inner resilience.FallibleOracle
	round int
	calls []recordedCall
}

type recordedCall struct {
	round int
	ok    bool
}

func (r *callRecorder) Label(ctx context.Context, p dataset.PairKey) (bool, error) {
	lab, err := r.inner.Label(ctx, p)
	r.calls = append(r.calls, recordedCall{round: r.round, ok: err == nil})
	return lab, err
}

func (r *callRecorder) Queries() int      { return r.inner.Queries() }
func (r *callRecorder) UnwrapOracle() any { return r.inner }

// killAfterGrantFailGrant picks a kill point in a recorded run: right
// after the first grant→exhausted-failure→grant sequence within one
// labeling round, at a query of the same round, provided no retry budget
// was exhausted earlier (the resume precondition FaultyOracle
// documents). It returns how many queries the victim may answer before
// it dies.
func killAfterGrantFailGrant(calls []recordedCall) (int, bool) {
	for f, c := range calls {
		if c.ok {
			continue
		}
		if f == 0 || f+2 >= len(calls) || c.round < 0 {
			return 0, false
		}
		before, after, killed := calls[f-1], calls[f+1], calls[f+2]
		if !before.ok || !after.ok || before.round != c.round || after.round != c.round ||
			killed.round != c.round {
			return 0, false
		}
		return f + 2, true
	}
	return 0, false
}

// TestChaosKillResumeNoisyOrdering pins the ordering guarantee: a Noisy
// oracle behind FaultyOracle+Retrier is killed mid-round just after a
// grant, an exhausted pair and another grant. On resume the two grants
// come from the WAL cache while the failed pair between them is queried
// live again; the cached grants must advance the noise RNG in batch
// order, interleaved with the live queries, or every later label draws
// the wrong noise. The resumed run's curve, labels and WAL must match
// the uninterrupted run's bit for bit.
func TestChaosKillResumeNoisyOrdering(t *testing.T) {
	pool := syntheticPool(500, 36)
	cfg := Config{Seed: 36, MaxLabels: 150}
	const noise, noiseSeed, faultRate, faultSeed = 0.2, 17, 0.15, 53
	chain := func() resilience.FallibleOracle {
		faulty := resilience.NewFaultyOracle(resilience.Wrap(noisyPoolOracle(pool, noise, noiseSeed)),
			resilience.FaultConfig{TransientRate: faultRate}, faultSeed)
		return resilience.NewRetrier(faulty, resilience.RetryPolicy{
			MaxAttempts: 2, BaseDelay: time.Nanosecond, Sleep: func(time.Duration) {},
		}, faultSeed)
	}
	dir := t.TempDir()
	openWAL := func(name string) (*resilience.LabelWAL, []resilience.LabelRecord) {
		t.Helper()
		wal, records, err := resilience.OpenLabelWAL(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return wal, records
	}

	// Reference: the uninterrupted run, logging every query's round and
	// outcome to place the kill.
	rec := &callRecorder{inner: chain(), round: -1}
	ref, err := NewBatchSession(pool, linear.NewSVM(36), Margin{}, resilience.BatchOf(rec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.AddObserver(ObserverFunc(func(e Event) {
		if bs, ok := e.(BatchSelected); ok {
			rec.round = bs.Iteration
		}
	}))
	refWAL, _ := openWAL("ref.wal")
	ref.SetLabelSink(refWAL)
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	refWAL.Close()
	killAfter, ok := killAfterGrantFailGrant(rec.calls)
	if !ok {
		t.Fatal("reference run has no grant/exhausted/grant round before any other exhaustion; pick another fault seed")
	}

	// Victim: same seeds, checkpointing every step, killed at the query
	// after the second grant.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victim, err := NewBatchSession(pool, linear.NewSVM(36), Margin{},
		resilience.BatchOf(&killSwitch{inner: chain(), after: killAfter, kill: cancel}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wal, _ := openWAL("victim.wal")
	victim.SetLabelSink(wal)
	var lastSnap bytes.Buffer
	for {
		lastSnap.Reset()
		if err := victim.Snapshot().Encode(&lastSnap); err != nil {
			t.Fatal(err)
		}
		done, err := victim.Step(ctx)
		if err != nil {
			break // the kill
		}
		if done {
			t.Fatal("victim finished before the kill fired")
		}
	}
	wal.Close()

	sn, err := ReadSnapshot(&lastSnap)
	if err != nil {
		t.Fatal(err)
	}
	wal2, records := openWAL("victim.wal")
	defer wal2.Close()
	if len(records) < len(sn.Labeled)+2 {
		t.Fatalf("WAL holds %d records, snapshot %d labels: the kill must leave two post-checkpoint grants",
			len(records), len(sn.Labeled))
	}
	resumed, err := Restore(pool, linear.NewSVM(36), Margin{}, resilience.BatchOf(chain()), sn, records)
	if err != nil {
		t.Fatal(err)
	}
	resumed.SetLabelSink(wal2)
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	curvesEqual(t, refRes.Curve, resRes.Curve)
	if resumed.Reason() != ref.Reason() {
		t.Errorf("reasons differ: %v vs %v", resumed.Reason(), ref.Reason())
	}
	refSn, resSn := ref.Snapshot(), resumed.Snapshot()
	if !reflect.DeepEqual(refSn.Labeled, resSn.Labeled) || !reflect.DeepEqual(refSn.Labels, resSn.Labels) {
		t.Error("resumed labeled set diverges from the uninterrupted run's")
	}
	refBytes, err := os.ReadFile(filepath.Join(dir, "ref.wal"))
	if err != nil {
		t.Fatal(err)
	}
	resBytes, err := os.ReadFile(filepath.Join(dir, "victim.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, resBytes) {
		t.Error("resumed WAL bytes diverge from the uninterrupted run's")
	}
}
