package core

// Chaos tests: seeded fault injection plus a mid-run kill, asserting the
// Snapshot + label-WAL resume path reproduces the uninterrupted run
// bit-for-bit. Run in isolation with `go test -race -run Chaos ./...`.

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/resilience"
)

// chaosLabeler builds the fault chain used by the chaos tests: a Retrier
// over a seeded FaultyOracle over the pool's perfect oracle. Identical
// seeds build an identically-behaving chain, which is what the
// bit-identity assertions lean on.
func chaosLabeler(pool *Pool, rate float64, seed int64) (*resilience.Retrier, *resilience.FaultyOracle) {
	faulty := resilience.NewFaultyOracle(resilience.Wrap(poolOracle(pool)),
		resilience.FaultConfig{TransientRate: rate}, seed)
	retrier := resilience.NewRetrier(faulty, resilience.RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   time.Nanosecond,
		Sleep:       func(time.Duration) {}, // no real sleeping in tests
	}, seed)
	return retrier, faulty
}

// killSwitch simulates a hard process kill: after `after` label requests
// it cancels the run's context and answers nothing further, like a
// process that died between paying for one label and requesting the next.
type killSwitch struct {
	inner resilience.FallibleOracle
	after int
	calls int
	kill  context.CancelFunc
}

func (k *killSwitch) Label(ctx context.Context, p dataset.PairKey) (bool, error) {
	k.calls++
	if k.calls > k.after {
		k.kill()
		return false, context.Canceled
	}
	return k.inner.Label(ctx, p)
}

func (k *killSwitch) Queries() int      { return k.inner.Queries() }
func (k *killSwitch) UnwrapOracle() any { return k.inner }

// TestChaosKillResumeBitIdentical is the acceptance scenario: a run with
// ~30% transient oracle failures is killed mid-iteration, then resumed
// from the last checkpoint plus the label WAL, and must converge to the
// exact curve, F1 trajectory and label count of an uninterrupted run —
// without re-paying for any label the dead process already bought.
func TestChaosKillResumeBitIdentical(t *testing.T) {
	pool := syntheticPool(600, 31)
	cfg := Config{Seed: 31, MaxLabels: 120}
	const faultRate, faultSeed = 0.3, 77

	// Reference: the uninterrupted faulty run.
	refLabeler, refFaulty := chaosLabeler(pool, faultRate, faultSeed)
	ref, err := NewBatchSession(pool, linear.NewSVM(31), Margin{}, resilience.BatchOf(refLabeler), cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if refFaulty.Injected() == 0 || float64(refFaulty.Injected()) < 0.2*float64(refFaulty.Calls()) {
		t.Fatalf("fault injector too tame: %d faults in %d attempts, want >= 20%%",
			refFaulty.Injected(), refFaulty.Calls())
	}
	// Bit-identity across a resume holds only when no pair exhausted its
	// retry budget before the checkpoint; this seed satisfies it.
	if refLabeler.Exhausted() != 0 {
		t.Fatalf("reference run exhausted %d retry budgets; pick a tamer seed", refLabeler.Exhausted())
	}
	refQueries := refLabeler.Queries()

	// Chaos run: same seeds, checkpointing each iteration to lastSnap and
	// every granted label to a WAL, killed after 63 label grants.
	dir := t.TempDir()
	walPath := filepath.Join(dir, "labels.wal")
	wal, _, err := resilience.OpenLabelWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victimLabeler, _ := chaosLabeler(pool, faultRate, faultSeed)
	ks := &killSwitch{inner: victimLabeler, after: 63, kill: cancel}
	victim, err := NewBatchSession(pool, linear.NewSVM(31), Margin{}, resilience.BatchOf(ks), cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim.SetLabelSink(wal)
	var lastSnap bytes.Buffer
	if err := victim.Snapshot().Encode(&lastSnap); err != nil {
		t.Fatal(err)
	}
	for {
		done, err := victim.Step(ctx)
		if err != nil {
			break // the kill
		}
		if done {
			t.Fatal("victim finished before the kill fired")
		}
		lastSnap.Reset()
		if err := victim.Snapshot().Encode(&lastSnap); err != nil {
			t.Fatal(err)
		}
	}
	wal.Close()
	if victim.Reason() != StopCancelled {
		t.Fatalf("victim reason = %v, want StopCancelled", victim.Reason())
	}
	if victimLabeler.Exhausted() != 0 {
		t.Fatalf("victim run exhausted %d retry budgets before the kill", victimLabeler.Exhausted())
	}

	// Resume: fresh learner, fresh fault chain (same seeds), last
	// checkpoint plus WAL replay.
	sn, err := ReadSnapshot(&lastSnap)
	if err != nil {
		t.Fatal(err)
	}
	wal2, records, err := resilience.OpenLabelWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if len(records) != 63 {
		t.Fatalf("WAL holds %d records, want the 63 labels granted before the kill", len(records))
	}
	if len(records) <= len(sn.Labeled) {
		t.Fatalf("kill landed on an iteration boundary (%d WAL records, %d snapshotted); "+
			"the test needs post-checkpoint grants to exercise WAL replay",
			len(records), len(sn.Labeled))
	}
	resLabeler, _ := chaosLabeler(pool, faultRate, faultSeed)
	resumed, err := Restore(pool, linear.NewSVM(31), Margin{}, resilience.BatchOf(resLabeler), sn, records)
	if err != nil {
		t.Fatal(err)
	}
	resumed.SetLabelSink(wal2)
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	curvesEqual(t, refRes.Curve, resRes.Curve)
	if refRes.LabelsUsed != resRes.LabelsUsed {
		t.Errorf("LabelsUsed differ: %d vs %d", refRes.LabelsUsed, resRes.LabelsUsed)
	}
	if resumed.Reason() != ref.Reason() {
		t.Errorf("reasons differ: %v vs %v", resumed.Reason(), ref.Reason())
	}
	// No label is paid for twice: the resumed process only queries for
	// labels the WAL does not already hold.
	if got, want := resLabeler.Queries(), refQueries-len(records); got != want {
		t.Errorf("resumed process paid %d oracle queries, want %d (WAL labels must not be re-bought)",
			got, want)
	}
	// The WAL now holds the full run, still contiguous.
	if wal2.LastSeq() != refRes.LabelsUsed {
		t.Errorf("final WAL seq = %d, want %d", wal2.LastSeq(), refRes.LabelsUsed)
	}
}

// TestChaosStallTerminates pins the no-spin guarantee: a labeler that is
// hard-down (every attempt fails) must end the run with StopOracleFailed
// and an ErrLabelingStalled error instead of looping forever, and each
// failed pair must surface as an OracleFault event.
func TestChaosStallTerminates(t *testing.T) {
	pool := syntheticPool(200, 32)
	faulty := resilience.NewFaultyOracle(resilience.Wrap(poolOracle(pool)),
		resilience.FaultConfig{TransientRate: 1.0}, 5)
	retrier := resilience.NewRetrier(faulty, resilience.RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Nanosecond, Sleep: func(time.Duration) {},
	}, 5)
	s, err := NewBatchSession(pool, linear.NewSVM(32), Margin{}, resilience.BatchOf(retrier),
		Config{Seed: 32, MaxLabels: 50})
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	s.AddObserver(ObserverFunc(func(e Event) {
		if f, ok := e.(OracleFault); ok {
			faults++
			if !errors.Is(f.Err, resilience.ErrOracleExhausted) {
				t.Errorf("fault err = %v, want ErrOracleExhausted", f.Err)
			}
		}
	}))
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = s.Run(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run with a dead labeler did not terminate")
	}
	if !errors.Is(runErr, ErrLabelingStalled) {
		t.Fatalf("err = %v, want ErrLabelingStalled", runErr)
	}
	if s.Reason() != StopOracleFailed {
		t.Errorf("reason = %v, want StopOracleFailed", s.Reason())
	}
	if faults == 0 {
		t.Error("no OracleFault events observed")
	}
	if len(s.Result().Curve) != 0 {
		t.Errorf("a run that never labeled produced %d curve points", len(s.Result().Curve))
	}
}

// TestChaosPartialRoundDegradesGracefully checks the middle ground: when
// some queries in a round fail terminally, the iteration trains on what
// was granted and the failed pairs are requeued, not dropped — the run
// still reaches its label budget.
func TestChaosPartialRoundDegradesGracefully(t *testing.T) {
	pool := syntheticPool(400, 33)
	// No retrier: every injected fault is terminal at the session level,
	// so ~20% of queries fail outright and must be requeued.
	faulty := resilience.NewFaultyOracle(resilience.Wrap(poolOracle(pool)),
		resilience.FaultConfig{TransientRate: 0.2}, 9)
	s, err := NewBatchSession(pool, linear.NewSVM(33), Margin{}, resilience.BatchOf(faulty),
		Config{Seed: 33, MaxLabels: 80})
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	s.AddObserver(ObserverFunc(func(e Event) {
		if _, ok := e.(OracleFault); ok {
			faults++
		}
	}))
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s.Reason() != StopBudget {
		t.Fatalf("reason = %v, want StopBudget (faults must not end a healthy run)", s.Reason())
	}
	if res.LabelsUsed != 80 {
		t.Errorf("LabelsUsed = %d, want the full budget of 80", res.LabelsUsed)
	}
	if faults == 0 {
		t.Error("expected some OracleFault events at 20% terminal failure rate")
	}
}

// noisyPoolOracle mirrors poolOracle but with label noise, for the
// Stateful snapshot/restore coverage.
func noisyPoolOracle(p *Pool, noise float64, seed int64) *oracle.Noisy {
	l := &dataset.Table{Rows: make([]dataset.Record, p.Len())}
	rt := &dataset.Table{Rows: make([]dataset.Record, p.Len())}
	var matches []dataset.PairKey
	for i, t := range p.Truth {
		if t {
			matches = append(matches, p.Pairs[i])
		}
	}
	return oracle.NewNoisy(dataset.NewDataset("pool", l, rt, matches, 0), noise, seed)
}

// TestChaosNoisyOracleSnapshotResume pins the oracle.Stateful capture: a
// run against a Noisy oracle, snapshotted mid-way and resumed with a
// freshly seeded Noisy oracle, must reproduce the uninterrupted curve —
// the snapshot's OracleDraws realigns the noise RNG.
func TestChaosNoisyOracleSnapshotResume(t *testing.T) {
	pool := syntheticPool(500, 34)
	cfg := Config{Seed: 34, MaxLabels: 100}
	const noise, noiseSeed = 0.2, 13

	ref, err := NewSession(pool, linear.NewSVM(34), Margin{}, noisyPoolOracle(pool, noise, noiseSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	interrupted, err := NewSession(pool, linear.NewSVM(34), Margin{}, noisyPoolOracle(pool, noise, noiseSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if done, err := interrupted.Step(context.Background()); done || err != nil {
			t.Fatalf("step %d: done=%v err=%v", i, done, err)
		}
	}
	sn := interrupted.Snapshot()
	if sn.OracleDraws == 0 {
		t.Fatal("snapshot did not capture the Noisy oracle's draw count")
	}

	resumed, err := Restore(pool, linear.NewSVM(34), Margin{}, oracle.Batched(noisyPoolOracle(pool, noise, noiseSeed)), sn, nil)
	if err != nil {
		t.Fatal(err)
	}
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	curvesEqual(t, refRes.Curve, resRes.Curve)
}

// TestReadSnapshotRejectsTruncated covers the crash-safety contract of
// checkpoint files: a partially written snapshot must be reported as
// truncated, not as an opaque JSON error or (worse) decoded as valid.
func TestReadSnapshotRejectsTruncated(t *testing.T) {
	pool := syntheticPool(100, 35)
	s := mustSession(t, pool, linear.NewSVM(35), Margin{}, Config{Seed: 35, MaxLabels: 30})
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := s.Snapshot().Encode(&full); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"half-written", full.Bytes()[:full.Len()/2]},
	} {
		_, err := ReadSnapshot(bytes.NewReader(tc.data))
		if err == nil {
			t.Fatalf("%s snapshot accepted", tc.name)
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s snapshot error %q does not say truncated", tc.name, err)
		}
	}

	// The intact snapshot still round-trips.
	if _, err := ReadSnapshot(bytes.NewReader(full.Bytes())); err != nil {
		t.Errorf("intact snapshot rejected: %v", err)
	}
}
