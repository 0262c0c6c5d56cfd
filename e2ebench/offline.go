package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/match"
	"github.com/alem/alem/internal/model"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/tree"
)

// The offline job, dataset → saved artifact, split into the public
// calls of each layer so every layer can be timed from outside.

// buildPool is core.NewPool's body with its two layers timed apart:
// indexed candidate generation, then the standard 21-metric extractor
// over the surviving pairs, then the ground-truth lookup that makes a
// core.Pool.
func buildPool(ctx context.Context, d *dataset.Dataset, tr *tracer, parent int) (*core.Pool, blocking.IndexStats, error) {
	start := time.Now()
	gen := blocking.NewCandidateIndex(d, blocking.IndexOptions{})
	res, err := blocking.Generate(ctx, gen)
	if err != nil {
		return nil, blocking.IndexStats{}, fmt.Errorf("blocking %s: %w", d.Name, err)
	}
	blocked := time.Now()
	tr.record(parent, "blocking.generate", start, blocked)

	X := feature.NewExtractor(d.Left.Schema).ExtractPairsWorkers(d, res.Pairs, 0)
	featurized := time.Now()
	tr.record(parent, "feature.extract", blocked, featurized)

	truth := make([]bool, len(res.Pairs))
	for i, p := range res.Pairs {
		truth[i] = d.IsMatch(p)
	}
	tr.record(parent, "core.pool", featurized, time.Now())
	return &core.Pool{Pairs: res.Pairs, X: X, Truth: truth}, gen.Stats(), nil
}

// sessionResult is what one active-learning session produced.
type sessionResult struct {
	learner core.Learner
	// steps holds the wall time of every Session.Step after the first,
	// which also runs the seed phase: the time a labeler waits between
	// handing back a batch and receiving the next one.
	steps  []time.Duration
	labels int
	bestF1 float64
}

// newLearner builds the workload's learner and selector for a seed.
func (w workload) newLearner(seed int64) (core.Learner, core.Selector, error) {
	var l core.Learner
	switch w.learner {
	case "forest":
		l = tree.NewForest(forestTrees, seed)
	case "svm":
		l = linear.NewSVM(seed)
	default:
		return nil, nil, fmt.Errorf("unknown learner %q", w.learner)
	}
	sel, err := core.NewSelector(w.selector, core.SelectorParams{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return l, sel, nil
}

// runSession drives one session to its stopping criterion with a
// perfect oracle. When traced, a benchmark-owned Observer turns each
// core.PhaseDone event into a span under the Step that emitted it; the
// learner and selector are the ones the program builds, unwrapped.
func runSession(ctx context.Context, w workload, pool *core.Pool, d *dataset.Dataset, seed int64, tr *tracer, parent int) (*sessionResult, error) {
	learner, sel, err := w.newLearner(seed)
	if err != nil {
		return nil, err
	}
	s, err := core.NewSession(pool, learner, sel, oracle.NewPerfect(d),
		core.Config{Seed: seed, MaxLabels: maxLabels, TargetF1: targetF1})
	if err != nil {
		return nil, err
	}
	sid := tr.open(parent, "core.session")
	step := 0
	if tr != nil {
		s.AddObserver(core.ObserverFunc(func(e core.Event) {
			if pd, ok := e.(core.PhaseDone); ok {
				end := time.Now()
				tr.record(step, "core."+pd.Phase, end.Add(-pd.Elapsed), end)
			}
		}))
	}
	out := &sessionResult{learner: learner}
	for first := true; ; first = false {
		step = tr.open(sid, "core.step")
		start := time.Now()
		done, err := s.Step(ctx)
		elapsed := time.Since(start)
		tr.close(step)
		if err != nil {
			return nil, fmt.Errorf("session step: %w", err)
		}
		if !first {
			out.steps = append(out.steps, elapsed)
		}
		if done {
			break
		}
	}
	tr.close(sid)
	res := s.Result()
	out.labels, out.bestF1 = res.LabelsUsed, res.Curve.BestF1()
	return out, nil
}

// encodeArtifact encodes the learner as a unified model artifact.
func encodeArtifact(l core.Learner, d *dataset.Dataset, labels int) ([]byte, error) {
	var buf bytes.Buffer
	err := model.Save(&buf, l, model.Meta{
		Schema: d.Left.Schema, BlockThreshold: d.BlockThreshold,
		Features: match.FloatFeatures, Dataset: d.Name, Labels: labels,
	})
	return buf.Bytes(), err
}

// saveArtifact encodes the learner as a unified model artifact, writes
// it to path and returns its bytes.
func saveArtifact(path string, l core.Learner, d *dataset.Dataset, labels int) ([]byte, error) {
	raw, err := encodeArtifact(l, d, labels)
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("save %s: %w", path, err)
	}
	return raw, nil
}

// jobResult is one offline job: generated dataset → saved artifact.
type jobResult struct {
	seed        int64
	timeToModel time.Duration
	pool        *core.Pool
	index       blocking.IndexStats
	session     *sessionResult
	artifact    []byte
}

// offlineJob blocks and featurizes d, runs the session to convergence
// and saves the artifact to path. Its wall time is time_to_model_s.
func offlineJob(ctx context.Context, w workload, d *dataset.Dataset, seed int64, path string, tr *tracer) (*jobResult, error) {
	start := time.Now()
	job := tr.open(0, "job")
	pool, stats, err := buildPool(ctx, d, tr, job)
	if err != nil {
		return nil, err
	}
	sess, err := runSession(ctx, w, pool, d, seed, tr, job)
	if err != nil {
		return nil, err
	}
	saveStart := time.Now()
	art, err := saveArtifact(path, sess.learner, d, sess.labels)
	if err != nil {
		return nil, err
	}
	tr.record(job, "model.save", saveStart, time.Now())
	tr.close(job)
	return &jobResult{
		seed: seed, timeToModel: time.Since(start), pool: pool, index: stats,
		session: sess, artifact: art,
	}, nil
}
