package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/match"
	"github.com/alem/alem/internal/model"
)

// The requests a trained model is applied to, and the in-process
// reference answers every served or applied answer is checked against.

// scoreSets and tableSets are how many distinct score and match
// requests a run cycles through.
const (
	scoreSets = 64
	tableSets = 64
)

// tablePair is the body of one match request.
type tablePair struct{ left, right *dataset.Table }

// requests holds a run's score and match inputs and the reference
// answers of the learner last passed to answer.
type requests struct {
	vectors [][]feature.Vector
	tables  []tablePair
	// candidates and candX are each table pair's candidate pairs and
	// their feature vectors, computed once with the public functions
	// Matcher.Match calls; they do not depend on the learner.
	candidates [][]dataset.PairKey
	candX      [][]feature.Vector

	wantScores  [][]float64
	wantMatches [][]bool
	wantPairs   [][]match.Pair

	scoreBodies [][]byte
	matchBodies [][]byte
}

// makeRequests draws the match requests from held-out datasets of the
// workload's profile, generated at seeds the training data does not
// use, and featurizes each one's candidates. A score request carries
// w.scoreVectors real vectors: drawn from pool when it is given (the
// served workload), otherwise from the held-out candidates (what an
// offline apply scores).
func makeRequests(ctx context.Context, w workload, threshold float64, pool *core.Pool, seed int64) (*requests, error) {
	r := &requests{}
	var all []feature.Vector
	for k := 0; k < tableSets; k++ {
		d, err := dataset.Load(w.dataset, w.tableScale, heldOutSeed(seed, k))
		if err != nil {
			return nil, err
		}
		d = dataset.NewDataset("match", d.Left, d.Right, nil, threshold)
		res, err := blocking.Generate(ctx, blocking.NewCandidateIndex(d, blocking.IndexOptions{}))
		if err != nil {
			return nil, fmt.Errorf("held-out candidates: %w", err)
		}
		X := feature.NewExtractor(d.Left.Schema).ExtractPairs(d, res.Pairs)
		body, err := json.Marshal(map[string]any{"left": tableJSON(d.Left), "right": tableJSON(d.Right)})
		if err != nil {
			return nil, err
		}
		r.tables = append(r.tables, tablePair{d.Left, d.Right})
		r.candidates = append(r.candidates, res.Pairs)
		r.candX = append(r.candX, X)
		r.matchBodies = append(r.matchBodies, body)
		all = append(all, X...)
	}
	from := all
	if pool != nil {
		from = pool.X
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < scoreSets; i++ {
		vs := make([]feature.Vector, w.scoreVectors)
		for j := range vs {
			// A copy, so the requests do not keep the pool alive.
			vs[j] = slices.Clone(from[rng.Intn(len(from))])
		}
		body, err := json.Marshal(map[string]any{"vectors": vs})
		if err != nil {
			return nil, err
		}
		r.vectors = append(r.vectors, vs)
		r.scoreBodies = append(r.scoreBodies, body)
	}
	return r, nil
}

// answer computes l's reference answers to every request: the scores
// and verdicts match.Score and Predict give each score request's
// vectors, and for each match request the pairs Matcher.Match returns —
// the candidates l predicts as matches, with match.Score as confidence.
func (r *requests) answer(l core.Learner) {
	r.wantScores, r.wantMatches, r.wantPairs = nil, nil, nil
	for _, vs := range r.vectors {
		scores := make([]float64, len(vs))
		preds := make([]bool, len(vs))
		for j, v := range vs {
			scores[j], preds[j] = match.Score(l, v), l.Predict(v)
		}
		r.wantScores = append(r.wantScores, scores)
		r.wantMatches = append(r.wantMatches, preds)
	}
	for k, t := range r.tables {
		var pairs []match.Pair
		for j, p := range r.candidates[k] {
			if x := r.candX[k][j]; l.Predict(x) {
				pairs = append(pairs, match.Pair{
					LeftID: t.left.Rows[p.L].ID, RightID: t.right.Rows[p.R].ID,
					Confidence: match.Score(l, x),
				})
			}
		}
		r.wantPairs = append(r.wantPairs, pairs)
	}
}

// checkMatches runs in-process Matcher.Match on every match request and
// checks each answer against the reference.
func (r *requests) checkMatches(ctx context.Context, art *model.Artifact) error {
	m := art.Matcher()
	for k, t := range r.tables {
		pairs, cands, err := m.Match(ctx, t.left, t.right)
		if err != nil {
			return fmt.Errorf("in-process match %d: %w", k, err)
		}
		if cands != len(r.candidates[k]) || !slices.Equal(pairs, r.wantPairs[k]) {
			return fmt.Errorf("in-process Matcher.Match differs from the reference on table pair %d", k)
		}
	}
	return nil
}

// heldOutSeed derives the generator seed of the k-th match table pair;
// the offset keeps it clear of the small seeds training runs use.
func heldOutSeed(seed int64, k int) int64 { return 1_000_003*(seed+1) + int64(k) }

func tableJSON(t *dataset.Table) map[string]any {
	rows := make([]map[string]any, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = map[string]any{"id": r.ID, "values": r.Values}
	}
	return map[string]any{"name": t.Name, "schema": t.Schema, "rows": rows}
}

// checkArtifact reloads a saved artifact and checks it predicts and
// scores every pool vector exactly as the learner that was saved.
func checkArtifact(raw []byte, trained core.Learner, pool *core.Pool) (*model.Artifact, error) {
	art, err := model.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("reload artifact: %w", err)
	}
	for i, x := range pool.X {
		if art.Learner.Predict(x) != trained.Predict(x) || match.Score(art.Learner, x) != match.Score(trained, x) {
			return nil, fmt.Errorf("reloaded artifact disagrees with the trained learner on pool vector %d", i)
		}
	}
	return art, nil
}

// applyResult is what applying a model to a run's requests measured.
type applyResult struct {
	score, match []time.Duration
	// inner is the time spent inside Matcher.Match. On serve-mix,
	// overhead is the rest of the client's send-to-answer time and lag
	// how late each request was sent after it was due.
	inner, overhead, lag []time.Duration
	attempted            int
	failed               int
	// Serving-layer counters, from almserve's /metrics: merged score
	// batches and the vectors in them, shed and timed-out requests. The
	// matcher's extractor reuse comes from /metrics on serve-mix and
	// from Matcher.ExtractorReuse offline.
	batches, vectors     float64
	shed, timeouts       float64
	reuseHits, reuseMiss float64
	errs                 []string
}

func (a *applyResult) fail(format string, args ...any) {
	a.failed++
	if len(a.errs) < 5 {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

// applyInProcess is the offline user's apply step through the library.
// A match call is one `almatch -mode apply` minus its file I/O: a
// Matcher built from the reloaded artifact, and one Matcher.Match on a
// held-out table pair. A score call is that apply's scoring stage on
// score-request vectors: Predict, and match.Score for every vector, as
// almserve's /v1/score handler computes them. The score calls are spread
// evenly between the match calls, so that their samples span the whole
// apply rather than one short burst. Every answer is checked against
// the reference of the trained learner. It first collects the garbage
// training left behind, which an apply process of its own would not
// have.
func (a *applyResult) applyInProcess(ctx context.Context, art *model.Artifact, r *requests, nScore, nMatch int, tr *tracer) {
	runtime.GC()
	for n := 0; n < nMatch; n++ {
		for k := nScore * n / nMatch; k < nScore*(n+1)/nMatch; k++ {
			a.scoreOnce(ctx, art, r, tr)
		}
		a.matchOnce(ctx, art, r, tr)
	}
	if nMatch == 0 {
		for k := 0; k < nScore; k++ {
			a.scoreOnce(ctx, art, r, tr)
		}
	}
}

func (a *applyResult) scoreOnce(ctx context.Context, art *model.Artifact, r *requests, tr *tracer) {
	i := len(a.score)
	k := i % len(r.vectors)
	start := time.Now()
	scores, err := match.ScoreAll(ctx, art.Learner, r.vectors[k])
	preds := make([]bool, len(r.vectors[k]))
	for j, v := range r.vectors[k] {
		preds[j] = art.Learner.Predict(v)
	}
	end := time.Now()
	tr.record(0, "apply.score", start, end)
	a.score = append(a.score, end.Sub(start))
	a.attempted++
	switch {
	case err != nil:
		a.fail("score %d: %v", i, err)
	case !slices.Equal(scores, r.wantScores[k]) || !slices.Equal(preds, r.wantMatches[k]):
		a.fail("score %d: answer differs from the trained learner", i)
	}
}

func (a *applyResult) matchOnce(ctx context.Context, art *model.Artifact, r *requests, tr *tracer) {
	i := len(a.match)
	k := i % len(r.tables)
	start := time.Now()
	mt := art.Matcher()
	pairs, cands, err := mt.Match(ctx, r.tables[k].left, r.tables[k].right)
	end := time.Now()
	tr.record(0, "apply.match", start, end)
	a.match = append(a.match, end.Sub(start))
	a.inner = append(a.inner, end.Sub(start))
	a.attempted++
	hits, misses := mt.ExtractorReuse()
	a.reuseHits += float64(hits)
	a.reuseMiss += float64(misses)
	switch {
	case err != nil:
		a.fail("match %d: %v", i, err)
	case cands != len(r.candidates[k]) || !slices.Equal(pairs, r.wantPairs[k]):
		a.fail("match %d: pairs differ from the trained learner's", i)
	}
}

// replayMatches splits Matcher.Match into its three layers — candidate
// generation, featurization with one reused extractor, and prediction —
// by calling each public function in turn on every match request's
// tables, and checks the split path returns the reference answer.
func replayMatches(ctx context.Context, art *model.Artifact, r *requests, n int, tr *tracer) (block, featurize, predict []time.Duration, err error) {
	ext := feature.NewExtractor(art.Meta.Schema)
	for i := 0; i < n; i++ {
		k := i % len(r.tables)
		t0 := time.Now()
		d := dataset.NewDataset("match", r.tables[k].left, r.tables[k].right, nil, art.Meta.BlockThreshold)
		res, gerr := blocking.Generate(ctx, blocking.NewCandidateIndex(d, blocking.IndexOptions{}))
		if gerr != nil {
			return nil, nil, nil, gerr
		}
		t1 := time.Now()
		X := ext.ExtractPairs(d, res.Pairs)
		t2 := time.Now()
		var pairs []match.Pair
		for j, p := range res.Pairs {
			if art.Learner.Predict(X[j]) {
				pairs = append(pairs, match.Pair{
					LeftID: d.Left.Rows[p.L].ID, RightID: d.Right.Rows[p.R].ID,
					Confidence: match.Score(art.Learner, X[j]),
				})
			}
		}
		t3 := time.Now()
		parent := tr.record(0, "replay.match", t0, t3)
		tr.record(parent, "match.block", t0, t1)
		tr.record(parent, "match.featurize", t1, t2)
		tr.record(parent, "match.predict", t2, t3)
		block = append(block, t1.Sub(t0))
		featurize = append(featurize, t2.Sub(t1))
		predict = append(predict, t3.Sub(t2))
		if len(res.Pairs) != len(r.candidates[k]) || !slices.Equal(pairs, r.wantPairs[k]) {
			return nil, nil, nil, fmt.Errorf("split match path differs from the reference on table pair %d", k)
		}
	}
	return block, featurize, predict, nil
}
