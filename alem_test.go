package alem_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/alem/alem"
)

// TestFacadeEndToEnd exercises the public API exactly the way the README
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	d, err := alem.LoadDataset("beer", 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	pool := alem.NewPool(d)
	if pool.Len() == 0 {
		t.Fatal("empty pool")
	}
	res := alem.Run(pool, alem.NewRandomForest(20, 1), alem.ForestQBC{},
		alem.NewPerfectOracle(d), alem.Config{Seed: 1, TargetF1: 0.99})
	if res.Curve.BestF1() < 0.9 {
		t.Errorf("quickstart best F1 = %.3f, want >= 0.9", res.Curve.BestF1())
	}
}

func TestFacadeProfilesAndMetrics(t *testing.T) {
	if n := len(alem.DatasetProfiles()); n != 10 {
		t.Errorf("profiles = %d, want 10", n)
	}
	if n := len(alem.SimilarityMetrics()); n != 21 {
		t.Errorf("metrics = %d, want 21", n)
	}
	if n := len(alem.ExperimentIDs()); n != 15 {
		t.Errorf("experiments = %d, want 15 (2 tables + 13 figures)", n)
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	var buf bytes.Buffer
	opts := alem.ExperimentOptions{Scale: 0.02, MaxLabels: 60, Runs: 1, Seed: 3}
	rep, err := alem.RunExperiment("table1", opts, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table1" {
		t.Errorf("report id = %q", rep.ID)
	}
	if !strings.Contains(buf.String(), "abt-buy") {
		t.Error("report output missing dataset rows")
	}
	if _, err := alem.RunExperiment("nope", opts, nil); err == nil {
		t.Error("RunExperiment accepted unknown id")
	}
}

func TestFacadeEnsembleAndInterp(t *testing.T) {
	d, err := alem.LoadDataset("dblp-acm", 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	pool := alem.NewPool(d)
	ens := alem.RunEnsemble(pool, alem.NewPerfectOracle(d), alem.EnsembleConfig{
		Config:   alem.Config{Seed: 9, MaxLabels: 200},
		Factory:  alem.SVMFactory,
		Selector: alem.MarginSelector{},
	})
	if ens.Curve.BestF1() <= 0 {
		t.Error("ensemble produced no useful model")
	}

	forest := alem.NewRandomForest(5, 9)
	alem.Run(pool, forest, alem.ForestQBC{}, alem.NewPerfectOracle(d),
		alem.Config{Seed: 9, MaxLabels: 100})
	if alem.ForestAtoms(forest) == 0 {
		t.Error("trained forest has zero DNF atoms")
	}
}

func TestFacadeBoolPipeline(t *testing.T) {
	d, err := alem.LoadDataset("dblp-acm", 0.03, 4)
	if err != nil {
		t.Fatal(err)
	}
	pool := alem.NewBoolPool(d)
	ext := alem.NewBoolFeatureExtractor(d.Left.Schema)
	model := alem.NewRuleModel(ext)
	res := alem.Run(pool, model, alem.LFPLFN{}, alem.NewPerfectOracle(d), alem.Config{Seed: 4})
	if res.Curve.BestF1() < 0.5 {
		t.Errorf("rules best F1 = %.3f, want >= 0.5 on clean data", res.Curve.BestF1())
	}
	if model.NumAtoms() == 0 {
		t.Error("no rules learned")
	}
}

func TestFacadePersistenceAndMatcher(t *testing.T) {
	d, err := alem.LoadDataset("beer", 1.0, 55)
	if err != nil {
		t.Fatal(err)
	}
	pool := alem.NewPool(d)
	forest := alem.NewRandomForest(10, 55)
	alem.Run(pool, forest, alem.ForestQBC{}, alem.NewPerfectOracle(d),
		alem.Config{Seed: 55, TargetF1: 0.99})

	// Unified artifact: one file carries the forest plus its pipeline.
	var buf bytes.Buffer
	if err := alem.SaveModel(&buf, forest, alem.ModelMeta{
		Schema:         d.Left.Schema,
		BlockThreshold: d.BlockThreshold,
		Dataset:        "beer",
	}); err != nil {
		t.Fatal(err)
	}
	art, err := alem.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if art.Kind != alem.KindRandomForest || art.Meta.Features != alem.FloatFeatures {
		t.Fatalf("artifact kind=%s features=%s", art.Kind, art.Meta.Features)
	}
	fresh, err := alem.LoadDataset("beer", 1.0, 56)
	if err != nil {
		t.Fatal(err)
	}
	pairs, candidates, err := art.Matcher().Match(context.Background(), fresh.Left, fresh.Right)
	if err != nil {
		t.Fatal(err)
	}
	if candidates == 0 || len(pairs) == 0 {
		t.Fatalf("deployed model matched %d of %d candidates", len(pairs), candidates)
	}
	for _, p := range pairs {
		if p.Confidence < 0 || p.Confidence > 1 {
			t.Fatalf("pair %s/%s confidence %v outside [0,1]", p.LeftID, p.RightID, p.Confidence)
		}
	}

	// The serve facade mounts the same artifact over HTTP.
	srv := alem.NewMultiModelServer(alem.MatchServerConfig{})
	defer srv.Close()
	if err := srv.Models().Publish(alem.BootModelVersion, art); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Models().Activate(alem.BootModelVersion); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Legacy bare-learner persistence still round-trips.
	buf.Reset()
	if err := forest.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := alem.LoadRandomForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.PredictAll(pool.X); len(got) != len(pool.X) {
		t.Fatalf("legacy forest predicted %d of %d", len(got), len(pool.X))
	}
}

func TestFacadeAblationIDs(t *testing.T) {
	if n := len(alem.AblationIDs()); n != 18 {
		t.Errorf("ablations = %d, want 18", n)
	}
	for _, id := range alem.AblationIDs() {
		if !strings.HasPrefix(id, "ablation-") && id != "summary" {
			t.Errorf("unexpected ablation id %q", id)
		}
	}
}

func TestFacadeWrapperSmoke(t *testing.T) {
	d, err := alem.LoadDataset("beer", 1.0, 66)
	if err != nil {
		t.Fatal(err)
	}
	// Blocking.
	res, err := alem.GenerateCandidates(context.Background(),
		alem.NewCandidateIndex(d, alem.CandidateIndexOptions{Threshold: 0.3}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Error("candidate index found nothing at 0.3")
	}
	// Diagnostics.
	if rep := alem.Diagnose(d); rep.PostBlockingPairs == 0 || rep.Separation() <= 0 {
		t.Error("Diagnose produced an empty or non-separating report")
	}
	// Every learner family the facade constructs round-trips through the
	// unified artifact.
	pool := alem.NewPool(d)
	svm := alem.NewSVM(1)
	svm.Train(pool.X[:20], pool.Truth[:20])
	bext := alem.NewBoolFeatureExtractor(d.Left.Schema)
	for _, tc := range []struct {
		l    alem.Learner
		meta alem.ModelMeta
		kind alem.ModelKind
	}{
		{svm, alem.ModelMeta{Schema: d.Left.Schema, Features: alem.FloatFeatures}, alem.KindSVM},
		{alem.NewRuleModel(bext), alem.ModelMeta{Schema: d.Left.Schema, Features: alem.BoolFeatures}, alem.KindRules},
	} {
		var buf bytes.Buffer
		if err := alem.SaveModel(&buf, tc.l, tc.meta); err != nil {
			t.Fatal(err)
		}
		art, err := alem.LoadModel(&buf)
		if err != nil {
			t.Errorf("%s: %v", tc.kind, err)
			continue
		}
		if art.Kind != tc.kind {
			t.Errorf("artifact kind = %s, want %s", art.Kind, tc.kind)
		}
	}
}
