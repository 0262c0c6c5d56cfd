package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
)

// The benchmark's split block → featurize path must build exactly the
// pool core.NewPool builds, or its layer timings describe a different
// program: same pairs, same truth, bit-equal vectors.
func TestSplitPoolEqualsNewPool(t *testing.T) {
	for _, name := range []string{"dblp-scholar", "abt-buy", "amazon-google"} {
		d, err := dataset.Load(name, 0.05, 7)
		if err != nil {
			t.Fatal(err)
		}
		want := core.NewPool(d)
		got, _, err := buildPool(context.Background(), d, newTracer(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Pairs, want.Pairs) || !slices.Equal(got.Truth, want.Truth) {
			t.Fatalf("%s: split pool pairs or truth differ from core.NewPool (%d vs %d pairs)", name, got.Len(), want.Len())
		}
		if want.Len() == 0 {
			t.Fatalf("%s: empty pool; the comparison proves nothing", name)
		}
		for i := range want.X {
			if !slices.EqualFunc(got.X[i], want.X[i], func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Fatalf("%s: vector %d differs: %v vs %v", name, i, got.X[i], want.X[i])
			}
		}
	}
}

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// smoke test checks output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// Every workload, shrunk to a tiny scale, must print every metric
// BENCHMARK.json names, with its unit, and fail nothing, in both the
// end-to-end and the traced run.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds almserve and runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	dir := t.TempDir()
	almserve := filepath.Join(dir, "almserve")
	if out, err := exec.Command("go", "build", "-o", almserve, "github.com/alem/alem/cmd/almserve").CombinedOutput(); err != nil {
		t.Fatalf("build almserve: %v\n%s", err, out)
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, traced), func(t *testing.T) {
				var stdout bytes.Buffer
				o := options{
					workload: wl.Name, seed: 3, seconds: time.Second, trace: traced,
					almserve: almserve, out: t.TempDir(), tiny: true,
				}
				if err := run(context.Background(), o, &stdout); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				printed := map[string]string{} // metric name → unit, from the "metric" lines
				for _, l := range lines {
					if f := strings.Fields(l); len(f) == 4 && f[0] == "metric" {
						printed[f[1]] = f[3]
					}
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				if !strings.Contains(stdout.String(), "\nmetric fail_frac 0 ratio\n") {
					t.Errorf("fail_frac is not printed as 0")
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result carries %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if traced && wl.Name == "serve-mix" {
					for _, m := range serveOnly {
						if printed[m.name] != m.unit {
							t.Errorf("serve-only metric %s is not printed with unit %s", m.name, m.unit)
						}
					}
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if printed[m.Name] != m.Unit {
						t.Errorf("metric %s is not printed with unit %s", m.Name, m.Unit)
					}
				}
			})
		}
	}
}
