// Package blocking implements the offline blocking step of the pipeline
// (§6): out of the Cartesian product of left × right records, keep only
// pairs whose full-record token sets have Jaccard similarity at or above
// a dataset-specific threshold (0.1875 / 0.12 / 0.16 in the paper). The
// survivors are the post-blocking candidate pairs every learner and
// selector operates on.
//
// Candidate generation is served by the CandidateGenerator interface:
// CandidateIndex (sharded inverted posting lists with prefix and size
// filters, built in parallel, incrementally extendable with Add) is the
// production path, Naive is the Cartesian reference it is pinned against.
// Generate builds a generator and enumerates its candidates in one call.
//
// This is distinct from the *blocking dimensions* optimization of §5.1,
// which lives in the core package and prunes example scoring, not
// candidate generation.
package blocking

import "github.com/alem/alem/internal/dataset"

// Result holds the post-blocking candidate pairs of a dataset together
// with the recall of the blocking step itself.
type Result struct {
	Pairs []dataset.PairKey
	// MatchesKept / MatchesTotal measure how many true matches survived
	// blocking; lost matches cap the recall any downstream learner can
	// reach, exactly as in the paper's pipeline.
	MatchesKept, MatchesTotal int
}

// Skew returns the fraction of candidate pairs that are true matches
// (the "Class skew" column of Table 1).
func (r *Result) Skew(d *dataset.Dataset) float64 {
	if len(r.Pairs) == 0 {
		return 0
	}
	m := 0
	for _, p := range r.Pairs {
		if d.IsMatch(p) {
			m++
		}
	}
	return float64(m) / float64(len(r.Pairs))
}
