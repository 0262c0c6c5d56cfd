// Package alem is a unified active-learning benchmark framework for
// entity matching (EM): a Go reproduction of Meduri, Popa, Sen and
// Sarwat, "A Comprehensive Benchmark Framework for Active Learning
// Methods in Entity Matching", SIGMOD 2020.
//
// The framework mixes and matches learners (linear SVM, feed-forward
// neural network, random forest, monotone-DNF rules) with example
// selectors (learner-agnostic QBC, learner-aware QBC, margin, LFP/LFN),
// adds the paper's two enhancements (blocking dimensions for margin
// scoring, incrementally learned active ensembles), and regenerates every
// table and figure of the paper's evaluation on synthetic stand-ins for
// its ten datasets.
//
// Quick start:
//
//	d, _ := alem.LoadDataset("abt-buy", 0.1, 42)
//	pool := alem.NewPool(d)
//	res := alem.Run(pool, alem.NewRandomForest(20, 1), alem.ForestQBC{},
//	    alem.NewPerfectOracle(d), alem.Config{MaxLabels: 500})
//	fmt.Println(res.Curve.BestF1())
//
// The package is a thin facade over the internal packages; everything a
// downstream user needs is re-exported here.
package alem

import (
	"context"
	"io"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/cluster"
	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/diag"
	"github.com/alem/alem/internal/eval"
	"github.com/alem/alem/internal/experiments"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/interp"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/match"
	"github.com/alem/alem/internal/model"
	"github.com/alem/alem/internal/neural"
	"github.com/alem/alem/internal/obs"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/resilience"
	"github.com/alem/alem/internal/rules"
	"github.com/alem/alem/internal/serve"
	"github.com/alem/alem/internal/textsim"
	"github.com/alem/alem/internal/tree"
)

// Datasets and blocking.
type (
	// Dataset is a two-table EM instance with generator-side ground truth.
	Dataset = dataset.Dataset
	// Table is one relation of a Dataset.
	Table = dataset.Table
	// Record is one row of a Table.
	Record = dataset.Record
	// PairKey identifies a candidate record pair.
	PairKey = dataset.PairKey
	// DatasetProfile couples a synthetic generator with the paper's
	// Table 1 statistics.
	DatasetProfile = dataset.Profile
	// BlockingResult holds post-blocking candidate pairs and blocking
	// recall.
	BlockingResult = blocking.Result
	// CandidateGenerator is the candidate-generation contract: build an
	// index over the right table, stream further records in with Add, and
	// enumerate candidate pairs under a context.
	CandidateGenerator = blocking.CandidateGenerator
	// CandidateIndex is the indexed generator: sharded inverted posting
	// lists with prefix and size filters, built in parallel and
	// incrementally extendable.
	CandidateIndex = blocking.CandidateIndex
	// CandidateIndexOptions sizes a CandidateIndex (threshold, shards,
	// workers); the zero value takes the dataset's defaults.
	CandidateIndexOptions = blocking.IndexOptions
	// CandidateIndexStats reports index shape and the probe → size-filter
	// → verify → keep funnel.
	CandidateIndexStats = blocking.IndexStats
)

// ErrIndexNotBuilt is returned by generator Add/Candidates before Build.
var ErrIndexNotBuilt = blocking.ErrNotBuilt

// NewCandidateIndex returns an unbuilt candidate index over d; call
// Build (or GenerateCandidates) before Add or Candidates.
func NewCandidateIndex(d *Dataset, opts CandidateIndexOptions) *CandidateIndex {
	return blocking.NewCandidateIndex(d, opts)
}

// NewNaiveGenerator returns the Cartesian reference generator — the
// specification CandidateIndex is pinned against, useful for testing
// custom thresholds.
func NewNaiveGenerator(d *Dataset, threshold float64) CandidateGenerator {
	return blocking.NewNaive(d, threshold)
}

// GenerateCandidates builds gen and enumerates its candidates in one
// cancellable call.
func GenerateCandidates(ctx context.Context, gen CandidateGenerator) (*BlockingResult, error) {
	return blocking.Generate(ctx, gen)
}

// LoadDataset generates the named dataset profile at the given scale
// (1.0 ≈ the paper's post-blocking sizes) and seed. Known names:
// abt-buy, amazon-google, dblp-acm, dblp-scholar, cora, walmart-amazon,
// amazon-bestbuy, beer, baby-products, social-media.
func LoadDataset(name string, scale float64, seed int64) (*Dataset, error) {
	return dataset.Load(name, scale, seed)
}

// DatasetProfiles lists the ten built-in dataset profiles.
func DatasetProfiles() []DatasetProfile { return dataset.Profiles() }

// ImportDataset reads a dataset previously written by (*Dataset).Export
// (left.csv, right.csv, matches.csv in dir).
func ImportDataset(name, dir string, blockThreshold float64) (*Dataset, error) {
	return dataset.Import(name, dir, blockThreshold)
}

// ReadTableCSV parses a single table in the CSV layout Export writes
// (id column followed by the schema columns).
func ReadTableCSV(name string, r io.Reader) (*Table, error) {
	return dataset.ReadCSV(name, r)
}

// SortedNeighborhoodBlock is the classic merge/purge alternative to
// threshold blocking: sort both tables by a key attribute (empty =
// whole record) and take cross-table pairs within a sliding window.
func SortedNeighborhoodBlock(d *Dataset, keyAttr string, window int) *BlockingResult {
	return blocking.SortedNeighborhood(d, keyAttr, window)
}

// Feature extraction.
type (
	// FeatureVector is a dense float feature vector.
	FeatureVector = feature.Vector
	// FeatureExtractor computes the 21-similarity-function float vectors.
	FeatureExtractor = feature.Extractor
	// BoolFeatureExtractor computes thresholded Boolean atoms for rules.
	BoolFeatureExtractor = feature.BoolExtractor
	// Atom is one Boolean rule predicate, sim(attr) >= threshold.
	Atom = feature.Atom
	// Metric is a normalized string-similarity function.
	Metric = textsim.Metric
	// Corpus carries document-frequency statistics for the TF-IDF style
	// extended metrics.
	Corpus = textsim.Corpus
)

// NewCorpus indexes documents for the corpus-aware extended metrics.
func NewCorpus(docs []string) *Corpus { return textsim.NewCorpus(docs) }

// ExtendedMetrics returns the corpus-aware and numeric metrics beyond
// the standard 21 (TF-IDF cosine, SoftTFIDF, numeric, generalized
// Jaccard).
func ExtendedMetrics(c *Corpus) []Metric { return textsim.Extended(c) }

// CorpusOf builds the corpus over every record of both tables.
func CorpusOf(d *Dataset) *Corpus { return feature.CorpusOf(d) }

// NewExtendedExtractor builds a 25-metric extractor (standard 21 plus
// the extended set weighted over c).
func NewExtendedExtractor(schema []string, c *Corpus) *FeatureExtractor {
	return feature.NewExtendedExtractor(schema, c)
}

// NewExtendedPool is NewPool with the extended 25-metric feature set.
func NewExtendedPool(d *Dataset) *Pool { return core.NewExtendedPool(d) }

// NewFeatureExtractor builds the standard extractor (21 metrics × attrs).
func NewFeatureExtractor(schema []string) *FeatureExtractor {
	return feature.NewExtractor(schema)
}

// NewBoolFeatureExtractor builds the rule-learner extractor (3 metrics ×
// thresholds 0.1..1.0 × attrs).
func NewBoolFeatureExtractor(schema []string) *BoolFeatureExtractor {
	return feature.NewBoolExtractor(schema)
}

// SimilarityMetrics returns the 21 similarity functions of the feature
// extractor.
func SimilarityMetrics() []Metric { return textsim.All() }

// Framework core.
type (
	// Pool is the post-blocking candidate universe of one run.
	Pool = core.Pool
	// Learner is the base learner interface (Fig. 2).
	Learner = core.Learner
	// MarginLearner exposes a confidence margin (SVMs, neural nets).
	MarginLearner = core.MarginLearner
	// VoteLearner is a learner-aware committee (random forests).
	VoteLearner = core.VoteLearner
	// Factory creates fresh learners for QBC committees.
	Factory = core.Factory
	// Selector is the example-selector interface (Fig. 2).
	Selector = core.Selector
	// SelectContext carries a selector invocation's inputs and timings.
	SelectContext = core.SelectContext
	// Config is one run's protocol (seed set 30, batch 10, ...).
	Config = core.Config
	// Result is one run's outcome.
	Result = core.Result
	// EnsembleConfig configures the §5.2 active ensemble.
	EnsembleConfig = core.EnsembleConfig
	// EnsembleResult is an ensemble run's outcome.
	EnsembleResult = core.EnsembleResult

	// QBC is learner-agnostic query-by-committee.
	QBC = core.QBC
	// ForestQBC is learner-aware QBC over a forest's own trees.
	ForestQBC = core.ForestQBC
	// MarginSelector picks the smallest-margin examples.
	MarginSelector = core.Margin
	// BlockedMargin is margin with §5.1 blocking dimensions.
	BlockedMargin = core.BlockedMargin
	// LFPLFN is the rule learner's heuristic selector.
	LFPLFN = core.LFPLFN
	// RandomSelector picks uniformly (supervised baseline).
	RandomSelector = core.Random
	// IWALSelector is the simplified importance-weighted selector the
	// paper's related work (§2) discusses — an extension included so its
	// label overhead can be measured.
	IWALSelector = core.IWAL
	// BlockedForestQBC is ForestQBC with mined-DNF blocking, the §5
	// sketch for tree-based selection realized as an extension.
	BlockedForestQBC = core.BlockedForestQBC

	// Scorer is the informativeness half of a selection strategy
	// (pool → per-pair scores on the deterministic parallel substrate).
	Scorer = core.Scorer
	// Picker is the batch-query half (scores + features → batch).
	Picker = core.Picker
	// ScoredSet is a Scorer's output: candidates with aligned scores,
	// higher = more informative.
	ScoredSet = core.ScoredSet
	// ComposedSelector glues any Scorer to any Picker into a Selector.
	ComposedSelector = core.ComposedSelector
	// MarginScorer scores by negated |margin| — the uncertainty half of
	// margin selection, reusable under any Picker.
	MarginScorer = core.MarginScorer
	// VoteScorer scores by committee/forest vote variance — ForestQBC's
	// uncertainty half, reusable under any Picker.
	VoteScorer = core.VoteScorer
	// KCenterPicker is greedy k-center (core-set) diverse batch picking.
	KCenterPicker = core.KCenterPicker
	// ScoredClusterPicker samples score-weighted across feature-space
	// clusters of near-duplicate candidates.
	ScoredClusterPicker = core.ScoredClusterPicker
	// SelectorSpec is one selector-registry entry (name, help text,
	// constructor).
	SelectorSpec = core.SelectorSpec
	// SelectorParams carries the tunables registry constructors accept.
	SelectorParams = core.SelectorParams
	// IncompatibleError reports a selector composed with a learner it
	// cannot serve; it wraps ErrIncompatibleSelector.
	IncompatibleError = core.IncompatibleError
)

// ErrIncompatibleSelector is the sentinel selector/learner mismatch
// errors wrap; NewSession and Config validation return it when e.g.
// LFPLFN is composed with a non-rule learner.
var ErrIncompatibleSelector = core.ErrIncompatibleSelector

// Selectors returns every registered selection strategy (paper set,
// extensions, and diversity-aware Scorer×Picker recombinations).
func Selectors() []SelectorSpec { return core.Selectors() }

// NewSelector constructs a registered selection strategy by -selector
// name; unknown names error with the registered list attached.
func NewSelector(name string, p SelectorParams) (Selector, error) {
	return core.NewSelector(name, p)
}

// FormatSelectorList renders the selector registry the way the CLIs'
// -list-selectors flag prints it.
func FormatSelectorList() string { return core.FormatSelectorList() }

// ValidateSelection checks a (learner, selector) pair up front the same
// way session construction does, returning a typed *IncompatibleError
// (wrapping ErrIncompatibleSelector) on a mismatch.
func ValidateSelection(l Learner, s Selector) error { return core.ValidateSelection(l, s) }

// Evaluation modes.
const (
	// Progressive evaluates on all post-blocking pairs (progressive F1).
	Progressive = core.Progressive
	// HeldOut evaluates on a held-out 20% split.
	HeldOut = core.HeldOut
)

// NewPool blocks and featurizes a dataset with the standard extractor.
func NewPool(d *Dataset) *Pool { return core.NewPool(d) }

// NewPoolContext is NewPool with cancellable candidate generation.
func NewPoolContext(ctx context.Context, d *Dataset) (*Pool, error) {
	return core.NewPoolContext(ctx, d)
}

// NewBoolPool blocks and featurizes a dataset with Boolean atoms (rules).
func NewBoolPool(d *Dataset) *Pool { return core.NewBoolPool(d) }

// NewPoolFromVectors builds a pool from raw vectors and labels.
func NewPoolFromVectors(X []FeatureVector, truth []bool) *Pool {
	return core.NewPoolFromVectors(X, truth)
}

// Run executes one active-learning run (Fig. 1a).
func Run(pool *Pool, l Learner, s Selector, o Oracle, cfg Config) *Result {
	return core.Run(pool, l, s, o, cfg)
}

// RunEnsemble executes active learning with an incrementally grown
// high-precision ensemble (§5.2).
func RunEnsemble(pool *Pool, o Oracle, cfg EnsembleConfig) *EnsembleResult {
	return core.RunEnsemble(pool, o, cfg)
}

// RunEnsembleContext is RunEnsemble with cancellation and observers.
func RunEnsembleContext(ctx context.Context, pool *Pool, o Oracle,
	cfg EnsembleConfig, observers ...Observer) (*EnsembleResult, error) {
	return core.RunEnsembleContext(ctx, pool, o, cfg, observers...)
}

// Session engine: the decomposed, cancellable, observable form of the
// Fig. 1a loop. Run is a thin wrapper over it; construct a Session
// directly for context cancellation, the typed event stream, or
// checkpoint/resume.
type (
	// Session is one active-learning run as an explicit state machine.
	Session = core.Session
	// SessionSnapshot is a serializable checkpoint of a Session.
	SessionSnapshot = core.Snapshot
	// StopReason explains why a run terminated.
	StopReason = core.StopReason
	// Observer receives a Session's typed event stream.
	Observer = core.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = core.ObserverFunc
	// Event is one notification from the stream; concrete types follow.
	Event = core.Event
	// IterationStart opens one train→evaluate→select→label iteration.
	IterationStart = core.IterationStart
	// TrainDone closes the train phase.
	TrainDone = core.TrainDone
	// EvalDone closes the evaluate phase and carries the curve point.
	EvalDone = core.EvalDone
	// BatchSelected closes the select phase.
	BatchSelected = core.BatchSelected
	// PhaseDone is the uniform per-phase timing span (seed, train,
	// evaluate, select, label) behind run manifests.
	PhaseDone = core.PhaseDone
	// CandidateAccepted reports an ensemble acceptance (§5.2).
	CandidateAccepted = core.CandidateAccepted
	// OracleFault reports a labeling query that failed after retries;
	// the pair is requeued and the run continues on the granted labels.
	OracleFault = core.OracleFault
	// RunEnd closes the run with its StopReason.
	RunEnd = core.RunEnd
	// CurveBuilder accumulates curve points incrementally.
	CurveBuilder = eval.CurveBuilder
	// EventLog renders the event stream as a timestamped trace.
	EventLog = diag.EventLog
)

// Stop reasons.
const (
	// StopNone: the run has not terminated yet.
	StopNone = core.StopNone
	// StopBudget: the MaxLabels budget is exhausted.
	StopBudget = core.StopBudget
	// StopPoolExhausted: no unlabeled candidates remain.
	StopPoolExhausted = core.StopPoolExhausted
	// StopTargetF1: the evaluated F1 reached Config.TargetF1.
	StopTargetF1 = core.StopTargetF1
	// StopStability: predictions stabilized for StabilityWindow iterations.
	StopStability = core.StopStability
	// StopSelectorEmpty: the selector returned no examples.
	StopSelectorEmpty = core.StopSelectorEmpty
	// StopCancelled: the run's context was cancelled.
	StopCancelled = core.StopCancelled
	// StopOracleFailed: labeling stalled — every query in a round failed
	// even after retries, so the run kept its partial model and stopped.
	StopOracleFailed = core.StopOracleFailed
	// StopBudgetExhausted: the Config.MaxDollars budget can no longer
	// afford the next answer at the labeler's worst-case price.
	StopBudgetExhausted = core.StopBudgetExhausted
)

// NewSession validates cfg and prepares a run without starting it.
func NewSession(pool *Pool, l Learner, s Selector, o Oracle, cfg Config) (*Session, error) {
	return core.NewSession(pool, l, s, o, cfg)
}

// RestoreSession rebuilds a Session from a snapshot plus the label WAL
// the run was journaling (nil when it had none): answers the dead
// process paid for after the snapshot are replayed from the WAL, never
// re-bought, so the resumed run matches an uninterrupted one — curve,
// labels and ledger. Pass the oracle lifted the way the original session's
// was (BatchedOracle, BatchOfOracle); see core.Restore for the
// learner-state contract.
func RestoreSession(pool *Pool, l Learner, s Selector, bo BatchOracle,
	sn *SessionSnapshot, wal []LabelRecord) (*Session, error) {
	return core.Restore(pool, l, s, bo, sn, wal)
}

// ReadSessionSnapshot deserializes a snapshot written by
// (*SessionSnapshot).Encode.
func ReadSessionSnapshot(r io.Reader) (*SessionSnapshot, error) {
	return core.ReadSnapshot(r)
}

// NewCurveObserver adapts a CurveBuilder to the event stream.
func NewCurveObserver(b *CurveBuilder) Observer { return core.NewCurveObserver(b) }

// NewEventLog returns an EventLog writing to w.
func NewEventLog(w io.Writer) *EventLog { return diag.NewEventLog(w) }

// Observability: the unified metrics-and-tracing layer (internal/obs).
// A Trace collects the Session's PhaseDone spans; serialized as JSONL it
// is a run manifest (`almatch -trace run.jsonl`), and aldiag summarizes
// one back into a per-phase table. MetricsRegistry is the same
// dependency-free registry the MatchServer renders on /metrics.
type (
	// Trace accumulates spans and reads/writes JSONL run manifests.
	Trace = obs.Trace
	// TraceSpan is one recorded phase execution.
	TraceSpan = obs.Span
	// TracePhaseSummary is one phase's aggregate across a manifest.
	TracePhaseSummary = obs.PhaseSummary
	// MetricsRegistry registers counters/gauges/histograms and renders
	// them in the Prometheus text exposition format.
	MetricsRegistry = obs.Registry
)

// NewTrace returns an empty trace.
func NewTrace() *Trace { return obs.NewTrace() }

// NewTraceObserver adapts a Trace to the Session event stream: every
// PhaseDone event becomes one manifest span.
func NewTraceObserver(tr *Trace) Observer { return core.NewTraceObserver(tr) }

// ReadTraceManifest parses a JSONL run manifest written by
// (*Trace).WriteManifest.
func ReadTraceManifest(r io.Reader) ([]TraceSpan, error) { return obs.ReadManifest(r) }

// SummarizeTrace aggregates manifest spans per phase, ordered by total
// wall time.
func SummarizeTrace(spans []TraceSpan) []TracePhaseSummary { return obs.Summarize(spans) }

// WriteTraceSummary renders the human-readable per-phase table aldiag
// prints for a manifest.
func WriteTraceSummary(w io.Writer, spans []TraceSpan) { obs.WriteSummary(w, spans) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RegisterBlockingMetrics exposes the process-wide candidate-index
// counters (builds, adds, postings, filter funnel) on r; the MatchServer
// registers them on its own /metrics registry automatically.
func RegisterBlockingMetrics(r *MetricsRegistry) { blocking.RegisterMetrics(r) }

// Learners.
type (
	// SVM is the linear classifier (§4.2.1).
	SVM = linear.SVM
	// NeuralNet is the non-convex non-linear classifier (§4.2.2).
	NeuralNet = neural.Net
	// RandomForest is the tree-based classifier (§4.1.1).
	RandomForest = tree.Forest
	// DecisionTree is one CART tree of a forest.
	DecisionTree = tree.Tree
	// RuleModel is the monotone-DNF rule learner (§4.3).
	RuleModel = rules.Model
	// Rule is one conjunction of a RuleModel's DNF.
	Rule = rules.Rule
)

// NewSVM returns a linear SVM with benchmark defaults.
func NewSVM(seed int64) *SVM { return linear.NewSVM(seed) }

// NewNeuralNet returns the paper's feed-forward network (one hidden
// layer, batch norm, dropout) with the given hidden width.
func NewNeuralNet(hidden int, seed int64) *NeuralNet { return neural.NewNet(hidden, seed) }

// NewRandomForest returns a forest with the given committee size
// (Corleone settings: unlimited depth, log2(Dim+1) features per split).
func NewRandomForest(trees int, seed int64) *RandomForest { return tree.NewForest(trees, seed) }

// NewRuleModel returns a monotone-DNF rule learner over ext's atoms.
func NewRuleModel(ext *BoolFeatureExtractor) *RuleModel { return rules.NewModel(ext) }

// SVMFactory builds SVMs for QBC committees.
func SVMFactory(seed int64) Learner { return linear.NewSVM(seed) }

// NeuralNetFactory builds networks of the given width for QBC committees.
func NeuralNetFactory(hidden int) Factory {
	return func(seed int64) Learner { return neural.NewNet(hidden, seed) }
}

// Model persistence: the unified artifact couples a trained learner
// with everything needed to reapply it — schema, blocking threshold,
// featurization pipeline, and (for extended features) the training-time
// corpus statistics. One file, self-describing, loadable by kind.
type (
	// ModelArtifact is a loaded model plus its deployment metadata.
	ModelArtifact = model.Artifact
	// ModelMeta is the deployment metadata saved alongside a learner.
	ModelMeta = model.Meta
	// ModelKind tags which learner family an artifact holds.
	ModelKind = model.Kind
	// Featurization names a feature pipeline (float, bool, extended).
	Featurization = match.Featurization
)

// Model kinds.
const (
	// KindSVM tags a linear SVM artifact.
	KindSVM = model.KindSVM
	// KindNeuralNet tags a feed-forward network artifact.
	KindNeuralNet = model.KindNeuralNet
	// KindRandomForest tags a random-forest artifact.
	KindRandomForest = model.KindRandomForest
	// KindRules tags a monotone-DNF rules artifact.
	KindRules = model.KindRules
)

// Featurization pipelines.
const (
	// FloatFeatures is the standard 21-metric float pipeline.
	FloatFeatures = match.FloatFeatures
	// BoolFeatures is the thresholded Boolean-atom pipeline (rules).
	BoolFeatures = match.BoolFeatures
	// ExtendedFeatures is the 25-metric corpus-aware pipeline.
	ExtendedFeatures = match.ExtendedFeatures
)

// ParseFeaturization parses "float", "bool" or "extended".
func ParseFeaturization(s string) (Featurization, error) {
	return match.ParseFeaturization(s)
}

// SaveModel writes learner plus meta as one self-describing artifact.
// Meta.Schema is required; everything else defaults sensibly.
func SaveModel(w io.Writer, l Learner, meta ModelMeta) error {
	return model.Save(w, l, meta)
}

// LoadModel reads an artifact written by SaveModel, rebuilds its feature
// pipeline, and validates learner dimensionality against it.
func LoadModel(r io.Reader) (*ModelArtifact, error) { return model.Load(r) }

// LoadRandomForest reads a forest written by (*RandomForest).SaveJSON.
//
// Deprecated: bare-learner files carry no schema or pipeline metadata.
// Use SaveModel / LoadModel for new code; this remains for old files
// (almatch -mode apply falls back to it for pre-artifact models).
func LoadRandomForest(r io.Reader) (*RandomForest, error) { return tree.LoadJSON(r) }

// Deployment.
type (
	// Matcher applies a trained learner to fresh table pairs, running
	// the same blocking + featurization pipeline end to end.
	Matcher = match.Matcher
	// MatchedPair is one predicted match, by record IDs.
	MatchedPair = match.Pair

	// MatchServer serves a ModelArtifact over HTTP: POST /v1/match,
	// POST /v1/score (batched through a bounded worker pool),
	// GET /v1/models, GET /healthz, GET /metrics. See cmd/almserve.
	MatchServer = serve.Server
	// MatchServerConfig sizes a MatchServer (workers, batching, timeouts,
	// per-tenant admission, registry admin routes).
	MatchServerConfig = serve.Config

	// ModelRegistry is the server's versioned model store: Publish
	// validates a new version, Activate flips the default alias with one
	// atomic pointer store (zero dropped requests), Remove drains a
	// retired version on its own pool. Reach it via (*MatchServer).Models.
	ModelRegistry = serve.Registry
	// RegistryModelInfo is one registry entry's public state, as served
	// by GET /v1/models and embedded per model in /healthz.
	RegistryModelInfo = serve.ModelInfo

	// ServeRequestDone is emitted on the event stream per HTTP request.
	ServeRequestDone = serve.RequestDone
	// ServeStart is emitted when the server's listener binds.
	ServeStart = serve.ServerStart
	// ServeDrainStart is emitted when graceful shutdown begins.
	ServeDrainStart = serve.DrainStart
	// ServeStop is emitted when shutdown completes.
	ServeStop = serve.ServerStop
	// ServeModelPublished is emitted when a model version is published.
	ServeModelPublished = serve.ModelPublished
	// ServeModelActivated is emitted when the default alias flips.
	ServeModelActivated = serve.ModelActivated
	// ServeModelSwapFailed is emitted when a publish is rejected; the
	// serving version is untouched and /healthz turns degraded.
	ServeModelSwapFailed = serve.ModelSwapFailed
)

// BootModelVersion is the version id NewMatchServer (and almserve's
// -model flag) publishes its boot artifact under.
const BootModelVersion = serve.BootVersion

// Registry errors, re-exported for errors.Is against admin API results.
var (
	// ErrModelSwapRejected wraps every failed publish: the artifact did
	// not validate or the version id was unusable; nothing was applied.
	ErrModelSwapRejected = serve.ErrSwapRejected
	// ErrNoActiveModel: the registry holds no activated version.
	ErrNoActiveModel = serve.ErrNoActiveModel
	// ErrUnknownModelVersion: a request named a version id the registry
	// does not hold.
	ErrUnknownModelVersion = serve.ErrUnknownModel
	// ErrInvalidModelArtifact is the model loader's typed rejection for
	// truncated, garbage, or drifted artifacts; it rides inside
	// ErrModelSwapRejected chains.
	ErrInvalidModelArtifact = model.ErrInvalidArtifact
)

// NewMatchServer builds an HTTP matching service over a loaded artifact.
// Observers receive the serve event vocabulary (ServeRequestDone, ...)
// through the same stream Session uses.
func NewMatchServer(art *ModelArtifact, cfg MatchServerConfig, observers ...Observer) *MatchServer {
	return serve.New(art, cfg, observers...)
}

// NewMultiModelServer builds an HTTP matching service with an empty
// model registry: publish versions through (*MatchServer).Models (or the
// admin POST /v1/models route when cfg.EnableAdmin is set) and activate
// one to start serving. Until then model routes answer 503 and /healthz
// reports degraded.
func NewMultiModelServer(cfg MatchServerConfig, observers ...Observer) *MatchServer {
	return serve.NewMulti(cfg, observers...)
}

// Oracles.
type (
	// Oracle labels pairs on demand and counts queries.
	Oracle = oracle.Oracle
	// PerfectOracle answers from ground truth.
	PerfectOracle = oracle.Perfect
	// NoisyOracle flips labels with a fixed probability (§6.2).
	NoisyOracle = oracle.Noisy
)

// NewPerfectOracle answers every query from ground truth.
func NewPerfectOracle(d *Dataset) *PerfectOracle { return oracle.NewPerfect(d) }

// NewNoisyOracle flips the true label with the given probability.
func NewNoisyOracle(d *Dataset, noise float64, seed int64) *NoisyOracle {
	return oracle.NewNoisy(d, noise, seed)
}

// NewMajorityVoteOracle wraps an Oracle with k-worker majority voting,
// the crowd label-correction the paper's noise model deliberately omits.
func NewMajorityVoteOracle(inner Oracle, k int) Oracle {
	return oracle.NewMajorityVote(inner, k)
}

// Resilience: fault-tolerant labeling, crash-safe checkpoints, and
// overload protection. Real labeling back ends (crowds, APIs, humans on
// call) fail; these types let a Session survive transient faults, resume
// a killed run bit-identically from a snapshot plus label WAL, and let a
// MatchServer shed load instead of collapsing.
type (
	// FallibleOracle is an Oracle whose queries can fail: labeling is an
	// RPC to a human or service, so Label takes a context and returns an
	// error alongside the label.
	FallibleOracle = resilience.FallibleOracle
	// RetryPolicy bounds retries with exponential backoff and jitter.
	RetryPolicy = resilience.RetryPolicy
	// RetryOracle wraps a FallibleOracle with a RetryPolicy.
	RetryOracle = resilience.Retrier
	// FaultConfig parameterizes deterministic fault injection.
	FaultConfig = resilience.FaultConfig
	// FaultyOracle injects seeded, replayable faults for chaos testing.
	FaultyOracle = resilience.FaultyOracle
	// LabelWAL is the append-only, fsync-per-record label log that makes
	// resumed runs replay granted labels instead of re-paying for them.
	LabelWAL = resilience.LabelWAL
	// LabelRecord is one granted label in a LabelWAL.
	LabelRecord = resilience.LabelRecord
	// LabelSink receives each granted label as it is paid for.
	LabelSink = core.LabelSink
	// StatefulOracle is an oracle whose label decisions consume RNG
	// draws (NoisyOracle); snapshots capture and restore its position.
	StatefulOracle = oracle.Stateful
	// CircuitBreaker trips after consecutive failures and sheds load
	// until a cooldown probe succeeds; MatchServer runs one internally.
	CircuitBreaker = resilience.Breaker
	// CircuitBreakerConfig sizes a CircuitBreaker.
	CircuitBreakerConfig = resilience.BreakerConfig
	// TokenBucket is a burst-then-steady-rate admission limiter; its
	// Allow also reports how long a denied caller should back off.
	TokenBucket = resilience.TokenBucket
	// TenantLimiter keys TokenBuckets by tenant id with a bounded table
	// (stalest-evicted); MatchServer runs one when TenantRate is set.
	TenantLimiter = resilience.TenantLimiter
)

// Resilience errors.
var (
	// ErrOracleExhausted wraps the final error once a RetryOracle's
	// attempt budget is spent on a pair.
	ErrOracleExhausted = resilience.ErrOracleExhausted
	// ErrInjected marks failures manufactured by a FaultyOracle.
	ErrInjected = resilience.ErrInjected
	// ErrLabelingStalled reports a labeling round in which every query
	// failed; the Session stops with StopOracleFailed.
	ErrLabelingStalled = core.ErrLabelingStalled
)

// WrapOracle adapts an infallible Oracle to the FallibleOracle
// interface (its Label never fails, only honors ctx cancellation).
func WrapOracle(o Oracle) FallibleOracle { return resilience.Wrap(o) }

// NewRetryOracle wraps inner with bounded, jittered retries. A zero
// policy gets defaults (4 attempts, 50ms base delay doubling to 2s).
func NewRetryOracle(inner FallibleOracle, policy RetryPolicy, seed int64) *RetryOracle {
	return resilience.NewRetrier(inner, policy, seed)
}

// NewFaultyOracle wraps inner with deterministic seeded fault
// injection: the same seed yields the same per-pair fault pattern
// regardless of call interleaving, so chaos tests are replayable.
func NewFaultyOracle(inner FallibleOracle, cfg FaultConfig, seed int64) *FaultyOracle {
	return resilience.NewFaultyOracle(inner, cfg, seed)
}

// NewCircuitBreaker builds a standalone breaker (MatchServer wires its
// own; this is for callers guarding other dependencies).
func NewCircuitBreaker(cfg CircuitBreakerConfig) *CircuitBreaker {
	return resilience.NewBreaker(cfg)
}

// NewTokenBucket builds a standalone rate limiter admitting `rate`
// calls per second after an initial burst of `burst`.
func NewTokenBucket(rate float64, burst int) *TokenBucket {
	return resilience.NewTokenBucket(rate, burst, nil)
}

// NewTenantLimiter builds a per-tenant admission table; each tenant id
// gets its own TokenBucket (burst <= 0 defaults to twice the rate).
func NewTenantLimiter(rate float64, burst int) *TenantLimiter {
	return resilience.NewTenantLimiter(rate, burst, nil)
}

// OpenLabelWAL opens (or creates) a label write-ahead log, replaying
// its intact prefix and truncating any torn tail from a crash
// mid-append. Wire the WAL into a Session with SetLabelSink; pass the
// replayed records to RestoreSession on resume.
func OpenLabelWAL(path string) (*LabelWAL, []LabelRecord, error) {
	return resilience.OpenLabelWAL(path)
}

// WriteFileAtomic writes a file via temp + fsync + rename so readers
// never observe a torn write — the way checkpoints should hit disk.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return resilience.WriteFileAtomic(path, write)
}

// Costly oracles: batched labelers that charge per answer, abstain, and
// take wall-clock time — the LLM/crowd labeling regime — plus the dollar
// budgets, cost ledger and transfer warm-start that go with them.
type (
	// BatchOracle labels whole batches in one call; answers are priced
	// and may abstain or fail per pair.
	BatchOracle = oracle.BatchOracle
	// OracleAnswer is one pair's outcome in a batch: a verdict, its
	// billed cost, or a per-pair error.
	OracleAnswer = oracle.Answer
	// OracleVerdict is a batch labeler's three-way answer.
	OracleVerdict = oracle.Verdict
	// PriceTable is a batch labeler's per-answer price list.
	PriceTable = oracle.PriceTable
	// LLMSimConfig parameterizes the simulated LLM labeler.
	LLMSimConfig = oracle.LLMSimConfig
	// SimulatedLLMOracle is a deterministic, seeded stand-in for an LLM
	// labeling API: priced answers, abstentions, failures, latency.
	SimulatedLLMOracle = oracle.SimulatedLLMOracle
	// CostLedger is a Session's running bill: answers bought, the
	// label/abstain split, and dollars spent.
	CostLedger = core.CostLedger
	// OracleBatchDone reports one completed batch-labeling call with its
	// answer mix, cost and latency.
	OracleBatchDone = core.OracleBatchDone
)

// Batch labeler verdicts.
const (
	// VerdictNonMatch answers "different entities".
	VerdictNonMatch = oracle.VerdictNonMatch
	// VerdictMatch answers "same entity".
	VerdictMatch = oracle.VerdictMatch
	// VerdictAbstain declines to answer; billed, requeued until the
	// abstain cutoff retires the pair.
	VerdictAbstain = oracle.VerdictAbstain
)

// DefaultAbstainCutoff is the per-pair abstention limit when
// Config.AbstainCutoff is zero.
const DefaultAbstainCutoff = core.DefaultAbstainCutoff

// ErrSimulated marks failures injected by a SimulatedLLMOracle.
var ErrSimulated = oracle.ErrSimulated

// NewSimulatedLLMOracle builds the seeded simulated LLM labeler over a
// dataset's ground truth. Identical (dataset, cfg, seed) yields an
// identical answer stream regardless of batch interleaving.
func NewSimulatedLLMOracle(d *Dataset, cfg LLMSimConfig, seed int64) *SimulatedLLMOracle {
	return oracle.NewSimulatedLLM(d, cfg, seed)
}

// BatchedOracle adapts a per-pair Oracle to the BatchOracle interface:
// free, never abstains, never fails. NewSession applies it for you.
func BatchedOracle(inner Oracle) BatchOracle { return oracle.Batched(inner) }

// BatchOfOracle adapts a FallibleOracle to the BatchOracle interface,
// mapping per-pair errors to per-answer errors: a failed query emits an
// OracleFault event and requeues its pair, the run trains on whatever
// labels were granted, and a fully failed round stops with
// StopOracleFailed instead of spinning.
func BatchOfOracle(fo FallibleOracle) BatchOracle { return resilience.BatchOf(fo) }

// NewBatchSession prepares a run labeling through a BatchOracle —
// BatchedOracle or BatchOfOracle for per-pair labelers, or a priced batch
// labeler, which is asked once per iteration: abstentions are billed and
// requeued up to Config.AbstainCutoff, and Config.MaxDollars bounds total
// spend (the run stops with StopBudgetExhausted when the next answer
// could overdraw it).
func NewBatchSession(pool *Pool, l Learner, s Selector, bo BatchOracle, cfg Config) (*Session, error) {
	return core.NewBatchSession(pool, l, s, bo, cfg)
}

// RegisterOracleMetrics exposes the process-wide labeling-cost counters
// (batches, answer mix, microdollars billed) on a metrics registry; the
// match server's /metrics includes them automatically.
func RegisterOracleMetrics(r *MetricsRegistry) { oracle.RegisterMetrics(r) }

// Evaluation.
type (
	// Confusion is a binary confusion matrix.
	Confusion = eval.Confusion
	// CurvePoint is one iteration's measurement.
	CurvePoint = eval.Point
	// Curve is a per-iteration measurement sequence.
	Curve = eval.Curve
)

// EvaluatePredictions compares predictions against truth.
func EvaluatePredictions(pred, truth []bool) Confusion { return eval.Evaluate(pred, truth) }

// Interpretability (§6.3).
type (
	// DNFPredicate is one atom of a tree-derived DNF.
	DNFPredicate = interp.Predicate
	// DNFConjunction is one clause of a tree-derived DNF.
	DNFConjunction = interp.Conjunction
)

// ForestToDNF converts a trained forest to DNF clauses.
func ForestToDNF(f *RandomForest) []DNFConjunction { return interp.ForestToDNF(f) }

// ForestAtoms counts the forest's DNF atoms (the Fig. 18a metric).
func ForestAtoms(f *RandomForest) int { return interp.ForestAtoms(f) }

// DiagnosticReport summarizes a dataset's post-blocking feature
// geometry: per-attribute class separation and similarity histograms.
type DiagnosticReport = diag.Report

// Diagnose blocks and featurizes a dataset and reports how separable its
// matches are from its non-matches — the difficulty view behind the
// synthetic profile calibration.
func Diagnose(d *Dataset) *DiagnosticReport { return diag.Analyze(d) }

// Clustering: dedup post-processing (predicted matches -> entities).
type (
	// Clusters groups records into resolved entities.
	Clusters = cluster.Clusters
	// ClusterNode identifies a record (side 0 = left table, 1 = right).
	ClusterNode = cluster.Node
	// MatchEdge is one predicted match between left and right records.
	MatchEdge = cluster.Edge
)

// ClusterMatches builds entity clusters as connected components over
// predicted match edges.
func ClusterMatches(nLeft, nRight int, edges []MatchEdge) *Clusters {
	return cluster.Connected(nLeft, nRight, edges)
}

// Experiments: the paper's tables and figures.
type (
	// ExperimentOptions size an experiment run.
	ExperimentOptions = experiments.Options
	// ExperimentReport is a reproduced table or figure.
	ExperimentReport = experiments.Report
)

// ExperimentIDs lists every reproducible table/figure id.
func ExperimentIDs() []string { return experiments.IDs() }

// AblationIDs lists the extension experiments: design-choice sweeps and
// the plug-in learner demonstration.
func AblationIDs() []string { return experiments.AblationIDs() }

// DefaultExperimentOptions returns defaults with ALEM_* env overrides.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// RunExperiment runs one experiment by id (e.g. "table2", "fig12") and
// writes its report to w.
func RunExperiment(id string, opts ExperimentOptions, w io.Writer) (*ExperimentReport, error) {
	driver, err := experiments.Get(id)
	if err != nil {
		return nil, err
	}
	rep, err := driver(opts)
	if err != nil {
		return nil, err
	}
	if w != nil {
		rep.WriteTo(w, opts.Verbose)
	}
	return rep, nil
}
