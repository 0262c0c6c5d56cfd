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
// The package is a thin facade over the internal packages. It exports a
// name only when one of these holds:
//
//  1. a program under cmd/ or examples/, or a package Example, uses it;
//  2. a kept function, or a method of a kept interface, takes or
//     returns the type;
//  3. it is a plug-in contract a user implements (Learner, Selector and
//     its Scorer×Picker halves, Oracle, BatchOracle, Observer) or a type
//     those contracts' methods take, including the Observer event types;
//  4. it is a named value or sentinel of a kept type or of a kept
//     struct's field: the stop reasons, verdicts, model kinds,
//     evaluation modes (Config.Mode), feature pipelines
//     (ModelMeta.Features) and the errors kept functions and interface
//     methods return.
//
// Everything else stays internal, so the public surface is what the
// programs built on it actually call.
package alem

import (
	"context"
	"io"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/cluster"
	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/diag"
	"github.com/alem/alem/internal/experiments"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/interp"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/match"
	"github.com/alem/alem/internal/model"
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

// Feature extraction.
type (
	// FeatureVector is a dense float feature vector.
	FeatureVector = feature.Vector
	// FeatureExtractor computes the 21-similarity-function float vectors.
	FeatureExtractor = feature.Extractor
	// BoolFeatureExtractor computes thresholded Boolean atoms for rules.
	BoolFeatureExtractor = feature.BoolExtractor
	// Metric is a normalized string-similarity function.
	Metric = textsim.Metric
)

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
	// SelectorParams carries the tunables registry constructors accept.
	SelectorParams = core.SelectorParams
)

// ErrIncompatibleSelector is the sentinel selector/learner mismatch
// errors wrap; NewSession and Config validation return it when e.g.
// LFPLFN is composed with a non-rule learner.
var ErrIncompatibleSelector = core.ErrIncompatibleSelector

// NewSelector constructs a registered selection strategy by -selector
// name; unknown names error with the registered list attached.
func NewSelector(name string, p SelectorParams) (Selector, error) {
	return core.NewSelector(name, p)
}

// FormatSelectorList renders the selector registry the way the CLIs'
// -list-selectors flag prints it.
func FormatSelectorList() string { return core.FormatSelectorList() }

// ValidateSelection checks a (learner, selector) pair up front the same
// way session construction does, returning an error wrapping
// ErrIncompatibleSelector on a mismatch.
func ValidateSelection(l Learner, s Selector) error { return core.ValidateSelection(l, s) }

// Evaluation modes (Config.Mode).
const (
	// Progressive evaluates on all post-blocking pairs (progressive F1).
	Progressive = core.Progressive
	// HeldOut evaluates on a held-out 20% split.
	HeldOut = core.HeldOut
)

// NewPool blocks and featurizes a dataset with the standard extractor.
func NewPool(d *Dataset) *Pool { return core.NewPool(d) }

// NewBoolPool blocks and featurizes a dataset with Boolean atoms (rules).
func NewBoolPool(d *Dataset) *Pool { return core.NewBoolPool(d) }

// Run executes one active-learning run (Fig. 1a).
func Run(pool *Pool, l Learner, s Selector, o Oracle, cfg Config) *Result {
	return core.Run(pool, l, s, o, cfg)
}

// RunEnsemble executes active learning with an incrementally grown
// high-precision ensemble (§5.2).
func RunEnsemble(pool *Pool, o Oracle, cfg EnsembleConfig) *EnsembleResult {
	return core.RunEnsemble(pool, o, cfg)
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
	// OracleBatchDone reports one completed batch-labeling call with its
	// answer mix, cost and latency.
	OracleBatchDone = core.OracleBatchDone
	// RunEnd closes the run with its StopReason.
	RunEnd = core.RunEnd
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

// ErrLabelingStalled reports a labeling round in which every query
// failed; the Session stops with StopOracleFailed.
var ErrLabelingStalled = core.ErrLabelingStalled

// NewSession validates cfg and prepares a run without starting it.
func NewSession(pool *Pool, l Learner, s Selector, o Oracle, cfg Config) (*Session, error) {
	return core.NewSession(pool, l, s, o, cfg)
}

// NewBatchSession prepares a run labeling through a BatchOracle —
// BatchedOracle or BatchOfOracle for per-pair labelers, or a priced batch
// labeler, which is asked once per iteration: abstentions are billed and
// requeued up to Config.AbstainCutoff, and Config.MaxDollars bounds total
// spend (the run stops with StopBudgetExhausted when the next answer
// could overdraw it).
func NewBatchSession(pool *Pool, l Learner, s Selector, bo BatchOracle, cfg Config) (*Session, error) {
	return core.NewBatchSession(pool, l, s, bo, cfg)
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

// NewEventLog returns an EventLog writing to w.
func NewEventLog(w io.Writer) *EventLog { return diag.NewEventLog(w) }

// Tracing: a Trace collects the Session's PhaseDone spans; serialized as
// JSONL it is a run manifest (`almatch -trace run.jsonl`), and aldiag
// summarizes one back into a per-phase table.
type (
	// Trace accumulates spans and reads/writes JSONL run manifests.
	Trace = obs.Trace
	// TraceSpan is one recorded phase execution.
	TraceSpan = obs.Span
)

// NewTrace returns an empty trace.
func NewTrace() *Trace { return obs.NewTrace() }

// NewTraceObserver adapts a Trace to the Session event stream: every
// PhaseDone event becomes one manifest span.
func NewTraceObserver(tr *Trace) Observer { return core.NewTraceObserver(tr) }

// ReadTraceManifest parses a JSONL run manifest written by
// (*Trace).WriteManifest.
func ReadTraceManifest(r io.Reader) ([]TraceSpan, error) { return obs.ReadManifest(r) }

// WriteTraceSummary renders the human-readable per-phase table aldiag
// prints for a manifest.
func WriteTraceSummary(w io.Writer, spans []TraceSpan) { obs.WriteSummary(w, spans) }

// Learners.
type (
	// SVM is the linear classifier (§4.2.1).
	SVM = linear.SVM
	// RandomForest is the tree-based classifier (§4.1.1).
	RandomForest = tree.Forest
	// RuleModel is the monotone-DNF rule learner (§4.3).
	RuleModel = rules.Model
)

// NewSVM returns a linear SVM with benchmark defaults.
func NewSVM(seed int64) *SVM { return linear.NewSVM(seed) }

// NewRandomForest returns a forest with the given committee size
// (Corleone settings: unlimited depth, log2(Dim+1) features per split).
func NewRandomForest(trees int, seed int64) *RandomForest { return tree.NewForest(trees, seed) }

// NewRuleModel returns a monotone-DNF rule learner over ext's atoms.
func NewRuleModel(ext *BoolFeatureExtractor) *RuleModel { return rules.NewModel(ext) }

// SVMFactory builds SVMs for QBC committees.
func SVMFactory(seed int64) Learner { return linear.NewSVM(seed) }

// ForestAtoms counts the forest's DNF atoms (the Fig. 18a metric, §6.3).
func ForestAtoms(f *RandomForest) int { return interp.ForestAtoms(f) }

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

// Featurization pipelines (ModelMeta.Features).
const (
	// FloatFeatures is the standard 21-metric float pipeline.
	FloatFeatures = match.FloatFeatures
	// BoolFeatures is the thresholded Boolean-atom pipeline (rules).
	BoolFeatures = match.BoolFeatures
)

// ErrInvalidModelArtifact is LoadModel's typed rejection for truncated,
// garbage, or drifted artifacts.
var ErrInvalidModelArtifact = model.ErrInvalidArtifact

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
	// MatchServer serves model artifacts over HTTP: POST /v1/match,
	// POST /v1/score (batched through a bounded worker pool),
	// GET /v1/models, GET /healthz, GET /metrics. See cmd/almserve.
	MatchServer = serve.Server
	// MatchServerConfig sizes a MatchServer (workers, batching, timeouts,
	// per-tenant admission, registry admin routes).
	MatchServerConfig = serve.Config
)

// BootModelVersion is the version id almserve's -model flag publishes
// its boot artifact under.
const BootModelVersion = serve.BootVersion

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

// Resilience: fault-tolerant labeling and crash-safe checkpoints. Real
// labeling back ends (crowds, APIs, humans on call) fail; these types let
// a Session survive transient faults and resume a killed run
// bit-identically from a snapshot plus label WAL.
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
// take wall-clock time — the LLM/crowd labeling regime.
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
