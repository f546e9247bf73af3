package mdrs

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"mdrs/internal/baseline"
	"mdrs/internal/contention"
	"mdrs/internal/costmodel"
	"mdrs/internal/engine"
	"mdrs/internal/malleable"
	"mdrs/internal/memsched"
	"mdrs/internal/obs"
	"mdrs/internal/opt"
	"mdrs/internal/optimizer"
	"mdrs/internal/pipesim"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/serve"
	"mdrs/internal/sim"
	"mdrs/internal/vector"
)

// Re-exported types: the full public API surface of the library. Each
// alias is documented at its definition site.
type (
	// Vector is a d-dimensional work vector (internal/vector).
	Vector = vector.Vector
	// Params holds the Table 2 cost parameters (internal/costmodel).
	Params = costmodel.Params
	// CostModel derives work vectors and degrees of parallelism.
	CostModel = costmodel.Model
	// OpKind identifies a physical operator (scan/build/probe/store).
	OpKind = costmodel.OpKind
	// OpSpec describes one operator instance for costing.
	OpSpec = costmodel.OpSpec
	// CostCache memoizes a cost model's derivations by operator spec.
	CostCache = costmodel.Cache
	// Overlap is the resource-overlap model ε of assumption EA2.
	Overlap = resource.Overlap
	// Relation is a base relation of the catalog.
	Relation = query.Relation
	// PlanNode is a node of a bushy hash-join execution plan.
	PlanNode = query.PlanNode
	// GenConfig configures random plan generation.
	GenConfig = query.GenConfig
	// Operator is a node of the macro-expanded operator tree.
	Operator = plan.Operator
	// OperatorTree is the macro-expanded form of an execution plan.
	OperatorTree = plan.OperatorTree
	// TaskTree is the query task tree with its synchronized phases.
	TaskTree = plan.TaskTree
	// SchedOp is an operator instance presented to OperatorSchedule.
	SchedOp = sched.Op
	// SchedResult is the outcome of one OperatorSchedule packing.
	SchedResult = sched.Result
	// TreeScheduler runs the paper's TreeSchedule algorithm.
	TreeScheduler = sched.TreeScheduler
	// Schedule is a complete phased parallel schedule.
	Schedule = sched.Schedule
	// MalleableScheduler is the Section 7 malleable-operator scheduler.
	MalleableScheduler = malleable.Scheduler
	// MalleableOperator is one malleable floating operator.
	MalleableOperator = malleable.Operator
	// SynchronousResult is the baseline's placement and response.
	SynchronousResult = baseline.Result
	// Dataset holds generated synthetic relations for one plan.
	Dataset = engine.Dataset
	// Engine executes scheduled plans over a Dataset.
	Engine = engine.Engine
	// SiteComparison pairs analytic and fluid-simulated response times.
	SiteComparison = sim.SiteComparison
	// MemoryScheduler is the memory-aware TreeSchedule extension
	// (non-preemptable resources, the paper's first open problem).
	MemoryScheduler = memsched.Scheduler
	// ContentionPenalty holds per-resource time-sharing penalties γ_i
	// (the paper's second open problem: imperfect preemptability).
	ContentionPenalty = contention.Penalty
	// PipeSimConfig tunes the explicit pipeline dataflow simulator.
	PipeSimConfig = pipesim.Config
	// PipeSimResult compares analytic vs pipeline-simulated response.
	PipeSimResult = pipesim.Result
	// PlanSearch is the bound-pruned scheduler-in-the-loop plan
	// selector: candidates whose OPTBOUND lower bound cannot beat the
	// running incumbent are never fully scheduled, and the outcome is
	// provably identical to scheduling every candidate.
	PlanSearch = optimizer.Search
	// PlanCandidate is one priced candidate of a PlanSearchResult: its
	// plan, lower bound, and full schedule.
	PlanCandidate = optimizer.Candidate
	// Shape selects an execution-plan tree shape for generation.
	Shape = query.Shape
	// Recorder receives counters, timing samples, and decision-trace
	// events from the schedulers and the engine. A nil Recorder is the
	// fully-disabled (and essentially free) default.
	Recorder = obs.Recorder
	// TraceEvent is one structured decision-trace record.
	TraceEvent = obs.Event
	// Tracer is a Recorder streaming events as JSON lines.
	Tracer = obs.Tracer
	// Metrics is a Recorder aggregating counters and histograms.
	Metrics = obs.Metrics
	// TraceCapture is a Recorder buffering events in memory.
	TraceCapture = obs.Capture
	// PlaceKey identifies one clone placement in a replayed trace.
	PlaceKey = obs.PlaceKey
	// SchedulingService is the concurrent multi-query scheduling service:
	// admission control, window batching, and deadline-aware degradation
	// over ScheduleBatch.
	SchedulingService = serve.Service
	// ServeConfig configures a SchedulingService.
	ServeConfig = serve.Config
	// ServeControllerConfig configures the adaptive inter/intra-query
	// parallelism controller of a SchedulingService (ServeConfig.Controller).
	ServeControllerConfig = serve.ControllerConfig
)

// Typed scheduling-service errors, for errors.Is dispatch.
var (
	// ErrOverloaded reports a request shed by admission control.
	ErrOverloaded = serve.ErrOverloaded
	// ErrServiceClosed reports a request submitted to a closed service.
	ErrServiceClosed = serve.ErrClosed
	// ErrPlanSearchNilRand reports a PlanSearch run with a nil random
	// source.
	ErrPlanSearchNilRand = optimizer.ErrNilRand
	// ErrPlanSearchTooFewRelations reports a PlanSearch over fewer than
	// two relations.
	ErrPlanSearchTooFewRelations = optimizer.ErrTooFewRelations
)

// Plan shapes.
const (
	RandomBushy = query.RandomBushy
	LeftDeep    = query.LeftDeep
	RightDeep   = query.RightDeep
	Balanced    = query.Balanced
)

// EarliestShelf is the ASAP phase policy (TreeScheduler.Policy); the
// zero value is the paper's MinShelf.
const EarliestShelf = plan.EarliestShelf

// Resource dimensions of the experimental 3-dimensional sites.
const (
	CPU  = resource.CPU
	Disk = resource.Disk
	Net  = resource.Net
	// Dims is the site dimensionality used throughout the experiments.
	Dims = resource.Dims
)

// Operator kinds of a streamed (non-materialized) plan.
const (
	Scan  = costmodel.Scan
	Build = costmodel.Build
	Probe = costmodel.Probe
)

// DefaultParams returns the paper's Table 2 parameter settings.
func DefaultParams() Params { return costmodel.DefaultParams() }

// DefaultCostModel returns a cost model over DefaultParams.
func DefaultCostModel() CostModel { return costmodel.Default() }

// NewCostCache wraps a cost model in a memoizing cache, pluggable into
// TreeScheduler.Cache. Every cached answer is bit-identical to the
// uncached model's; safe for concurrent use.
func NewCostCache(m CostModel) *CostCache { return costmodel.NewCache(m) }

// NewOverlap validates ε ∈ [0,1] and returns the overlap model.
func NewOverlap(eps float64) (Overlap, error) { return resource.NewOverlap(eps) }

// DefaultGenConfig returns the paper's workload settings (relations of
// 10³–10⁵ tuples) for the given number of joins.
func DefaultGenConfig(joins int) GenConfig { return query.DefaultGenConfig(joins) }

// RandomPlan draws a random bushy hash-join plan.
func RandomPlan(r *rand.Rand, cfg GenConfig) (*PlanNode, error) { return query.Random(r, cfg) }

// MustRandomPlan is RandomPlan that panics on a bad configuration.
func MustRandomPlan(r *rand.Rand, cfg GenConfig) *PlanNode { return query.MustRandom(r, cfg) }

// DecodePlan parses and validates a JSON-encoded plan.
func DecodePlan(data []byte) (*PlanNode, error) { return query.Decode(data) }

// PrepareQuery expands a plan and builds its task tree in one step.
func PrepareQuery(p *PlanNode) (*OperatorTree, *TaskTree, error) {
	ot, err := plan.Expand(p)
	if err != nil {
		return nil, nil, err
	}
	tt, err := plan.NewTaskTree(ot)
	if err != nil {
		return nil, nil, err
	}
	return ot, tt, nil
}

// Options configures the end-to-end convenience schedulers.
type Options struct {
	// Params defaults to the paper's Table 2 when zero.
	Params Params
	// Sites is the number of system sites P.
	Sites int
	// Epsilon is the resource overlap ε ∈ [0,1].
	Epsilon float64
	// F is the coarse-granularity parameter (TreeSchedule only).
	F float64
	// MaxDegree, when positive, caps every floating operator's degree of
	// partitioned parallelism at min{N_max, N_opt, P, MaxDegree}
	// (TreeSchedule only). Zero means uncapped. The cap changes the
	// schedule itself, so it participates in the schedule fingerprint —
	// schedules cached under different caps never alias. The serve
	// layer's adaptive controller tunes this knob live.
	MaxDegree int
	// Rec, when non-nil, receives the scheduler's decision trace and
	// counters. It is strictly observational: the schedule is identical
	// with or without it.
	Rec Recorder
}

func (o Options) normalize() (CostModel, Overlap, error) {
	p := o.Params
	if p == (Params{}) {
		p = DefaultParams()
	}
	m, err := costmodel.New(p)
	if err != nil {
		return CostModel{}, Overlap{}, err
	}
	ov, err := resource.NewOverlap(o.Epsilon)
	if err != nil {
		return CostModel{}, Overlap{}, err
	}
	if o.Sites <= 0 {
		return CostModel{}, Overlap{}, fmt.Errorf("mdrs: non-positive site count %d", o.Sites)
	}
	return m, ov, nil
}

// ScheduleQuery runs TreeSchedule on a plan end to end.
func ScheduleQuery(p *PlanNode, o Options) (*Schedule, error) {
	return ScheduleQueryCtx(context.Background(), p, o)
}

// ScheduleQueryCtx is ScheduleQuery with a cancellation context: the
// scheduler returns ctx.Err() promptly once ctx is cancelled or past
// its deadline. The context never influences a scheduling decision.
func ScheduleQueryCtx(ctx context.Context, p *PlanNode, o Options) (*Schedule, error) {
	m, ov, err := o.normalize()
	if err != nil {
		return nil, err
	}
	_, tt, err := PrepareQuery(p)
	if err != nil {
		return nil, err
	}
	ts := sched.TreeScheduler{
		Model: m, Overlap: ov, P: o.Sites, F: o.F,
		MaxDegree: o.MaxDegree, Rec: o.Rec,
	}
	return ts.ScheduleCtx(ctx, tt)
}

// NewSchedulingService starts a concurrent scheduling service over the
// given configuration. Callers must Close it to release the service.
func NewSchedulingService(cfg ServeConfig) (*SchedulingService, error) { return serve.New(cfg) }

// ScheduleQuerySynchronous runs the one-dimensional baseline on a plan
// end to end.
func ScheduleQuerySynchronous(p *PlanNode, o Options) (*SynchronousResult, error) {
	m, ov, err := o.normalize()
	if err != nil {
		return nil, err
	}
	_, tt, err := PrepareQuery(p)
	if err != nil {
		return nil, err
	}
	return baseline.Synchronous{Model: m, Overlap: ov, P: o.Sites}.Schedule(tt)
}

// OptBound computes the Section 6.2 lower bound on the optimal CG_f
// response time of a plan.
func OptBound(p *PlanNode, o Options) (float64, error) {
	m, ov, err := o.normalize()
	if err != nil {
		return 0, err
	}
	_, tt, err := PrepareQuery(p)
	if err != nil {
		return 0, err
	}
	return opt.Bound(tt, m, ov, o.Sites, o.F)
}

// NewPlanSearch builds a bound-pruned PlanSearch from Options, sharing
// one cost-model memo across every candidate's bound and schedule.
// candidates is the sample size K for large joins; small joins (up to
// the search's ExhaustiveJoins threshold, default 3) enumerate every
// bushy plan systematically instead. The returned Search's
// ExhaustiveJoins keeps its documented default and can be overridden
// before calling Best.
func NewPlanSearch(o Options, candidates int) (PlanSearch, error) {
	m, ov, err := o.normalize()
	if err != nil {
		return PlanSearch{}, err
	}
	s := PlanSearch{
		Model:      m,
		Overlap:    ov,
		P:          o.Sites,
		F:          o.F,
		Candidates: candidates,
		MaxDegree:  o.MaxDegree,
		Cache:      NewCostCache(m),
		Rec:        o.Rec,
	}
	if err := s.Validate(); err != nil {
		return PlanSearch{}, err
	}
	return s, nil
}

// RandomRelations draws a catalog of n base relations with cardinalities
// in [minTuples, maxTuples], the workload generator behind PlanSearch
// experiments.
func RandomRelations(r *rand.Rand, n, minTuples, maxTuples int) ([]*Relation, error) {
	return optimizer.RandomRelations(r, n, minTuples, maxTuples)
}

// EnumerateBushyPlans returns every distinct bushy join plan over the
// relations (at most query.MaxEnumerateRelations of them), in the
// deterministic order PlanSearch uses for systematic enumeration.
func EnumerateBushyPlans(rels []*Relation) ([]*PlanNode, error) {
	return query.EnumerateBushy(rels)
}

// EnumerateBushyPlansFunc streams every distinct bushy join plan over
// the relations (at most query.MaxStreamRelations of them) to yield in
// the same deterministic order as EnumerateBushyPlans, without ever
// materializing the full plan set. Each plan arrives with its ordinal
// in the unpruned enumeration. A non-nil prune callback may discard
// subtrees: any plan containing a pruned subtree is skipped, but
// surviving plans keep their unpruned ordinals. Peak memory is
// O(frontier), so join counts beyond the materialized ceiling (9 and
// 10 relations) are reachable here.
func EnumerateBushyPlansFunc(rels []*Relation, prune func(*PlanNode) bool, yield func(*PlanNode, int64) error) error {
	return query.EnumerateBushyFunc(rels, prune, yield)
}

// CountBushyPlans returns T(n), the number of distinct bushy join
// plans over n relations (0 outside the supported range 1..10).
func CountBushyPlans(n int) int64 { return query.CountBushy(n) }

// OperatorSchedule exposes the paper's Figure 3 list-scheduling rule for
// a set of independent operators with predetermined clone vectors.
func OperatorSchedule(p, d int, ov Overlap, ops []*SchedOp) (*SchedResult, error) {
	return sched.OperatorSchedule(p, d, ov, ops)
}

// ScheduleLowerBound returns LB(N) = max{l(S)/P, h(N)} for the given
// operators; OperatorSchedule is provably within 2d+1 of it.
func ScheduleLowerBound(p int, ov Overlap, ops []*SchedOp) float64 {
	return sched.LowerBound(p, ov, ops)
}

// GenerateData creates synthetic FK-disciplined relations for a plan so
// that every join's result size matches the optimizer's max rule.
func GenerateData(p *PlanNode, seed int64) (*Dataset, error) { return engine.Generate(p, seed) }

// SimulateSchedule replays a schedule through the fluid time-sharing
// simulator and reports analytic vs simulated response.
func SimulateSchedule(ov Overlap, s *Schedule) (SiteComparison, error) {
	return sim.SimulateSchedule(ov, s)
}

// RandomShapedPlan draws a plan of the given shape (left-deep,
// right-deep, balanced, or random bushy).
func RandomShapedPlan(r *rand.Rand, cfg GenConfig, shape Shape) (*PlanNode, error) {
	return query.RandomShaped(r, cfg, shape)
}

// DiskPenalty returns a contention penalty charging γ on the disk
// dimension only.
func DiskPenalty(gamma float64) ContentionPenalty {
	return contention.DiskOnly(resource.Dims, gamma)
}

// EvalScheduleWithPenalty prices an existing schedule under imperfect
// time-sharing: each resource's per-site load inflates by γ_i per extra
// sharer. A nil penalty reproduces the schedule's own response.
func EvalScheduleWithPenalty(ov Overlap, g ContentionPenalty, s *Schedule) (float64, error) {
	return contention.EvalSchedule(ov, g, s)
}

// SimulatePipelines replays a schedule through the explicit pipeline
// dataflow simulator, where consumers cannot outrun their producers.
func SimulatePipelines(ov Overlap, s *Schedule, cfg PipeSimConfig) (*PipeSimResult, error) {
	return pipesim.Simulate(ov, s, cfg)
}

// VerifySchedule checks every structural invariant of a schedule
// (Definition 5.1 placement constraints, build→probe homes, Equation 3
// consistency) and returns the first violation.
func VerifySchedule(s *Schedule, ov Overlap) error { return sched.Verify(s, ov) }

// EncodeScheduleJSON renders a schedule as stable, indented JSON.
func EncodeScheduleJSON(s *Schedule) ([]byte, error) { return sched.EncodeJSON(s) }

// WriteScheduleText renders per-phase site-load bars and utilization.
func WriteScheduleText(w io.Writer, s *Schedule) error { return sched.WriteText(w, s) }

// ScheduleStats summarizes a schedule's resource economics.
func ScheduleStats(s *Schedule) sched.Stats { return s.Stats() }

// NewTracer returns a Recorder that streams decision-trace events to w
// as JSON lines. Call Flush (and check Err) when done.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// NewMetrics returns a Recorder aggregating counters and bounded
// histograms; safe for concurrent use.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewTraceCapture returns a Recorder buffering events in memory.
func NewTraceCapture() *TraceCapture { return obs.NewCapture() }

// MultiRecorder tees every record to each non-nil recorder.
func MultiRecorder(rs ...Recorder) Recorder { return obs.Multi(rs...) }

// ReadTrace decodes a JSONL decision trace written by a Tracer.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return obs.ReadTrace(r) }

// WriteTraceText pretty-prints a decision trace for human reading.
func WriteTraceText(w io.Writer, events []TraceEvent) error { return obs.WriteTraceText(w, events) }

// TraceAssignments replays a decision trace into the clone→site
// assignment it recorded.
func TraceAssignments(events []TraceEvent) map[PlaceKey]int { return obs.TraceAssignments(events) }

// StartDebug starts an HTTP server on addr exposing net/http/pprof
// under /debug/pprof/ and expvar under /debug/vars, returning the bound
// address (useful with ":0") and a stop function that drains the
// server, so a long-running command can take the diagnostics listener
// down on SIGTERM.
func StartDebug(addr string) (string, func(context.Context) error, error) {
	return obs.StartDebug(addr)
}

// PublishExpvar exposes a Metrics recorder's live snapshot as the named
// expvar, visible at /debug/vars on the StartDebug server.
func PublishExpvar(name string, m *Metrics) { obs.PublishExpvar(name, m) }
