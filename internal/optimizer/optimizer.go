// Package optimizer closes the loop the paper's introduction opens:
// parallelization is "usually the result of an earlier phase of
// conventional centralized query optimization", i.e. two-phase
// optimization, where the plan is fixed before the scheduler sees it.
// The follow-up work (Garofalakis & Ioannidis, "Multi-Resource Parallel
// Query Scheduling and Optimization") argues the best plan is the one
// with the best *scheduled* response time — and that integrating the
// scheduler into the optimizer is affordable only if most candidates
// are discarded by a cheap lower bound before the full scheduler runs.
//
// This package implements that bound-pruned integrated search. The
// candidates of a query are every distinct bushy plan when the join
// count is small enough (ExhaustiveJoins), streamed out of a subset DP
// that discards whole subtrees by their bound, and a shape-cycled random
// sample above it. Each candidate is priced in two stages, neither of
// which runs the placement loop: the OPTBOUND lower bound of
// internal/opt, which bounds any schedule of the plan, and then, for a
// survivor, sched.TreeScheduler.PhaseBound, the sum of the per-phase
// lower bounds of the very schedule TreeSchedule would build. Survivors
// are scheduled best-first, one at a time, against an incumbent that
// updates after every schedule; a candidate whose bound already meets
// the incumbent's *scheduled* response cannot win and never enters
// TreeSchedule. The search provably returns the same winner, with a
// byte-identical schedule, as scheduling every candidate (the identity
// tests pin this against the NoPrune oracle): neither bound exceeds the
// TreeSchedule response, ties resolve by the exact lexicographic
// (response, candidate index) key, and the phase bound prunes only when
// it strictly exceeds the incumbent, so a pruned candidate can never
// have beaten the incumbent that pruned it.
//
// One costmodel.Cache prices every structurally repeated operator spec
// once across all candidates (bounds and schedules share the memo), and
// the whole search runs on the caller's goroutine, so the
// pruned/scheduled counts and the winner are a pure function of the
// inputs.
package optimizer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/opt"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

// Typed search errors, for errors.Is dispatch.
var (
	// ErrNilRand reports a Best call with a nil random source. The
	// sampling path draws plans from it; the requirement is uniform so a
	// caller cannot work by accident below the enumeration threshold and
	// fail above it.
	ErrNilRand = errors.New("optimizer: nil random source")
	// ErrTooFewRelations reports a Best call with fewer than two
	// relations: with no join to order there is nothing to search.
	ErrTooFewRelations = errors.New("optimizer: fewer than 2 relations")
	// ErrEnumerate reports a failure building the candidates — the
	// relation set broke the enumerator's validation (a relation count
	// beyond the streaming ceiling, or the NoPrune oracle's materializing
	// one, a nil relation, a non-positive cardinality) or the shape
	// sampler rejected it. The underlying query-layer error is wrapped
	// and inspectable via errors.Is/As.
	ErrEnumerate = errors.New("optimizer: candidate enumeration failed")
)

// defaultExhaustiveJoins is the systematic-enumeration threshold when
// Search.ExhaustiveJoins is zero: 3 joins = 4 relations = 120 distinct
// bushy plans, small enough to bound and prune in bulk.
const defaultExhaustiveJoins = 3

// Search configures a bound-pruned, scheduler-integrated plan search.
type Search struct {
	Model   costmodel.Model
	Overlap resource.Overlap
	// P is the number of system sites.
	P int
	// F is the coarse-granularity parameter.
	F float64
	// Candidates is the number of random plans sampled (K) when the
	// query is above the enumeration threshold. Defaults to 8 when zero.
	Candidates int
	// Shapes restricts the sampled plan shapes; nil means all four.
	Shapes []query.Shape
	// ExhaustiveJoins is the largest join count for which the candidates
	// are the full systematic enumeration of distinct bushy plans instead
	// of a Candidates-sized sample. Zero means the default of 3 (120
	// plans); negative disables systematic enumeration entirely. Values
	// of 10 and above are rejected outright: the streaming enumerator
	// tops out at 10 relations, so systematic search reaches 9 joins.
	// The candidate count is super-exponential (4 joins → 1680, 5 →
	// 30240 plans), so systematic search past 5 joins is a deliberate
	// choice.
	ExhaustiveJoins int
	// NoPrune runs the exhaustive oracle instead of the search: every
	// candidate is enumerated into memory, bounded and fully scheduled in
	// index order, and Warm is never consulted. The winner is identical
	// either way (pinned by tests). Its systematic enumeration stops at
	// query.MaxEnumerateRelations and returns ErrEnumerate past it.
	//
	// Deprecated: the exhaustive oracle; kept outside _test.go only
	// because the frozen bench/workloads.go calls it (ROADMAP 1a).
	NoPrune bool
	// MaxDegree, when positive, caps every floating operator's degree of
	// partitioned parallelism, exactly as TreeScheduler.MaxDegree. The
	// bound stays valid under a cap — capping can only shrink the degree
	// range T^par is minimized over — so pruning remains exact.
	MaxDegree int
	// Cache, when non-nil, memoizes the cost model's derivations across
	// every candidate's bound and schedule; it must wrap Model. Nil
	// means a private cache per Best call — candidates of one query
	// still share it, but nothing carries across calls.
	Cache *costmodel.Cache
	// Streaming has no effect: Best always runs the streaming
	// bound-interleaved search.
	//
	// Deprecated: ignored; every search streams. Kept only because the
	// frozen bench/ assigns it (ROADMAP 1a).
	Streaming bool
	// Warm, when non-nil, is consulted before each surviving candidate
	// is scheduled; returning a schedule counts the candidate as a warm
	// hit instead of a TreeSchedule invocation. The hook must implement
	// an exactness contract: a returned schedule must be byte-identical
	// to what TreeSchedule would produce for that task tree under this
	// search's parameters (the serve layer satisfies it by keying its
	// schedule cache on TreeScheduler.Fingerprint).
	Warm func(*plan.TaskTree) (*sched.Schedule, bool)
	// Rec, when non-nil, receives the search counters
	// (optimizer.searches, optimizer.candidates, optimizer.pruned,
	// optimizer.phase_pruned, optimizer.scheduled, optimizer.warm_hits,
	// optimizer.subtree_pruned).
	// It is never attached to the per-candidate schedulers — candidates
	// would repeat each other's (phase, op, clone) trace keys — and never
	// influences the search.
	Rec obs.Recorder
}

// Validate reports the first nonsensical configuration field.
func (s Search) Validate() error {
	if err := s.Model.Params.Validate(); err != nil {
		return err
	}
	if err := s.Overlap.Validate(); err != nil {
		return err
	}
	if s.P <= 0 {
		return fmt.Errorf("optimizer: non-positive site count %d", s.P)
	}
	if !(s.F >= 0) || math.IsInf(s.F, 1) {
		return fmt.Errorf("optimizer: granularity parameter f = %g, want finite and non-negative", s.F)
	}
	if s.Candidates < 0 {
		return fmt.Errorf("optimizer: negative candidate count %d", s.Candidates)
	}
	if s.MaxDegree < 0 {
		return fmt.Errorf("optimizer: negative parallelism cap MaxDegree = %d", s.MaxDegree)
	}
	if s.ExhaustiveJoins >= query.MaxStreamRelations {
		return fmt.Errorf("optimizer: ExhaustiveJoins = %d exceeds the enumerable range (max %d)",
			s.ExhaustiveJoins, query.MaxStreamRelations-1)
	}
	if s.Cache != nil && s.Cache.Model() != s.Model {
		return errors.New("optimizer: Cache wraps a different cost model than Search.Model")
	}
	return nil
}

func (s Search) candidates() int {
	if s.Candidates == 0 {
		return 8
	}
	return s.Candidates
}

// systematic reports whether a query over n relations is searched over
// the full bushy enumeration rather than a sample.
func (s Search) systematic(n int) bool {
	max := s.ExhaustiveJoins
	if max == 0 {
		max = defaultExhaustiveJoins
	}
	return max > 0 && n-1 <= max
}

func (s Search) shapes() []query.Shape {
	if len(s.Shapes) > 0 {
		return s.Shapes
	}
	return []query.Shape{query.RandomBushy, query.LeftDeep, query.RightDeep, query.Balanced}
}

// Candidate is one priced candidate plan: its cheap lower bound and its
// full schedule.
type Candidate struct {
	// Index is the candidate's position in enumeration order; it is the
	// tie-break key that makes the winner deterministic.
	Index int
	Plan  *query.PlanNode
	// Shape is the generator that produced a sampled candidate;
	// systematically enumerated candidates report RandomBushy (they are
	// bushy by construction, not drawn from a shape generator).
	Shape query.Shape
	// Bound is the OPTBOUND lower bound on any CG_f execution of the
	// plan: Schedule.Response can never be below it.
	Bound float64
	// Schedule is the full TreeSchedule result, or the Warm hook's.
	Schedule *sched.Schedule

	// tree is Plan expanded, set once the candidate has been bounded.
	tree *plan.TaskTree
}

// TaskTree returns the task tree the candidate's bound and schedule
// were computed from. The tree is shared and must be treated as
// read-only.
func (c Candidate) TaskTree() *plan.TaskTree { return c.tree }

// taskTree expands a candidate plan into the task tree that OPTBOUND
// and TreeSchedule price.
func taskTree(p *query.PlanNode) (*plan.TaskTree, error) {
	ot, err := plan.Expand(p)
	if err != nil {
		return nil, err
	}
	return plan.NewTaskTree(ot)
}

// Result of a search: the winner, the pruning ledger, and in Candidates
// the priced candidates — scheduled or warm-served — in index order.
// Candidates[0] is the "two-phase" strawman: the first plan enumerated,
// always priced. Pruned counts every other candidate out of Enumerated,
// whether it was discarded by its own bound or never even built because
// a shared subtree was discarded first (SubtreePruned tallies the
// subtree discards), so Pruned + Scheduled + WarmHits == Enumerated.
type Result struct {
	Best       Candidate
	Candidates []Candidate
	// Systematic reports whether the candidates were the full bushy
	// enumeration rather than a random sample.
	Systematic bool
	// Pruned counts candidates discarded by a bound without being
	// scheduled; Scheduled counts full TreeSchedule invocations.
	Pruned, Scheduled int
	// PhasePruned is the part of Pruned the second stage discarded:
	// candidates that survived OPTBOUND but whose phase bound
	// (sched.TreeScheduler.PhaseBound) exceeded the incumbent response.
	PhasePruned int
	// Enumerated is the total size of the candidate space the search
	// covered: the sample size, or the full T(n) count for systematic
	// searches (int64: T(10) ≈ 1.76e10).
	Enumerated int64
	// SubtreePruned counts proper subtrees the streaming subset DP
	// discarded against the incumbent (not candidates — one discarded
	// subtree removes many candidates, all accounted in Pruned).
	SubtreePruned int64
	// WarmHits counts candidates served by the Warm hook instead of
	// TreeSchedule.
	WarmHits int
	// PeakResident is the largest number of unscheduled candidate plans
	// the search held at once: the sample size for sampled searches, the
	// bounded frontier high-water mark for systematic ones.
	PeakResident int
}

// Improvement returns first-candidate response / best response: how
// much the scheduler-in-the-loop search won over scheduling the first
// plan. Zero responses are defined explicitly rather than collapsed:
// 0/0 (both plans free) is 1, a positive first response over a
// zero-response winner is +Inf — an infinite improvement, previously
// misreported as "none". A result with no candidates, or whose first
// candidate was never scheduled, reports 1.
func (r *Result) Improvement() float64 {
	if len(r.Candidates) == 0 || r.Candidates[0].Schedule == nil || r.Best.Schedule == nil {
		return 1
	}
	first := r.Candidates[0].Schedule.Response
	best := r.Best.Schedule.Response
	if best == 0 {
		if first == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return first / best
}

// Best runs the bound-pruned search over the given relations and
// returns the plan whose TreeSchedule response is smallest.
func (s Search) Best(r *rand.Rand, rels []*query.Relation) (*Result, error) {
	return s.BestCtx(context.Background(), r, rels)
}

// BestCtx is Best with a cancellation context: the search checks ctx
// before every candidate it prices and threads it into each
// TreeSchedule, so a cancelled search returns ctx.Err() promptly. The
// context never influences a search decision — a run that completes is
// bit-identical to Best.
func (s Search) BestCtx(ctx context.Context, r *rand.Rand, rels []*query.Relation) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, ErrNilRand
	}
	if len(rels) < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrTooFewRelations, len(rels))
	}
	cache := s.Cache
	if cache == nil {
		cache = costmodel.NewCache(s.Model)
	}
	search := s.stream
	if s.NoPrune {
		search = s.unpruned
	}
	out, err := search(ctx, cache, r, rels)
	if err != nil {
		return nil, err
	}
	s.record(out)
	return out, nil
}

// unpruned is the NoPrune oracle: every candidate is enumerated,
// bounded and scheduled in index order, and the winner is the argmin of
// the exact (response, index) key.
func (s Search) unpruned(ctx context.Context, cache *costmodel.Cache, r *rand.Rand, rels []*query.Relation) (*Result, error) {
	cands, systematic, err := s.enumerate(r, rels)
	if err != nil {
		return nil, err
	}
	if err := s.boundCandidates(cache, cands); err != nil {
		return nil, err
	}
	ts := s.scheduler(cache)
	best := 0
	for i := range cands {
		if cands[i].Schedule, err = ts.ScheduleCtx(ctx, cands[i].tree); err != nil {
			return nil, err
		}
		if cands[i].Schedule.Response < cands[best].Schedule.Response {
			best = i
		}
	}
	return &Result{
		Best:         cands[best],
		Candidates:   cands,
		Systematic:   systematic,
		Scheduled:    len(cands),
		Enumerated:   int64(len(cands)),
		PeakResident: len(cands),
	}, nil
}

// scheduler is the TreeScheduler that prices every candidate of a
// search over the given memo.
func (s Search) scheduler(cache *costmodel.Cache) sched.TreeScheduler {
	return sched.TreeScheduler{
		Model: s.Model, Overlap: s.Overlap, P: s.P, F: s.F,
		MaxDegree: s.MaxDegree, Cache: cache,
	}
}

// record emits the search counters for one completed result.
func (s Search) record(out *Result) {
	if s.Rec == nil {
		return
	}
	s.Rec.Count("optimizer.searches", 1)
	s.Rec.Count("optimizer.candidates", out.Enumerated)
	s.Rec.Count("optimizer.pruned", int64(out.Pruned))
	s.Rec.Count("optimizer.phase_pruned", int64(out.PhasePruned))
	s.Rec.Count("optimizer.scheduled", int64(out.Scheduled))
	s.Rec.Count("optimizer.warm_hits", int64(out.WarmHits))
	s.Rec.Count("optimizer.subtree_pruned", out.SubtreePruned)
}

// boundCandidates prices every candidate with the cheap OPTBOUND: no
// placement loop runs here, only per-operator cost derivations, all
// landing in the shared memo. It fills each candidate's Bound and
// expanded task tree and stops at the first error.
func (s Search) boundCandidates(cache *costmodel.Cache, cands []Candidate) error {
	for i := range cands {
		tt, err := taskTree(cands[i].Plan)
		if err != nil {
			return err
		}
		b, err := opt.BoundCached(tt, cache, s.Overlap, s.P, s.F)
		if err != nil {
			return err
		}
		cands[i].tree, cands[i].Bound = tt, b
	}
	return nil
}

// enumerate builds the candidate pool in memory: the full systematic
// bushy enumeration at or below the ExhaustiveJoins threshold, a
// shape-cycled random sample above it. Plan generation consumes r
// serially in candidate order, so a seeded search and its NoPrune
// oracle draw the same sample.
func (s Search) enumerate(r *rand.Rand, rels []*query.Relation) ([]Candidate, bool, error) {
	if s.systematic(len(rels)) {
		plans, err := query.EnumerateBushy(rels)
		if err != nil {
			return nil, false, fmt.Errorf("%w: %w", ErrEnumerate, err)
		}
		cands := make([]Candidate, len(plans))
		for i, p := range plans {
			cands[i] = Candidate{Index: i, Plan: p, Shape: query.RandomBushy}
		}
		return cands, true, nil
	}
	shapes := s.shapes()
	cands := make([]Candidate, s.candidates())
	for k := range cands {
		shape := shapes[k%len(shapes)]
		p, err := query.PlanOver(r, rels, shape)
		if err != nil {
			return nil, false, fmt.Errorf("%w: %w", ErrEnumerate, err)
		}
		cands[k] = Candidate{Index: k, Plan: p, Shape: shape}
	}
	return cands, false, nil
}

// RandomRelations draws a relation set in the paper's cardinality range.
func RandomRelations(r *rand.Rand, count, minTuples, maxTuples int) ([]*query.Relation, error) {
	if count <= 0 {
		return nil, fmt.Errorf("optimizer: non-positive relation count %d", count)
	}
	if minTuples <= 0 || maxTuples < minTuples {
		return nil, fmt.Errorf("optimizer: bad cardinality range [%d, %d]", minTuples, maxTuples)
	}
	rels := make([]*query.Relation, count)
	for i := range rels {
		rels[i] = &query.Relation{
			Name:   fmt.Sprintf("R%d", i),
			Tuples: minTuples + r.Intn(maxTuples-minTuples+1),
		}
	}
	return rels, nil
}
