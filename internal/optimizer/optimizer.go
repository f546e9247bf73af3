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
// This package implements that bound-pruned integrated search. A
// candidate pool is enumerated per query — every distinct bushy plan
// when the join count is small enough (ExhaustiveJoins), a shape-cycled
// random sample above it — and each candidate is priced with the
// OPTBOUND lower bound of internal/opt, which needs no placement loop.
// Candidates are then scheduled in ascending-bound order against a
// running incumbent; a candidate whose bound already meets the
// incumbent's *scheduled* response cannot win and is pruned without
// ever entering TreeSchedule. The pruned search provably returns the
// same winner, with a byte-identical schedule, as scheduling every
// candidate (the identity tests pin this): OPTBOUND never exceeds the
// TreeSchedule response, and ties resolve by the exact lexicographic
// (response, candidate index) key, so a pruned candidate can never have
// beaten the incumbent that pruned it.
//
// The search reuses the machinery built for exactly this workload: one
// costmodel.Cache prices every structurally repeated operator spec once
// across all candidates (bounds and schedules share the memo), and the
// surviving candidates are scheduled in fixed-size speculative chunks
// on the caller's goroutine — chunk membership depends only on bounds
// and the incumbent, so the pruned/scheduled counts and the winner are
// a pure function of the inputs.
package optimizer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

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
	// ErrEnumerate reports a failure building the candidate pool — the
	// relation set broke the enumerator's validation (a relation count
	// beyond the materializing or streaming ceiling, a nil relation, a
	// non-positive cardinality) or the shape sampler rejected it. The
	// underlying query-layer error is wrapped and inspectable via
	// errors.Is/As.
	ErrEnumerate = errors.New("optimizer: candidate enumeration failed")
)

// defaultExhaustiveJoins is the systematic-enumeration threshold when
// Search.ExhaustiveJoins is zero: 3 joins = 4 relations = 120 distinct
// bushy plans, small enough to bound and prune in bulk.
const defaultExhaustiveJoins = 3

// speculativeChunk is how many unpruned candidates are scheduled
// together between pruning decisions. It is a fixed constant, so which
// candidates get fully scheduled (and therefore the pruned/scheduled
// counts) is fixed by the bounds alone. The first chunk is always the
// two-phase strawman alone, seeding the incumbent before any
// speculation.
const speculativeChunk = 8

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
	// ExhaustiveJoins is the largest join count for which the candidate
	// pool is the full systematic enumeration of distinct bushy plans
	// instead of a Candidates-sized sample. Zero means the default of 3
	// (120 plans); negative disables systematic enumeration entirely.
	// Values of 9 and above are rejected outright (the streaming
	// enumerator tops out at 10 relations); values of 7 and 8 are only
	// reachable by the streaming search — the materializing pool returns
	// ErrEnumerate past query.MaxEnumerateRelations. The pool size is
	// super-exponential (4 joins → 1680, 5 → 30240 plans), so even
	// streamed systematic search past 5 joins is a deliberate choice.
	ExhaustiveJoins int
	// NoPrune disables bound pruning: every candidate is fully
	// scheduled. The winner is identical either way (pinned by tests);
	// the flag exists for the integration-cost ablation and as the
	// oracle the identity tests compare against.
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
	// Streaming switches BestCtx to the streaming bound-interleaved
	// search: candidates are enumerated through query.EnumerateBushyFunc
	// with per-subtree OPTBOUND pruning inside the subset DP (systematic
	// pools), ordered best-first through a bounded frontier, and
	// scheduled serially against an incumbent that updates after every
	// schedule. The winner and its schedule bytes are identical to the
	// pool-then-prune search (the identity corpus pins this); only the
	// amount of work — TreeSchedule invocations, peak candidate
	// residency — changes. NoPrune is ignored when Streaming is set: the
	// unpruned pool search is the oracle the streaming search is
	// verified against.
	Streaming bool
	// Warm, when non-nil, is consulted before each surviving candidate
	// is scheduled; returning a schedule counts the candidate as a warm
	// hit instead of a TreeSchedule invocation. The hook must implement
	// an exactness contract: a returned schedule must be byte-identical
	// to what TreeSchedule would produce for that task tree under this
	// search's parameters (the serve layer satisfies it by keying its
	// schedule cache on TreeScheduler.Fingerprint). Only the streaming
	// search consults Warm; the pool path stays the PR 8 oracle.
	Warm func(*plan.TaskTree) (*sched.Schedule, bool)
	// Rec, when non-nil, receives the search counters
	// (optimizer.candidates, optimizer.pruned, optimizer.scheduled,
	// optimizer.searches). It is never attached to the per-candidate
	// schedulers — candidates would repeat each other's (phase, op,
	// clone) trace keys — and never influences the search.
	Rec obs.Recorder
}

// Validate reports the first nonsensical configuration field.
func (s Search) Validate() error {
	if err := s.Model.Params.Validate(); err != nil {
		return err
	}
	if s.P <= 0 {
		return fmt.Errorf("optimizer: non-positive site count %d", s.P)
	}
	if s.F < 0 {
		return fmt.Errorf("optimizer: negative granularity parameter %g", s.F)
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

func (s Search) exhaustiveJoins() int {
	if s.ExhaustiveJoins == 0 {
		return defaultExhaustiveJoins
	}
	return s.ExhaustiveJoins
}

func (s Search) shapes() []query.Shape {
	if len(s.Shapes) > 0 {
		return s.Shapes
	}
	return []query.Shape{query.RandomBushy, query.LeftDeep, query.RightDeep, query.Balanced}
}

// Candidate is one enumerated candidate plan: its cheap lower bound,
// and — when the candidate survived pruning — its full schedule.
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
	// Schedule is the full TreeSchedule result; nil when Pruned.
	Schedule *sched.Schedule
	// Pruned marks candidates discarded by the bound without scheduling.
	Pruned bool

	// tree is Plan expanded, set once the candidate has been bounded.
	tree *plan.TaskTree
}

// TaskTree returns the task tree the candidate's bound and schedule
// were computed from; nil for a candidate that was never priced. The
// tree is shared and must be treated as read-only.
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

// Result of a search: the winner plus the retained candidates in
// enumeration order (Candidates[0] is the "two-phase" strawman: the
// first plan enumerated, always fully priced), and the pruning ledger.
//
// Pool searches retain every candidate, pruned ones included, and
// Pruned + Scheduled == len(Candidates). Streaming systematic searches
// never materialize the pool: Candidates holds only the candidates that
// were actually priced (scheduled or warm-served), still in enumeration
// order, and Pruned counts everything else out of Enumerated — whether
// it was discarded at arrival by its own bound or never even built
// because a shared subtree was discarded first (SubtreePruned tallies
// the subtree discards). In every mode
// Pruned + Scheduled + WarmHits == Enumerated.
type Result struct {
	Best       Candidate
	Candidates []Candidate
	// Systematic reports whether the pool was the full bushy
	// enumeration rather than a random sample.
	Systematic bool
	// Streaming reports whether the streaming bound-interleaved search
	// produced this result.
	Streaming bool
	// Pruned counts candidates discarded by a bound without being
	// scheduled; Scheduled counts full TreeSchedule invocations.
	Pruned, Scheduled int
	// Enumerated is the total size of the candidate space the search
	// covered: len(Candidates) for pool searches, the full T(n) count
	// for streaming systematic searches (int64: T(10) ≈ 1.76e10).
	Enumerated int64
	// SubtreePruned counts proper subtrees the streaming subset DP
	// discarded against the incumbent (not candidates — one discarded
	// subtree removes many candidates, all accounted in Pruned).
	SubtreePruned int64
	// WarmHits counts candidates served by the Warm hook instead of
	// TreeSchedule.
	WarmHits int
	// PeakResident is the largest number of unscheduled candidate plans
	// the search held at once: the pool size for pool searches, the
	// bounded frontier high-water mark for streaming systematic ones.
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

// BestCtx is Best with a cancellation context: the search checks ctx at
// every chunk boundary and threads it into each candidate's
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
	if s.Streaming {
		return s.bestStreaming(ctx, r, rels)
	}

	cands, systematic, err := s.enumerate(r, rels)
	if err != nil {
		return nil, err
	}
	cache := s.Cache
	if cache == nil {
		cache = costmodel.NewCache(s.Model)
	}

	if err := s.boundCandidates(cache, cands); err != nil {
		return nil, err
	}

	// Schedule in ascending-bound order against the incumbent. The
	// two-phase strawman (candidate 0) goes first and alone: it is the
	// ablation's baseline, it can never be pruned (no incumbent exists
	// yet), and flushing before any speculation gives every later
	// candidate a real incumbent to be pruned against.
	order := make([]int, 0, len(cands))
	for i := 1; i < len(cands); i++ {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := cands[order[a]], cands[order[b]]
		if ca.Bound != cb.Bound {
			return ca.Bound < cb.Bound
		}
		return ca.Index < cb.Index
	})

	inc := -1 // incumbent candidate index; -1 = none yet
	// prunable reports whether the candidate at index i cannot beat the
	// incumbent under the exact lexicographic (response, index) key:
	// its response is at least its bound, so a strictly larger bound —
	// or an equal bound at a larger index — loses every tie-break.
	prunable := func(i int) bool {
		if s.NoPrune || inc < 0 {
			return false
		}
		incResp := cands[inc].Schedule.Response
		return cands[i].Bound > incResp || (cands[i].Bound == incResp && i > inc)
	}
	ts := sched.TreeScheduler{
		Model: s.Model, Overlap: s.Overlap, P: s.P, F: s.F,
		MaxDegree: s.MaxDegree, Cache: cache,
	}
	scheduled := 0
	flush := func(chunk []int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, i := range chunk {
			sc, err := ts.ScheduleCtx(ctx, cands[i].tree)
			if err != nil {
				return err
			}
			cands[i].Schedule = sc
			scheduled++
			if inc < 0 {
				inc = i
				continue
			}
			resp, incResp := cands[i].Schedule.Response, cands[inc].Schedule.Response
			if resp < incResp || (resp == incResp && i < inc) {
				inc = i
			}
		}
		return nil
	}

	if err := flush([]int{0}); err != nil {
		return nil, err
	}
	chunk := make([]int, 0, speculativeChunk)
	for _, i := range order {
		if prunable(i) {
			cands[i].Pruned = true
			continue
		}
		chunk = append(chunk, i)
		if len(chunk) == speculativeChunk {
			if err := flush(chunk); err != nil {
				return nil, err
			}
			chunk = chunk[:0]
		}
	}
	if len(chunk) > 0 {
		if err := flush(chunk); err != nil {
			return nil, err
		}
	}

	out := &Result{
		Best:         cands[inc],
		Candidates:   cands,
		Systematic:   systematic,
		Pruned:       len(cands) - scheduled,
		Scheduled:    scheduled,
		Enumerated:   int64(len(cands)),
		PeakResident: len(cands),
	}
	s.record(out)
	return out, nil
}

// record emits the search counters for one completed result.
func (s Search) record(out *Result) {
	if s.Rec == nil {
		return
	}
	s.Rec.Count("optimizer.searches", 1)
	s.Rec.Count("optimizer.candidates", out.Enumerated)
	s.Rec.Count("optimizer.pruned", int64(out.Pruned))
	s.Rec.Count("optimizer.scheduled", int64(out.Scheduled))
	if out.Streaming {
		s.Rec.Count("optimizer.warm_hits", int64(out.WarmHits))
		s.Rec.Count("optimizer.subtree_pruned", out.SubtreePruned)
	}
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

// enumerate builds the candidate pool: the full systematic bushy
// enumeration at or below the ExhaustiveJoins threshold, a
// shape-cycled random sample above it. Plan generation consumes r
// serially in candidate order, so a seeded search enumerates the same
// pool regardless of pruning mode.
func (s Search) enumerate(r *rand.Rand, rels []*query.Relation) ([]Candidate, bool, error) {
	joins := len(rels) - 1
	if max := s.exhaustiveJoins(); joins <= max && max > 0 {
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
