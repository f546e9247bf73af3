package optimizer

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mdrs/internal/costmodel"
	"mdrs/internal/opt"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

// streamFrontierCap bounds how many unscheduled candidates the
// streaming systematic search holds at once. When the frontier is full,
// the candidate with the smallest (bound, index) key is flushed —
// scheduled or re-pruned against the by-then-better incumbent — so peak
// residency is O(frontier), never O(T(n)).
const streamFrontierCap = 64

// streamItem is one frontier entry: a surviving full plan waiting to be
// scheduled, keyed best-first by (bound, original enumeration index).
type streamItem struct {
	plan  *query.PlanNode
	index int64
	bound float64
}

// streamFrontier is a min-heap over (bound, index).
type streamFrontier []streamItem

func (h streamFrontier) Len() int { return len(h) }
func (h streamFrontier) Less(a, b int) bool {
	if h[a].bound != h[b].bound {
		return h[a].bound < h[b].bound
	}
	return h[a].index < h[b].index
}
func (h streamFrontier) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *streamFrontier) Push(x interface{}) { *h = append(*h, x.(streamItem)) }
func (h *streamFrontier) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// streamState carries the incumbent and ledgers shared by the two
// search modes. Everything is single-goroutine: candidates are
// scheduled one at a time.
type streamState struct {
	s   Search
	ctx context.Context
	// ts prices every candidate into rec, whose phase bound prunes it and
	// from which it is placed. ts's Cache is the search's memo, which the
	// bounds share.
	ts  sched.TreeScheduler
	rec sched.Priced

	// Incumbent under the exact lexicographic (response, index) key.
	// incIdx is the candidate's original enumeration index; -1 = none.
	incResp float64
	incIdx  int64
	best    Candidate

	// priced collects every candidate that was actually priced
	// (scheduled or warm-served), in processing order.
	priced      []Candidate
	scheduled   int
	warmHits    int
	phasePruned int
}

// phaseBoundSlack deflates the phase bound before the second-stage prune
// compares it with the incumbent. PhaseBound sums an operator's work in
// another float order than placement does, so it may exceed the
// response it bounds in the last ulps: the deflated bound is a strict
// prune reference only, never a tie-break (DESIGN §14).
const phaseBoundSlack = 1e-9

// prunable is the exact pruning rule: a candidate whose bound strictly
// exceeds the incumbent response — or ties it at a larger index —
// cannot win the lexicographic (response, index) key, because its
// response is at least its bound.
func (st *streamState) prunable(bound float64, idx int64) bool {
	return st.incIdx >= 0 && (bound > st.incResp || (bound == st.incResp && idx > st.incIdx))
}

// process expands one surviving plan of the systematic stream and
// prices it under its bound and original enumeration index.
func (st *streamState) process(p *query.PlanNode, idx int64, bound float64) error {
	tt, err := taskTree(p)
	if err != nil {
		return err
	}
	return st.price(Candidate{Index: int(idx), Plan: p, Shape: query.RandomBushy, Bound: bound, tree: tt})
}

// price fully prices one bounded candidate that survived OPTBOUND: once
// an incumbent exists, the tree is priced and pruned on its phase bound
// first, then the warm hook is consulted, then TreeSchedule places the
// tree from the same record, then the incumbent is updated. A candidate
// whose deflated phase bound exceeds the incumbent's response has a
// response above it too, so it can neither win nor tie and is dropped
// unscheduled. Without an incumbent nothing is pruned, and a tree the
// warm hook serves is not priced at all.
func (st *streamState) price(c Candidate) error {
	if err := st.ctx.Err(); err != nil {
		return err
	}
	priced := st.incIdx >= 0
	if priced {
		pb, err := st.ts.Price(&st.rec, c.tree)
		if err != nil {
			return err
		}
		if pb*(1-phaseBoundSlack) > st.incResp {
			st.phasePruned++
			return nil
		}
	}
	if st.s.Warm != nil {
		if warm, ok := st.s.Warm(c.tree); ok && warm != nil {
			c.Schedule = warm
			st.warmHits++
		}
	}
	if c.Schedule == nil {
		if !priced {
			if _, err := st.ts.Price(&st.rec, c.tree); err != nil {
				return err
			}
		}
		sc, err := st.rec.Schedule(st.ctx)
		if err != nil {
			return err
		}
		c.Schedule = sc
		st.scheduled++
	}
	st.priced = append(st.priced, c)
	resp, idx := c.Schedule.Response, int64(c.Index)
	if st.incIdx < 0 || resp < st.incResp || (resp == st.incResp && idx < st.incIdx) {
		st.incResp, st.incIdx, st.best = resp, idx, c
	}
	return nil
}

// stream is the search: systematic candidates stream through the
// bound-pruned subset DP, larger joins keep the sampled pool but walk
// it best-first with an after-every-schedule incumbent.
func (s Search) stream(ctx context.Context, cache *costmodel.Cache, r *rand.Rand, rels []*query.Relation) (*Result, error) {
	st := &streamState{s: s, ctx: ctx, ts: s.scheduler(cache), incIdx: -1, incResp: math.Inf(1)}
	if s.systematic(len(rels)) {
		return s.streamSystematic(st, rels)
	}
	return s.streamSampled(st, r, rels)
}

// streamSampled searches the sampled pool — same RNG consumption, same
// candidates, same BoundCached prices as the NoPrune oracle — serially
// in ascending-bound order, so every schedule immediately sharpens the
// incumbent for the next prune decision.
func (s Search) streamSampled(st *streamState, r *rand.Rand, rels []*query.Relation) (*Result, error) {
	cands, _, err := s.enumerate(r, rels)
	if err != nil {
		return nil, err
	}
	if err := s.boundCandidates(st.ts.Cache, cands); err != nil {
		return nil, err
	}
	// The two-phase strawman seeds the incumbent.
	if err := st.price(cands[0]); err != nil {
		return nil, err
	}
	order := make([]int, 0, len(cands)-1)
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
	pruned := 0
	for _, i := range order {
		if st.prunable(cands[i].Bound, int64(i)) {
			pruned++
			continue
		}
		if err := st.price(cands[i]); err != nil {
			return nil, err
		}
	}
	sort.Slice(st.priced, func(a, b int) bool { return st.priced[a].Index < st.priced[b].Index })
	return &Result{
		Best:         st.best,
		Candidates:   st.priced,
		Pruned:       pruned + st.phasePruned,
		PhasePruned:  st.phasePruned,
		Scheduled:    st.scheduled,
		WarmHits:     st.warmHits,
		Enumerated:   int64(len(cands)),
		PeakResident: len(cands),
	}, nil
}

// streamSystematic is the bound-interleaved systematic search. The
// incumbent is seeded from candidate 0 (built directly via FirstBushy,
// or served by the Warm hook), then the subset DP streams with two
// prune points: proper subtrees are discarded when their composed
// OPTBOUND strictly exceeds the incumbent response (strict — an equal
// bound could still tie into an index win), and surviving full plans
// are dropped at arrival under the exact (response, index) rule. What
// remains flows through a bounded best-first frontier to price, whose
// phase bound is the last prune before TreeSchedule.
//
// Exactness: a subtree's composed bound lower-bounds every containing
// plan's response (opt.SubtreeBounds monotonicity), a plan's phase bound
// lower-bounds its own, and the incumbent only improves, so nothing
// capable of winning is ever discarded — the winner is byte-identical to
// the NoPrune oracle's.
func (s Search) streamSystematic(st *streamState, rels []*query.Relation) (*Result, error) {
	bounder, err := opt.NewSubtreeBounds(st.ts.Cache, s.Overlap, s.P, s.F)
	if err != nil {
		return nil, err
	}
	first, err := query.FirstBushy(rels)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEnumerate, err)
	}
	if err := st.process(first, 0, bounder.Bound(first)); err != nil {
		return nil, err
	}

	var subtreePruned int64
	prune := func(n *query.PlanNode) bool {
		if bounder.Bound(n) > st.incResp {
			subtreePruned++
			return true
		}
		return false
	}

	frontier := &streamFrontier{}
	peak := 1 // candidate 0 was resident before this loop
	flush := func(it streamItem) error {
		// Re-check at pop time: the incumbent may have improved since
		// the item arrived.
		if st.prunable(it.bound, it.index) {
			return nil
		}
		return st.process(it.plan, it.index, it.bound)
	}
	var yields int64
	var yieldErr error
	yield := func(p *query.PlanNode, idx int64) error {
		yields++
		if yields&1023 == 0 {
			if err := st.ctx.Err(); err != nil {
				yieldErr = err
				return err
			}
		}
		if idx == 0 {
			return nil // the strawman: already priced as the seed
		}
		b := bounder.BoundOnce(p)
		if st.prunable(b, idx) {
			return nil
		}
		heap.Push(frontier, streamItem{plan: p, index: idx, bound: b})
		if frontier.Len() > peak {
			peak = frontier.Len()
		}
		if frontier.Len() > streamFrontierCap {
			if err := flush(heap.Pop(frontier).(streamItem)); err != nil {
				yieldErr = err
				return err
			}
		}
		return nil
	}
	if err := query.EnumerateBushyFunc(rels, prune, yield); err != nil {
		if yieldErr != nil {
			return nil, yieldErr // a schedule/ctx error, not an enumeration error
		}
		return nil, fmt.Errorf("%w: %w", ErrEnumerate, err)
	}
	for frontier.Len() > 0 {
		if err := flush(heap.Pop(frontier).(streamItem)); err != nil {
			return nil, err
		}
	}

	sort.Slice(st.priced, func(a, b int) bool { return st.priced[a].Index < st.priced[b].Index })
	total := query.CountBushy(len(rels))
	return &Result{
		Best:          st.best,
		Candidates:    st.priced,
		Systematic:    true,
		Pruned:        int(total) - st.scheduled - st.warmHits,
		PhasePruned:   st.phasePruned,
		Scheduled:     st.scheduled,
		WarmHits:      st.warmHits,
		Enumerated:    total,
		SubtreePruned: subtreePruned,
		PeakResident:  peak,
	}, nil
}
