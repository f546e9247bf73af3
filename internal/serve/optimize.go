// Service.Optimize: the serve layer's entry into the streaming
// bound-interleaved plan search, closing the loop ROADMAP item 1 names
// — the schedule cache's per-fingerprint completed responses feed back
// into the optimizer as exact warm-start priors.
//
// The exactness chain: the cache only stores schedules computed (or
// replayable) as singleton TreeSchedules for a fingerprint, and equal
// fingerprints imply byte-identical schedules. The optimizer's Warm
// hook therefore hands the search an *achieved* response for any
// candidate whose fingerprint is cached — not an estimate — so seeding
// the incumbent from it preserves the search's identical-winner
// guarantee while letting warm searches prune from candidate 0.
package serve

import (
	"context"
	"errors"
	"math/rand"

	"mdrs/internal/obs"
	"mdrs/internal/optimizer"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

// ErrNoOptimizer is returned by Optimize on a service configured
// without Config.Optimizer.
var ErrNoOptimizer = errors.New("serve: optimizer not configured")

// OptimizerConfig enables and tunes Service.Optimize. The search's
// system parameters (cost model, overlap, P, F, MaxDegree) are
// never set here: they follow the service's scheduler — including live
// controller retunes — so an optimized plan's winning schedule is
// exactly what Schedule would have produced for that plan at that
// moment.
type OptimizerConfig struct {
	// Candidates is the sample size K for join counts above the
	// enumeration threshold. Zero means the optimizer default (8).
	Candidates int
	// ExhaustiveJoins is the systematic-enumeration threshold, as in
	// optimizer.Search. Zero means the default (3).
	ExhaustiveJoins int
	// Shapes restricts the sampled plan shapes; nil means all four.
	Shapes []query.Shape
}

// Optimize runs the streaming bound-interleaved plan search over a
// relation catalog under the service's admission control: the call
// holds one in-flight slot for its whole duration, exactly like a
// scheduling request (a search is many TreeSchedules, so it is "at
// least" one request's load). The schedule cache, when enabled, serves
// two roles: completed per-fingerprint schedules warm-start the search,
// and the winner's schedule is written back so a subsequent Schedule of
// the winning plan — or a later Optimize over the same catalog — is a
// hit.
//
// r seeds candidate sampling above the enumeration threshold; it is
// consumed serially, so equal seeds give identical searches. The
// returned result is the optimizer's, unmodified.
func (s *Service) Optimize(ctx context.Context, r *rand.Rand, rels []*query.Relation) (*optimizer.Result, error) {
	rec := s.cfg.Rec
	if s.cfg.Optimizer == nil {
		return nil, ErrNoOptimizer
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.admit(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			obs.Count(rec, "serve.optimize_rejected", 1)
		}
		return nil, err
	}
	defer s.release()

	// One scheduler snapshot for the whole search: the fingerprints the
	// warm hook computes and the schedules the search produces see the
	// same knob values even if the controller retunes mid-search.
	ts := s.scheduler()
	search := s.search(ts)
	if s.cache != nil {
		search.Warm = func(tt *plan.TaskTree) (*sched.Schedule, bool) {
			e := s.cache.get(ts.Fingerprint(tt))
			if e == nil {
				return nil, false
			}
			obs.Count(rec, "serve.optimize_warm_hits", 1)
			return e.s, true
		}
	}

	obs.Count(rec, "serve.optimize_searches", 1)
	res, err := search.BestCtx(ctx, r, rels)
	if err != nil {
		obs.Count(rec, "serve.optimize_failed", 1)
		return nil, err
	}
	obs.Count(rec, "serve.optimize_scheduled", int64(res.Scheduled))
	obs.Count(rec, "serve.optimize_pruned", int64(res.Pruned))

	// Write the winner back: its schedule was computed (or warm-served)
	// under exactly ts from this tree, so it is the fingerprint's
	// canonical schedule.
	if tt := res.Best.TaskTree(); s.cache != nil && res.Best.Schedule != nil && tt != nil {
		if ev := s.cache.put(ts.Fingerprint(tt), res.Best.Schedule, tt); ev > 0 {
			obs.Count(rec, "serve.cache_evictions", int64(ev))
		}
	}
	obs.Count(rec, "serve.optimize_delivered", 1)
	return res, nil
}

// search is the plan search Config.Optimizer implies under scheduler
// ts. New validates it once, so a configuration no search can run is
// refused up front instead of failing every Optimize.
func (s *Service) search(ts sched.TreeScheduler) optimizer.Search {
	oc := s.cfg.Optimizer
	return optimizer.Search{
		Model:           ts.Model,
		Overlap:         ts.Overlap,
		P:               ts.P,
		F:               ts.F,
		Candidates:      oc.Candidates,
		Shapes:          oc.Shapes,
		ExhaustiveJoins: oc.ExhaustiveJoins,
		MaxDegree:       ts.MaxDegree,
		Cache:           s.optCache,
	}
}
