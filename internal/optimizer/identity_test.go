package optimizer

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mdrs/internal/costmodel"
	"mdrs/internal/opt"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

// corpusCase is one seeded search instance of the identity corpus:
// small join counts exercise the systematic-enumeration path, larger
// ones the shape-cycled sampling path. With queries > 0 the case is a
// sweep of that many instances: query q draws its catalog and then its
// search from one generator seeded seed+q. Zero is a single instance,
// catalog from seed and search from seed+1.
type corpusCase struct {
	joins, p int
	seed     int64
	queries  int
}

func corpus() []corpusCase {
	var cs []corpusCase
	for _, joins := range []int{2, 3, 5, 8} {
		for _, p := range []int{10, 100} {
			cs = append(cs, corpusCase{joins: joins, p: p, seed: int64(1000*joins + p)})
		}
	}
	return cs
}

func (c corpusCase) relations(t *testing.T) []*query.Relation {
	t.Helper()
	rels, err := RandomRelations(rand.New(rand.NewSource(c.seed)), c.joins+1, 1000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return rels
}

// instance returns query q of the case: the generator its search draws
// from and its catalog.
func (c corpusCase) instance(t *testing.T, q int) (*rand.Rand, []*query.Relation) {
	t.Helper()
	if c.queries == 0 {
		return rand.New(rand.NewSource(c.seed + 1)), c.relations(t)
	}
	r := rand.New(rand.NewSource(c.seed + int64(q)))
	rels, err := RandomRelations(r, c.joins+1, 1000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return r, rels
}

// run searches every instance of the case with s, so each arm a test
// runs sees the same catalogs and the same candidate streams.
func (c corpusCase) run(t *testing.T, s Search) []*Result {
	t.Helper()
	out := make([]*Result, max(c.queries, 1))
	for q := range out {
		res, err := s.Best(c.instance(t, q))
		if err != nil {
			t.Fatal(err)
		}
		out[q] = res
	}
	return out
}

func (c corpusCase) search(k int) Search {
	return Search{
		Model:      costmodel.Default(),
		Overlap:    resource.MustOverlap(0.5),
		P:          c.p,
		F:          0.7,
		Candidates: k,
	}
}

func encodeSchedule(t *testing.T, s *sched.Schedule) []byte {
	t.Helper()
	data, err := sched.EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The soundness invariant pruning depends on: OPTBOUND never exceeds
// the TreeSchedule response, for every candidate of every corpus entry
// (including under a MaxDegree cap, which only shrinks the degree range
// T^par is minimized over).
func TestBoundNeverExceedsScheduledResponse(t *testing.T) {
	for _, c := range corpus() {
		for _, maxDegree := range []int{0, 2} {
			rels := c.relations(t)
			s := c.search(8)
			s.NoPrune = true
			s.MaxDegree = maxDegree
			res, err := s.Best(rand.New(rand.NewSource(c.seed+3)), rels)
			if err != nil {
				t.Fatal(err)
			}
			for _, cand := range res.Candidates {
				if cand.Schedule.Response < cand.Bound*(1-1e-9) {
					t.Fatalf("joins=%d P=%d cap=%d candidate %d: response %g below bound %g",
						c.joins, c.p, maxDegree, cand.Index,
						cand.Schedule.Response, cand.Bound)
				}
			}
		}
	}
}

// The per-candidate bound the search stores must be opt.BoundCached
// verbatim (the shared memo in between must not perturb it).
func TestCandidateBoundMatchesOptBound(t *testing.T) {
	c := corpusCase{joins: 5, p: 40, seed: 77}
	rels := c.relations(t)
	s := c.search(6)
	res, err := s.Best(rand.New(rand.NewSource(c.seed)), rels)
	if err != nil {
		t.Fatal(err)
	}
	m := costmodel.Default()
	ov := resource.MustOverlap(0.5)
	for _, cand := range res.Candidates {
		tt, err := plan.NewTaskTree(plan.MustExpand(cand.Plan))
		if err != nil {
			t.Fatal(err)
		}
		want, err := opt.Bound(tt, m, ov, c.p, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if cand.Bound != want {
			t.Fatalf("candidate %d: stored bound %g != opt.Bound %g", cand.Index, cand.Bound, want)
		}
	}
}

// A shared cost cache across searches (the serve-layer usage) must not
// change any result: byte-identical winners with and without it.
func TestSharedCacheIdentity(t *testing.T) {
	cache := costmodel.NewCache(costmodel.Default())
	for _, c := range corpus() {
		rels := c.relations(t)
		plain := c.search(8)
		want, err := plain.Best(rand.New(rand.NewSource(c.seed+4)), rels)
		if err != nil {
			t.Fatal(err)
		}
		shared := c.search(8)
		shared.Cache = cache
		got, err := shared.Best(rand.New(rand.NewSource(c.seed+4)), rels)
		if err != nil {
			t.Fatal(err)
		}
		if got.Best.Index != want.Best.Index ||
			!bytes.Equal(encodeSchedule(t, got.Best.Schedule), encodeSchedule(t, want.Best.Schedule)) {
			t.Fatalf("joins=%d P=%d: shared-cache winner differs", c.joins, c.p)
		}
	}
}

// Concurrent searches over one shared cache, racing a mid-search
// cancellation: every call must return either a valid result or a
// context error, with no data races (make race runs this under
// -race).
func TestConcurrentSearchHammerWithCancellation(t *testing.T) {
	cache := costmodel.NewCache(costmodel.Default())
	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for trial := 0; trial < 6; trial++ {
				seed := int64(100*g + trial)
				r := rand.New(rand.NewSource(seed))
				rels, err := RandomRelations(r, 7+g%4, 1000, 100000)
				if err != nil {
					t.Error(err)
					return
				}
				s := Search{
					Model:      costmodel.Default(),
					Overlap:    resource.MustOverlap(0.5),
					P:          64,
					F:          0.7,
					Candidates: 8,
					Cache:      cache,
				}
				ctx := context.Background()
				cancelled := trial%2 == 1
				if cancelled {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					timer := time.AfterFunc(time.Duration(trial)*200*time.Microsecond, cancel)
					defer timer.Stop()
					defer cancel()
				}
				res, err := s.BestCtx(ctx, r, rels)
				switch {
				case err == nil:
					if res.Best.Schedule == nil {
						t.Error("nil winning schedule on success")
						return
					}
				case errors.Is(err, context.Canceled):
					// Expected outcome of the cancellation race.
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A context cancelled before the search starts must surface promptly as
// ctx.Err without scheduling anything.
func TestBestCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := rand.New(rand.NewSource(5))
	rels, err := RandomRelations(r, 6, 1000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testSearch(16, 4).BestCtx(ctx, r, rels); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
