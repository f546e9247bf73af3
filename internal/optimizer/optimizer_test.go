package optimizer

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

func testSearch(p, k int) Search {
	return Search{
		Model:      costmodel.Default(),
		Overlap:    resource.MustOverlap(0.5),
		P:          p,
		F:          0.7,
		Candidates: k,
	}
}

func TestValidate(t *testing.T) {
	if err := testSearch(8, 4).Validate(); err != nil {
		t.Fatal(err)
	}
	// Systematic search reaches 9 joins, the streaming enumerator's
	// ceiling; MaxStreamRelations joins is rejected below.
	deepest := testSearch(8, 4)
	deepest.ExhaustiveJoins = 9
	if err := deepest.Validate(); err != nil {
		t.Fatalf("ExhaustiveJoins = %d rejected: %v", deepest.ExhaustiveJoins, err)
	}
	bad := []Search{
		{Model: costmodel.Default(), P: 0, F: 0.7},
		{Model: costmodel.Default(), P: 4, F: -1},
		{Model: costmodel.Default(), P: 4, F: 0.7, Candidates: -1},
		{Model: costmodel.Default(), P: 4, F: 0.7, MaxDegree: -1},
		{Model: costmodel.Default(), P: 4, F: 0.7, ExhaustiveJoins: query.MaxStreamRelations},
		{P: 4, F: 0.7},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// A cache wrapping a different model is a configuration error: its
	// memoized answers would disagree with Search.Model's.
	other := costmodel.MustNew(func() costmodel.Params {
		p := costmodel.DefaultParams()
		p.Alpha *= 2
		return p
	}())
	s := testSearch(8, 4)
	s.Cache = costmodel.NewCache(other)
	if err := s.Validate(); err == nil {
		t.Error("mismatched cache model accepted")
	}
	s.Cache = costmodel.NewCache(s.Model)
	if err := s.Validate(); err != nil {
		t.Errorf("matching cache rejected: %v", err)
	}
}

// Best must fail fast, with typed optimizer:-prefixed errors, on a nil
// random source or fewer than two relations — previously both surfaced
// as confusing downstream panics or generation errors.
func TestBestInputValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rels, err := RandomRelations(r, 5, 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testSearch(8, 4).Best(nil, rels); !errors.Is(err, ErrNilRand) {
		t.Fatalf("nil rand: err = %v, want ErrNilRand", err)
	}
	for _, rels := range [][]*query.Relation{nil, {}, rels[:1]} {
		if _, err := testSearch(8, 4).Best(r, rels); !errors.Is(err, ErrTooFewRelations) {
			t.Fatalf("%d relations: err = %v, want ErrTooFewRelations", len(rels), err)
		}
	}
	// Config errors still win over input errors, matching Validate-first
	// ordering.
	if _, err := testSearch(0, 4).Best(nil, rels); errors.Is(err, ErrNilRand) {
		t.Fatal("config error masked by input error")
	}
}

func TestRandomRelations(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rels, err := RandomRelations(r, 11, 1000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 11 {
		t.Fatalf("count = %d", len(rels))
	}
	for _, rel := range rels {
		if rel.Tuples < 1000 || rel.Tuples > 100000 {
			t.Fatalf("%s size %d out of range", rel.Name, rel.Tuples)
		}
	}
	if _, err := RandomRelations(r, 0, 1, 2); err == nil {
		t.Error("count 0 accepted")
	}
	if _, err := RandomRelations(r, 2, 5, 4); err == nil {
		t.Error("bad range accepted")
	}
}

// The winner beats every priced candidate, and every candidate the
// search left unpriced has a bound that certifies it could not win: the
// NoPrune oracle over the same seed prices them all.
func TestBestNeverWorseThanAnyScheduledCandidate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		rels, err := RandomRelations(r, 13, 1000, 100000)
		if err != nil {
			t.Fatal(err)
		}
		seed := r.Int63()
		res, err := testSearch(16, 8).Best(rand.New(rand.NewSource(seed)), rels)
		if err != nil {
			t.Fatal(err)
		}
		if res.Enumerated != 8 || res.Pruned+res.Scheduled != 8 || len(res.Candidates) != res.Scheduled {
			t.Fatalf("enumerated %d, pruned %d + scheduled %d, %d priced",
				res.Enumerated, res.Pruned, res.Scheduled, len(res.Candidates))
		}
		best := res.Best.Schedule.Response
		priced := map[int]bool{}
		for _, c := range res.Candidates {
			priced[c.Index] = true
			if best > c.Schedule.Response {
				t.Fatalf("best %g beaten by candidate %g", best, c.Schedule.Response)
			}
		}
		oracle := testSearch(16, 8)
		oracle.NoPrune = true
		all, err := oracle.Best(rand.New(rand.NewSource(seed)), rels)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range all.Candidates {
			if !priced[c.Index] && c.Bound < best {
				t.Fatalf("candidate %d pruned with bound %g below best response %g", c.Index, c.Bound, best)
			}
		}
		if res.Improvement() < 1 {
			t.Fatalf("improvement %g < 1", res.Improvement())
		}
	}
}

// The two-phase strawman must always carry a schedule: it seeds the
// incumbent and anchors Improvement, pruned search or not.
func TestFirstCandidateAlwaysScheduled(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	rels, err := RandomRelations(r, 10, 1000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testSearch(32, 12).Best(r, rels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates[0].Index != 0 || res.Candidates[0].Schedule == nil {
		t.Fatal("first candidate was pruned")
	}
}

// The sample cycles through every shape. The search keeps only the
// candidates it priced, so the NoPrune oracle, which prices the whole
// sample, shows it.
func TestSearchCoversShapes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	rels, err := RandomRelations(r, 9, 1000, 50000)
	if err != nil {
		t.Fatal(err)
	}
	s := testSearch(8, 8)
	s.NoPrune = true
	res, err := s.Best(r, rels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Systematic {
		t.Fatal("8-join query enumerated systematically")
	}
	seen := map[query.Shape]bool{}
	for _, c := range res.Candidates {
		seen[c.Shape] = true
		if got := c.Plan.Joins(); got != 8 {
			t.Fatalf("candidate has %d joins, want 8", got)
		}
		if err := c.Plan.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []query.Shape{query.RandomBushy, query.LeftDeep, query.RightDeep, query.Balanced} {
		if !seen[s] {
			t.Fatalf("shape %v never sampled", s)
		}
	}
}

func TestShapeRestriction(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rels, err := RandomRelations(r, 7, 1000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	s := testSearch(8, 5)
	s.Shapes = []query.Shape{query.RightDeep}
	res, err := s.Best(r, rels)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.Shape != query.RightDeep {
			t.Fatalf("shape %v sampled despite restriction", c.Shape)
		}
	}
}

func TestDefaultCandidateCount(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	rels, err := RandomRelations(r, 6, 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testSearch(4, 0).Best(r, rels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Systematic {
		t.Fatal("5-join query enumerated systematically at the default threshold")
	}
	if res.Enumerated != 8 {
		t.Fatalf("default candidates = %d, want 8", res.Enumerated)
	}
}

// At or below the ExhaustiveJoins threshold the pool is the full bushy
// enumeration: 3 joins = 4 relations = 120 distinct plans.
func TestSystematicEnumerationBelowThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	rels, err := RandomRelations(r, 4, 1000, 50000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testSearch(16, 8).Best(r, rels)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Systematic {
		t.Fatal("3-join query not enumerated systematically")
	}
	if res.Enumerated != 120 {
		t.Fatalf("systematic enumeration = %d plans, want 120", res.Enumerated)
	}
	if res.Pruned == 0 {
		t.Fatal("bound pruned nothing across 120 systematic candidates")
	}

	// A negative threshold forces sampling even on tiny queries.
	s := testSearch(16, 8)
	s.ExhaustiveJoins = -1
	sampled, err := s.Best(rand.New(rand.NewSource(19)), rels)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Systematic || sampled.Enumerated != 8 {
		t.Fatalf("ExhaustiveJoins=-1: systematic=%v candidates=%d, want sampled 8",
			sampled.Systematic, sampled.Enumerated)
	}
}

func TestDeepShapesBehaveAsExpected(t *testing.T) {
	// Right-deep plans serialize phases: on a wide system they should
	// schedule no better than the best-of shapes; the search must
	// therefore rarely pick RightDeep as best with many sites. Rather
	// than assert a stochastic claim, check the structural effect: a
	// right-deep plan's schedule has J+1 phases, a left-deep plan's 2.
	r := rand.New(rand.NewSource(17))
	rels, err := RandomRelations(r, 7, 1000, 50000)
	if err != nil {
		t.Fatal(err)
	}
	s := testSearch(16, 2)

	s.Shapes = []query.Shape{query.RightDeep}
	deep, err := s.Best(r, rels)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(deep.Best.Schedule.Phases); got != 7 {
		t.Fatalf("right-deep phases = %d, want 7 (J+1 for J=6... the chain has J tasks plus the root)", got)
	}

	s.Shapes = []query.Shape{query.LeftDeep}
	flat, err := s.Best(r, rels)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(flat.Best.Schedule.Phases); got != 2 {
		t.Fatalf("left-deep phases = %d, want 2", got)
	}
}

// Improvement's zero-response semantics, defined explicitly by the
// bugfix: 0/0 is 1 (no improvement to speak of), positive/0 is +Inf
// (an infinite improvement — previously silently reported as 1).
func TestImprovementZeroSemantics(t *testing.T) {
	mk := func(resp float64) *sched.Schedule { return &sched.Schedule{Response: resp} }
	cases := []struct {
		name        string
		first, best float64
		want        float64
	}{
		{"both zero", 0, 0, 1},
		{"zero denominator", 5, 0, math.Inf(1)},
		{"zero numerator impossible but defined", 0, 0, 1},
		{"ordinary", 6, 3, 2},
		{"no improvement", 3, 3, 1},
	}
	for _, c := range cases {
		first := Candidate{Index: 0, Schedule: mk(c.first)}
		best := Candidate{Index: 1, Schedule: mk(c.best)}
		r := &Result{Best: best, Candidates: []Candidate{first, best}}
		if got := r.Improvement(); got != c.want {
			t.Errorf("%s: Improvement() = %g, want %g", c.name, got, c.want)
		}
	}
	// Degenerate results stay at 1 rather than dereferencing nil.
	empty := &Result{}
	if got := empty.Improvement(); got != 1 {
		t.Errorf("empty result: Improvement() = %g, want 1", got)
	}
	prunedFirst := &Result{
		Best:       Candidate{Index: 1, Schedule: mk(2)},
		Candidates: []Candidate{{Index: 0}, {Index: 1, Schedule: mk(2)}},
	}
	if got := prunedFirst.Improvement(); got != 1 {
		t.Errorf("nil first schedule: Improvement() = %g, want 1", got)
	}
}

// The search counters must balance: candidates = pruned + scheduled +
// warm hits, and every counter is emitted on every search.
func TestSearchCounters(t *testing.T) {
	met := obs.NewMetrics()
	s := testSearch(64, 12)
	s.Rec = met
	r := rand.New(rand.NewSource(31))
	rels, err := RandomRelations(r, 12, 1000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Best(r, rels)
	if err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	for name, want := range map[string]int64{
		"optimizer.searches":       1,
		"optimizer.candidates":     res.Enumerated,
		"optimizer.pruned":         int64(res.Pruned),
		"optimizer.scheduled":      int64(res.Scheduled),
		"optimizer.warm_hits":      int64(res.WarmHits),
		"optimizer.subtree_pruned": res.SubtreePruned,
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Fatalf("%s = %d (emitted %v), want %d", name, got, ok, want)
		}
	}
	if snap.Counters["optimizer.candidates"] !=
		snap.Counters["optimizer.pruned"]+snap.Counters["optimizer.scheduled"]+snap.Counters["optimizer.warm_hits"] {
		t.Fatal("counter arithmetic violated")
	}
}

func BenchmarkBestOf8(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	rels, err := RandomRelations(r, 11, 1000, 100000)
	if err != nil {
		b.Fatal(err)
	}
	s := testSearch(16, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Best(r, rels); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestOf8Unpruned(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	rels, err := RandomRelations(r, 11, 1000, 100000)
	if err != nil {
		b.Fatal(err)
	}
	s := testSearch(16, 8)
	s.NoPrune = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Best(r, rels); err != nil {
			b.Fatal(err)
		}
	}
}
