package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

func renderSchedule(t *testing.T) *Schedule {
	t.Helper()
	r := rand.New(rand.NewSource(61))
	p := query.MustRandom(r, query.DefaultGenConfig(8))
	tt := plan.MustNewTaskTree(plan.MustExpand(p))
	s, err := testScheduler(10, 0.5, 0.7).Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStatsAccounting(t *testing.T) {
	s := renderSchedule(t)
	st := s.Stats()
	if st.Clones == 0 {
		t.Fatal("no clones counted")
	}
	if len(st.PhaseUtilization) != len(s.Phases) {
		t.Fatalf("phase utilization count %d != %d", len(st.PhaseUtilization), len(s.Phases))
	}
	// Utilization on each resource lies in (0, 1]: no resource can be
	// busier than the full system for the whole response time.
	for i, u := range st.Utilization {
		if u <= 0 || u > 1+1e-9 {
			t.Fatalf("utilization[%d] = %g", i, u)
		}
	}
	// TotalWork must equal the sum over phases of per-phase work.
	sum := 0.0
	for pi, u := range st.PhaseUtilization {
		for i := range u {
			sum += u[i] * float64(s.P) * s.Phases[pi].Response
		}
	}
	if math.Abs(sum-st.TotalWork.Sum()) > 1e-6 {
		t.Fatalf("phase work %g != total %g", sum, st.TotalWork.Sum())
	}
}

func TestStatsEmptySchedule(t *testing.T) {
	st := (&Schedule{P: 4}).Stats()
	if st.Clones != 0 || st.TotalWork.Sum() != 0 {
		t.Fatalf("empty schedule stats: %+v", st)
	}
}

func TestWriteTextRendering(t *testing.T) {
	s := renderSchedule(t)
	var sb strings.Builder
	if err := WriteText(&sb, s); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"schedule:", "utilization:", "phase 0", "site"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out[:200])
		}
	}
	// One bar row per site per phase.
	if got := strings.Count(out, "site "); got != s.P*len(s.Phases) {
		t.Fatalf("bar rows = %d, want %d", got, s.P*len(s.Phases))
	}
}

// decodeJSON reads an EncodeJSON rendering back into the document's
// mirror structs and expands each placement's runs into one work vector
// per clone.
func decodeJSON(data []byte) (doc scheduleDoc, clones [][][]vector.Vector, err error) {
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, nil, err
	}
	clones = make([][][]vector.Vector, len(doc.Phases))
	for i, ph := range doc.Phases {
		clones[i] = make([][]vector.Vector, len(ph.Placements))
		for j, pl := range ph.Placements {
			for _, r := range pl.Work {
				for k := 0; k < r.N; k++ {
					clones[i][j] = append(clones[i][j], r.W)
				}
			}
		}
	}
	return doc, clones, nil
}

// checkRoundTrip fails unless decoding s's rendering gives back every
// field EncodeJSON writes — each number with equal Float64bits, and nil
// Sites as nil — and the runs are maximal and cover every clone.
func checkRoundTrip(t *testing.T, name string, s *Schedule) {
	t.Helper()
	data, err := EncodeJSON(s)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	doc, clones, err := decodeJSON(data)
	if err != nil {
		t.Errorf("%s: decoding %s: %v", name, data, err)
		return
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameVec := func(a, b vector.Vector) bool { return slices.EqualFunc(a, b, same) }
	if !same(doc.Response, s.Response) || doc.Sites != s.P || len(doc.Phases) != len(s.Phases) {
		t.Errorf("%s: header %g/%d/%d phases, want %g/%d/%d", name,
			doc.Response, doc.Sites, len(doc.Phases), s.Response, s.P, len(s.Phases))
		return
	}
	for i, ph := range s.Phases {
		got := doc.Phases[i]
		if got.Index != ph.Index || !same(got.Response, ph.Response) || len(got.Placements) != len(ph.Placements) {
			t.Errorf("%s: phase %d decodes as %+v", name, i, got)
			continue
		}
		for j, pl := range ph.Placements {
			g := got.Placements[j]
			if g.Operator != pl.Op.Name || g.OpID != pl.Op.ID || g.Kind != pl.Op.Kind.String() ||
				g.Degree != pl.Degree || g.Rooted != pl.Rooted || !same(g.TPar, pl.TPar) ||
				!reflect.DeepEqual(g.Sites, pl.Sites) {
				t.Errorf("%s: placement %d/%d decodes as %+v", name, i, j, g)
			}
			n := 0
			for k, r := range g.Work {
				n += r.N
				if r.N < 1 || k > 0 && sameVec(r.W, g.Work[k-1].W) {
					t.Errorf("%s: placement %d/%d: run %d of %d is empty or not maximal", name, i, j, k, r.N)
				}
			}
			want := expand(pl.Work)
			if n != len(want) || len(clones[i][j]) != n {
				t.Errorf("%s: placement %d/%d: runs cover %d clones, want %d", name, i, j, n, len(want))
				continue
			}
			for k, w := range want {
				if !sameVec(clones[i][j][k], w) {
					t.Errorf("%s: placement %d/%d clone %d decodes as %v, want %v", name, i, j, k, clones[i][j][k], w)
				}
			}
		}
	}
}

// encodeCorpus is the schedules the round-trip test and the benchmark
// run over: TreeSchedule results from one join on one site to the
// benchmark's 20 joins on 32 sites, and a combined batch schedule.
func encodeCorpus(t testing.TB) map[string]*Schedule {
	t.Helper()
	corpus := map[string]*Schedule{}
	var trees []*plan.TaskTree
	for _, joins := range []int{1, 3, 8, 20} {
		r := rand.New(rand.NewSource(int64(100 + joins)))
		tt := plan.MustNewTaskTree(plan.MustExpand(query.MustRandom(r, query.DefaultGenConfig(joins))))
		trees = append(trees, tt)
		for _, p := range []int{1, 10, 32} {
			s, err := testScheduler(p, 0.5, 0.7).Schedule(tt)
			if err != nil {
				t.Fatal(err)
			}
			corpus[fmt.Sprintf("joins=%d/P=%d", joins, p)] = s
		}
	}
	batch, err := testScheduler(16, 0.3, 0.7).ScheduleBatch(trees)
	if err != nil {
		t.Fatal(err)
	}
	corpus["batch"] = batch
	return corpus
}

// oneOp is a one-phase, one-placement schedule for the edge table.
func oneOp(name string, tpar float64, sites []int, clones ...vector.Vector) *Schedule {
	return &Schedule{P: 2, Response: tpar, Phases: []*PhaseSchedule{{
		Response: tpar,
		Placements: []*OpPlacement{{
			Op: &plan.Operator{ID: 7, Name: name}, Degree: len(sites),
			Sites: sites, Work: runsOf(clones), TPar: tpar,
		}},
	}}}
}

// runsOf is clones as one run per clone, left for EncodeJSON to merge.
func runsOf(clones []vector.Vector) []WorkRun {
	var work []WorkRun
	for _, w := range clones {
		work = append(work, WorkRun{N: 1, W: w})
	}
	return work
}

// expand is work clone by clone.
func expand(work []WorkRun) []vector.Vector {
	var clones []vector.Vector
	for _, r := range work {
		for range r.N {
			clones = append(clones, r.W)
		}
	}
	return clones
}

// checkMatchesMarshalIndent fails unless s's rendering, indented by
// json.Indent, is byte for byte json.MarshalIndent of the document it
// decodes to: the rendering is encoding/json's canonical form of its
// document, so decoding and re-encoding it changes nothing.
func checkMatchesMarshalIndent(t *testing.T, name string, s *Schedule) {
	t.Helper()
	data, err := EncodeJSON(s)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	var doc scheduleDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Errorf("%s: decoding %s: %v", name, data, err)
		return
	}
	want, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		t.Errorf("%s: re-encoding: %v", name, err)
		return
	}
	var got bytes.Buffer
	if err := json.Indent(&got, data, "", "  "); err != nil {
		t.Errorf("%s: indenting: %v", name, err)
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < min(got.Len(), len(want)) && got.Bytes()[i] == want[i] {
			i++
		}
		t.Errorf("%s: rendering differs from MarshalIndent at byte %d:\n got  %q\n want %q",
			name, i, got.Bytes()[i:min(got.Len(), i+60)], want[i:min(len(want), i+60)])
	}
}

// goldenCorpus wraps each of the 60 golden OperatorSchedule results
// (1–4 resource dimensions, rooted operators, arbitrary floats) as a
// one-phase schedule.
func goldenCorpus(t *testing.T) map[string]*Schedule {
	t.Helper()
	corpus := map[string]*Schedule{}
	for seed := int64(0); seed < 60; seed++ {
		p, d, eps, ops := goldenOps(seed)
		res, err := OperatorSchedule(p, d, resource.MustOverlap(eps), ops)
		if err != nil {
			t.Fatal(err)
		}
		ph := &PhaseSchedule{Index: int(seed), Response: res.Response}
		for _, op := range ops {
			ph.Placements = append(ph.Placements, &OpPlacement{
				Op:     &plan.Operator{ID: op.ID, Name: fmt.Sprintf("op%d", op.ID), Kind: costmodel.OpKind(op.ID % 4)},
				Degree: op.Degree(),
				Sites:  res.Sites[op.ID],
				Work:   op.Work,
				Rooted: op.Home != nil,
				TPar:   op.Work[0].W.Length() * eps,
			})
		}
		corpus[fmt.Sprintf("golden seed %d", seed)] =
			&Schedule{Phases: []*PhaseSchedule{ph}, Response: res.Response, P: p}
	}
	return corpus
}

// TestEncodeJSONRoundTrip holds the rendering to decode(encode(s)) = s
// over tree and batch schedules and over the golden corpus.
func TestEncodeJSONRoundTrip(t *testing.T) {
	for _, corpus := range []map[string]*Schedule{encodeCorpus(t), goldenCorpus(t)} {
		for name, s := range corpus {
			checkRoundTrip(t, name, s)
		}
	}
}

// TestEncodeJSONMatchesMarshalIndent holds the rendering to
// encoding/json's canonical form over tree and batch schedules and over
// the golden corpus.
func TestEncodeJSONMatchesMarshalIndent(t *testing.T) {
	for _, corpus := range []map[string]*Schedule{encodeCorpus(t), goldenCorpus(t)} {
		for name, s := range corpus {
			checkMatchesMarshalIndent(t, name, s)
		}
	}
}

// TestEncodeJSONEdgeCases runs both properties over floats at the
// format's thresholds, names that need escaping and empty shapes. Names
// that are not valid UTF-8 are left out: encoding/json writes each bad
// byte as a six-character escape but a decoded U+FFFD as raw bytes, so such a
// rendering neither round-trips nor is a fixed point of re-encoding.
func TestEncodeJSONEdgeCases(t *testing.T) {
	both := func(name string, s *Schedule) {
		t.Helper()
		checkRoundTrip(t, name, s)
		checkMatchesMarshalIndent(t, name, s)
	}
	negZero := math.Copysign(0, -1)
	for _, f := range []float64{
		0, negZero, 5e-324, 1e-7, 9.999999e-7, 1e21, 1e20, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3,
	} {
		both(fmt.Sprintf("float %g as scalar", f), oneOp("op", f, []int{0}, vector.Of(1)))
		both(fmt.Sprintf("float %g as component", f), oneOp("op", 1, []int{0, 1, 0}, vector.Of(2, f), vector.Of(2, f), vector.Of(f, 2)))
	}
	for _, name := range []string{"", "scan(R3)", `quote"back\slash`, "<script>&amp;</script>", "a\u2028b\u2029c", "héllo ☃ 😀"} {
		both(fmt.Sprintf("name %q", name), oneOp(name, 1, []int{0}, vector.Of(1, 2, 3)))
	}
	both(`name "ctl"`, oneOp("ctl\x00\x01\b\f\n\r\t\x1f\x7f", 1, []int{0}, vector.Of(1, 2, 3)))
	both("-0 and +0 never merge", oneOp("op", 1, []int{0, 1, 0, 1},
		vector.Of(0, 1), vector.Of(negZero, 1), vector.Of(negZero, 1), vector.Of(0, 1)))
	both("nil sites", oneOp("op", 1, nil, vector.Of(1)))
	both("empty sites", oneOp("op", 1, []int{}, vector.Of(1)))
	both("no clones", oneOp("op", 1, []int{0, 1}))
	both("zero-length work vectors", oneOp("op", 1, []int{0, 1, 1, 0}, vector.Vector{}, nil, vector.Of(4), vector.Vector{}))
	both("vectors of different lengths", oneOp("op", 1, []int{0, 1, 0}, vector.Of(1), vector.Of(1, 0), vector.Of(1)))
	both("negative ints", &Schedule{P: -3, Phases: []*PhaseSchedule{{Index: -1}}})
	both("phase with no placements", &Schedule{P: 1, Phases: []*PhaseSchedule{
		{Index: 0}, {Index: 1, Placements: []*OpPlacement{}}}})
	both("no phases", &Schedule{P: 4})
	both("unknown kind", &Schedule{Phases: []*PhaseSchedule{{Placements: []*OpPlacement{
		{Op: &plan.Operator{Kind: costmodel.OpKind(99)}}}}}})
}

// TestEncodeJSONMergesEqualCoordinator: with a startup cost so small
// that rounding absorbs α·N/2 into the coordinator's CPU and network
// work, the coordinator's run is bit-identical to its workers', and the
// operator renders as one run of N clones.
func TestEncodeJSONMergesEqualCoordinator(t *testing.T) {
	ts := testScheduler(16, 0.5, 0.7)
	ts.Model.Params.Alpha = 1e-300
	s, err := ts.Schedule(randomTree(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := decodeJSON(mustJSON(t, s))
	if err != nil {
		t.Fatal(err)
	}
	merged := 0
	for i, ph := range s.Phases {
		for j, pl := range ph.Placements {
			if len(pl.Work) != 2 || !slices.EqualFunc(pl.Work[0].W, pl.Work[1].W, sameBits) {
				continue
			}
			merged++
			if got := doc.Phases[i].Placements[j].Work; len(got) != 1 || got[0].N != pl.Degree {
				t.Errorf("%s: equal coordinator renders as %d runs, want one of %d", pl.Op.Name, len(got), pl.Degree)
			}
		}
	}
	if merged == 0 {
		t.Fatal("no operator's coordinator equals its workers")
	}
	checkRoundTrip(t, "alpha=1e-300", s)
}

func mustJSON(t *testing.T, s *Schedule) []byte {
	t.Helper()
	data, err := EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEncodeJSONUnsupportedValues: a NaN or infinite number anywhere
// fails the encode with encoding/json's error, naming the first such
// number in document order, and JSON memoizes that error.
func TestEncodeJSONUnsupportedValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name  string
		s     *Schedule
		first string
	}{
		{"NaN response", &Schedule{Response: nan}, "NaN"},
		{"+Inf T^par", oneOp("op", inf, []int{0}, vector.Of(1)), "+Inf"},
		{"-Inf component", oneOp("op", 1, []int{0, 1}, vector.Of(1), vector.Of(1, -inf)), "-Inf"},
		{"NaN run", oneOp("op", 1, []int{0, 1}, vector.Of(nan), vector.Of(nan)), "NaN"},
		{"NaN then Inf", oneOp("op", nan, []int{0}, vector.Of(inf)), "NaN"},
		{"Inf then NaN", oneOp("op", -inf, []int{0}, vector.Of(nan)), "-Inf"},
	} {
		var unsupported *json.UnsupportedValueError
		if data, err := EncodeJSON(c.s); !errors.As(err, &unsupported) || unsupported.Str != c.first || data != nil {
			t.Errorf("%s: EncodeJSON = %q, %v; want the unsupported value %s", c.name, data, err, c.first)
		}
		_, err1 := c.s.JSON()
		_, err2 := c.s.JSON()
		if !errors.As(err1, &unsupported) || err1 != err2 {
			t.Errorf("%s: JSON errors %v, %v; want one memoized unsupported value", c.name, err1, err2)
		}
	}
}

// TestScheduleJSONMemo hammers JSON on one shared schedule: every
// caller gets the same backing array, equal to a fresh EncodeJSON, and
// once it is filled a call allocates nothing. An unencodable schedule
// memoizes its error the same way.
func TestScheduleJSONMemo(t *testing.T) {
	s := renderSchedule(t)
	want, err := EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	got := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data, err := s.JSON()
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = data
			}
		}()
	}
	wg.Wait()
	for g, data := range got {
		if !bytes.Equal(data, want) {
			t.Fatalf("goroutine %d: memoized bytes differ from EncodeJSON", g)
		}
		if &data[0] != &got[0][0] {
			t.Fatalf("goroutine %d: JSON returned a different backing array", g)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.JSON() }); n != 0 {
		t.Fatalf("memoized JSON allocates %v times per call", n)
	}
	fresh, _ := EncodeJSON(s)
	if &fresh[0] == &got[0][0] {
		t.Fatal("EncodeJSON returned the memoized array, not a fresh copy")
	}

	bad := &Schedule{Response: math.NaN()}
	_, err1 := bad.JSON()
	_, err2 := bad.JSON()
	if err1 == nil || err1 != err2 {
		t.Fatalf("unencodable schedule: errors %v, %v", err1, err2)
	}
}

// BenchmarkEncodeJSON renders the size of schedule the http_hit
// benchmark workload serves (20 joins on 32 sites): sched.encode_us and
// its bytes per encode, watchable with go test -bench.
func BenchmarkEncodeJSON(b *testing.B) {
	s := encodeCorpus(b)["joins=20/P=32"]
	data, err := EncodeJSON(s)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeJSON(s); err != nil {
			b.Fatal(err)
		}
	}
}
