package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
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

func TestEncodeJSONRoundTrip(t *testing.T) {
	s := renderSchedule(t)
	data, err := EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Response float64 `json:"response_seconds"`
		Sites    int     `json:"sites"`
		Phases   []struct {
			Placements []struct {
				Operator string      `json:"operator"`
				Degree   int         `json:"degree"`
				Sites    []int       `json:"sites"`
				Clones   [][]float64 `json:"clone_work_vectors"`
			} `json:"placements"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if math.Abs(decoded.Response-s.Response) > 1e-12 || decoded.Sites != s.P {
		t.Fatalf("header mismatch: %+v", decoded)
	}
	if len(decoded.Phases) != len(s.Phases) {
		t.Fatalf("phases %d != %d", len(decoded.Phases), len(s.Phases))
	}
	for pi, ph := range decoded.Phases {
		for qi, pl := range ph.Placements {
			orig := s.Phases[pi].Placements[qi]
			if pl.Operator != orig.Op.Name || pl.Degree != orig.Degree {
				t.Fatalf("placement mismatch at %d/%d", pi, qi)
			}
			if len(pl.Sites) != pl.Degree || len(pl.Clones) != pl.Degree {
				t.Fatalf("degree inconsistency at %d/%d", pi, qi)
			}
		}
	}
}

// scheduleJSON mirrors the document EncodeJSON writes, for the
// reflective oracle below.
type scheduleJSON struct {
	Response float64     `json:"response_seconds"`
	Sites    int         `json:"sites"`
	Phases   []phaseJSON `json:"phases"`
}

type phaseJSON struct {
	Index      int             `json:"index"`
	Response   float64         `json:"response_seconds"`
	Placements []placementJSON `json:"placements"`
}

type placementJSON struct {
	Operator string      `json:"operator"`
	OpID     int         `json:"op_id"`
	Kind     string      `json:"kind"`
	Degree   int         `json:"degree"`
	Rooted   bool        `json:"rooted"`
	TPar     float64     `json:"t_par_seconds"`
	Sites    []int       `json:"sites"`
	Clones   [][]float64 `json:"clone_work_vectors"`
}

// encodeJSONOracle is the encoder EncodeJSON replaced, kept verbatim:
// mirror structs through json.MarshalIndent. EncodeJSON must reproduce
// its bytes and its errors exactly.
func encodeJSONOracle(s *Schedule) ([]byte, error) {
	out := scheduleJSON{Response: s.Response, Sites: s.P}
	for _, ph := range s.Phases {
		pj := phaseJSON{Index: ph.Index, Response: ph.Response}
		for _, pl := range ph.Placements {
			clones := make([][]float64, len(pl.Clones))
			for k, w := range pl.Clones {
				clones[k] = append([]float64(nil), w...)
			}
			pj.Placements = append(pj.Placements, placementJSON{
				Operator: pl.Op.Name,
				OpID:     pl.Op.ID,
				Kind:     pl.Op.Kind.String(),
				Degree:   pl.Degree,
				Rooted:   pl.Rooted,
				TPar:     pl.TPar,
				Sites:    pl.Sites,
				Clones:   clones,
			})
		}
		out.Phases = append(out.Phases, pj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// checkEncodeIdentity fails unless EncodeJSON and the oracle agree on s:
// the same bytes, or the same error.
func checkEncodeIdentity(t *testing.T, name string, s *Schedule) {
	t.Helper()
	want, wantErr := encodeJSONOracle(s)
	got, gotErr := EncodeJSON(s)
	if wantErr != nil || gotErr != nil {
		var unsupported *json.UnsupportedValueError
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || !errors.As(gotErr, &unsupported) {
			t.Errorf("%s: error %v, oracle %v", name, gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-40)
		t.Errorf("%s: encoding differs from MarshalIndent at byte %d:\n got  %q\n want %q",
			name, i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
	}
}

// encodeCorpus is the schedules the identity and allocation tests run
// over: TreeSchedule results from one join on one site to the
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

// TestEncodeJSONMatchesMarshalIndent pins the hand-written encoder to
// the reflective one it replaced, byte for byte, over tree and batch
// schedules and over the golden OperatorSchedule corpus (1–4 resource
// dimensions, rooted operators, arbitrary floats) wrapped as one-phase
// schedules.
func TestEncodeJSONMatchesMarshalIndent(t *testing.T) {
	for name, s := range encodeCorpus(t) {
		checkEncodeIdentity(t, name, s)
	}
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
				Degree: len(op.Clones),
				Sites:  res.Sites[op.ID],
				Clones: op.Clones,
				Rooted: op.Home != nil,
				TPar:   op.Clones[0].Length() * eps,
			})
		}
		checkEncodeIdentity(t, fmt.Sprintf("golden seed %d", seed),
			&Schedule{Phases: []*PhaseSchedule{ph}, Response: res.Response, P: p})
	}
}

// TestEncodeJSONEdgeCases drives every branch where a hand-written
// encoder could part from encoding/json: string escaping, the float
// format thresholds, null versus [], and unencodable numbers.
func TestEncodeJSONEdgeCases(t *testing.T) {
	one := func(name string, tpar float64, sites []int, clones ...vector.Vector) *Schedule {
		return &Schedule{P: 2, Response: tpar, Phases: []*PhaseSchedule{{
			Response: tpar,
			Placements: []*OpPlacement{{
				Op: &plan.Operator{ID: 7, Name: name}, Degree: len(sites),
				Sites: sites, Clones: clones, TPar: tpar,
			}},
		}}}
	}
	for _, name := range []string{
		"", "scan(R3)", `quote"back\slash`, "<script>&amp;</script>", "a\u2028b\u2029c",
		"bad\xffutf8\xc3", "\xe2\x80", "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "héllo wörld ☃ 😀", "\ufffd",
	} {
		checkEncodeIdentity(t, fmt.Sprintf("name %q", name), one(name, 1, []int{0}, vector.Of(1, 2, 3)))
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-10, 1e-100,
		1e20, 1e21, 9.99999999999999e20, -1e21, 1e22, 1.234e300, 5e-324, math.MaxFloat64,
		-math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.12345679, 1.0 / 3, math.Pi * 1e15,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		checkEncodeIdentity(t, fmt.Sprintf("float %g as scalar", f), one("op", f, []int{0}, vector.Of(1)))
		checkEncodeIdentity(t, fmt.Sprintf("float %g as component", f), one("op", 1, []int{0}, vector.Of(2, f)))
	}
	// The first unencodable number in document order names the error.
	checkEncodeIdentity(t, "NaN then Inf", one("op", math.NaN(), []int{0}, vector.Of(math.Inf(1))))
	checkEncodeIdentity(t, "Inf then NaN", one("op", math.Inf(-1), []int{0}, vector.Of(math.NaN())))

	checkEncodeIdentity(t, "nil sites", one("op", 1, nil, vector.Of(1)))
	checkEncodeIdentity(t, "empty sites", one("op", 1, []int{}, vector.Of(1)))
	checkEncodeIdentity(t, "nil clones", one("op", 1, []int{0, 1}))
	checkEncodeIdentity(t, "empty clones", one("op", 1, []int{0}, []vector.Vector{}...))
	checkEncodeIdentity(t, "zero-length work vectors", one("op", 1, []int{0, 1, 1}, vector.Vector{}, nil, vector.Of(4)))
	checkEncodeIdentity(t, "negative ints", &Schedule{P: -3, Phases: []*PhaseSchedule{{Index: -1}}})
	checkEncodeIdentity(t, "phase with no placements", &Schedule{P: 1, Phases: []*PhaseSchedule{
		{Index: 0}, {Index: 1, Placements: []*OpPlacement{}}}})
	checkEncodeIdentity(t, "nil phases", &Schedule{P: 4})
	checkEncodeIdentity(t, "empty phases", &Schedule{P: 4, Phases: []*PhaseSchedule{}})
	checkEncodeIdentity(t, "unknown kind", &Schedule{Phases: []*PhaseSchedule{{Placements: []*OpPlacement{
		{Op: &plan.Operator{Kind: costmodel.OpKind(99)}}}}}})
}

// TestEncodeJSONExactSize pins what a memoized rendering costs: the
// returned slice has no spare capacity, so a cached schedule holds
// exactly its encoded bytes.
func TestEncodeJSONExactSize(t *testing.T) {
	for name, s := range encodeCorpus(t) {
		data, err := EncodeJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		if cap(data) != len(data) {
			t.Errorf("%s: %d bytes encoded into a %d-byte array", name, len(data), cap(data))
		}
	}
}

// TestEncodeJSONConcurrent encodes different schedules from several
// goroutines at once: the encoder's pooled scratch must never be
// visible through a returned rendering.
func TestEncodeJSONConcurrent(t *testing.T) {
	corpus := encodeCorpus(t)
	want := map[string][]byte{}
	for name, s := range corpus {
		data, err := EncodeJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for name, s := range corpus {
					if got, err := EncodeJSON(s); err != nil || !bytes.Equal(got, want[name]) {
						t.Errorf("%s: concurrent encode differs from the serial one (err %v)", name, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
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
