package mdrs_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unicode/utf8"

	"mdrs"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

// Fuzz targets harden the public entry points against malformed input.
// Under plain `go test` they run their seed corpus as regular tests;
// `go test -fuzz=FuzzDecodePlan .` explores further.

// maxIntPlan is a valid one-leaf plan at the top of the int range: its
// page count must not wrap around into a negative cost.
const maxIntPlan = `{"relation":{"name":"R","tuples":9223372036854775807},"tuples":9223372036854775807}`

// FuzzDecodePlan asserts DecodePlan never panics and that every
// accepted plan is structurally valid and re-encodable.
func FuzzDecodePlan(f *testing.F) {
	f.Add([]byte(`{"relation":{"name":"R","tuples":10},"tuples":10}`))
	f.Add([]byte(`{"outer":{"relation":{"name":"A","tuples":5},"tuples":5},` +
		`"inner":{"relation":{"name":"B","tuples":3},"tuples":3},"tuples":5}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"tuples":-1}`))
	f.Add([]byte(``))
	f.Add([]byte(maxIntPlan))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := mdrs.DecodePlan(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("DecodePlan accepted an invalid plan: %v", err)
		}
		if _, err := p.Encode(); err != nil {
			t.Fatalf("accepted plan failed to re-encode: %v", err)
		}
		// A valid plan must be schedulable end to end.
		if _, err := mdrs.ScheduleQuery(p, mdrs.Options{Sites: 3, Epsilon: 0.5, F: 0.7}); err != nil {
			t.Fatalf("accepted plan failed to schedule: %v", err)
		}
	})
}

// FuzzEnumerateBushyStream asserts the streaming bushy enumeration is a
// faithful subset view of the materialized one under any pruning
// predicate the fuzzer invents: every plan the streaming path yields
// must appear in the materialized enumeration at exactly its reported
// ordinal, ordinals must be strictly increasing, and with pruning
// disabled the two paths must agree plan for plan.
func FuzzEnumerateBushyStream(f *testing.F) {
	f.Add(uint8(3), int64(1), uint8(0))
	f.Add(uint8(4), int64(7), uint8(3))
	f.Add(uint8(5), int64(42), uint8(9))
	f.Add(uint8(1), int64(0), uint8(255))
	f.Fuzz(func(t *testing.T, nRaw uint8, seed int64, pruneRaw uint8) {
		n := int(nRaw%5) + 1 // 1..5 relations: materialization stays cheap
		rels, err := mdrs.RandomRelations(rand.New(rand.NewSource(seed)), n, 10, 1_000)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mdrs.EnumerateBushyPlans(rels)
		if err != nil {
			t.Fatal(err)
		}
		encoded := make([][]byte, len(want))
		for i, p := range want {
			if encoded[i], err = p.Encode(); err != nil {
				t.Fatal(err)
			}
		}
		// A deterministic pseudo-random pruning predicate derived from
		// the fuzzed byte: prune proper subtrees whose tuple count hashes
		// into the cut.
		cut := uint64(pruneRaw % 11)
		prune := func(p *mdrs.PlanNode) bool {
			return cut > 0 && uint64(p.Tuples)*2654435761%11 < cut
		}
		var yielded int64
		last := int64(-1)
		err = mdrs.EnumerateBushyPlansFunc(rels, prune, func(p *mdrs.PlanNode, ord int64) error {
			if ord <= last || ord >= int64(len(want)) {
				t.Fatalf("ordinal %d out of order (last %d, total %d)", ord, last, len(want))
			}
			last = ord
			yielded++
			got, err := p.Encode()
			if err != nil {
				return err
			}
			if !bytes.Equal(got, encoded[ord]) {
				t.Fatalf("streamed plan at ordinal %d differs from materialized", ord)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if cut == 0 && yielded != int64(len(want)) {
			t.Fatalf("unpruned stream yielded %d of %d plans", yielded, len(want))
		}
		if mdrs.CountBushyPlans(n) != int64(len(want)) {
			t.Fatalf("CountBushyPlans(%d) = %d, materialized %d", n, mdrs.CountBushyPlans(n), len(want))
		}
	})
}

// FuzzOperatorSchedule asserts the core list scheduler never panics,
// never violates Definition 5.1, and always respects the (2d+1)·LB
// envelope for whatever clone geometry the fuzzer invents.
func FuzzOperatorSchedule(f *testing.F) {
	f.Add(uint8(2), uint8(2), int64(1), 0.5)
	f.Add(uint8(1), uint8(3), int64(7), 0.0)
	f.Add(uint8(12), uint8(1), int64(42), 1.0)
	f.Fuzz(func(t *testing.T, pRaw, dRaw uint8, seed int64, eps float64) {
		p := int(pRaw%16) + 1
		d := int(dRaw%4) + 1
		if eps < 0 || eps > 1 || math.IsNaN(eps) {
			return
		}
		ov := resource.MustOverlap(eps)
		// Deterministic op synthesis from the seed.
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(uint64(s)>>11) / float64(1<<53) * 10
		}
		m := int(uint64(seed)%7) + 1
		ops := make([]*sched.Op, m)
		for i := range ops {
			n := int(uint64(seed+int64(i))%uint64(p)) + 1
			work := make([]sched.WorkRun, n)
			for k := range work {
				w := make(mdrs.Vector, d)
				for j := range w {
					w[j] = next()
				}
				work[k] = sched.WorkRun{N: 1, W: w}
			}
			ops[i] = &sched.Op{ID: i, Work: work}
		}
		res, err := sched.OperatorSchedule(p, d, ov, ops)
		if err != nil {
			t.Fatalf("valid instance rejected: %v", err)
		}
		for _, op := range ops {
			seen := map[int]bool{}
			for _, site := range res.Sites[op.ID] {
				if site < 0 || site >= p || seen[site] {
					t.Fatalf("placement violates Definition 5.1: %v", res.Sites[op.ID])
				}
				seen[site] = true
			}
		}
		lb := sched.LowerBound(p, ov, ops)
		if res.Response < lb-1e-9 || res.Response > sched.PerformanceRatioBound(d)*lb+1e-9 {
			t.Fatalf("response %g outside [LB, (2d+1)LB] = [%g, %g]",
				res.Response, lb, sched.PerformanceRatioBound(d)*lb)
		}
	})
}

// FuzzEncodeJSON asserts the schedule rendering is json.Marshal of the
// run-form document, built here independently, and that decoding it
// gives back every number bit for bit, for whatever operator name,
// numbers and array shapes the fuzzer invents. The placement holds one
// work run per clone, so merging bit-identical neighbours into maximal
// runs is EncodeJSON's to do (internal/sched's
// render_test.go holds real schedules to the same round trip).
func FuzzEncodeJSON(f *testing.F) {
	f.Add("scan(R3)", 1.5, 0.25, 3.0, int64(7), uint8(0b0110_1011))
	f.Add(`a"b\c<d>&e`+" \xff\x00\t", 1e-7, 1e21, -0.0, int64(-1), uint8(0xff))
	f.Add("", 5e-324, math.MaxFloat64, math.NaN(), int64(math.MinInt64), uint8(0))
	f.Add("\xe2\x80", math.Inf(1), 9.999999e-7, 123456789.12345679, int64(1<<40), uint8(0b1000_0100))
	f.Add("join(1)", 0.0, 0.5, math.Copysign(0, -1), int64(2<<16|9), uint8(0b1100_1011))
	f.Fuzz(func(t *testing.T, name string, a, b, c float64, n int64, shape uint8) {
		type run struct {
			N int       `json:"n"`
			W []float64 `json:"w"`
		}
		type placement struct {
			Operator string  `json:"operator"`
			OpID     int     `json:"op_id"`
			Kind     string  `json:"kind"`
			Degree   int     `json:"degree"`
			Rooted   bool    `json:"rooted"`
			TPar     float64 `json:"t_par_seconds"`
			Sites    []int   `json:"sites"`
			Work     []run   `json:"work"`
		}
		type phase struct {
			Index      int         `json:"index"`
			Response   float64     `json:"response_seconds"`
			Placements []placement `json:"placements"`
		}
		type document struct {
			Response float64 `json:"response_seconds"`
			Sites    int     `json:"sites"`
			Phases   []phase `json:"phases"`
		}
		same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		sameBits := func(x, y []float64) bool { return slices.EqualFunc(x, y, same) }

		// shape: bits 0-1 clones, bits 2-3 components per clone, bit 4
		// nil (not empty) sites, bit 5 rooted, bits 6-7 phases. Bit 16+k
		// of n gives clone k the reversed vector.
		op := &mdrs.Operator{ID: int(n), Name: name, Kind: mdrs.OpKind(shape % 5)}
		pl := &sched.OpPlacement{Op: op, Degree: int(n >> 8), Rooted: shape&32 != 0, TPar: c}
		mirror := placement{Operator: name, OpID: op.ID, Kind: op.Kind.String(),
			Degree: pl.Degree, Rooted: pl.Rooted, TPar: c, Work: []run{}}
		var clones []mdrs.Vector
		if shape&16 == 0 {
			pl.Sites, mirror.Sites = []int{}, []int{}
		}
		for k := 0; k < int(shape&3); k++ {
			w := mdrs.Vector{a, b, c}[:shape>>2&3]
			if n>>(16+k)&1 != 0 {
				w = mdrs.Vector{c, b, a}[:shape>>2&3]
			}
			pl.Sites, mirror.Sites = append(pl.Sites, int(n)+k), append(mirror.Sites, int(n)+k)
			clones = append(clones, w)
			pl.Work = append(pl.Work, sched.WorkRun{N: 1, W: w})
			if last := len(mirror.Work) - 1; last >= 0 && sameBits(mirror.Work[last].W, w) {
				mirror.Work[last].N++
			} else {
				mirror.Work = append(mirror.Work, run{N: 1, W: w})
			}
		}
		s := &sched.Schedule{Response: a, P: int(n)}
		doc := document{Response: a, Sites: int(n), Phases: []phase{}}
		for i := 0; i < int(shape>>6); i++ {
			ph := &sched.PhaseSchedule{Index: i, Response: b}
			mph := phase{Index: i, Response: b, Placements: []placement{}}
			for j := 0; j < i; j++ { // phase 0 has no placements
				ph.Placements, mph.Placements = append(ph.Placements, pl), append(mph.Placements, mirror)
			}
			s.Phases, doc.Phases = append(s.Phases, ph), append(doc.Phases, mph)
		}

		got, err := mdrs.EncodeScheduleJSON(s)
		if memo, memoErr := s.JSON(); !bytes.Equal(memo, got) || fmt.Sprint(memoErr) != fmt.Sprint(err) {
			t.Fatalf("memoized rendering differs from EncodeScheduleJSON (errors %v, %v)", memoErr, err)
		}
		want, wantErr := json.Marshal(doc)
		if err != nil || wantErr != nil {
			var unsupported *json.UnsupportedValueError
			if wantErr == nil || !errors.As(err, &unsupported) {
				t.Fatalf("error %v, json.Marshal of the mirror %v", err, wantErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding differs from json.Marshal of the run-form mirror:\n got  %s\n want %s", got, want)
		}

		var back document
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if !same(back.Response, a) || back.Sites != int(n) || len(back.Phases) != len(doc.Phases) {
			t.Fatalf("header decodes as %v/%d/%d phases", back.Response, back.Sites, len(back.Phases))
		}
		for i, ph := range back.Phases {
			if ph.Index != i || !same(ph.Response, b) || len(ph.Placements) != i {
				t.Fatalf("phase %d decodes as %+v", i, ph)
			}
			for _, g := range ph.Placements {
				if utf8.ValidString(name) && g.Operator != name {
					t.Fatalf("name %q decodes as %q", name, g.Operator)
				}
				if g.OpID != op.ID || g.Kind != op.Kind.String() || g.Degree != pl.Degree ||
					g.Rooted != pl.Rooted || !same(g.TPar, c) || !slices.Equal(g.Sites, pl.Sites) {
					t.Fatalf("placement decodes as %+v", g)
				}
				k := 0
				for _, r := range g.Work {
					for ; r.N > 0; r.N-- {
						if k >= len(clones) || !sameBits(r.W, clones[k]) {
							t.Fatalf("clone %d decodes as %v", k, r.W)
						}
						k++
					}
				}
				if k != len(clones) {
					t.Fatalf("runs cover %d of %d clones", k, len(clones))
				}
			}
		}
	})
}
