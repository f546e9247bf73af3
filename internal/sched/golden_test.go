package sched

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// The golden corpus pins OperatorSchedule's exact output — every site
// assignment and the Response float, bit for bit — across a spread of
// random instances. It exists so that performance work on the placement
// loop (cached site loads, the ordered site index) can be proven
// behavior-preserving: regenerating the file on an implementation that
// places even one clone differently fails this test.
//
// Regenerate intentionally with:
//
//	go test ./internal/sched -run TestOperatorScheduleGolden -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_schedules.json from the current implementation")

const goldenPath = "testdata/golden_schedules.json"

// goldenCase is one recorded schedule. Site maps use string keys because
// JSON objects require them.
type goldenCase struct {
	Seed     int64            `json:"seed"`
	P        int              `json:"p"`
	D        int              `json:"d"`
	Eps      float64          `json:"eps"`
	Sorted   bool             `json:"sorted"`
	Sites    map[string][]int `json:"sites"`
	Response float64          `json:"response"`
}

// goldenOps deterministically rebuilds the operator set for one corpus
// seed: random degrees and work vectors, every third operator rooted on
// odd seeds (mirroring the quick-check test generators).
func goldenOps(seed int64) (p, d int, eps float64, ops []*Op) {
	r := rand.New(rand.NewSource(seed))
	p = 1 + r.Intn(12)
	d = 1 + r.Intn(4)
	m := 1 + r.Intn(10)
	eps = r.Float64()
	ops = randomOps(r, m, p, d)
	if seed%2 == 1 {
		for i, op := range ops {
			if i%3 != 0 {
				continue
			}
			perm := r.Perm(p)
			op.Home = append([]int(nil), perm[:op.Degree()]...)
		}
	}
	return p, d, eps, ops
}

// computeGolden runs the current implementation over the whole corpus:
// 60 small mixed instances plus two production-sized ones (P = 100 and
// P = 150), each in sorted and arrival order.
func computeGolden(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	run := func(seed int64, p, d int, eps float64, ops []*Op, sorted bool) {
		var (
			res *Result
			err error
		)
		if sorted {
			res, err = OperatorSchedule(p, d, resource.MustOverlap(eps), ops)
		} else {
			res, err = OperatorScheduleUnordered(p, d, resource.MustOverlap(eps), ops)
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sites := make(map[string][]int, len(res.Sites))
		for id, s := range res.Sites {
			sites[strconv.Itoa(id)] = s
		}
		cases = append(cases, goldenCase{
			Seed: seed, P: p, D: d, Eps: eps, Sorted: sorted,
			Sites: sites, Response: res.Response,
		})
	}
	for seed := int64(0); seed < 60; seed++ {
		p, d, eps, ops := goldenOps(seed)
		run(seed, p, d, eps, ops, true)
		run(seed, p, d, eps, ops, false)
	}
	for _, big := range []struct {
		seed int64
		p, m int
	}{{1000, 100, 200}, {1001, 150, 400}} {
		r := rand.New(rand.NewSource(big.seed))
		ops := make([]*Op, big.m)
		for i := range ops {
			n := 1 + r.Intn(8)
			clones := make([]vector.Vector, n)
			for k := range clones {
				clones[k] = vector.Of(r.Float64()*10, r.Float64()*10, r.Float64()*10)
			}
			ops[i] = &Op{ID: i, Work: runsOf(clones)}
		}
		run(big.seed, big.p, 3, 0.5, ops, true)
	}
	return cases
}

func TestOperatorScheduleGolden(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases", goldenPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden corpus (run with -update-golden to create): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus size changed: %d cases, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Response != want[i].Response {
			t.Errorf("case %d (seed %d, sorted %v): response %v != golden %v",
				i, want[i].Seed, want[i].Sorted, got[i].Response, want[i].Response)
		}
		if !reflect.DeepEqual(got[i].Sites, want[i].Sites) {
			t.Errorf("case %d (seed %d, sorted %v): site maps diverge\n got %v\nwant %v",
				i, want[i].Seed, want[i].Sorted, got[i].Sites, want[i].Sites)
		}
	}
}
