package optimizer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

// streamCorpus extends the identity corpus with joins = 9 (10
// relations — past the oracle's materializing enumeration ceiling,
// sampled) and with the 24-query sweeps at P = 64 whose ledger totals
// DESIGN.md §14 and EXPERIMENTS.md A11 quote: 3 joins systematic, 5, 8
// and 9 joins sampled.
func streamCorpus() []corpusCase {
	cs := corpus()
	for _, p := range []int{10, 100} {
		cs = append(cs, corpusCase{joins: 9, p: p, seed: int64(1000*9 + p)})
	}
	for _, joins := range []int{3, 5, 8, 9} {
		cs = append(cs, corpusCase{joins: joins, p: 64, seed: int64(1000*joins + 7), queries: 24})
	}
	return cs
}

const ledgerHeader = "# K = 8, eps = 0.5, f = 0.7; counts are summed over a case's queries, peak_resident is their maximum"

// ledgerLine renders one arm's plan-search ledger over a corpus case.
func ledgerLine(c corpusCase, arm string, results []*Result) string {
	var enumerated, subtree int64
	var pruned, scheduled, peak int
	winners := make([]string, len(results))
	for q, res := range results {
		enumerated += res.Enumerated
		subtree += res.SubtreePruned
		pruned += res.Pruned
		scheduled += res.Scheduled
		peak = max(peak, res.PeakResident)
		winners[q] = strconv.Itoa(res.Best.Index)
	}
	return fmt.Sprintf("joins=%d P=%d queries=%d %s enumerated=%d pruned=%d scheduled=%d subtree_pruned=%d peak_resident=%d winners=%s",
		c.joins, c.p, len(results), arm, enumerated, pruned, scheduled, subtree, peak, strings.Join(winners, ","))
}

// checkLedger holds a ledger to testdata/ledger.golden exactly, naming
// the case, arm and first differing column of every line that differs.
// A change that means to move the ledger replaces the file with the
// lines this prints.
func checkLedger(t *testing.T, got []string) {
	t.Helper()
	got = append([]string{ledgerHeader}, got...)
	data, err := os.ReadFile("testdata/ledger.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	failed := len(got) != len(want)
	if failed {
		t.Errorf("ledger has %d lines, testdata/ledger.golden %d", len(got), len(want))
	}
	for i := 0; i < min(len(got), len(want)); i++ {
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		if len(g) != len(w) {
			t.Errorf("line %d: %q, golden %q", i+1, got[i], want[i])
			failed = true
			continue
		}
		for j := range g {
			if g[j] != w[j] {
				t.Errorf("%s: %s, golden %s", strings.Join(g[:4], " "), g[j], w[j])
				failed = true
				break
			}
		}
	}
	if failed {
		t.Logf("ledger:\n%s", strings.Join(got, "\n"))
	}
}

// The search contract: the search returns the identical winning plan,
// with a byte-identical schedule, as the NoPrune oracle that fully
// schedules every candidate — for every corpus entry — never schedules
// more than the oracle, and prunes somewhere in the corpus (the whole
// point). Its ledger is pinned exactly by testdata/ledger.golden.
func TestStreamingSearchIdentityAcrossCorpus(t *testing.T) {
	totalPruned := 0
	var ledger []string
	for _, c := range streamCorpus() {
		oracle := c.search(8)
		oracle.NoPrune = true
		wants := c.run(t, oracle)
		gots := c.run(t, c.search(8))
		ledger = append(ledger, ledgerLine(c, "streaming", gots))

		for q, got := range gots {
			want := wants[q]
			if want.Pruned != 0 || want.Scheduled != len(want.Candidates) || int64(want.Scheduled) != want.Enumerated {
				t.Fatalf("joins=%d P=%d q=%d: unpruned oracle pruned %d, scheduled %d of %d",
					c.joins, c.p, q, want.Pruned, want.Scheduled, want.Enumerated)
			}
			if got.Best.Index != want.Best.Index {
				t.Fatalf("joins=%d P=%d q=%d: search winner %d, oracle winner %d",
					c.joins, c.p, q, got.Best.Index, want.Best.Index)
			}
			if !bytes.Equal(encodeSchedule(t, got.Best.Schedule), encodeSchedule(t, want.Best.Schedule)) {
				t.Fatalf("joins=%d P=%d q=%d: search winner schedule differs from oracle",
					c.joins, c.p, q)
			}
			if int64(got.Pruned)+int64(got.Scheduled)+int64(got.WarmHits) != got.Enumerated {
				t.Fatalf("joins=%d P=%d q=%d: ledger %d+%d+%d != enumerated %d",
					c.joins, c.p, q, got.Pruned, got.Scheduled, got.WarmHits, got.Enumerated)
			}
			if got.Scheduled > want.Scheduled {
				t.Fatalf("joins=%d P=%d q=%d: search scheduled %d > oracle %d",
					c.joins, c.p, q, got.Scheduled, want.Scheduled)
			}
			totalPruned += got.Pruned
			// Every priced candidate's achieved response respects its
			// recorded lower bound (tolerance: composed-bound summation
			// order may differ in the last ulps).
			for _, cand := range got.Candidates {
				if cand.Schedule == nil {
					t.Fatalf("joins=%d P=%d q=%d: retained candidate %d has no schedule", c.joins, c.p, q, cand.Index)
				}
				if cand.Schedule.Response < cand.Bound*(1-1e-9) {
					t.Fatalf("joins=%d P=%d q=%d: candidate %d response %.15g below bound %.15g",
						c.joins, c.p, q, cand.Index, cand.Schedule.Response, cand.Bound)
				}
			}
		}
	}
	if totalPruned == 0 {
		t.Error("bound pruning never fired across the corpus")
	}
	checkLedger(t, ledger)
}

// Search.Streaming is an ignored field: either value gives the same
// ledger line and the same winner bytes on every corpus case.
func TestStreamingFieldIgnored(t *testing.T) {
	for _, c := range streamCorpus() {
		var lines [2]string
		var winners [2][][]byte
		for i, streaming := range []bool{false, true} {
			s := c.search(8)
			s.Streaming = streaming
			results := c.run(t, s)
			lines[i] = ledgerLine(c, "streaming", results)
			for _, res := range results {
				winners[i] = append(winners[i], encodeSchedule(t, res.Best.Schedule))
			}
		}
		if lines[0] != lines[1] {
			t.Fatalf("Streaming=false: %s\nStreaming=true:  %s", lines[0], lines[1])
		}
		for q := range winners[0] {
			if !bytes.Equal(winners[0][q], winners[1][q]) {
				t.Fatalf("joins=%d P=%d q=%d: winner schedule depends on Streaming", c.joins, c.p, q)
			}
		}
	}
}

// Systematic streaming past the default threshold: 4 joins = 1680
// candidates, streamed through the subset DP with a bounded frontier.
// The winner must match the NoPrune oracle byte for byte, and
// peak residency must be the frontier cap, not the candidate count.
func TestStreamingSystematicFourJoins(t *testing.T) {
	c := corpusCase{joins: 4, p: 16, seed: 4016}
	rels := c.relations(t)

	oracle := c.search(8)
	oracle.NoPrune = true
	oracle.ExhaustiveJoins = 4
	want, err := oracle.Best(rand.New(rand.NewSource(1)), rels)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Systematic || len(want.Candidates) != 1680 {
		t.Fatalf("oracle: systematic=%v candidates=%d, want 1680 systematic", want.Systematic, len(want.Candidates))
	}

	s := c.search(8)
	s.ExhaustiveJoins = 4
	got, err := s.Best(rand.New(rand.NewSource(1)), rels)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Systematic || got.Enumerated != 1680 {
		t.Fatalf("streaming: systematic=%v enumerated=%d, want 1680 systematic", got.Systematic, got.Enumerated)
	}
	if got.Best.Index != want.Best.Index {
		t.Fatalf("streaming winner %d, oracle winner %d", got.Best.Index, want.Best.Index)
	}
	if !bytes.Equal(encodeSchedule(t, got.Best.Schedule), encodeSchedule(t, want.Best.Schedule)) {
		t.Fatal("streaming winner schedule differs from oracle")
	}
	if got.PeakResident > streamFrontierCap+1 {
		t.Fatalf("peak residency %d exceeds the frontier cap %d", got.PeakResident, streamFrontierCap)
	}
	if got.Scheduled+got.WarmHits >= 1680 {
		t.Fatalf("streaming scheduled %d of 1680: no pruning happened", got.Scheduled)
	}
	if int64(got.Pruned)+int64(got.Scheduled) != got.Enumerated {
		t.Fatalf("ledger %d+%d != %d", got.Pruned, got.Scheduled, got.Enumerated)
	}
	if len(got.Candidates) == 0 || got.Candidates[0].Index != 0 {
		t.Fatal("streaming result lost the two-phase strawman (candidate 0)")
	}
}

// A Warm hook honoring the fingerprint exactness contract must not
// change the winner — only convert TreeSchedule invocations into warm
// hits.
func TestStreamingWarmHookExactness(t *testing.T) {
	for _, joins := range []int{3, 8} {
		c := corpusCase{joins: joins, p: 16, seed: int64(7000 + joins)}
		rels := c.relations(t)

		cold := c.search(8)
		first, err := cold.Best(rand.New(rand.NewSource(3)), rels)
		if err != nil {
			t.Fatal(err)
		}

		// Warm store keyed by the scheduler fingerprint, filled from the
		// cold run's priced candidates — exactly the serve cache's
		// contract (equal fingerprint ⇒ byte-identical schedule).
		ts := sched.TreeScheduler{
			Model: cold.Model, Overlap: cold.Overlap, P: cold.P, F: cold.F,
		}
		store := make(map[sched.Fingerprint]*sched.Schedule)
		for _, cand := range first.Candidates {
			tt, err := plan.NewTaskTree(plan.MustExpand(cand.Plan))
			if err != nil {
				t.Fatal(err)
			}
			store[ts.Fingerprint(tt)] = cand.Schedule
		}

		warm := c.search(8)
		warm.Warm = func(tt *plan.TaskTree) (*sched.Schedule, bool) {
			s, ok := store[ts.Fingerprint(tt)]
			return s, ok
		}
		second, err := warm.Best(rand.New(rand.NewSource(3)), rels)
		if err != nil {
			t.Fatal(err)
		}
		if second.WarmHits == 0 {
			t.Fatalf("joins=%d: warm run hit the store 0 times", joins)
		}
		if second.Best.Index != first.Best.Index {
			t.Fatalf("joins=%d: warm winner %d, cold winner %d", joins, second.Best.Index, first.Best.Index)
		}
		if !bytes.Equal(encodeSchedule(t, second.Best.Schedule), encodeSchedule(t, first.Best.Schedule)) {
			t.Fatalf("joins=%d: warm winner schedule differs from cold", joins)
		}
		if second.Scheduled >= first.Scheduled && second.WarmHits > 0 && first.Scheduled > 0 {
			// Every candidate the cold run priced is in the store, so the
			// warm run must schedule strictly less (it still prunes at
			// least as hard).
			t.Fatalf("joins=%d: warm run scheduled %d, cold %d — warm start saved nothing",
				joins, second.Scheduled, first.Scheduled)
		}
	}
}

// The enumeration error path: ErrEnumerate wraps the query layer's
// validation errors on both candidate paths, in the search and in the
// NoPrune oracle, whose materializing enumeration stops at
// query.MaxEnumerateRelations.
func TestBestErrEnumerate(t *testing.T) {
	valid := func(n int) []*query.Relation {
		rels := make([]*query.Relation, n)
		for i := range rels {
			rels[i] = &query.Relation{Name: "R", Tuples: 1000 + i}
		}
		return rels
	}
	badRel := []*query.Relation{{Name: "A", Tuples: 1000}, {Name: "B", Tuples: 0}, {Name: "C", Tuples: 3000}}
	search := func(exhaustiveJoins int, noPrune bool) Search {
		s := testSearch(8, 4)
		s.ExhaustiveJoins = exhaustiveJoins
		s.NoPrune = noPrune
		return s
	}

	cases := []struct {
		name string
		s    Search
		rels []*query.Relation
	}{
		// ExhaustiveJoins = 8 is a legal config, but the oracle's
		// materializing enumeration tops out at 8 relations: 9 relations
		// is a runtime enumeration failure.
		{"oracle systematic beyond MaxEnumerateRelations", search(8, true), valid(query.MaxEnumerateRelations + 1)},
		{"oracle systematic invalid relation", search(0, true), badRel},
		{"oracle sampled invalid relation", search(-1, true), badRel},
		{"systematic invalid relation", search(0, false), badRel},
		{"sampled invalid relation", search(-1, false), badRel},
	}
	for _, tc := range cases {
		_, err := tc.s.Best(rand.New(rand.NewSource(1)), tc.rels)
		if !errors.Is(err, ErrEnumerate) {
			t.Errorf("%s: err = %v, want ErrEnumerate", tc.name, err)
		}
	}
}

// A pre-cancelled context fails fast on both candidate paths.
func TestStreamingPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, joins := range []int{3, 8} {
		c := corpusCase{joins: joins, p: 8, seed: int64(8800 + joins)}
		s := c.search(8)
		_, err := s.BestCtx(ctx, rand.New(rand.NewSource(1)), c.relations(t))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("joins=%d: err = %v, want context.Canceled", joins, err)
		}
	}
}

// Searches share a cache across calls: a shared memo changes nothing
// but speed.
func TestStreamingSharedCacheIdentity(t *testing.T) {
	c := corpusCase{joins: 3, p: 16, seed: 3316}
	rels := c.relations(t)
	cache := costmodel.NewCache(costmodel.Default())

	private := c.search(8)
	want, err := private.Best(rand.New(rand.NewSource(5)), rels)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		shared := c.search(8)
		shared.Cache = cache
		got, err := shared.Best(rand.New(rand.NewSource(5)), rels)
		if err != nil {
			t.Fatal(err)
		}
		if got.Best.Index != want.Best.Index || got.Scheduled != want.Scheduled {
			t.Fatalf("trial %d: shared-cache result (win %d, sched %d) != private (win %d, sched %d)",
				trial, got.Best.Index, got.Scheduled, want.Best.Index, want.Scheduled)
		}
		if !bytes.Equal(encodeSchedule(t, got.Best.Schedule), encodeSchedule(t, want.Best.Schedule)) {
			t.Fatalf("trial %d: shared-cache schedule differs", trial)
		}
	}
}

// BenchmarkSearchCold is the search layer's share of the harness's
// optimize workload: streaming searches over catalogs of 4 to 8
// relations at P = 64, each catalog seen once per 512, one cost-model
// memo shared by all of them.
func BenchmarkSearchCold(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	cats := make([][]*query.Relation, 512)
	for i := range cats {
		rels, err := RandomRelations(r, 4+i%5, 1_000, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		cats[i] = rels
	}
	s := testSearch(64, 0)
	s.Cache = costmodel.NewCache(s.Model)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(cats)
		if _, err := s.Best(rand.New(rand.NewSource(int64(k))), cats[k]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSearchAllocs gates what one streaming search allocates once the
// scheduler's pooled scratch and the cost-model memo are warm: the
// candidate plans, their task trees and one O(phases) schedule per
// surviving candidate. The ceiling is about 1.3 times the count at the
// time of writing (890; 1,088 while operator names went through
// fmt.Sprintf and TaskTree.Validate built three maps); before the
// candidates' schedules shared one site system it was 7,219.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratches under the race detector")
	}
	rels, err := RandomRelations(rand.New(rand.NewSource(1)), 6, 1_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	s := testSearch(64, 0)
	s.Cache = costmodel.NewCache(s.Model)
	run := func() {
		if _, err := s.Best(rand.New(rand.NewSource(1)), rels); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("warm allocs/search = %.0f", allocs)
	if allocs > 1150 {
		t.Fatalf("warm search allocates %.0f times, want <= 1150", allocs)
	}
}
