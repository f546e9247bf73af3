// The -opt-bench mode: measure the plan-search arms against each other
// across a join-count sweep and write the numbers as JSON (the
// BENCH_optimizer.json format tracked at the repository root). Four
// arms run over identical re-seeded workloads at every join count:
//
//   - first-plan: the classical two-phase strawman — schedule only the
//     first sampled plan (a Candidates=1 search);
//   - best-of-k-unpruned: materialize the candidate pool and schedule
//     every candidate;
//   - best-of-k-pruned: the PR-8 pool search — bound every candidate,
//     sort, and schedule only candidates whose OPTBOUND beats the
//     running incumbent;
//   - streaming: the bound-interleaved search — candidates are bounded
//     as they are enumerated, held in a bounded best-first frontier,
//     and pruned against an incumbent that tightens after every single
//     TreeSchedule instead of every speculative chunk.
//
// The report records, per join count and arm, wall-clock time and the
// enumerated/pruned/scheduled ledger plus peak candidate residency,
// and two live identity verdicts: the pruned and streaming arms must
// each pick the same winner as the unpruned arm — same candidate
// index, byte-identical schedule — on every query, or the run fails.
// At sampled join counts (5 and up) the streaming arm must also fully
// schedule strictly fewer candidates than the pruned pool, or the run
// fails: that inequality is the point of interleaving.
//
// The report embeds a small deterministic check corpus (the Check
// section) whose streaming ledger the -opt-check mode replays against
// the committed file.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"mdrs"
)

type optBenchReport struct {
	Config     optBenchConfig  `json:"config"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Sweeps     []optBenchSweep `json:"sweeps"`
	// IdentityVerified is true when both the pruned and the streaming
	// arm matched the unpruned arm's winner on every query of every
	// sweep: same candidate index and byte-identical schedule.
	IdentityVerified bool `json:"identity_verified"`
	// StreamingFewer is true when the streaming arm fully scheduled
	// strictly fewer candidates than the pruned pool at every sampled
	// join count (joins >= 5).
	StreamingFewer bool          `json:"streaming_fewer"`
	Check          optBenchCheck `json:"check"`
	Note           string        `json:"note"`
}

type optBenchConfig struct {
	// Joins is the join-count sweep; every count runs all four arms.
	Joins      []int   `json:"joins"`
	Candidates int     `json:"candidates"`
	Sites      int     `json:"sites"`
	Queries    int     `json:"queries"`
	Eps        float64 `json:"eps"`
	F          float64 `json:"f"`
	Seed       int64   `json:"seed"`
}

type optBenchSweep struct {
	Joins int           `json:"joins"`
	Arms  []optBenchArm `json:"arms"`
}

type optBenchArm struct {
	Arm string `json:"arm"`
	// Enumerated/Pruned/Scheduled/WarmHits are totals across all
	// queries of the sweep; Pruned + Scheduled + WarmHits == Enumerated.
	Enumerated int64 `json:"enumerated"`
	Pruned     int64 `json:"pruned"`
	Scheduled  int64 `json:"scheduled"`
	WarmHits   int64 `json:"warm_hits"`
	// PeakResident is the largest number of candidates simultaneously
	// retained by any single query's search (pool size for the pool
	// arms, frontier + priced for streaming).
	PeakResident     int     `json:"peak_resident"`
	MeanBestResponse float64 `json:"mean_best_response"`
	WallSeconds      float64 `json:"wall_seconds"`
}

// optBenchCheck pins the deterministic quick corpus that -opt-check
// replays: per join count, the streaming arm's total scheduled
// candidates. The ledger is workers-invariant and seed-determined, so
// any regression beyond the tolerance is a real behavior change.
type optBenchCheck struct {
	Joins     []int            `json:"joins"`
	Queries   int              `json:"queries"`
	Seed      int64            `json:"seed"`
	Scheduled map[string]int64 `json:"scheduled"`
}

// optBenchQuerySeed decorrelates the workloads across the sweep while
// keeping every arm of one (joins, query) cell on the identical
// catalog and candidate stream.
func optBenchQuerySeed(seed int64, joins, q int) int64 {
	return seed + int64(1000*joins+q)
}

type optArmKind int

const (
	armFirstPlan optArmKind = iota
	armUnpruned
	armPruned
	armStreaming
)

func (k optArmKind) name() string {
	switch k {
	case armFirstPlan:
		return "first-plan"
	case armUnpruned:
		return "best-of-k-unpruned"
	case armPruned:
		return "best-of-k-pruned"
	default:
		return "streaming"
	}
}

// optBenchSearch builds one arm's search. Each arm gets its own fresh
// cost-model memo so the arms' wall clocks are comparable.
func optBenchSearch(cfg optBenchConfig, kind optArmKind) (mdrs.PlanSearch, error) {
	candidates := cfg.Candidates
	if kind == armFirstPlan {
		candidates = 1
	}
	s, err := mdrs.NewPlanSearch(mdrs.Options{
		Sites:   cfg.Sites,
		Epsilon: cfg.Eps,
		F:       cfg.F,
	}, candidates)
	if err != nil {
		return mdrs.PlanSearch{}, err
	}
	switch kind {
	case armFirstPlan:
		// The strawman never enumerates: one sampled plan, scheduled.
		s.ExhaustiveJoins = -1
	case armUnpruned:
		s.NoPrune = true
	case armStreaming:
		s.Streaming = true
	}
	return s, nil
}

// optBenchArmRun runs one arm over every query workload of one join
// count and returns its totals plus the per-query winners for the
// identity checks.
func optBenchArmRun(cfg optBenchConfig, joins, queries int, kind optArmKind) (optBenchArm, []mdrs.PlanCandidate, error) {
	s, err := optBenchSearch(cfg, kind)
	if err != nil {
		return optBenchArm{}, nil, err
	}
	arm := optBenchArm{Arm: kind.name()}
	winners := make([]mdrs.PlanCandidate, 0, queries)
	start := time.Now()
	for q := 0; q < queries; q++ {
		// Re-seeding per query (not per arm) hands every arm the
		// identical relation catalog and candidate stream.
		r := rand.New(rand.NewSource(optBenchQuerySeed(cfg.Seed, joins, q)))
		rels, err := mdrs.RandomRelations(r, joins+1, 1_000, 100_000)
		if err != nil {
			return optBenchArm{}, nil, err
		}
		res, err := s.Best(r, rels)
		if err != nil {
			return optBenchArm{}, nil, err
		}
		arm.Enumerated += res.Enumerated
		arm.Pruned += int64(res.Pruned)
		arm.Scheduled += int64(res.Scheduled)
		arm.WarmHits += int64(res.WarmHits)
		arm.PeakResident = max(arm.PeakResident, res.PeakResident)
		arm.MeanBestResponse += res.Best.Schedule.Response
		winners = append(winners, res.Best)
	}
	arm.WallSeconds = time.Since(start).Seconds()
	if queries > 0 {
		arm.MeanBestResponse /= float64(queries)
	}
	return arm, winners, nil
}

// optBenchIdentity reports whether got picked the unpruned arm's
// winner on every query: same candidate index, byte-identical
// schedule.
func optBenchIdentity(want, got []mdrs.PlanCandidate) (bool, error) {
	if len(want) != len(got) {
		return false, nil
	}
	for q := range want {
		w, err := mdrs.EncodeScheduleJSON(want[q].Schedule)
		if err != nil {
			return false, err
		}
		g, err := mdrs.EncodeScheduleJSON(got[q].Schedule)
		if err != nil {
			return false, err
		}
		if got[q].Index != want[q].Index || !bytes.Equal(g, w) {
			return false, nil
		}
	}
	return true, nil
}

// optBenchSweepRun runs all four arms at one join count.
func optBenchSweepRun(cfg optBenchConfig, joins, queries int) (optBenchSweep, bool, error) {
	sweep := optBenchSweep{Joins: joins}
	first, _, err := optBenchArmRun(cfg, joins, queries, armFirstPlan)
	if err != nil {
		return sweep, false, err
	}
	unpruned, oracle, err := optBenchArmRun(cfg, joins, queries, armUnpruned)
	if err != nil {
		return sweep, false, err
	}
	pruned, prunedWinners, err := optBenchArmRun(cfg, joins, queries, armPruned)
	if err != nil {
		return sweep, false, err
	}
	streaming, streamWinners, err := optBenchArmRun(cfg, joins, queries, armStreaming)
	if err != nil {
		return sweep, false, err
	}
	sweep.Arms = []optBenchArm{first, unpruned, pruned, streaming}

	prunedOK, err := optBenchIdentity(oracle, prunedWinners)
	if err != nil {
		return sweep, false, err
	}
	streamOK, err := optBenchIdentity(oracle, streamWinners)
	if err != nil {
		return sweep, false, err
	}
	return sweep, prunedOK && streamOK, nil
}

// optBenchCheckRun runs the deterministic quick corpus (unpruned
// oracle + streaming arm only) and returns the streaming ledger per
// join count together with its identity verdict.
func optBenchCheckRun(cfg optBenchConfig, check optBenchCheck) (map[string]int64, bool, error) {
	sub := cfg
	sub.Seed = check.Seed
	ledger := make(map[string]int64, len(check.Joins))
	identity := true
	for _, joins := range check.Joins {
		_, oracle, err := optBenchArmRun(sub, joins, check.Queries, armUnpruned)
		if err != nil {
			return nil, false, err
		}
		streaming, winners, err := optBenchArmRun(sub, joins, check.Queries, armStreaming)
		if err != nil {
			return nil, false, err
		}
		ok, err := optBenchIdentity(oracle, winners)
		if err != nil {
			return nil, false, err
		}
		identity = identity && ok
		ledger[fmt.Sprintf("joins=%d", joins)] = streaming.Scheduled
	}
	return ledger, identity, nil
}

// runOptBench measures all arms across the sweep and writes the report
// to path.
func runOptBench(path string, quick bool, seed int64) error {
	cfg := optBenchConfig{
		Joins: []int{3, 5, 8, 9}, Candidates: 8, Sites: 64, Queries: 24,
		Eps: 0.5, F: 0.7, Seed: 7,
	}
	if quick {
		cfg.Joins = []int{3, 5, 9}
		cfg.Queries = 8
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	report := optBenchReport{
		Config: cfg, GoMaxProcs: runtime.GOMAXPROCS(0),
		IdentityVerified: true, StreamingFewer: true,
	}

	for _, joins := range cfg.Joins {
		sweep, identical, err := optBenchSweepRun(cfg, joins, cfg.Queries)
		if err != nil {
			return err
		}
		report.Sweeps = append(report.Sweeps, sweep)
		report.IdentityVerified = report.IdentityVerified && identical
		if joins >= 5 {
			pruned, streaming := sweep.Arms[2], sweep.Arms[3]
			if streaming.Scheduled >= pruned.Scheduled {
				report.StreamingFewer = false
			}
		}
	}

	report.Check = optBenchCheck{Joins: []int{3, 5}, Queries: 6, Seed: cfg.Seed}
	ledger, checkIdentity, err := optBenchCheckRun(cfg, report.Check)
	if err != nil {
		return err
	}
	report.Check.Scheduled = ledger
	report.IdentityVerified = report.IdentityVerified && checkIdentity

	report.Note = fmt.Sprintf("four arms share re-seeded workloads (%d queries per join count, joins %v); "+
		"winners of the pruned and streaming arms matched the unpruned oracle byte-for-byte on every "+
		"query: %v; streaming scheduled strictly fewer candidates than the pruned pool at every "+
		"sampled join count: %v",
		cfg.Queries, cfg.Joins, report.IdentityVerified, report.StreamingFewer)

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !report.IdentityVerified {
		return fmt.Errorf("a pruning arm's winner diverged from the unpruned oracle (see %s)", path)
	}
	if !report.StreamingFewer {
		return fmt.Errorf("streaming scheduled no fewer candidates than the pruned pool (see %s)", path)
	}
	return nil
}

// runOptCheck replays the committed report's check corpus and fails if
// the committed run's identity verdict was false, the live replay's
// identity verdict is false, or the live streaming ledger regressed
// more than 10%% over the committed one at any join count.
func runOptCheck(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed optBenchReport
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if !committed.IdentityVerified {
		return fmt.Errorf("%s: committed identity verdict is false", path)
	}
	if len(committed.Check.Joins) == 0 || committed.Check.Queries <= 0 {
		return fmt.Errorf("%s: no check corpus recorded (regenerate with -opt-bench)", path)
	}
	live, identity, err := optBenchCheckRun(committed.Config, committed.Check)
	if err != nil {
		return err
	}
	if !identity {
		return fmt.Errorf("live streaming winner diverged from the unpruned oracle on the check corpus")
	}
	for key, want := range committed.Check.Scheduled {
		got, ok := live[key]
		if !ok {
			return fmt.Errorf("check corpus missing ledger for %s", key)
		}
		if float64(got) > 1.1*float64(want) {
			return fmt.Errorf("streaming ledger regressed at %s: scheduled %d live vs %d committed (>10%%)",
				key, got, want)
		}
		fmt.Printf("mdrs-bench: opt-check %s: scheduled %d live vs %d committed ok\n", key, got, want)
	}
	fmt.Println("mdrs-bench: opt-check: identity verified, ledger within tolerance")
	return nil
}
