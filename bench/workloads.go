package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mdrs/internal/costmodel"
	"mdrs/internal/engine"
	"mdrs/internal/obs"
	"mdrs/internal/opt"
	"mdrs/internal/optimizer"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/serve"
)

// The system parameters every workload shares: the paper's Table 2 cost
// model and the overlap and granularity mdrs-serve defaults to. Services,
// schedulers and engines otherwise run on their zero-value defaults; the
// benchmark measures what a user gets and tunes nothing.
var (
	model   = costmodel.Default()
	overlap = resource.MustOverlap(0.5)
)

const (
	granularity = 0.7
	// cacheSize is the schedule cache every service gets. schedule_miss
	// and optimize cycle through working sets many times larger, http_hit
	// through one a quarter of its size.
	cacheSize = 256
)

// newScheduler returns a scheduler for p sites with a cost-model memo of
// its own, the way mdrs-serve -cache configures it.
func newScheduler(p int) sched.TreeScheduler {
	return sched.TreeScheduler{Model: model, Overlap: overlap, P: p, F: granularity, Cache: costmodel.NewCache(model)}
}

// workload is one closed-loop traffic mix. setup generates every input
// from the seed and starts the system under test; op is one operation of
// one client, checked before it returns; verify checks a fixed sample of
// outputs against an independent computation, off the clock.
type workload interface {
	clients() int
	setup(ctx context.Context, seed int64) error
	close()
	// op returns the operation's latency and whether it succeeded and
	// its output was correct. tr is nil except in the traced pass.
	op(c *client, tr *tracer) (time.Duration, bool)
	// adjust corrects a reading of the harness's own usage to that of the
	// system under test.
	adjust(u *usage) error
	// verify returns the workload's quality_ratio — mean schedule
	// response ÷ OPTBOUND over a fixed sample of its inputs, the paper's
	// yardstick — the size of the sample, and how many of the sampled
	// outputs were wrong. thin > 1 keeps every thin-th member of the
	// sample, for the smoke test.
	verify(thin int) (quality float64, checked, wrong int, err error)
	// read takes the cumulative counters the traced pass is bracketed by.
	read() (reading, error)
	probeInputs() probeInputs
	// digest hashes the generated inputs.
	digest() []byte
}

// reading is a workload's cumulative counters at one moment: the serving
// layer's, the cost-model memo's, and the garbage collector's in the
// process that runs the system under test.
type reading struct {
	serve                map[string]int64
	memoHits, memoMisses int64
	gcCycles             uint32
	gcPause              time.Duration
}

// inProcess is the part shared by the workloads that call a
// serve.Service directly.
type inProcess struct {
	ctx context.Context
	ts  sched.TreeScheduler
	met *obs.Metrics
	svc *serve.Service
}

func (b *inProcess) start(ctx context.Context, p int, withOptimizer bool) error {
	b.ctx = ctx
	b.ts = newScheduler(p)
	b.met = obs.NewMetrics()
	cfg := serve.Config{Scheduler: b.ts, CacheSize: cacheSize, Rec: b.met}
	if withOptimizer {
		cfg.Optimizer = &serve.OptimizerConfig{}
	}
	var err error
	b.svc, err = serve.New(cfg)
	return err
}

func (b *inProcess) close() {
	if b.svc != nil {
		// Close only reports that the service was already closed.
		_ = b.svc.Close()
		b.svc = nil
	}
}

func (b *inProcess) adjust(*usage) error { return nil }

func (b *inProcess) read() (reading, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	hits, misses := b.ts.Cache.Stats()
	return reading{serve: b.met.Snapshot().Counters, memoHits: hits, memoMisses: misses,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs)}, nil
}

// memoMisses reads the cost-model memo's miss counter. The traced pass
// has one client, so a rise across a call means that call found the memo
// cold for its operators and paid for their cost-model work.
func (b *inProcess) memoMisses() int64 {
	_, misses := b.ts.Cache.Stats()
	return misses
}

// replayMemo is the memo a replay runs on. The real call has just warmed
// the shared one; where it started cold (misses rose past before), so
// must the replay, or the cost-model work the call paid for is booked as
// the serving layer's self time.
func (b *inProcess) replayMemo(before int64) *costmodel.Cache {
	if b.memoMisses() > before {
		return costmodel.NewCache(model)
	}
	return b.ts.Cache
}

// search is the plan search Service.Optimize runs, called directly on
// the given memo: the replay of an Optimize.
func (b *inProcess) search(memo *costmodel.Cache) optimizer.Search {
	return optimizer.Search{Model: model, Overlap: overlap, P: b.ts.P, F: granularity, Cache: memo, Streaming: true}
}

// template is one generated join plan and its task tree.
type template struct {
	plan *query.PlanNode
	tree *plan.TaskTree
}

// prepare expands a plan into its task tree, as mdrs.PrepareQuery does.
func prepare(p *query.PlanNode) (*plan.TaskTree, error) {
	ot, err := plan.Expand(p)
	if err != nil {
		return nil, err
	}
	return plan.NewTaskTree(ot)
}

// genTemplates draws n plans of 10 to 30 joins over relations of the
// paper's 10^3 to 10^5 tuples. The join counts cycle instead of being
// drawn, so that every seed gets the same mix of plan sizes — which is
// what an operation's cost depends on most — and varies only the shapes
// and cardinalities.
func genTemplates(r *rand.Rand, n int) ([]template, error) {
	out := make([]template, n)
	for i := range out {
		p, err := query.Random(r, query.DefaultGenConfig(10+i%21))
		if err != nil {
			return nil, err
		}
		tt, err := prepare(p)
		if err != nil {
			return nil, err
		}
		out[i] = template{plan: p, tree: tt}
	}
	return out, nil
}

func plansOf(tpl []template) []*query.PlanNode {
	out := make([]*query.PlanNode, len(tpl))
	for i, t := range tpl {
		out[i] = t.plan
	}
	return out
}

// digestTemplates hashes the generated plans.
func digestTemplates(tpl []template) []byte {
	h := sha256.New()
	for _, t := range tpl {
		// Encode only fails on a plan that does not validate, and every
		// plan here came out of the generator.
		data, _ := t.plan.Encode()
		h.Write(data)
	}
	return h.Sum(nil)
}

// genCatalogs draws n catalogs of lo to hi relations; the relation
// counts cycle, for the reason genTemplates gives.
func genCatalogs(r *rand.Rand, n, lo, hi, minTuples, maxTuples int) ([][]*query.Relation, error) {
	out := make([][]*query.Relation, n)
	for i := range out {
		var err error
		if out[i], err = optimizer.RandomRelations(r, lo+i%(hi-lo+1), minTuples, maxTuples); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// digestCatalogs hashes the generated catalogs.
func digestCatalogs(cats [][]*query.Relation) []byte {
	h := sha256.New()
	for _, rels := range cats {
		for _, rel := range rels {
			fmt.Fprintf(h, "%s %d\n", rel.Name, rel.Tuples)
		}
	}
	return h.Sum(nil)
}

// checkedSchedule verifies one delivered schedule against an
// independent computation: it must satisfy the paper's structural
// invariants and be byte-identical to what a scheduler with no memo and
// no service around it produces for the same tree. It returns the
// schedule's response ÷ OPTBOUND.
func checkedSchedule(got *sched.Schedule, gotJSON []byte, tree *plan.TaskTree, p int) (ratio float64, ok bool, err error) {
	want, err := sched.TreeScheduler{Model: model, Overlap: overlap, P: p, F: granularity}.Schedule(tree)
	if err != nil {
		return 0, false, err
	}
	wantJSON, err := sched.EncodeJSON(want)
	if err != nil {
		return 0, false, err
	}
	bound, err := opt.Bound(tree, model, overlap, p, granularity)
	if err != nil {
		return 0, false, err
	}
	if got == nil {
		// Only the encoding crossed the socket; it is checked to be want's.
		got = want
	}
	ok = bytes.Equal(gotJSON, wantJSON) && bound <= want.Response*(1+1e-12) && sched.Verify(got, overlap) == nil
	return want.Response / bound, ok, nil
}

// checkedSearch verifies one delivered search result: the ledger adds
// up, the bound is below the response, and the winner's schedule is
// byte-identical to that of the unpruned pool search run on the same
// catalog with the same seed. It returns the winner's response ÷
// OPTBOUND.
func checkedSearch(res *optimizer.Result, rels []*query.Relation, seed int64, p int) (ratio float64, ok bool, err error) {
	if !searchOK(res) {
		return 0, false, nil
	}
	oracle, err := optimizer.Search{Model: model, Overlap: overlap, P: p, F: granularity, NoPrune: true}.Best(rand.New(rand.NewSource(seed)), rels)
	if err != nil {
		return 0, false, err
	}
	got, err := sched.EncodeJSON(res.Best.Schedule)
	if err != nil {
		return 0, false, err
	}
	want, err := sched.EncodeJSON(oracle.Best.Schedule)
	if err != nil {
		return 0, false, err
	}
	return res.Best.Schedule.Response / res.Best.Bound, bytes.Equal(got, want), nil
}

// searchOK is the on-the-clock check of a search result.
func searchOK(res *optimizer.Result) bool {
	return res.Best.Schedule != nil &&
		int64(res.Pruned+res.Scheduled+res.WarmHits) == res.Enumerated &&
		res.Best.Bound <= res.Best.Schedule.Response*(1+1e-12)
}

// tally accumulates the sample a verify draws.
type tally struct {
	ratios []float64
	wrong  int
}

func (t *tally) add(ratio float64, ok bool) {
	t.ratios = append(t.ratios, ratio)
	if !ok {
		t.wrong++
	}
}

func (t *tally) result() (quality float64, checked, wrong int, err error) {
	return mean(t.ratios), len(t.ratios), t.wrong, nil
}

// scheduleMiss: every request is for a task tree the schedule cache no
// longer holds.
type scheduleMiss struct {
	inProcess
	tpl  []template
	next atomic.Int64
}

const (
	missTemplates = 2048
	missSites     = 128
	// missSampled templates are checked off the clock. Their mean response
	// ÷ OPTBOUND is quality_ratio; over 64 it spread by 2.3 % across seeds.
	missSampled = 256
)

func (w *scheduleMiss) clients() int { return runtime.GOMAXPROCS(0) }

func (w *scheduleMiss) setup(ctx context.Context, seed int64) error {
	var err error
	if w.tpl, err = genTemplates(rand.New(rand.NewSource(seed)), missTemplates); err != nil {
		return err
	}
	w.next.Store(0)
	return w.start(ctx, missSites, false)
}

func (w *scheduleMiss) op(c *client, tr *tracer) (time.Duration, bool) {
	// Templates are handed out in order across all clients, so one recurs
	// only after the other 2047 — eight times the cache — have passed.
	tree := w.tpl[int((w.next.Add(1)-1)%missTemplates)].tree
	misses := w.memoMisses()
	root := tr.begin("op", 0)
	t0 := time.Now()
	call := tr.begin("serve.Schedule", root)
	res, err := w.svc.Schedule(w.ctx, tree)
	tr.end(call)
	ok := err == nil && !res.Cached && res.Schedule != nil
	lat := time.Since(t0)
	tr.end(root)
	if tr != nil {
		ts := w.ts
		ts.Cache = w.replayMemo(misses)
		tr.replay("sched.Fingerprint", call, func() { ts.Fingerprint(tree) })
		// A failing replay would have failed the operation above already.
		tr.replay("sched.Schedule", call, func() { _, _ = ts.Schedule(tree) })
	}
	return lat, ok
}

func (w *scheduleMiss) verify(thin int) (float64, int, int, error) {
	var sample tally
	for i := 0; i < missTemplates; i += thin * missTemplates / missSampled {
		res, err := w.svc.Schedule(w.ctx, w.tpl[i].tree)
		if err != nil {
			return 0, 0, 0, err
		}
		got, err := sched.EncodeJSON(res.Schedule)
		if err != nil {
			return 0, 0, 0, err
		}
		ratio, ok, err := checkedSchedule(res.Schedule, got, w.tpl[i].tree, missSites)
		if err != nil {
			return 0, 0, 0, err
		}
		sample.add(ratio, ok)
	}
	return sample.result()
}

func (w *scheduleMiss) probeInputs() probeInputs {
	return probeInputs{sites: missSites, plans: plansOf(w.tpl[:probeSample])}
}

func (w *scheduleMiss) digest() []byte { return digestTemplates(w.tpl) }

// httpHit: every request reaches a spawned mdrs-serve over its socket
// and is answered from the schedule cache.
type httpHit struct {
	ctx    context.Context
	bin    string
	srv    *server
	tpl    []template
	bodies [][]byte
	first  [][]byte // each template's first response
	// twin is an in-process service configured like the child and warmed
	// with the same templates: what the traced pass replays the child's
	// layer calls on.
	twin inProcess
}

const (
	hitTemplates = 64
	hitSites     = 32
)

func (w *httpHit) clients() int { return runtime.GOMAXPROCS(0) }

func (w *httpHit) setup(ctx context.Context, seed int64) error {
	w.ctx = ctx
	var err error
	if w.tpl, err = genTemplates(rand.New(rand.NewSource(seed)), hitTemplates); err != nil {
		return err
	}
	if w.srv, err = startServer(ctx, w.bin, hitSites, cacheSize); err != nil {
		return err
	}
	if err := w.twin.start(ctx, hitSites, false); err != nil {
		return err
	}
	w.bodies = make([][]byte, len(w.tpl))
	w.first = make([][]byte, len(w.tpl))
	var buf bytes.Buffer
	for i, t := range w.tpl {
		if w.bodies[i], err = t.plan.Encode(); err != nil {
			return err
		}
		// The first request of each template fills the child's cache.
		if _, err := w.srv.post(ctx, w.bodies[i], &buf); err != nil {
			return err
		}
		w.first[i] = append([]byte(nil), buf.Bytes()...)
		if _, err := w.twin.svc.Schedule(ctx, t.tree); err != nil {
			return err
		}
	}
	return nil
}

func (w *httpHit) close() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
	w.twin.close()
}

func (w *httpHit) op(c *client, tr *tracer) (time.Duration, bool) {
	i := c.rng.Intn(len(w.bodies))
	root := tr.begin("op", 0)
	t0 := time.Now()
	call := tr.begin("http.POST", root)
	cached, err := w.srv.post(w.ctx, w.bodies[i], &c.buf)
	tr.end(call)
	ok := err == nil && cached && bytes.Equal(c.buf.Bytes(), w.first[i])
	lat := time.Since(t0)
	tr.end(root)
	if tr != nil && ok {
		var (
			p   *query.PlanNode
			tt  *plan.TaskTree
			res *serve.Result
		)
		// The replays repeat on the same body what the child's handler
		// does; none can fail where the request itself succeeded.
		tr.replay("query.Decode", call, func() { p, _ = query.Decode(w.bodies[i]) })
		tr.replay("plan.prepare", call, func() { tt, _ = prepare(p) })
		tr.replay("serve.Schedule", call, func() { res, _ = w.twin.svc.Schedule(w.ctx, tt) })
		tr.replay("sched.EncodeJSON", call, func() { _, _ = sched.EncodeJSON(res.Schedule) })
	}
	return lat, ok
}

// adjust adds the child's CPU to the harness's (the two share the
// host's cores) and reports the child's allocations instead of the
// load generator's.
func (w *httpHit) adjust(u *usage) error {
	su, _, err := w.srv.usage(w.ctx)
	if err != nil {
		return err
	}
	u.cpu += su.cpu
	u.mallocs, u.bytes = su.mallocs, su.bytes
	return nil
}

func (w *httpHit) verify(thin int) (float64, int, int, error) {
	var sample tally
	for i := 0; i < len(w.tpl); i += thin {
		t := w.tpl[i]
		ratio, ok, err := checkedSchedule(nil, w.first[i], t.tree, hitSites)
		if err != nil {
			return 0, 0, 0, err
		}
		sample.add(ratio, ok)
	}
	return sample.result()
}

func (w *httpHit) read() (reading, error) {
	snap, err := w.srv.counters(w.ctx)
	if err != nil {
		return reading{}, err
	}
	_, ms, err := w.srv.usage(w.ctx)
	// The child does not publish its memo's counters; the twin's memo saw
	// the same 64 first schedules and nothing since, like the child's.
	hits, misses := w.twin.ts.Cache.Stats()
	return reading{serve: snap.Counters, memoHits: hits, memoMisses: misses,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs)}, err
}

func (w *httpHit) probeInputs() probeInputs {
	return probeInputs{sites: hitSites, plans: plansOf(w.tpl[:probeSample])}
}

func (w *httpHit) digest() []byte { return digestTemplates(w.tpl) }

// optimizeCold: every request is a plan search over a catalog the
// service has not seen, or has long forgotten.
type optimizeCold struct {
	inProcess
	seed     int64
	catalogs [][]*query.Relation
	next     atomic.Int64
}

const (
	optCatalogs = 4096
	optSites    = 64
	// optSampled catalogs are checked off the clock; over 16, quality_ratio
	// spread by 1.5-2 % across seeds.
	optSampled = 64
)

func (w *optimizeCold) clients() int { return runtime.GOMAXPROCS(0) }

func (w *optimizeCold) setup(ctx context.Context, seed int64) error {
	w.seed = seed
	var err error
	// 4 relations enumerate all 120 bushy plans; 5 to 8 sample K = 8.
	if w.catalogs, err = genCatalogs(rand.New(rand.NewSource(seed)), optCatalogs, 4, 8, 1_000, 100_000); err != nil {
		return err
	}
	w.next.Store(0)
	return w.start(ctx, optSites, true)
}

// searchSeed seeds the sampling of catalog i's candidate plans.
func (w *optimizeCold) searchSeed(i int) int64 { return w.seed*optCatalogs + int64(i) }

func (w *optimizeCold) op(c *client, tr *tracer) (time.Duration, bool) {
	// Each search writes one winner into the 256-entry cache, so a
	// catalog's winner is gone long before the catalog recurs.
	i := int((w.next.Add(1) - 1) % optCatalogs)
	misses := w.memoMisses()
	root := tr.begin("op", 0)
	t0 := time.Now()
	call := tr.begin("serve.Optimize", root)
	res, err := w.svc.Optimize(w.ctx, rand.New(rand.NewSource(w.searchSeed(i))), w.catalogs[i])
	tr.end(call)
	ok := err == nil && searchOK(res)
	lat := time.Since(t0)
	tr.end(root)
	if tr != nil && ok {
		tr.searches = append(tr.searches, res)
		search := w.search(w.replayMemo(misses))
		tr.replay("optimizer.Search", call, func() {
			_, _ = search.Best(rand.New(rand.NewSource(w.searchSeed(i))), w.catalogs[i])
		})
	}
	return lat, ok
}

func (w *optimizeCold) verify(thin int) (float64, int, int, error) {
	var sample tally
	for i := 0; i < optCatalogs; i += thin * optCatalogs / optSampled {
		res, err := w.svc.Optimize(w.ctx, rand.New(rand.NewSource(w.searchSeed(i))), w.catalogs[i])
		if err != nil {
			return 0, 0, 0, err
		}
		ratio, ok, err := checkedSearch(res, w.catalogs[i], w.searchSeed(i), optSites)
		if err != nil {
			return 0, 0, 0, err
		}
		sample.add(ratio, ok)
	}
	return sample.result()
}

func (w *optimizeCold) probeInputs() probeInputs {
	return probeInputs{sites: optSites, catalogs: w.catalogs[:probeSample]}
}

func (w *optimizeCold) digest() []byte { return digestCatalogs(w.catalogs) }

// queryE2E: one client takes one query at a time through every layer:
// catalog, plan search, schedule, execution, result check.
type queryE2E struct {
	inProcess
	seed  int64
	pool  [][]*query.Relation // the catalogs that repeat
	eng   engine.Engine
	fresh int64 // fresh catalogs drawn so far
	// excluded accumulates what the untimed data generation consumed:
	// written by the one client, read by the timed phase's read-outs.
	mu       sync.Mutex
	excluded usage
}

const (
	// e2ePool is the number of catalogs that repeat. The engine sizes its
	// tables in powers of two, so what a query allocates jumps with its
	// relation sizes; over a pool of 16 that did not average out, and
	// alloc_kb_op spread by 16-18 % across seeds.
	e2ePool      = 64
	e2eSites     = 16
	e2eMinTuples = 10_000
	e2eMaxTuples = 50_000
)

// e2eCatalog draws the i-th catalog of a sequence: 5 to 8 relations in
// turn, for the reason genTemplates gives.
func e2eCatalog(r *rand.Rand, i int) ([]*query.Relation, error) {
	return optimizer.RandomRelations(r, 5+i%4, e2eMinTuples, e2eMaxTuples)
}

// One client, so that the host's other core is free for the engine's
// clone fan-out and intra-query parallelism shows up as latency.
func (w *queryE2E) clients() int { return 1 }

func (w *queryE2E) setup(ctx context.Context, seed int64) error {
	w.seed = seed
	w.fresh = 0
	w.excluded = usage{}
	w.eng = engine.Engine{Model: model, Overlap: overlap, Parallel: true}
	var err error
	r := rand.New(rand.NewSource(seed))
	w.pool = make([][]*query.Relation, e2ePool)
	for k := range w.pool {
		if w.pool[k], err = e2eCatalog(r, k); err != nil {
			return err
		}
	}
	if err := w.start(ctx, e2eSites, true); err != nil {
		return err
	}
	// The pool is what the service has seen before: every repeat finds
	// its winner's schedule in the cache.
	for k, rels := range w.pool {
		if _, err := w.svc.Optimize(ctx, rand.New(rand.NewSource(w.poolSeed(k))), rels); err != nil {
			return err
		}
	}
	return nil
}

// poolSeed seeds the search, and the data, of pool catalog k.
func (w *queryE2E) poolSeed(k int) int64 { return w.seed*e2ePool + int64(k) }

func (w *queryE2E) op(c *client, tr *tracer) (time.Duration, bool) {
	// Half the queries repeat a catalog of the pool, whose candidate
	// schedules the cache may still hold; half bring a new one.
	var rels []*query.Relation
	var seed int64
	if c.rng.Intn(2) == 0 {
		k := c.rng.Intn(e2ePool)
		rels, seed = w.pool[k], w.poolSeed(k)
	} else {
		var err error
		w.fresh++
		if rels, err = e2eCatalog(c.rng, int(w.fresh)); err != nil {
			return 0, false
		}
		seed = -w.fresh
	}

	misses := w.memoMisses()
	root := tr.begin("op", 0)
	t0 := time.Now()
	search := tr.begin("serve.Optimize", root)
	res, err := w.svc.Optimize(w.ctx, rand.New(rand.NewSource(seed)), rels)
	tr.end(search)
	if err != nil || !searchOK(res) {
		return 0, false
	}

	// The winner's schedule is a cache hit: Optimize wrote it back.
	call := tr.begin("plan.prepare", root)
	tt, err := prepare(res.Best.Plan)
	tr.end(call)
	if err != nil {
		return 0, false
	}
	call = tr.begin("serve.Schedule", root)
	sres, err := w.svc.Schedule(w.ctx, tt)
	tr.end(call)
	if err != nil || !sres.Cached {
		return 0, false
	}
	t2 := time.Now()

	// A cached schedule places the operators of the tree it was computed
	// for — equal to tt, but other objects — and the engine finds an
	// operator's data by its plan node, so the data is generated for the
	// plan the delivered schedule names. Loading it is off the clock:
	// users query data that is there.
	tt = sres.Group[sres.Index]
	p := rootPlan(tt)
	before := selfUsage()
	call = tr.begin("engine.Generate (untimed)", root)
	ds, err := engine.Generate(p, seed)
	tr.end(call)
	if err != nil {
		return 0, false
	}
	t3 := time.Now()
	spent := selfUsage().sub(before)
	spent.untimed = t3.Sub(t2)
	w.mu.Lock()
	w.excluded.add(spent)
	w.mu.Unlock()

	call = tr.begin("engine.Run", root)
	rep, err := w.eng.Run(ds, sres.Schedule)
	tr.end(call)
	if err != nil {
		return 0, false
	}
	call = tr.begin("check", root)
	ok := rep.ResultTuples == p.Tuples
	for _, task := range tt.Tasks {
		for _, o := range task.Ops {
			if o.Kind == costmodel.Probe && rep.JoinResults[o.JoinID] != o.Source.Tuples {
				ok = false
			}
		}
	}
	tr.end(call)
	lat := t2.Sub(t0) + time.Since(t3)
	tr.end(root)

	if tr != nil && ok {
		tr.searches = append(tr.searches, res)
		// The replay has no view of the cache the real search was
		// warm-started from, so it schedules what that search was handed.
		// Nothing after the search looks up an operator the search has not.
		replay := w.search(w.replayMemo(misses))
		tr.replay("optimizer.Search", search, func() { _, _ = replay.Best(rand.New(rand.NewSource(seed)), rels) })
	}
	return lat, ok
}

// rootPlan returns the plan a task tree was expanded from: the source
// of the one operator whose output nothing consumes.
func rootPlan(tt *plan.TaskTree) *query.PlanNode {
	for _, o := range tt.Root.Ops {
		if o.Consumer == nil {
			return o.Source
		}
	}
	return nil
}

// adjust takes the untimed data generation out of the reading.
func (w *queryE2E) adjust(u *usage) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	u.cpu -= w.excluded.cpu
	u.mallocs -= w.excluded.mallocs
	u.bytes -= w.excluded.bytes
	u.untimed = w.excluded.untimed
	return nil
}

func (w *queryE2E) verify(thin int) (float64, int, int, error) {
	var sample tally
	for k := 0; k < len(w.pool); k += thin {
		rels := w.pool[k]
		seed := w.poolSeed(k)
		res, err := w.svc.Optimize(w.ctx, rand.New(rand.NewSource(seed)), rels)
		if err != nil {
			return 0, 0, 0, err
		}
		ratio, ok, err := checkedSearch(res, rels, seed, e2eSites)
		if err != nil {
			return 0, 0, 0, err
		}
		sample.add(ratio, ok)
	}
	return sample.result()
}

func (w *queryE2E) probeInputs() probeInputs {
	return probeInputs{sites: e2eSites, catalogs: w.pool[:probeSample]}
}

func (w *queryE2E) digest() []byte { return digestCatalogs(w.pool) }

// newWorkload returns a new instance of the named workload; serverBin
// is the built mdrs-serve. Every run gets an instance of its own, so
// that no run's inputs stay reachable — and shape the garbage
// collector's pacing — during the next.
func newWorkload(name, serverBin string) (workload, error) {
	switch name {
	case "schedule_miss":
		return &scheduleMiss{}, nil
	case "http_hit":
		return &httpHit{bin: serverBin}, nil
	case "optimize":
		return &optimizeCold{}, nil
	case "query_e2e":
		return &queryE2E{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
