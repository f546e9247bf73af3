package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mdrs/internal/costmodel"
	"mdrs/internal/engine"
	"mdrs/internal/opt"
	"mdrs/internal/optimizer"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
	"mdrs/internal/serve"
)

// probeSample is how many of a workload's plans and catalogs the layer
// probe measures.
const probeSample = 16

// probeInputs is what a workload hands the layer probe: its system size
// and the first probeSample of whichever inputs it has. A workload made
// of plans has no catalogs and the other way round; the probe fills the
// gap (see layerProbe).
type probeInputs struct {
	sites    int
	plans    []*query.PlanNode
	catalogs [][]*query.Relation
}

// timeUS returns how long f took, in microseconds.
func timeUS(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / 1e3
}

// each calls f(i) reps times for every i < n, timing each call, and
// returns the median in microseconds.
func each(n, reps int, f func(i int)) float64 {
	v := make([]float64, 0, n*reps)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			v = append(v, timeUS(func() { f(i) }))
		}
	}
	return median(v)
}

// selfUS is how much longer whole(i) takes than parts(i), the layer
// calls beneath it: the median over every input and repeat of the
// difference between the two, timed back to back. Subtracting medians of
// separately taken samples instead lets the host's second-to-second
// noise, which is larger than most self times, decide the sign.
func selfUS(n, reps int, whole, parts func(i int)) float64 {
	v := make([]float64, 0, n*reps)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			v = append(v, timeUS(func() { whole(i) })-timeUS(func() { parts(i) }))
		}
	}
	return median(v)
}

// must turns an error from a layer call the probe makes into a panic
// that layerProbe recovers and returns: the probe calls each layer on
// inputs the workload has already pushed through it, so an error here is
// a defect worth stopping for, and threading it through every timed
// closure would bury the measurement code.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(probeError{err})
	}
}

type probeError struct{ error }

// layerProbe times direct calls into each layer's public functions, from
// outside, on the workload's own inputs at the workload's system size,
// and returns one value per per-layer metric it owns. It is the same
// code for every workload: where the workload has no input of the kind a
// layer takes, the probe derives one from the seed (catalogs like
// optimize's for a workload of plans; the searches' winning plans for a
// workload of catalogs), so that every layer is measured in every traced
// run: the benchmark's driver runs one workload per invocation and wants
// every per-layer metric in each traced result. README.md lists which
// metrics are the workload's own instead.
//
// It also returns the searches' results, the pruning ledger of a
// workload that runs no search of its own.
func layerProbe(ctx context.Context, in probeInputs, seed int64, serverBin string, quick bool) (m map[string]float64, searches []*optimizer.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(probeError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer probe: %w", pe.error)
		}
	}()
	n, reps, engines, posts := probeSample, 3, 4, 256
	if quick {
		n, reps, engines, posts = 4, 1, 1, 32
	}
	p := in.sites
	m = map[string]float64{}

	// optimizer: the streaming search, called directly with a memo of its
	// own per search.
	cats := in.catalogs
	if cats == nil {
		cats = must(genCatalogs(rand.New(rand.NewSource(seed)), n, 4, 8, 1_000, 100_000))
	}
	cats = cats[:n]
	searches = make([]*optimizer.Result, n)
	search := optimizer.Search{Model: model, Overlap: overlap, P: p, F: granularity, Streaming: true}
	var searchUS, missSelf, batchedSelf, optimizeSelf []float64
	for i, rels := range cats {
		searchUS = append(searchUS, timeUS(func() {
			searches[i] = must(search.Best(rand.New(rand.NewSource(seed+int64(i))), rels))
		}))
	}
	m["optimizer.search_us"] = median(searchUS)
	scheduled := 0
	for _, res := range searches {
		scheduled += res.Scheduled
	}
	m["optimizer.us_per_scheduled"] = sum(searchUS) / float64(scheduled)

	// query: the bushy enumerator alone, on four relations (120 plans).
	four := must(optimizer.RandomRelations(rand.New(rand.NewSource(seed)), 4, 1_000, 100_000))
	m["query.enumerate_us"] = each(1, 8*reps, func(int) {
		check(query.EnumerateBushyFunc(four, nil, func(*query.PlanNode, int64) error { return nil }))
	})

	// query / plan: decode a plan's JSON, expand it into a task tree.
	plans := in.plans
	if plans == nil {
		for _, res := range searches {
			plans = append(plans, res.Best.Plan)
		}
	}
	plans = plans[:n]
	bodies := make([][]byte, n)
	trees := make([]*plan.TaskTree, n)
	var reqBytes int
	for i, pl := range plans {
		bodies[i] = must(pl.Encode())
		reqBytes += len(bodies[i])
		trees[i] = must(prepare(pl))
	}
	m["http.req_kb"] = float64(reqBytes) / float64(n) / 1024
	m["query.decode_us"] = each(n, reps, func(i int) { must(query.Decode(bodies[i])) })
	m["plan.prepare_us"] = each(n, reps, func(i int) { must(prepare(plans[i])) })

	// costmodel: what a schedule asks of the cost model for one tree —
	// cost vector, coarse-grain degree and clone vectors of every
	// operator — from an empty memo and from one that has seen the tree.
	memo := costmodel.NewCache(model)
	costAll := func(c *costmodel.Cache, tt *plan.TaskTree) {
		for _, task := range tt.Tasks {
			for _, o := range task.Ops {
				c.Cost(o.Spec)
				c.Clones(o.Spec, c.DegreeCapped(o.Spec, granularity, p, overlap, 0))
			}
		}
	}
	m["costmodel.prepare_cold_us"] = each(n, reps, func(i int) { costAll(costmodel.NewCache(model), trees[i]) })
	each(n, 1, func(i int) { costAll(memo, trees[i]) })
	m["costmodel.prepare_warm_us"] = each(n, reps, func(i int) { costAll(memo, trees[i]) })

	// sched: placement with the memo warm, as under serving; the same
	// above the sharded picker's gate; batch, fingerprint, encode, verify.
	ts := sched.TreeScheduler{Model: model, Overlap: overlap, P: p, F: granularity, Cache: memo}
	schedules := make([]*sched.Schedule, n)
	m["sched.schedule_us"] = each(n, reps, func(i int) { schedules[i] = must(ts.Schedule(trees[i])) })
	w1 := ts
	w1.Workers = 1
	m["sched.schedule_w1_us"] = each(n, reps, func(i int) { must(w1.Schedule(trees[i])) })
	before := selfUsage()
	each(n, 1, func(i int) { must(w1.Schedule(trees[i])) })
	m["sched.allocs_per_schedule"] = float64(selfUsage().sub(before).mallocs) / float64(n)
	big := newScheduler(256)
	each(n, 1, func(i int) { must(big.Schedule(trees[i])) })
	m["sched.schedule_p256_us"] = each(n, reps, func(i int) { must(big.Schedule(trees[i])) })
	big.Workers = 1
	m["sched.schedule_p256_w1_us"] = each(n, reps, func(i int) { must(big.Schedule(trees[i])) })
	batch := trees[:min(8, n)]
	m["sched.batch8_us_tree"] = each(1, reps, func(int) { must(ts.ScheduleBatch(batch)) }) / float64(len(batch))
	m["sched.fingerprint_us"] = each(n, reps, func(i int) { ts.Fingerprint(trees[i]) })
	encoded := make([][]byte, n)
	m["sched.encode_us"] = each(n, reps, func(i int) { encoded[i] = must(sched.EncodeJSON(schedules[i])) })
	m["sched.verify_us"] = each(n, reps, func(i int) { check(sched.Verify(schedules[i], overlap)) })
	var respBytes, clones int
	var tightness []float64
	for i, s := range schedules {
		respBytes += len(encoded[i])
		clones += s.Stats().Clones
		tightness = append(tightness, must(opt.BoundCached(trees[i], memo, overlap, p, granularity))/s.Response)
	}
	m["sched.encode_kb"] = float64(respBytes) / float64(n) / 1024
	m["sched.clones_per_schedule"] = float64(clones) / float64(n)

	// opt: OPTBOUND of a tree, and how close it comes to the response.
	m["opt.bound_us"] = each(n, reps, func(i int) { must(opt.BoundCached(trees[i], memo, overlap, p, granularity)) })
	m["opt.bound_tightness"] = mean(tightness)

	// serve: a cached service's miss and hit; then what the service adds
	// to the layer calls beneath a miss, beneath the batching path of a
	// cacheless service with a lone caller, and beneath Optimize. Each of
	// those takes a service that has not seen the input, so each repeat
	// starts a new one.
	newService := func(cache int) *serve.Service {
		return must(serve.New(serve.Config{Scheduler: ts, CacheSize: cache, Optimizer: &serve.OptimizerConfig{}}))
	}
	svc := newService(cacheSize)
	m["serve.miss_us"] = each(n, 1, func(i int) { must(svc.Schedule(ctx, trees[i])) })
	m["serve.hit_us"] = each(n, reps, func(i int) { must(svc.Schedule(ctx, trees[i])) })
	check(svc.Close())
	direct := func(i int) {
		ts.Fingerprint(trees[i])
		must(ts.Schedule(trees[i]))
	}
	shared := search
	shared.Cache = memo
	for r := 0; r < reps; r++ {
		svc, batched, searching := newService(cacheSize), newService(0), newService(cacheSize)
		missSelf = append(missSelf, selfUS(n, 1, func(i int) { must(svc.Schedule(ctx, trees[i])) }, direct))
		batchedSelf = append(batchedSelf, selfUS(n, 1, func(i int) { must(batched.Schedule(ctx, trees[i])) }, direct))
		// The same search through the service and directly, both on the
		// warm shared memo; the new service's schedule cache holds none of
		// the candidates, so neither is warm-started.
		optimizeSelf = append(optimizeSelf, selfUS(n, 1,
			func(i int) { must(searching.Optimize(ctx, rand.New(rand.NewSource(seed+int64(i))), cats[i])) },
			func(i int) { must(shared.Best(rand.New(rand.NewSource(seed+int64(i))), cats[i])) }))
		check(svc.Close())
		check(batched.Close())
		check(searching.Close())
	}
	m["serve.miss_self_us"] = median(missSelf)
	m["serve.batched_self_us"] = median(batchedSelf)
	m["serve.optimize_self_us"] = median(optimizeSelf)

	// engine: generate the winning plan's data, run its schedule cold,
	// then warm with and without clone fan-out.
	var genUS, coldUS, parUS, serUS, modelErr []float64
	var tuples, allocs float64
	for i, res := range searches[:engines] {
		var ds *engine.Dataset
		genUS = append(genUS, timeUS(func() { ds = must(engine.Generate(res.Best.Plan, seed+int64(i))) }))
		par := engine.Engine{Model: model, Overlap: overlap, Parallel: true}
		ser := engine.Engine{Model: model, Overlap: overlap}
		var rep *engine.Report
		coldUS = append(coldUS, timeUS(func() { rep = must(par.Run(ds, res.Best.Schedule)) }))
		modelErr = append(modelErr, math.Abs(rep.Measured-rep.Predicted)/rep.Predicted)
		before := selfUsage()
		for r := 0; r < reps; r++ {
			parUS = append(parUS, timeUS(func() { must(par.Run(ds, res.Best.Schedule)) }))
			for _, rel := range res.Best.Plan.Leaves() {
				tuples += float64(rel.Tuples)
			}
		}
		allocs += float64(selfUsage().sub(before).mallocs)
		for r := 0; r < reps; r++ {
			serUS = append(serUS, timeUS(func() { must(ser.Run(ds, res.Best.Schedule)) }))
		}
	}
	m["engine.generate_us"] = median(genUS)
	m["engine.cold_run_us"] = median(coldUS)
	m["engine.run_us"] = median(parUS)
	m["engine.run_serial_us"] = median(serUS)
	m["engine.parallel_speedup"] = median(serUS) / median(parUS)
	m["engine.tuples_s"] = tuples / (sum(parUS) / 1e6)
	m["engine.allocs_run"] = allocs / float64(len(parUS))
	m["engine.model_error_frac"] = mean(modelErr)

	// http: the same plans through a spawned mdrs-serve, answered from
	// its cache, one request at a time.
	srv := must(startServer(ctx, serverBin, p, cacheSize))
	defer srv.stop()
	var buf bytes.Buffer
	var wireBytes int
	post := func(i int) {
		must(srv.post(ctx, bodies[i], &buf))
		wireBytes += buf.Len()
		if !bytes.Equal(buf.Bytes(), encoded[i]) {
			panic(probeError{fmt.Errorf("POST /schedule of plan %d: %d bytes that are not its schedule's %d", i, buf.Len(), len(encoded[i]))})
		}
	}
	each(n, 1, post)
	srvBefore, _, err := srv.usage(ctx)
	check(err)
	before = selfUsage()
	wireBytes = 0
	postUS := each(n, posts/n, post)
	count := float64(n * (posts / n))
	srvAfter, _, err := srv.usage(ctx)
	check(err)
	m["http.client_cpu_ms_op"] = float64(selfUsage().sub(before).cpu) / 1e6 / count
	m["http.server_cpu_ms_op"] = float64(srvAfter.sub(srvBefore).cpu) / 1e6 / count
	m["http.resp_kb"] = float64(wireBytes) / count / 1024
	m["http.self_us"] = postUS - m["query.decode_us"] - m["plan.prepare_us"] - m["serve.hit_us"] - m["sched.encode_us"]

	// e2e: the shares of one query's path, from the medians above; the
	// query_e2e workload overrides them with its own traced segments.
	o, s, r := m["optimizer.search_us"]+m["serve.optimize_self_us"], m["plan.prepare_us"]+m["serve.hit_us"], m["engine.run_us"]
	m["e2e.optimize_share"], m["e2e.schedule_share"], m["e2e.run_share"] = o/(o+s+r), s/(o+s+r), r/(o+s+r)
	return m, searches, nil
}

// ledger summarises the pruning ledgers of a set of searches.
func ledger(m map[string]float64, searches []*optimizer.Result) {
	var enumerated, scheduled, pruned, warm, improvement float64
	for _, res := range searches {
		enumerated += float64(res.Enumerated)
		scheduled += float64(res.Scheduled)
		pruned += float64(res.Pruned)
		warm += float64(res.WarmHits)
		improvement += res.Improvement()
	}
	n := float64(len(searches))
	m["optimizer.enumerated_op"] = enumerated / n
	m["optimizer.scheduled_op"] = scheduled / n
	m["optimizer.pruned_op"] = pruned / n
	m["optimizer.warm_hits_op"] = warm / n
	m["optimizer.prune_ratio"] = pruned / enumerated
	m["optimizer.improvement"] = improvement / n
}
