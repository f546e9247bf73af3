// Multimedia applies the paper's multi-dimensional framework to the
// "other" workload its conclusions suggest: request scheduling in a
// multimedia storage server. Each admitted request (video transcode,
// thumbnail batch, raw stream, analytics pass) loads a server's CPU,
// disk, and network interface differently; admitting a batch onto a
// server farm is exactly the vector-packing problem OperatorSchedule
// solves, and Equation 3 prices the batch's completion time.
package main

import (
	"fmt"
	"log"

	"mdrs"
)

// request is one admitted media job with per-resource demands in
// seconds of busy time on (CPU, disk, network).
type request struct {
	name string
	work mdrs.Vector
}

func main() {
	// A mixed admission batch: transcodes are CPU-bound, cold-archive
	// reads are disk-bound, live restreams are network-bound, analytics
	// touch everything.
	reqs := []request{
		{"transcode-4k", mdrs.Vector{90, 12, 18}},
		{"transcode-4k", mdrs.Vector{85, 10, 16}},
		{"transcode-1080", mdrs.Vector{40, 8, 12}},
		{"archive-read", mdrs.Vector{6, 70, 25}},
		{"archive-read", mdrs.Vector{5, 65, 22}},
		{"restream", mdrs.Vector{10, 4, 80}},
		{"restream", mdrs.Vector{12, 5, 75}},
		{"thumbnails", mdrs.Vector{25, 30, 5}},
		{"analytics", mdrs.Vector{45, 40, 30}},
		{"analytics", mdrs.Vector{50, 35, 28}},
	}

	const servers = 4
	ov, err := mdrs.NewOverlap(0.8) // modern servers overlap I/O and compute well
	if err != nil {
		log.Fatal(err)
	}

	ops := make([]*mdrs.SchedOp, len(reqs))
	for i, r := range reqs {
		ops[i] = &mdrs.SchedOp{ID: i, Work: []mdrs.WorkRun{{N: 1, W: r.work}}}
	}

	res, err := mdrs.OperatorSchedule(servers, mdrs.Dims, ov, ops)
	if err != nil {
		log.Fatal(err)
	}
	lb := mdrs.ScheduleLowerBound(servers, ov, ops)

	fmt.Printf("admitting %d requests onto %d media servers (ε = 0.8)\n\n",
		len(reqs), servers)
	perServer := map[int][]string{}
	for i, r := range reqs {
		s := res.Sites[i][0]
		perServer[s] = append(perServer[s], r.name)
	}
	for s := 0; s < servers; s++ {
		load := res.System.Load(s)
		fmt.Printf("server %d  (cpu %5.1f  disk %5.1f  net %5.1f s): %v\n",
			s, load[mdrs.CPU], load[mdrs.Disk], load[mdrs.Net], perServer[s])
	}

	fmt.Printf("\nbatch completes in %.1f s  (lower bound %.1f s, within %.2fx; worst case 2d+1 = 7x)\n",
		res.Response, lb, res.Response/lb)

	// The one-dimensional strawman: balance total seconds of work only.
	// Pack greedily by scalar load and price the result with the true
	// multi-dimensional model.
	scalarSites := make([]float64, servers)
	siteOf := make([]int, len(reqs))
	for i, r := range reqs {
		best := 0
		for s := 1; s < servers; s++ {
			if scalarSites[s] < scalarSites[best] {
				best = s
			}
		}
		scalarSites[best] += r.work.Sum()
		siteOf[i] = best
	}
	worst := 0.0
	for s := 0; s < servers; s++ {
		var clones []mdrs.Vector
		for i, r := range reqs {
			if siteOf[i] == s {
				clones = append(clones, r.work)
			}
		}
		worst = max(worst, ov.TSite(clones))
	}
	fmt.Printf("one-dimensional (scalar work) packing completes in %.1f s — %.0f%% slower\n",
		worst, 100*(worst/res.Response-1))
}
