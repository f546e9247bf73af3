// Package costmodel derives multi-dimensional work vectors for physical
// query operators, following Sections 4 and 6.1 of Garofalakis &
// Ioannidis (SIGMOD'96).
//
// The experiments assume 3-dimensional sites (CPU, disk, network
// interface). For each operator the model produces
//
//   - its processing area W_p: the CPU and disk work performed when all
//     operands are locally resident (zero communication cost), built
//     from the Table 2 catalog constants; and
//   - D, the bytes the operator moves over the interconnect (its
//     repartitioned input and/or pipelined output, assumption A5),
//
// from which the communication area of an N-site parallel execution is
//
//	W_c(op, N) = α·N + β·D      (Section 4.3)
//
// and the maximum coarse-grain degree of parallelism is
//
//	N_max(op, f) = max{ ⌊(f·W_p(op) − β·D)/α⌋, 1 }   (Proposition 4.1).
//
// Partitioning follows the experimental assumption EA1 (no execution
// skew): the work vector splits perfectly across the N clones, and the
// startup cost α·N is charged to a single designated coordinator clone,
// divided equally between its CPU and network components.
package costmodel

import (
	"fmt"
	"math"

	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// Params holds the experiment parameter settings of Table 2.
// All times are in seconds, sizes in bytes or tuples.
type Params struct {
	MIPS         float64 // CPU speed in millions of instructions per second
	DiskPageTime float64 // effective disk service time per page (seconds)
	Alpha        float64 // startup cost per participating site (seconds)
	Beta         float64 // network time per byte transferred (seconds)
	TupleBytes   int     // size of a tuple in bytes
	PageTuples   int     // tuples per page

	// CPU cost parameters (number of instructions).
	ReadPageInstr  float64 // read a page from disk
	WritePageInstr float64 // write a page to disk
	ExtractInstr   float64 // extract (copy/compose) a tuple
	HashInstr      float64 // hash a tuple
	ProbeInstr     float64 // probe a hash table
}

// DefaultParams returns Table 2 of the paper verbatim: a relatively
// balanced system (1 MIPS CPU, 20 ms/page disk) with 15 ms startup per
// site and 0.6 µs/byte network transfer cost.
func DefaultParams() Params {
	return Params{
		MIPS:           1,
		DiskPageTime:   0.020,
		Alpha:          0.015,
		Beta:           0.6e-6,
		TupleBytes:     128,
		PageTuples:     40,
		ReadPageInstr:  5000,
		WritePageInstr: 5000,
		ExtractInstr:   300,
		HashInstr:      100,
		ProbeInstr:     200,
	}
}

// Validate reports the first nonsensical parameter, if any.
func (p Params) Validate() error {
	switch {
	case p.MIPS <= 0:
		return fmt.Errorf("costmodel: MIPS = %g, must be positive", p.MIPS)
	case p.DiskPageTime < 0:
		return fmt.Errorf("costmodel: DiskPageTime = %g, must be non-negative", p.DiskPageTime)
	case p.Alpha <= 0:
		return fmt.Errorf("costmodel: Alpha = %g, must be positive (startup is inherently serial)", p.Alpha)
	case p.Beta < 0:
		return fmt.Errorf("costmodel: Beta = %g, must be non-negative", p.Beta)
	case p.TupleBytes <= 0:
		return fmt.Errorf("costmodel: TupleBytes = %d, must be positive", p.TupleBytes)
	case p.PageTuples <= 0:
		return fmt.Errorf("costmodel: PageTuples = %d, must be positive", p.PageTuples)
	case p.ReadPageInstr < 0 || p.WritePageInstr < 0 || p.ExtractInstr < 0 ||
		p.HashInstr < 0 || p.ProbeInstr < 0:
		return fmt.Errorf("costmodel: negative instruction count")
	}
	return nil
}

// Pages returns the number of pages occupied by the given tuple count.
// The ceiling is taken as (tuples−1)/PageTuples + 1, which cannot
// overflow for any positive tuple count.
func (p Params) Pages(tuples int) int {
	if tuples <= 0 {
		return 0
	}
	return (tuples-1)/p.PageTuples + 1
}

// Bytes returns the byte size of the given tuple count.
func (p Params) Bytes(tuples int) float64 {
	if tuples <= 0 {
		return 0
	}
	return float64(tuples) * float64(p.TupleBytes)
}

// cpuSeconds converts an instruction count to seconds at the catalog
// MIPS rate.
func (p Params) cpuSeconds(instr float64) float64 {
	return instr / (p.MIPS * 1e6)
}

// OpKind identifies a physical operator of the hash-join macro-expansion
// (Figure 1(b)), plus Store for explicit materialization.
type OpKind int

const (
	// Scan reads a base or materialized relation from local disk and
	// extracts its tuples.
	Scan OpKind = iota
	// Build hashes its input stream into an in-memory hash table
	// (assumption A1: the table is always memory-resident).
	Build
	// Probe streams its input against a previously built hash table and
	// composes result tuples.
	Probe
	// Store writes its input stream to local disk (materialization).
	Store
)

// String returns the lower-case operator name.
func (k OpKind) String() string {
	switch k {
	case Scan:
		return "scan"
	case Build:
		return "build"
	case Probe:
		return "probe"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// OpSpec describes one operator instance for costing purposes.
type OpSpec struct {
	Kind OpKind
	// InTuples is the cardinality of the operator's (streamed) input:
	// the relation size for Scan, the build input for Build, the outer
	// input for Probe, the stored stream for Store.
	InTuples int
	// ResultTuples is the operator's output cardinality. For Scan and
	// Store it defaults to InTuples when left zero; for Probe it is the
	// join result size.
	ResultTuples int
	// NetIn marks the input as arriving over the interconnect
	// (repartitioned, assumption A5).
	NetIn bool
	// NetOut marks the output as being repartitioned over the
	// interconnect to the consumer.
	NetOut bool
}

// OpCost is the costed form of an operator: its zero-communication work
// vector and the interconnect traffic that parallel execution will incur.
type OpCost struct {
	// Processing is the d = 3 work vector [CPU, Disk, 0] of the operator
	// with all operands local: its components sum to the processing area
	// W_p(op), which is invariant across parallelizations (Section 4.2).
	Processing vector.Vector
	// D is the total bytes the operator transfers over the interconnect.
	D float64
}

// ProcessingArea returns W_p(op) = Σ components of the zero-communication
// work vector.
func (c OpCost) ProcessingArea() float64 { return c.Processing.Sum() }

// Model couples the catalog parameters with costing and parallelization
// logic.
type Model struct {
	Params Params
}

// New returns a Model after validating the parameters.
func New(p Params) (Model, error) {
	if err := p.Validate(); err != nil {
		return Model{}, err
	}
	return Model{Params: p}, nil
}

// MustNew is New that panics on invalid parameters.
func MustNew(p Params) Model {
	m, err := New(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Default returns a Model over DefaultParams().
func Default() Model { return Model{Params: DefaultParams()} }

// Cost derives the OpCost of a single operator.
func (m Model) Cost(spec OpSpec) OpCost {
	p := m.Params
	in := spec.InTuples
	out := spec.ResultTuples
	if out == 0 && (spec.Kind == Scan || spec.Kind == Store) {
		out = in
	}

	var cpuInstr, disk float64
	switch spec.Kind {
	case Scan:
		pages := p.Pages(in)
		cpuInstr = float64(pages)*p.ReadPageInstr + float64(in)*p.ExtractInstr
		disk = float64(pages) * p.DiskPageTime
	case Build:
		// Receiving a repartitioned tuple costs an extract (copying it
		// into the table's memory) plus the hash computation; without the
		// extract term a build's processing area would be smaller than
		// its communication area and Proposition 4.1 would force every
		// build sequential for all experimental f values.
		cpuInstr = float64(in) * (p.ExtractInstr + p.HashInstr)
	case Probe:
		cpuInstr = float64(in)*p.ProbeInstr + float64(out)*p.ExtractInstr
	case Store:
		pages := p.Pages(in)
		cpuInstr = float64(pages) * p.WritePageInstr
		disk = float64(pages) * p.DiskPageTime
	default:
		panic(fmt.Sprintf("costmodel: unknown operator kind %d", int(spec.Kind)))
	}

	var d float64
	if spec.NetIn {
		d += p.Bytes(in)
	}
	if spec.NetOut {
		d += p.Bytes(out)
	}

	w := vector.New(resource.Dims)
	w[resource.CPU] = p.cpuSeconds(cpuInstr)
	w[resource.Disk] = disk
	return OpCost{Processing: w, D: d}
}

// CommArea returns W_c(op, N) = α·N + β·D, the communication area of an
// N-site execution (Section 4.3).
func (m Model) CommArea(c OpCost, n int) float64 {
	return m.Params.Alpha*float64(n) + m.Params.Beta*c.D
}

// IsCoarseGrain reports whether an N-site execution satisfies
// Definition 4.1: W_c(op, N) <= f·W_p(op).
func (m Model) IsCoarseGrain(c OpCost, n int, f float64) bool {
	return m.CommArea(c, n) <= f*c.ProcessingArea()
}

// NMax returns N_max(op, f), the maximum allowable degree of partitioned
// parallelism for a CG_f execution (Proposition 4.1). The result is
// always at least 1: a sequential execution is allowed even when the
// operator's network traffic alone exceeds the granularity budget.
func (m Model) NMax(c OpCost, f float64) int {
	if f < 0 {
		panic(fmt.Sprintf("costmodel: negative granularity parameter f = %g", f))
	}
	n := math.Floor((f*c.ProcessingArea() - m.Params.Beta*c.D) / m.Params.Alpha)
	if n < 1 {
		return 1
	}
	return int(n)
}

// Clones returns the per-clone work vectors of an N-site execution
// under EA1: each clone receives W_p/N on CPU and disk and β·D/N on the
// network interface; clone 0 (the coordinator) additionally carries the
// full startup α·N, split equally between CPU and network. The n
// vectors are disjoint d-wide windows of one backing array.
func (m Model) Clones(c OpCost, n int) []vector.Vector {
	if n < 1 {
		panic(fmt.Sprintf("costmodel: non-positive degree of parallelism %d", n))
	}
	const d = resource.Dims
	p := m.Params
	nf := float64(n)
	cpu := c.Processing[resource.CPU] / nf
	disk := c.Processing[resource.Disk] / nf
	net := p.Beta * c.D / nf

	out := make([]vector.Vector, n)
	back := make([]float64, n*d)
	for k := range out {
		w := back[k*d : (k+1)*d : (k+1)*d]
		w[resource.CPU], w[resource.Disk], w[resource.Net] = cpu, disk, net
		out[k] = w
	}
	startup := p.Alpha * nf / 2
	out[0][resource.CPU] += startup
	out[0][resource.Net] += startup
	return out
}

// TotalWork returns the total work vector W̄_op for an N-site execution:
// the componentwise sum over all clones, so that
// Σ_k W_op[k] = W_p(op) + W_c(op, N) as required by Section 5.1.
func (m Model) TotalWork(c OpCost, n int) vector.Vector {
	w := c.Processing.Clone()
	w[resource.Net] += m.Params.Beta * c.D
	w[resource.CPU] += m.Params.Alpha * float64(n) / 2
	w[resource.Net] += m.Params.Alpha * float64(n) / 2
	return w
}

// TPar returns T^par(op, N): the response time of an isolated N-site
// execution, i.e. the maximum clone T^seq (Equation 1). Under EA1 the
// coordinator clone dominates every other clone componentwise and TSeq
// is monotone, so only the coordinator needs to be evaluated.
func (m Model) TPar(c OpCost, n int, ov resource.Overlap) float64 {
	if n < 1 {
		panic(fmt.Sprintf("costmodel: non-positive degree of parallelism %d", n))
	}
	nf := float64(n)
	startup := m.Params.Alpha * nf / 2
	cpu := c.Processing[resource.CPU]/nf + startup
	disk := c.Processing[resource.Disk] / nf
	net := m.Params.Beta*c.D/nf + startup

	sum := cpu + disk + net
	max := cpu
	if disk > max {
		max = disk
	}
	if net > max {
		max = net
	}
	return ov.Epsilon*max + (1-ov.Epsilon)*sum
}

// NOpt returns the degree of parallelism in [1, maxN] that minimizes
// T^par(op, ·). Beyond it, startup at the coordinator causes a
// speed-down; the experiments never exceed it, enforcing assumption A4
// (Section 6.1). Ties resolve to the smaller degree.
func (m Model) NOpt(c OpCost, maxN int, ov resource.Overlap) int {
	if maxN < 1 {
		panic(fmt.Sprintf("costmodel: non-positive maxN %d", maxN))
	}
	best, bestT := 1, math.Inf(1)
	for n := 1; n <= maxN; n++ {
		if t := m.TPar(c, n, ov); t < bestT-1e-15 {
			best, bestT = n, t
		}
	}
	return best
}

// Degree returns the degree of partitioned parallelism the scheduler
// uses for a floating operator: min{N_max(op, f), N_opt(op), P}.
func (m Model) Degree(c OpCost, f float64, p int, ov resource.Overlap) int {
	return m.DegreeCapped(c, f, p, ov, 0)
}

// DegreeCapped is Degree with an absolute per-operator parallelism cap:
// min{N_max(op, f), N_opt(op), P, cap}. cap <= 0 means uncapped (plain
// Degree). The cap clamps the search range before the NOpt scan, so it
// bounds both the chosen degree and the scan's cost — the serve layer's
// adaptive controller uses it to shrink per-query parallelism under
// concurrency (trading isolated response time for system throughput).
func (m Model) DegreeCapped(c OpCost, f float64, p int, ov resource.Overlap, cap int) int {
	n := m.NMax(c, f)
	if n > p {
		n = p
	}
	if cap > 0 && n > cap {
		n = cap
	}
	if nOpt := m.NOpt(c, n, ov); nOpt < n {
		n = nOpt
	}
	return n
}
