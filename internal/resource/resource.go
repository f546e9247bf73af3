// Package resource implements the multi-dimensional resource-usage model
// of Garofalakis & Ioannidis (SIGMOD'96), Sections 4.1 and 5.2.
//
// A shared-nothing system consists of P identical sites; each site is a
// collection of d preemptable (time-sliceable) resources — e.g. CPU,
// disk, network interface. The usage of a site by an isolated operator
// is the pair (T^seq, W̄): W̄ is the d-dimensional work vector and T^seq
// the operator's sequential execution time, which always satisfies
//
//	max_i W[i]  <=  T^seq(W̄)  <=  Σ_i W[i].
//
// The experiments' assumption EA2 pins T^seq down with a single
// system-wide overlap parameter ε ∈ [0,1]:
//
//	T^seq(W̄) = ε·max_i W[i] + (1−ε)·Σ_i W[i]
//
// ε = 1 is perfect overlap (processing on different resources proceeds
// fully in parallel), ε = 0 is zero overlap (strictly sequential).
//
// The package also implements Equation 2, the execution time of all
// operator clones time-sharing one site:
//
//	T^site(s) = max{ max_{W∈work(s)} T^seq(W), l(work(s)) },
//
// i.e. either the slowest single clone or the most congested resource
// determines when the site drains.
package resource

import (
	"fmt"

	"mdrs/internal/vector"
)

// Conventional resource indices used by the experiments (d = 3). The
// model itself works for any d; these constants only fix the meaning of
// vector components produced by the cost model.
const (
	CPU  = 0 // instructions, expressed in seconds at the catalog MIPS rate
	Disk = 1 // page service time
	Net  = 2 // network-interface time (αN startup share + β per byte)

	// Dims is the site dimensionality used throughout the experiments:
	// one CPU, one disk unit, one network interface per site (Section 6.1).
	Dims = 3
)

// Overlap is the resource-overlap model of assumption EA2: a convex
// combination of the max and the sum of a work vector's components,
// weighted by the overlap parameter ε.
type Overlap struct {
	// Epsilon is the system-wide overlap parameter ε ∈ [0,1].
	Epsilon float64
}

// NewOverlap returns an Overlap model, validating ε.
func NewOverlap(eps float64) (Overlap, error) {
	o := Overlap{Epsilon: eps}
	if err := o.Validate(); err != nil {
		return Overlap{}, err
	}
	return o, nil
}

// Validate reports an ε outside [0,1], where EA2 defines T^seq.
func (o Overlap) Validate() error {
	if !(o.Epsilon >= 0 && o.Epsilon <= 1) {
		return fmt.Errorf("resource: overlap ε = %g outside [0,1]", o.Epsilon)
	}
	return nil
}

// MustOverlap is NewOverlap that panics on invalid ε; for tests and
// literals.
func MustOverlap(eps float64) Overlap {
	o, err := NewOverlap(eps)
	if err != nil {
		panic(err)
	}
	return o
}

// TSeq returns T^seq(W̄) = ε·max + (1−ε)·sum, the sequential execution
// time of an operator (clone) with demands w running alone on a site.
func (o Overlap) TSeq(w vector.Vector) float64 { return o.TMaxSum(w.Length(), w.Sum()) }

// TMaxSum is T^seq of a work vector given its largest component and
// its sum: ε·max + (1−ε)·sum, each product rounded before the add so
// that no compiler fuses them. It is the one spelling of the formula.
func (o Overlap) TMaxSum(max, sum float64) float64 {
	return float64(o.Epsilon*max) + float64((1-o.Epsilon)*sum)
}

// TSite returns T^site per Equation 2 for one site holding the given
// clones, work(s): max{ max_W T^seq(W), l(work(s)) }. System keeps the
// same value per site incrementally; for clones assigned in this order
// the two agree bit for bit.
func (o Overlap) TSite(clones []vector.Vector) float64 {
	maxSeq := 0.0
	for _, w := range clones {
		if t := o.TSeq(w); t > maxSeq {
			maxSeq = t
		}
	}
	if l := vector.SetLength(clones); l > maxSeq {
		return l
	}
	return maxSeq
}

// System is P identical d-dimensional sites. Equation 2 and Figure 3's
// placement key read four numbers of a site s_j, not the multiset
// work(s_j) itself: the summed load vector, its length l(work(s_j)) and
// sum Σ work(s_j), and the largest T^seq of a clone placed there. The
// system keeps exactly those, as flat rows indexed by site.
type System struct {
	ov     Overlap
	d      int
	load   []float64 // P·d: site j's summed load is load[j·d : (j+1)·d]
	length []float64 // l(work(s_j)), refreshed by Assign
	sum    []float64 // Σ work(s_j), refreshed by Assign
	maxSeq []float64 // max T^seq over work(s_j)
}

// NewSystem creates P empty d-dimensional sites sharing one overlap
// model. Its four rows are capacity-limited windows of one allocation,
// whatever P is. It panics if P <= 0 or d <= 0.
func NewSystem(p, d int, ov Overlap) *System {
	if p <= 0 {
		panic(fmt.Sprintf("resource: non-positive site count %d", p))
	}
	if d <= 0 {
		panic(fmt.Sprintf("resource: non-positive dimensionality %d", d))
	}
	rows := make([]float64, p*(d+3))
	n := p * d
	return &System{
		ov: ov, d: d,
		load:   rows[:n:n],
		length: rows[n : n+p : n+p],
		sum:    rows[n+p : n+2*p : n+2*p],
		maxSeq: rows[n+2*p:],
	}
}

// P returns the number of sites.
func (sys *System) P() int { return len(sys.length) }

// Dim returns the per-site resource dimensionality d.
func (sys *System) Dim() int { return sys.d }

// Overlap returns the system's overlap model.
func (sys *System) Overlap() Overlap { return sys.ov }

// row returns site j's summed load in place. Every row is
// capacity-limited, so a j outside [0, P) panics here.
func (sys *System) row(j int) vector.Vector {
	return sys.load[j*sys.d : (j+1)*sys.d : (j+1)*sys.d]
}

// Assign places one operator clone (its work vector) on site j: the
// one-site case of AssignRun. It panics, before writing anything, when
// j is outside [0, P) or w is not d-dimensional.
func (sys *System) Assign(j int, w vector.Vector) { sys.AssignRun([]int{j}, w) }

// AssignRun places one clone doing w on each of the given sites,
// checking w and computing its T^seq once for the run. The vector is
// read, not kept. It panics, before writing anything, when w is not
// d-dimensional, and before writing a site outside [0, P).
func (sys *System) AssignRun(sites []int, w vector.Vector) {
	if len(w) != sys.d {
		panic(fmt.Sprintf("resource: %d-dimensional work vector on %d-dimensional sites", len(w), sys.d))
	}
	t := sys.ov.TSeq(w)
	for _, j := range sites {
		row := sys.row(j)
		for i, x := range w {
			row[i] += x
		}
		// Length and sum are recomputed from the accumulated row, so they
		// are bit-identical to a from-scratch recomputation (the
		// schedulers' tie-breaks compare these floats exactly). O(d) per
		// clone keeps a placement probe a read of two rows.
		sys.length[j] = row.Length()
		sys.sum[j] = row.Sum()
		if t > sys.maxSeq[j] {
			sys.maxSeq[j] = t
		}
	}
}

// Load returns a copy of site j's componentwise sum of assigned vectors.
func (sys *System) Load(j int) vector.Vector { return sys.row(j).Clone() }

// LoadLength returns l(work(s_j)), the most congested resource's total
// demand at site j: OperatorSchedule's list-scheduling key ("least
// filled bin").
func (sys *System) LoadLength(j int) float64 { return sys.length[j] }

// LoadSum returns the total work assigned to site j across all
// resources, Σ_k Σ_{W∈work(s_j)} W[k].
func (sys *System) LoadSum(j int) float64 { return sys.sum[j] }

// TSite returns T^site(s_j) per Equation 2: the time for site j to
// complete all assigned clones under preemptable time-sharing.
func (sys *System) TSite(j int) float64 {
	if sys.length[j] > sys.maxSeq[j] {
		return sys.length[j]
	}
	return sys.maxSeq[j]
}

// MaxTSite returns max_j T^site(s_j), the response time of the current
// assignment per Equation 3's right-hand form.
func (sys *System) MaxTSite() float64 {
	m := 0.0
	for j := range sys.length {
		if t := sys.TSite(j); t > m {
			m = t
		}
	}
	return m
}

// Reset empties every site.
func (sys *System) Reset() {
	clear(sys.load)
	clear(sys.length)
	clear(sys.sum)
	clear(sys.maxSeq)
}
