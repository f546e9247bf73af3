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
	if eps < 0 || eps > 1 {
		return Overlap{}, fmt.Errorf("resource: overlap ε = %g outside [0,1]", eps)
	}
	return Overlap{Epsilon: eps}, nil
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
func (o Overlap) TSeq(w vector.Vector) float64 {
	return o.Epsilon*w.Length() + (1-o.Epsilon)*w.Sum()
}

// Site is one shared-nothing site: an identifier plus the multiset of
// work vectors (operator clones) currently assigned to it, work(s_j) in
// the paper's notation.
type Site struct {
	// ID is the site index in [0, P).
	ID int

	clones  []vector.Vector // work vectors mapped to this site
	load    vector.Vector   // running componentwise sum of clones
	loadLen float64         // cached load.Length(), kept current by Assign/Reset
	loadSum float64         // cached load.Sum(), kept current by Assign/Reset
	maxSeq  float64         // max T^seq among clones, under the bound model
	ov      Overlap
}

// NewSite returns an empty d-dimensional site evaluated under the given
// overlap model.
func NewSite(id, d int, ov Overlap) *Site {
	return &Site{ID: id, load: vector.New(d), ov: ov}
}

// Dim returns the site's resource dimensionality.
func (s *Site) Dim() int { return s.load.Dim() }

// Assign places one operator clone (its work vector) on the site.
// The vector is not copied; callers must not mutate it afterwards.
func (s *Site) Assign(w vector.Vector) {
	s.clones = append(s.clones, w)
	s.load.AddInPlace(w)
	// Refresh the cached aggregates from the accumulated load so they are
	// bit-identical to a from-scratch recomputation (the schedulers'
	// tie-breaks compare these floats exactly). O(d) per Assign keeps the
	// schedulers' inner placement loops O(1) per site probe.
	s.loadLen = s.load.Length()
	s.loadSum = s.load.Sum()
	if t := s.ov.TSeq(w); t > s.maxSeq {
		s.maxSeq = t
	}
}

// Clones returns the work vectors assigned to the site. The slice is
// shared; callers must treat it as read-only.
func (s *Site) Clones() []vector.Vector { return s.clones }

// NumClones returns |work(s)|.
func (s *Site) NumClones() int { return len(s.clones) }

// Load returns a copy of the componentwise sum of all assigned vectors.
func (s *Site) Load() vector.Vector { return s.load.Clone() }

// LoadLength returns l(work(s)), the most congested resource's total
// demand at this site. This is the list-scheduling key of
// OperatorSchedule ("least filled bin"). The value is cached by Assign,
// so calling it in a placement scan costs a field read, not an O(d)
// reduction.
func (s *Site) LoadLength() float64 { return s.loadLen }

// LoadSum returns the total work assigned to the site across all
// resources, Σ_k Σ_{W∈work(s)} W[k]. Cached by Assign, like LoadLength.
func (s *Site) LoadSum() float64 { return s.loadSum }

// MaxTSeq returns max_{W ∈ work(s)} T^seq(W).
func (s *Site) MaxTSeq() float64 { return s.maxSeq }

// TSite returns T^site(s) per Equation 2: the time for the site to
// complete all assigned clones under preemptable time-sharing.
func (s *Site) TSite() float64 {
	if s.loadLen > s.maxSeq {
		return s.loadLen
	}
	return s.maxSeq
}

// Reset removes all clones, returning the site to empty.
func (s *Site) Reset() {
	s.clones = s.clones[:0]
	for i := range s.load {
		s.load[i] = 0
	}
	s.loadLen = 0
	s.loadSum = 0
	s.maxSeq = 0
}

// System is a fixed-size collection of identical sites.
type System struct {
	sites []Site
	ov    Overlap
	d     int
}

// NewSystem creates P empty d-dimensional sites sharing one overlap
// model. The sites are one slab and their load vectors d-wide windows
// of a second, so a system is three objects whatever P is. It panics if
// P <= 0 or d <= 0.
func NewSystem(p, d int, ov Overlap) *System {
	if p <= 0 {
		panic(fmt.Sprintf("resource: non-positive site count %d", p))
	}
	if d <= 0 {
		panic(fmt.Sprintf("resource: non-positive dimensionality %d", d))
	}
	sys := &System{ov: ov, d: d, sites: make([]Site, p)}
	loads := make([]float64, p*d)
	for i := range sys.sites {
		sys.sites[i] = Site{ID: i, load: loads[i*d : (i+1)*d : (i+1)*d], ov: ov}
	}
	return sys
}

// P returns the number of sites.
func (sys *System) P() int { return len(sys.sites) }

// Dim returns the per-site resource dimensionality d.
func (sys *System) Dim() int { return sys.d }

// Overlap returns the system's overlap model.
func (sys *System) Overlap() Overlap { return sys.ov }

// Site returns site j. It panics on an out-of-range index.
func (sys *System) Site(j int) *Site { return &sys.sites[j] }

// MaxTSite returns max_j T^site(s_j), the response time of the current
// assignment per Equation 3's right-hand form.
func (sys *System) MaxTSite() float64 {
	m := 0.0
	for i := range sys.sites {
		if t := sys.sites[i].TSite(); t > m {
			m = t
		}
	}
	return m
}

// MaxLoadLength returns max_j l(work(s_j)), the system's most congested
// resource demand.
func (sys *System) MaxLoadLength() float64 {
	m := 0.0
	for i := range sys.sites {
		if t := sys.sites[i].LoadLength(); t > m {
			m = t
		}
	}
	return m
}

// Reset empties every site. The sites keep the capacity of their clone
// lists, so a system that is reset and refilled stops allocating once
// every site has held its largest load.
func (sys *System) Reset() {
	for i := range sys.sites {
		sys.sites[i].Reset()
	}
}
