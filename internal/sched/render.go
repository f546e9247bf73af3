package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

// Stats summarizes a schedule's resource economics.
type Stats struct {
	// TotalWork is the summed work vector over every placed clone
	// (including communication and startup), in seconds per resource.
	TotalWork vector.Vector
	// Utilization is TotalWork[i] / (P · Response): the fraction of the
	// system's capacity on resource i that the schedule keeps busy.
	Utilization vector.Vector
	// PhaseUtilization is the same ratio per phase.
	PhaseUtilization []vector.Vector
	// Clones is the total number of placed operator clones.
	Clones int
}

// Stats computes resource statistics for the schedule. The site
// dimensionality is taken from the first clone.
func (s *Schedule) Stats() Stats {
	d := resource.Dims
	for _, ph := range s.Phases {
		for _, pl := range ph.Placements {
			if len(pl.Work) > 0 {
				d = pl.Work[0].W.Dim()
				break
			}
		}
	}
	st := Stats{TotalWork: vector.New(d), Utilization: vector.New(d)}
	for _, ph := range s.Phases {
		phaseWork := vector.New(d)
		for _, pl := range ph.Placements {
			for _, r := range pl.Work {
				for range r.N {
					phaseWork.AddInPlace(r.W)
				}
				st.Clones += r.N
			}
		}
		st.TotalWork.AddInPlace(phaseWork)
		u := vector.New(d)
		if ph.Response > 0 {
			u = phaseWork.Scale(1 / (float64(s.P) * ph.Response))
		}
		st.PhaseUtilization = append(st.PhaseUtilization, u)
	}
	if s.Response > 0 {
		st.Utilization = st.TotalWork.Scale(1 / (float64(s.P) * s.Response))
	}
	return st
}

// WriteText renders the schedule as a per-phase site-load chart: one
// bar per site showing its most congested resource's load relative to
// the phase response, plus a placement table.
func WriteText(w io.Writer, s *Schedule) error {
	st := s.Stats()
	if _, err := fmt.Fprintf(w, "schedule: %.3f s on %d sites, %d phases, %d clones\n",
		s.Response, s.P, len(s.Phases), st.Clones); err != nil {
		return err
	}
	names := []string{"cpu", "disk", "net"}
	fmt.Fprintf(w, "utilization:")
	for i, u := range st.Utilization {
		n := fmt.Sprintf("r%d", i)
		if i < len(names) {
			n = names[i]
		}
		fmt.Fprintf(w, " %s %.1f%%", n, 100*u)
	}
	fmt.Fprintln(w)

	for _, ph := range s.Phases {
		fmt.Fprintf(w, "\nphase %d: %.3f s, %d operators\n",
			ph.Index, ph.Response, len(ph.Placements))
		loads := make([]vector.Vector, s.P)
		for j := range loads {
			loads[j] = vector.New(dimOf(ph))
		}
		for _, pl := range ph.Placements {
			k := 0
			for _, r := range pl.Work {
				for range r.N {
					loads[pl.Sites[k]].AddInPlace(r.W)
					k++
				}
			}
		}
		for j, l := range loads {
			frac := 0.0
			if ph.Response > 0 {
				frac = l.Length() / ph.Response
			}
			bar := strings.Repeat("#", int(float64(frac*40)+0.5))
			fmt.Fprintf(w, "  site %3d |%-40s| %5.1f%%\n", j, bar, frac*100)
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func dimOf(ph *PhaseSchedule) int {
	for _, pl := range ph.Placements {
		if len(pl.Work) > 0 {
			return pl.Work[0].W.Dim()
		}
	}
	return resource.Dims
}

// EncodeJSON renders the schedule as compact, stable JSON for
// downstream tooling, into a fresh buffer the caller owns:
//
//	{"response_seconds", "sites", "phases": [
//	  {"index", "response_seconds", "placements": [
//	    {"operator", "op_id", "kind", "degree", "rooted", "t_par_seconds",
//	     "sites": [...], "work": [{"n", "w": [...]}, ...]}]}]}
//
// sites holds one entry per clone. work is the placement's Work as
// maximal runs: adjacent runs whose vectors are bit-identical
// (math.Float64bits, so -0 and +0 differ) are written as one. Under EA1
// a placement is one or two runs, one when rounding absorbs the
// coordinator's startup. An empty list renders as [], except nil Sites,
// which render as null. The document is written by encoding/json: a NaN
// or infinite number fails with its *json.UnsupportedValueError.
func EncodeJSON(s *Schedule) ([]byte, error) {
	n := 0
	for _, ph := range s.Phases {
		n += len(ph.Placements)
	}
	placements := make([]placementDoc, n)
	doc := scheduleDoc{Response: s.Response, Sites: s.P, Phases: make([]phaseDoc, len(s.Phases))}
	for i, ph := range s.Phases {
		pls := placements[:len(ph.Placements)]
		placements = placements[len(ph.Placements):]
		for j, pl := range ph.Placements {
			pls[j] = placementDoc{
				Operator: pl.Op.Name, OpID: pl.Op.ID, Kind: pl.Op.Kind.String(),
				Degree: pl.Degree, Rooted: pl.Rooted, TPar: pl.TPar,
				Sites: pl.Sites, Work: maximalRuns(pl.Work),
			}
		}
		doc.Phases[i] = phaseDoc{Index: ph.Index, Response: ph.Response, Placements: pls}
	}
	return json.Marshal(&doc)
}

// maximalRuns is work with adjacent bit-identical runs merged: work
// itself when no runs merge, and empty for nil.
func maximalRuns(work []WorkRun) []WorkRun {
	for k := 1; k < len(work); k++ {
		if slices.EqualFunc(work[k-1].W, work[k].W, sameBits) {
			out := slices.Clone(work[:k])
			for _, r := range work[k:] {
				if last := &out[len(out)-1]; slices.EqualFunc(last.W, r.W, sameBits) {
					last.N += r.N
				} else {
					out = append(out, r)
				}
			}
			return out
		}
	}
	if work == nil {
		return []WorkRun{}
	}
	return work
}

// sameBits is float equality by representation: -0 and +0 differ.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// scheduleDoc, phaseDoc and placementDoc, with WorkRun, are the
// document EncodeJSON writes.
type scheduleDoc struct {
	Response float64    `json:"response_seconds"`
	Sites    int        `json:"sites"`
	Phases   []phaseDoc `json:"phases"`
}

type phaseDoc struct {
	Index      int            `json:"index"`
	Response   float64        `json:"response_seconds"`
	Placements []placementDoc `json:"placements"`
}

type placementDoc struct {
	Operator string    `json:"operator"`
	OpID     int       `json:"op_id"`
	Kind     string    `json:"kind"`
	Degree   int       `json:"degree"`
	Rooted   bool      `json:"rooted"`
	TPar     float64   `json:"t_par_seconds"`
	Sites    []int     `json:"sites"`
	Work     []WorkRun `json:"work"`
}

// WorkRun is N consecutive clones of one operator doing the same work
// vector W: the form an OpPlacement holds its clones' work in, and the
// one the schedule document writes.
type WorkRun struct {
	N int           `json:"n"`
	W vector.Vector `json:"w"`
}

// JSON returns the schedule's EncodeJSON rendering, computed on the
// first call and shared by every later one: a schedule is immutable,
// so its encoding is too. The returned bytes are read-only — callers
// that need to modify them use EncodeJSON. Safe for concurrent use; the
// memo is a field of the schedule and is collected with it.
func (s *Schedule) JSON() ([]byte, error) {
	s.jsonOnce.Do(func() { s.jsonData, s.jsonErr = EncodeJSON(s) })
	return s.jsonData, s.jsonErr
}
