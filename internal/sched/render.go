package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

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
			if len(pl.Clones) > 0 {
				d = pl.Clones[0].Dim()
				break
			}
		}
	}
	st := Stats{TotalWork: vector.New(d), Utilization: vector.New(d)}
	for _, ph := range s.Phases {
		phaseWork := vector.New(d)
		for _, pl := range ph.Placements {
			for _, w := range pl.Clones {
				phaseWork.AddInPlace(w)
				st.Clones++
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
			for k, site := range pl.Sites {
				loads[site].AddInPlace(pl.Clones[k])
			}
		}
		for j, l := range loads {
			frac := 0.0
			if ph.Response > 0 {
				frac = l.Length() / ph.Response
			}
			bar := strings.Repeat("#", int(frac*40+0.5))
			fmt.Fprintf(w, "  site %3d |%-40s| %5.1f%%\n", j, bar, frac*100)
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func dimOf(ph *PhaseSchedule) int {
	for _, pl := range ph.Placements {
		if len(pl.Clones) > 0 {
			return pl.Clones[0].Dim()
		}
	}
	return resource.Dims
}

// EncodeJSON renders the schedule as indented, stable JSON for
// downstream tooling, into a fresh buffer the caller owns. The bytes
// are exactly what encoding/json's indented marshalling (no prefix,
// two-space indent) yields for the document below (the identity is
// pinned in render_test.go), written in one pass with no intermediate
// value tree:
//
//	{"response_seconds", "sites", "phases": [
//	  {"index", "response_seconds", "placements": [
//	    {"operator", "op_id", "kind", "degree", "rooted", "t_par_seconds",
//	     "sites": [...], "clone_work_vectors": [[...], ...]}]}]}
//
// An empty phase list, an empty placement list and a zero-length work
// vector render as null, nil Sites as null and empty Sites as []. A NaN
// or infinite number fails with the *json.UnsupportedValueError that
// encoding/json reports.
func EncodeJSON(s *Schedule) ([]byte, error) {
	scratch := encodeScratch.Get().(*[]byte)
	e := encoder{b: (*scratch)[:0]}
	e.raw("{\n  \"response_seconds\": ")
	e.float(s.Response)
	e.raw(",\n  \"sites\": ")
	e.int(s.P)
	e.raw(",\n  \"phases\": ")
	for i, ph := range s.Phases {
		e.open(i, 2)
		e.raw("{\n      \"index\": ")
		e.int(ph.Index)
		e.raw(",\n      \"response_seconds\": ")
		e.float(ph.Response)
		e.raw(",\n      \"placements\": ")
		for j, pl := range ph.Placements {
			e.open(j, 4)
			e.placement(pl)
		}
		e.close(len(ph.Placements), 3, "null")
		e.raw("\n    }")
	}
	e.close(len(s.Phases), 1, "null")
	e.raw("\n}")
	var out []byte
	if e.err == nil {
		out = make([]byte, len(e.b))
		copy(out, e.b)
	}
	// Only now, with the rendering copied out, may another encode have
	// the scratch.
	*scratch = e.b
	encodeScratch.Put(scratch)
	return out, e.err
}

// encodeScratch recycles the buffer EncodeJSON renders into. Number
// widths are data, so the output's size is only known once it is
// written; rendering into reused scratch and returning one exact-size
// copy makes an encode a single allocation of len(output) bytes, and
// leaves a memoized rendering holding no slack.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// JSON returns the schedule's EncodeJSON rendering, computed on the
// first call and shared by every later one: a schedule is immutable,
// so its encoding is too. The returned bytes are read-only — callers
// that need to modify them use EncodeJSON. Safe for concurrent use; the
// memo is a field of the schedule and is collected with it.
func (s *Schedule) JSON() ([]byte, error) {
	s.jsonOnce.Do(func() { s.jsonData, s.jsonErr = EncodeJSON(s) })
	return s.jsonData, s.jsonErr
}

// encoder appends JSON text to b. The first unencodable number is kept
// in err and encoding carries on, so the hot path checks nothing.
type encoder struct {
	b   []byte
	err error
}

// jsonIndent is a newline followed by the deepest indentation the
// document reaches (a work-vector component, depth 7).
const jsonIndent = "\n              "

// newline returns the line break that precedes a value at the given
// nesting depth.
func newline(depth int) string { return jsonIndent[:1+2*depth] }

// open starts element i of an array whose elements sit at the given
// depth: the bracket before the first, a comma before the others.
func (e *encoder) open(i, depth int) {
	sep := byte(',')
	if i == 0 {
		sep = '['
	}
	e.b = append(append(e.b, sep), newline(depth)...)
}

// close ends an array of n elements whose brackets sit at the given
// depth; with no element open never ran and the array renders as empty.
func (e *encoder) close(n, depth int, empty string) {
	if n == 0 {
		e.raw(empty)
		return
	}
	e.b = append(append(e.b, newline(depth)...), ']')
}

func (e *encoder) placement(pl *OpPlacement) {
	e.raw("{\n          \"operator\": ")
	e.str(pl.Op.Name)
	e.raw(",\n          \"op_id\": ")
	e.int(pl.Op.ID)
	e.raw(",\n          \"kind\": ")
	e.str(pl.Op.Kind.String())
	e.raw(",\n          \"degree\": ")
	e.int(pl.Degree)
	e.raw(",\n          \"rooted\": ")
	e.b = strconv.AppendBool(e.b, pl.Rooted)
	e.raw(",\n          \"t_par_seconds\": ")
	e.float(pl.TPar)
	e.raw(",\n          \"sites\": ")
	for k, site := range pl.Sites {
		e.open(k, 6)
		e.int(site)
	}
	empty := "[]"
	if pl.Sites == nil {
		empty = "null"
	}
	e.close(len(pl.Sites), 5, empty)
	e.raw(",\n          \"clone_work_vectors\": ")
	for k, w := range pl.Clones {
		e.open(k, 6)
		for c, x := range w {
			e.open(c, 7)
			e.float(x)
		}
		e.close(len(w), 6, "null")
	}
	e.close(len(pl.Clones), 5, "[]")
	e.raw("\n        }")
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// float appends f the way encoding/json does: the shortest decimal that
// round-trips, in exponent form below 1e-6 and from 1e21 (ES6 number to
// string), with a one-digit negative exponent not padded to two.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str appends s as a JSON string. Operator names are plain ASCII, which
// is copied between quotes; a string with anything encoding/json would
// escape (quote, backslash, control characters, <, > and &, non-ASCII
// for the sake of U+2028, U+2029 and invalid UTF-8) is left to it.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, quoted...)
			return
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}
