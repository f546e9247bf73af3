// Plan fingerprinting for the serve-layer schedule cache. Two task
// trees with the same fingerprint under the same TreeScheduler
// configuration produce byte-identical schedules, because the
// fingerprint covers every input TreeSchedule reads: the cost-model
// parameters, the system size and overlap, the granularity parameter,
// the phase policy, the parallelism cap MaxDegree, the rooting
// constraints, and the full tree structure down to each operator's
// spec, name, and wiring. Fields that never influence a scheduling
// decision (Rec, Cache, and the inert Workers) are deliberately
// excluded — attaching a recorder or a cost cache must not change a
// plan's identity.
package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"mdrs/internal/plan"
)

// Fingerprint is a collision-resistant digest of (scheduler
// configuration, task tree). Comparable, so it keys maps directly.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// fpWriter adds typed, length-prefixed appends on top of a hash so
// adjacent variable-length fields cannot alias each other's encodings.
type fpWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *fpWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *fpWriter) i(v int)       { w.u64(uint64(int64(v))) }
func (w *fpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *fpWriter) b(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *fpWriter) str(s string) {
	w.i(len(s))
	w.h.Write([]byte(s))
}

// Fingerprint digests the scheduler configuration together with one
// task tree. It is pure: no scheduling happens, and the tree is only
// read. Equal fingerprints imply byte-identical Schedule output (and
// therefore byte-identical EncodeJSON renderings, which also read
// operator names).
func (ts TreeScheduler) Fingerprint(tt *plan.TaskTree) Fingerprint {
	w := &fpWriter{h: sha256.New()}

	// Scheduler configuration.
	pr := ts.Model.Params
	w.f64(pr.MIPS)
	w.f64(pr.DiskPageTime)
	w.f64(pr.Alpha)
	w.f64(pr.Beta)
	w.i(pr.TupleBytes)
	w.i(pr.PageTuples)
	w.f64(pr.ReadPageInstr)
	w.f64(pr.WritePageInstr)
	w.f64(pr.ExtractInstr)
	w.f64(pr.HashInstr)
	w.f64(pr.ProbeInstr)
	w.f64(ts.Overlap.Epsilon)
	w.i(ts.P)
	w.f64(ts.F)
	w.i(int(ts.Policy))
	// MaxDegree changes the schedule (it clamps every floating
	// operator's degree), so it must participate: a schedule cached
	// under one cap can never answer a request under another.
	w.i(ts.MaxDegree)

	// Rooting constraints, in sorted operator-ID order so map iteration
	// order cannot leak into the digest.
	ids := make([]int, 0, len(ts.Homes))
	for id := range ts.Homes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.i(len(ids))
	for _, id := range ids {
		sites := ts.Homes[id]
		w.i(id)
		w.i(len(sites))
		for _, s := range sites {
			w.i(s)
		}
	}

	// Tree structure. Tasks and operators are identified by their dense
	// IDs, so pointer links encode as IDs (-1 for nil).
	w.i(tt.Height)
	w.i(len(tt.Tasks))
	for _, tk := range tt.Tasks {
		w.i(tk.ID)
		w.i(tk.Level)
		w.i(taskID(tk.Parent))
		w.i(len(tk.Ops))
		for _, op := range tk.Ops {
			w.i(op.ID)
			w.i(int(op.Kind))
			w.i(int(op.Spec.Kind))
			w.i(op.Spec.InTuples)
			w.i(op.Spec.ResultTuples)
			w.b(op.Spec.NetIn)
			w.b(op.Spec.NetOut)
			w.str(op.Name)
			w.i(op.JoinID)
			w.i(opID(op.Consumer))
			w.i(int(op.ConsumerEdge))
			w.i(opID(op.BuildOp))
		}
	}

	var f Fingerprint
	w.h.Sum(f[:0])
	return f
}

func taskID(tk *plan.Task) int {
	if tk == nil {
		return -1
	}
	return tk.ID
}

func opID(op *plan.Operator) int {
	if op == nil {
		return -1
	}
	return op.ID
}
