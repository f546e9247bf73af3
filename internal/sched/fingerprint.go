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
	"math"
	"slices"
	"strconv"
	"sync"

	"mdrs/internal/plan"
)

// Fingerprint is a collision-resistant digest of (scheduler
// configuration, task tree). Comparable, so it keys maps directly.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// fpEncoder appends the digested fields to one buffer, hashed once:
// varint integers, 8-byte floats, 1-byte bools and length-prefixed
// strings, every count before what it counts, so the encoding is
// prefix-free (DESIGN §10) and equal encodings mean equal fields.
type fpEncoder struct {
	buf []byte
	ids []int // the Homes keys, sorted
}

// fpPool keeps encoders between calls: a warm Fingerprint allocates nothing.
var fpPool = sync.Pool{New: func() any { return new(fpEncoder) }}

func (e *fpEncoder) i(v int) { e.buf = binary.AppendVarint(e.buf, int64(v)) }
func (e *fpEncoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *fpEncoder) b(v bool) { e.buf = strconv.AppendBool(e.buf, v)[:len(e.buf)+1] } // 't' or 'f'

func (e *fpEncoder) str(s string) {
	e.i(len(s))
	e.buf = append(e.buf, s...)
}

// Fingerprint digests the scheduler configuration together with one
// task tree. It is pure: no scheduling happens, and the tree is only
// read. Equal fingerprints imply byte-identical Schedule output (and
// therefore byte-identical EncodeJSON renderings, which also read
// operator names).
func (ts TreeScheduler) Fingerprint(tt *plan.TaskTree) Fingerprint {
	w := fpPool.Get().(*fpEncoder)
	defer fpPool.Put(w)
	w.buf = w.buf[:0]

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
	w.ids = w.ids[:0]
	for id := range ts.Homes {
		w.ids = append(w.ids, id)
	}
	slices.Sort(w.ids)
	w.i(len(w.ids))
	for _, id := range w.ids {
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

	return sha256.Sum256(w.buf)
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
