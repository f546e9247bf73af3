package costmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"mdrs/internal/resource"
	"mdrs/internal/vector"
)

func TestDefaultParamsMatchTable2(t *testing.T) {
	p := DefaultParams()
	if p.MIPS != 1 {
		t.Errorf("MIPS = %g, want 1", p.MIPS)
	}
	if p.DiskPageTime != 0.020 {
		t.Errorf("DiskPageTime = %g, want 0.020", p.DiskPageTime)
	}
	if p.Alpha != 0.015 {
		t.Errorf("Alpha = %g, want 0.015", p.Alpha)
	}
	if p.Beta != 0.6e-6 {
		t.Errorf("Beta = %g, want 0.6e-6", p.Beta)
	}
	if p.TupleBytes != 128 || p.PageTuples != 40 {
		t.Errorf("tuple/page = %d/%d, want 128/40", p.TupleBytes, p.PageTuples)
	}
	if p.ReadPageInstr != 5000 || p.WritePageInstr != 5000 ||
		p.ExtractInstr != 300 || p.HashInstr != 100 || p.ProbeInstr != 200 {
		t.Errorf("instruction counts differ from Table 2: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Table 2 defaults invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mods := []func(*Params){
		func(p *Params) { p.MIPS = 0 },
		func(p *Params) { p.DiskPageTime = -1 },
		func(p *Params) { p.Alpha = 0 },
		func(p *Params) { p.Beta = -1 },
		func(p *Params) { p.TupleBytes = 0 },
		func(p *Params) { p.PageTuples = -3 },
		func(p *Params) { p.HashInstr = -1 },
	}
	for i, mod := range mods {
		p := DefaultParams()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
		if _, err := New(p); err == nil {
			t.Errorf("case %d: New accepted bad params", i)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with MIPS=0 did not panic")
		}
	}()
	p := DefaultParams()
	p.MIPS = 0
	MustNew(p)
}

func TestPagesAndBytes(t *testing.T) {
	p := DefaultParams()
	tests := []struct {
		tuples, pages int
	}{
		{0, 0}, {1, 1}, {39, 1}, {40, 1}, {41, 2}, {1000, 25}, {-5, 0},
	}
	for _, tt := range tests {
		if got := p.Pages(tt.tuples); got != tt.pages {
			t.Errorf("Pages(%d) = %d, want %d", tt.tuples, got, tt.pages)
		}
	}
	if got := p.Bytes(1000); got != 128000 {
		t.Errorf("Bytes(1000) = %g, want 128000", got)
	}
	if got := p.Bytes(-1); got != 0 {
		t.Errorf("Bytes(-1) = %g, want 0", got)
	}
}

// The page ceiling must not wrap around at the top of the int range: a
// plan leaf of math.MaxInt tuples is valid and must cost a valid vector.
func TestPagesAtMaxInt(t *testing.T) {
	p := DefaultParams()
	want := math.MaxInt/p.PageTuples + 1 // MaxInt is not a multiple of 40
	if got := p.Pages(math.MaxInt); got != want {
		t.Fatalf("Pages(MaxInt) = %d, want %d", got, want)
	}
	m := Default()
	for _, kind := range []OpKind{Scan, Store} {
		c := m.Cost(OpSpec{Kind: kind, InTuples: math.MaxInt, NetOut: true})
		if err := c.Processing.Validate(); err != nil {
			t.Errorf("%v of MaxInt tuples: %v", kind, err)
		}
	}
}

func TestScanCost(t *testing.T) {
	m := Default()
	// 1000 tuples = 25 pages. CPU = 25*5000 + 1000*300 = 425000 instr =
	// 0.425 s at 1 MIPS. Disk = 25 * 0.020 = 0.5 s.
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 1000, NetOut: true})
	if got := c.Processing[resource.CPU]; math.Abs(got-0.425) > 1e-12 {
		t.Errorf("scan CPU = %g, want 0.425", got)
	}
	if got := c.Processing[resource.Disk]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scan disk = %g, want 0.5", got)
	}
	if got := c.Processing[resource.Net]; got != 0 {
		t.Errorf("scan processing net = %g, want 0 (net is communication area)", got)
	}
	if got := c.D; got != 128000 {
		t.Errorf("scan D = %g, want 128000 (output repartitioned)", got)
	}
	// Without NetOut there is no interconnect traffic.
	if got := m.Cost(OpSpec{Kind: Scan, InTuples: 1000}).D; got != 0 {
		t.Errorf("local scan D = %g, want 0", got)
	}
}

func TestBuildCost(t *testing.T) {
	m := Default()
	c := m.Cost(OpSpec{Kind: Build, InTuples: 2000, NetIn: true})
	// 2000 * (300 extract + 100 hash) instr = 0.8 s.
	if got := c.Processing[resource.CPU]; math.Abs(got-0.8) > 1e-12 {
		t.Errorf("build CPU = %g, want 0.8", got)
	}
	if c.Processing[resource.Disk] != 0 {
		t.Errorf("build disk = %g, want 0 (A1: table memory-resident)", c.Processing[resource.Disk])
	}
	if got := c.D; got != 256000 {
		t.Errorf("build D = %g, want 256000", got)
	}
}

func TestProbeCost(t *testing.T) {
	m := Default()
	// probe 3000 tuples producing 5000: CPU = 3000*200 + 5000*300 = 2.1e6
	// instr = 2.1 s.
	c := m.Cost(OpSpec{Kind: Probe, InTuples: 3000, ResultTuples: 5000, NetIn: true, NetOut: true})
	if got := c.Processing[resource.CPU]; math.Abs(got-2.1) > 1e-12 {
		t.Errorf("probe CPU = %g, want 2.1", got)
	}
	if got := c.D; got != float64((3000+5000)*128) {
		t.Errorf("probe D = %g, want %g", got, float64((3000+5000)*128))
	}
}

func TestStoreCost(t *testing.T) {
	m := Default()
	c := m.Cost(OpSpec{Kind: Store, InTuples: 400, NetIn: true})
	// 10 pages: CPU = 50000 instr = 0.05 s, disk = 0.2 s.
	if math.Abs(c.Processing[resource.CPU]-0.05) > 1e-12 ||
		math.Abs(c.Processing[resource.Disk]-0.2) > 1e-12 {
		t.Errorf("store cost = %v", c.Processing)
	}
	if c.D != 51200 {
		t.Errorf("store D = %g, want 51200", c.D)
	}
}

func TestCostUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	Default().Cost(OpSpec{Kind: OpKind(99), InTuples: 10})
}

func TestOpKindString(t *testing.T) {
	want := map[OpKind]string{Scan: "scan", Build: "build", Probe: "probe", Store: "store"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if OpKind(42).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}

func TestCommAreaAndCoarseGrain(t *testing.T) {
	m := Default()
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 10000, NetOut: true})
	// W_c(op, N) = 0.015 N + 0.6e-6 * 1.28e6 = 0.015 N + 0.768.
	if got := m.CommArea(c, 10); math.Abs(got-(0.15+0.768)) > 1e-9 {
		t.Errorf("CommArea(10) = %g", got)
	}
	// Definition 4.1 must agree with NMax: N = NMax is coarse grain,
	// N = NMax+1 is not.
	f := 0.5
	nmax := m.NMax(c, f)
	if nmax > 1 && !m.IsCoarseGrain(c, nmax, f) {
		t.Errorf("N_max = %d not coarse grain", nmax)
	}
	if m.IsCoarseGrain(c, nmax+1, f) {
		t.Errorf("N_max+1 = %d still coarse grain", nmax+1)
	}
}

func TestNMaxFormula(t *testing.T) {
	m := Default()
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 10000, NetOut: true})
	// W_p = CPU + disk = (250*5000 + 10000*300)/1e6 + 250*0.02
	//     = 4.25 + 5 = 9.25 s. βD = 0.768 s.
	wp := c.ProcessingArea()
	if math.Abs(wp-9.25) > 1e-9 {
		t.Fatalf("W_p = %g, want 9.25", wp)
	}
	f := 0.7
	want := int(math.Floor((f*9.25 - 0.768) / 0.015))
	if got := m.NMax(c, f); got != want {
		t.Errorf("NMax = %d, want %d", got, want)
	}
	// A heavily communicating, tiny operator must still be allowed a
	// sequential execution.
	tiny := OpCost{Processing: vector.Of(1e-6, 0, 0), D: 1e9}
	if got := m.NMax(tiny, 0.3); got != 1 {
		t.Errorf("NMax(tiny) = %d, want 1", got)
	}
}

func TestNMaxNegativeFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NMax(f<0) did not panic")
		}
	}()
	Default().NMax(OpCost{Processing: vector.New(3)}, -0.1)
}

func TestClonesStructure(t *testing.T) {
	m := Default()
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 4000, NetOut: true})
	n := 5
	clones := m.Clones(c, n)
	if len(clones) != n {
		t.Fatalf("len(clones) = %d, want %d", len(clones), n)
	}
	// Total over clones = W_p + W_c componentwise sum property
	// (Section 5.1): Σ_k W_op[k] = W_p + W_c(op, N).
	total := vector.SumSet(clones)
	if math.Abs(total.Sum()-(c.ProcessingArea()+m.CommArea(c, n))) > 1e-9 {
		t.Errorf("clone total %g != W_p + W_c = %g",
			total.Sum(), c.ProcessingArea()+m.CommArea(c, n))
	}
	// TotalWork agrees with the clone sum.
	if !total.ApproxEqual(m.TotalWork(c, n), 1e-9) {
		t.Errorf("TotalWork = %v, clone sum = %v", m.TotalWork(c, n), total)
	}
	// Coordinator dominates every other clone componentwise.
	for k := 1; k < n; k++ {
		if !clones[k].LE(clones[0]) {
			t.Errorf("clone %d = %v not dominated by coordinator %v", k, clones[k], clones[0])
		}
	}
	// Non-coordinator clones are identical and carry exactly 1/N of the
	// processing and network work.
	nf := float64(n)
	wantBase := vector.Of(
		c.Processing[resource.CPU]/nf,
		c.Processing[resource.Disk]/nf,
		m.Params.Beta*c.D/nf,
	)
	for k := 1; k < n; k++ {
		if !clones[k].ApproxEqual(wantBase, 1e-12) {
			t.Errorf("clone %d = %v, want %v", k, clones[k], wantBase)
		}
	}
	// Coordinator = base + αN/2 on CPU and Net.
	s := m.Params.Alpha * nf / 2
	wantCoord := wantBase.Add(vector.Of(s, 0, s))
	if !clones[0].ApproxEqual(wantCoord, 1e-12) {
		t.Errorf("coordinator = %v, want %v", clones[0], wantCoord)
	}
}

// clonesByCopy is Clones as it was before the vectors shared a backing
// array: a base vector cloned once per site, startup added to clone 0.
func clonesByCopy(m Model, c OpCost, n int) []vector.Vector {
	p := m.Params
	base := vector.New(resource.Dims)
	nf := float64(n)
	base[resource.CPU] = c.Processing[resource.CPU] / nf
	base[resource.Disk] = c.Processing[resource.Disk] / nf
	base[resource.Net] = p.Beta * c.D / nf

	out := make([]vector.Vector, n)
	coord := base.Clone()
	startup := p.Alpha * nf / 2
	coord[resource.CPU] += startup
	coord[resource.Net] += startup
	out[0] = coord
	for k := 1; k < n; k++ {
		out[k] = base.Clone()
	}
	return out
}

// TestClonesSlabLayout checks the one-array layout of Clones: every
// component is bit-equal to the per-clone construction, consecutive
// vectors occupy disjoint ascending windows, and no vector has spare
// capacity reaching into its neighbour.
func TestClonesSlabLayout(t *testing.T) {
	m := Default()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		c := m.Cost(OpSpec{
			Kind:         OpKind(r.Intn(4)),
			InTuples:     1 + r.Intn(100000),
			ResultTuples: 1 + r.Intn(100000),
			NetIn:        r.Intn(2) == 0,
			NetOut:       r.Intn(2) == 0,
		})
		n := 1 + r.Intn(140)
		got, want := m.Clones(c, n), clonesByCopy(m, c, n)
		if len(got) != n {
			t.Fatalf("len(Clones) = %d, want %d", len(got), n)
		}
		const d = resource.Dims
		for k := range got {
			if len(got[k]) != d || cap(got[k]) != d {
				t.Fatalf("clone %d has len %d cap %d, want %d/%d", k, len(got[k]), cap(got[k]), d, d)
			}
			for i := range got[k] {
				if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
					t.Fatalf("n = %d clone %d component %d = %v, per-clone construction gives %v",
						n, k, i, got[k][i], want[k][i])
				}
			}
			if k+1 < n && uintptr(unsafe.Pointer(&got[k][d-1])) >= uintptr(unsafe.Pointer(&got[k+1][0])) {
				t.Fatalf("n = %d: clone %d overlaps clone %d", n, k, k+1)
			}
		}
	}
}

func TestClonesInvalidNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clones(0) did not panic")
		}
	}()
	Default().Clones(OpCost{Processing: vector.New(3)}, 0)
}

func TestTParSequentialEqualsTSeqPlusStartup(t *testing.T) {
	m := Default()
	ov := resource.MustOverlap(0.5)
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 1000})
	// N = 1: a single clone carrying W_p plus α startup.
	got := m.TPar(c, 1, ov)
	w := c.Processing.Clone()
	w[resource.CPU] += m.Params.Alpha / 2
	w[resource.Net] += m.Params.Alpha / 2
	if math.Abs(got-ov.TSeq(w)) > 1e-12 {
		t.Errorf("TPar(1) = %g, want %g", got, ov.TSeq(w))
	}
}

func TestTParSpeedupThenSlowdown(t *testing.T) {
	m := Default()
	ov := resource.MustOverlap(0.5)
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 50000, NetOut: true})
	t2, t8 := m.TPar(c, 2, ov), m.TPar(c, 8, ov)
	if t8 >= t2 {
		t.Errorf("no speedup: TPar(2) = %g, TPar(8) = %g", t2, t8)
	}
	// With enormous parallelism, startup dominates and causes
	// a slow-down relative to the optimum (assumption A4's limit).
	nopt := m.NOpt(c, 10000, ov)
	if m.TPar(c, nopt, ov) > m.TPar(c, nopt+50, ov) {
		t.Errorf("NOpt = %d is not a minimum", nopt)
	}
}

func TestNOptIsArgmin(t *testing.T) {
	m := Default()
	ov := resource.MustOverlap(0.3)
	c := m.Cost(OpSpec{Kind: Probe, InTuples: 30000, ResultTuples: 60000, NetIn: true, NetOut: true})
	maxN := 200
	nopt := m.NOpt(c, maxN, ov)
	best := m.TPar(c, nopt, ov)
	for n := 1; n <= maxN; n++ {
		if m.TPar(c, n, ov) < best-1e-12 {
			t.Fatalf("NOpt = %d (T = %g) beaten by N = %d (T = %g)",
				nopt, best, n, m.TPar(c, n, ov))
		}
	}
}

func TestNOptInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NOpt(maxN=0) did not panic")
		}
	}()
	Default().NOpt(OpCost{Processing: vector.New(3)}, 0, resource.MustOverlap(0.5))
}

func TestDegreeRespectsAllCaps(t *testing.T) {
	m := Default()
	ov := resource.MustOverlap(0.5)
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 20000, NetOut: true})
	for _, f := range []float64{0.3, 0.5, 0.7, 0.9} {
		for _, p := range []int{1, 5, 20, 140} {
			n := m.Degree(c, f, p, ov)
			if n < 1 || n > p {
				t.Fatalf("Degree(f=%g, P=%d) = %d outside [1, P]", f, p, n)
			}
			if n > m.NMax(c, f) {
				t.Fatalf("Degree(f=%g, P=%d) = %d > NMax = %d", f, p, n, m.NMax(c, f))
			}
			// A4: T^par non-increasing up to the chosen degree.
			prev := math.Inf(1)
			for k := 1; k <= n; k++ {
				cur := m.TPar(c, k, ov)
				if cur > prev+1e-12 {
					t.Fatalf("T^par increases before Degree: N=%d", k)
				}
				prev = cur
			}
		}
	}
}

func TestDegreeGrowsWithF(t *testing.T) {
	m := Default()
	ov := resource.MustOverlap(0.5)
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 100000, NetOut: true})
	p := 140
	prev := 0
	for _, f := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		n := m.Degree(c, f, p, ov)
		if n < prev {
			t.Fatalf("Degree not monotone in f: f=%g gives %d < %d", f, n, prev)
		}
		prev = n
	}
}

// Property: the clone decomposition conserves work exactly — for any
// operator and degree, the componentwise sum of clones equals TotalWork,
// and every clone's components are non-negative.
func TestQuickClonesConserveWork(t *testing.T) {
	m := Default()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := OpSpec{
			Kind:         OpKind(r.Intn(4)),
			InTuples:     1 + r.Intn(100000),
			ResultTuples: 1 + r.Intn(100000),
			NetIn:        r.Intn(2) == 0,
			NetOut:       r.Intn(2) == 0,
		}
		c := m.Cost(spec)
		n := 1 + r.Intn(140)
		clones := m.Clones(c, n)
		for _, w := range clones {
			if err := w.Validate(); err != nil {
				return false
			}
		}
		return vector.SumSet(clones).ApproxEqual(m.TotalWork(c, n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: N_max is non-decreasing in f and the CG_f condition holds at
// N_max whenever N_max > 1.
func TestQuickNMaxMonotoneInF(t *testing.T) {
	m := Default()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := m.Cost(OpSpec{
			Kind:     Scan,
			InTuples: 1 + r.Intn(100000),
			NetOut:   r.Intn(2) == 0,
		})
		f1 := r.Float64()
		f2 := f1 + r.Float64()
		n1, n2 := m.NMax(c, f1), m.NMax(c, f2)
		if n1 > n2 {
			return false
		}
		if n1 > 1 && !m.IsCoarseGrain(c, n1, f1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: the closed-form TPar equals the explicit max over clone
// TSeq values (the coordinator-dominance shortcut is exact).
func TestQuickTParMatchesCloneMax(t *testing.T) {
	m := Default()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := m.Cost(OpSpec{
			Kind:         OpKind(r.Intn(4)),
			InTuples:     1 + r.Intn(100000),
			ResultTuples: 1 + r.Intn(100000),
			NetIn:        r.Intn(2) == 0,
			NetOut:       r.Intn(2) == 0,
		})
		ov := resource.MustOverlap(r.Float64())
		n := 1 + r.Intn(140)
		want := 0.0
		for _, w := range m.Clones(c, n) {
			if s := ov.TSeq(w); s > want {
				want = s
			}
		}
		return math.Abs(m.TPar(c, n, ov)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCostScan(b *testing.B) {
	m := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Cost(OpSpec{Kind: Scan, InTuples: 100000, NetOut: true})
	}
}

func BenchmarkNOpt(b *testing.B) {
	m := Default()
	ov := resource.MustOverlap(0.5)
	c := m.Cost(OpSpec{Kind: Scan, InTuples: 100000, NetOut: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.NOpt(c, 140, ov)
	}
}
