package optim

import (
	"math"
	"runtime"
	"testing"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// The reference rules below are frozen copies of the three sparsifying
// Prepare bodies as they stood before selection, gather and the unsent
// rescale became one pass (sparse.Selector.TopKInto): TopK, then
// GatherInto, then a separate rescale or clearing loop, with the residual
// mass summed per element. They run the layers serially and keep no
// telemetry; TestPrepareMatchesReference holds the production rules to
// them bit for bit.

// refScratch is the per-layer selection state the reference rules share.
type refScratch struct {
	sel    []sparse.Selector
	chunks []sparse.Chunk
	filled []bool
	mass   []float64
	// sentNonFinite records whether a layer sent a ±Inf or NaN value; the
	// GD and DGC mass form Σ|all| − Σ|sent| is then NaN or ±Inf.
	sentNonFinite []bool
}

func newRefScratch(n int) refScratch {
	return refScratch{
		sel:           make([]sparse.Selector, n),
		chunks:        make([]sparse.Chunk, n),
		filled:        make([]bool, n),
		mass:          make([]float64, n),
		sentNonFinite: make([]bool, n),
	}
}

func (s *refScratch) assemble() sparse.Update {
	var out sparse.Update
	for i := range s.chunks {
		if s.filled[i] {
			out.Chunks = append(out.Chunks, s.chunks[i])
		}
	}
	return out
}

func (s *refScratch) noteSent(i int, c *sparse.Chunk) {
	s.sentNonFinite[i] = false
	for _, v := range c.Val {
		if math.IsInf(float64(v), 0) || v != v {
			s.sentNonFinite[i] = true
		}
	}
}

func refAbs(v float32) float64 {
	if v < 0 {
		return float64(-v)
	}
	return float64(v)
}

type refGD struct {
	keep float64
	r    [][]float32
	ts   refScratch
}

func (o *refGD) Prepare(grads [][]float32, lr float32) sparse.Update {
	for i := range grads {
		o.ts.filled[i] = false
		r := o.r[i]
		var mass float64
		for j, v := range grads[i] {
			r[j] += lr * v
			mass += refAbs(r[j])
		}
		k := sparse.KForRatio(len(r), o.keep)
		if k == 0 {
			o.ts.mass[i] = mass
			continue
		}
		idx := o.ts.sel[i].TopK(r, k)
		c := &o.ts.chunks[i]
		sparse.GatherInto(c, i, r, idx)
		sparse.ScatterZero(c, r)
		for _, v := range c.Val {
			mass -= refAbs(v)
		}
		o.ts.noteSent(i, c)
		o.ts.mass[i] = mass
		o.ts.filled[i] = true
	}
	return o.ts.assemble()
}

type refDGC struct {
	m    float32
	keep float64
	u, v [][]float32
	ts   refScratch
}

func (o *refDGC) Prepare(grads [][]float32, lr float32) sparse.Update {
	for i := range grads {
		o.ts.filled[i] = false
		u, v := o.u[i], o.v[i]
		var mass float64
		for j, gv := range grads[i] {
			u[j] = o.m*u[j] + lr*gv
			v[j] += u[j]
			mass += refAbs(v[j])
		}
		k := sparse.KForRatio(len(v), o.keep)
		if k == 0 {
			o.ts.mass[i] = mass
			continue
		}
		idx := o.ts.sel[i].TopK(v, k)
		c := &o.ts.chunks[i]
		sparse.GatherInto(c, i, v, idx)
		sparse.ScatterZero(c, v)
		for _, j := range c.Idx {
			u[j] = 0
		}
		for _, cv := range c.Val {
			mass -= refAbs(cv)
		}
		o.ts.noteSent(i, c)
		o.ts.mass[i] = mass
		o.ts.filled[i] = true
	}
	return o.ts.assemble()
}

type refSAM struct {
	m    float32
	keep float64
	u    [][]float32
	ts   refScratch
}

func (o *refSAM) Prepare(grads [][]float32, lr float32) sparse.Update {
	invM := 1 / o.m
	for i := range grads {
		o.ts.filled[i] = false
		u := o.u[i]
		for j, gv := range grads[i] {
			u[j] = o.m*u[j] + lr*gv
		}
		k := sparse.KForRatio(len(u), o.keep)
		if k == 0 {
			var mass float64
			for _, uv := range u {
				mass += refAbs(uv)
			}
			o.ts.mass[i] = mass
			continue
		}
		idx := o.ts.sel[i].TopK(u, k)
		c := &o.ts.chunks[i]
		sparse.GatherInto(c, i, u, idx)
		var mass float64
		si := 0
		for j := range u {
			if si < len(c.Idx) && int32(j) == c.Idx[si] {
				si++
				continue
			}
			u[j] *= invM
			mass += refAbs(u[j])
		}
		o.ts.mass[i] = mass
		o.ts.filled[i] = true
	}
	return o.ts.assemble()
}

func (o *refGD) SetKeepRatio(r float64)  { o.keep = r }
func (o *refDGC) SetKeepRatio(r float64) { o.keep = r }
func (o *refSAM) SetKeepRatio(r float64) { o.keep = r }

// specialValue is one of the gradient values that need care: NaN of either
// sign with a random payload, ±Inf, ±0 or a subnormal.
func specialValue(rng *tensor.RNG) float32 {
	sign := uint32(rng.Intn(2)) << 31
	switch rng.Intn(4) {
	case 0:
		return math.Float32frombits(sign | 0x7f800000 | uint32(1+rng.Intn(0x7fffff)))
	case 1:
		return math.Float32frombits(sign | 0x7f800000)
	case 2:
		return math.Float32frombits(sign)
	default:
		return math.Float32frombits(sign | uint32(1+rng.Intn(0x7fffff)))
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sameUpdate(a, b sparse.Update) bool {
	if len(a.Chunks) != len(b.Chunks) {
		return false
	}
	for i := range a.Chunks {
		ca, cb := &a.Chunks[i], &b.Chunks[i]
		if ca.Layer != cb.Layer || len(ca.Idx) != len(cb.Idx) || !sameBits(ca.Val, cb.Val) {
			return false
		}
		for j := range ca.Idx {
			if ca.Idx[j] != cb.Idx[j] {
				return false
			}
		}
	}
	return true
}

// unsentL1 is the L1 of acc outside the sent coordinates of c, in index
// order.
func unsentL1(acc []float32, c *sparse.Chunk) float64 {
	var l1 float64
	si := 0
	for j, v := range acc {
		if si < len(c.Idx) && int32(j) == c.Idx[si] {
			si++
			continue
		}
		l1 += refAbs(v)
	}
	return l1
}

// TestPrepareMatchesReference drives each sparsifying rule and its frozen
// reference through the same 120 steps over a multi-layer geometry: an
// empty layer, a 1-element layer (k == n), layers big enough that Prepare
// fans out across cores, a keep ratio that moves between 1% and 100% (k ==
// n on every layer), and gradients with NaN, ±Inf, ±0 and subnormals
// injected. Updates and optimizer state must match bitwise, and the
// residual mass to 1e-9 of the mass the reference summed (NaN equal to
// NaN; SAMomentum's exactly). The reference's GD and DGC mass,
// Σ|all| − Σ|sent|, is NaN or ±Inf whenever a sent value is not finite;
// for those layers the test compares against the unsent L1 of the
// reference state, which is what the mass means.
func TestPrepareMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 37, 4099, 1 << 16, 300}
	ratios := []float64{0.01, 0.01, 0.05, 0.3, 1}
	const m, steps = 0.7, 120
	for _, rule := range []string{"gd", "dgc", "samomentum"} {
		t.Run(rule, func(t *testing.T) {
			var got WorkerOptimizer
			var want interface {
				Prepare([][]float32, float32) sparse.Update
				RatioSetter
			}
			// The state buffers, the accumulator the Top-k selects from last.
			var gotBufs, wantBufs [][][]float32
			var wantTS *refScratch
			switch rule {
			case "gd":
				g := NewGradientDropping(sizes, ratios[0])
				r := &refGD{keep: ratios[0], r: allocLike(sizes), ts: newRefScratch(len(sizes))}
				got, want, wantTS = g, r, &r.ts
				gotBufs, wantBufs = [][][]float32{g.r}, [][][]float32{r.r}
			case "dgc":
				g := NewDGC(sizes, m, ratios[0])
				r := &refDGC{m: m, keep: ratios[0], u: allocLike(sizes), v: allocLike(sizes), ts: newRefScratch(len(sizes))}
				got, want, wantTS = g, r, &r.ts
				gotBufs, wantBufs = [][][]float32{g.u, g.v}, [][][]float32{r.u, r.v}
			default:
				g := NewSAMomentum(sizes, m, ratios[0])
				r := &refSAM{m: m, keep: ratios[0], u: allocLike(sizes), ts: newRefScratch(len(sizes))}
				got, want, wantTS = g, r, &r.ts
				gotBufs, wantBufs = [][][]float32{g.u}, [][][]float32{r.u}
			}
			gotTS, wantAcc := scratchOf(got), wantBufs[len(wantBufs)-1]
			rng := tensor.NewRNG(41)
			grads := allocLike(sizes)
			for step := range steps {
				keep := ratios[rng.Intn(len(ratios))]
				got.(RatioSetter).SetKeepRatio(keep)
				want.SetKeepRatio(keep)
				for _, g := range grads {
					rng.FillNormal(g, 0, 1)
					if step%4 == 3 {
						for range 1 + len(g)/2000 {
							if len(g) > 0 {
								g[rng.Intn(len(g))] = specialValue(rng)
							}
						}
					}
				}
				lr := float32(0.05)
				gu := got.Prepare(grads, lr)
				wu := want.Prepare(grads, lr)
				if !sameUpdate(gu, wu) {
					t.Fatalf("step %d (keep %v): update differs from the reference", step, keep)
				}
				for b := range gotBufs {
					for i := range gotBufs[b] {
						if !sameBits(gotBufs[b][i], wantBufs[b][i]) {
							t.Fatalf("step %d (keep %v): state buffer %d layer %d differs from the reference", step, keep, b, i)
						}
					}
				}
				for i := range sizes {
					g, w := gotTS.mass[i], wantTS.mass[i]
					if wantTS.sentNonFinite[i] {
						w = unsentL1(wantAcc[i], &wantTS.chunks[i])
					}
					ok := massMatches(g, w, wantTS, wantAcc[i], i)
					if rule == "samomentum" {
						// SAMomentum always summed the unsent coordinates
						// themselves, in index order: its mass is exact.
						ok = g == w || g != g && w != w
					}
					if !ok {
						t.Fatalf("step %d (keep %v) layer %d: residual mass %v, reference %v", step, keep, i, g, w)
					}
				}
			}
		})
	}
}

// massMatches compares a layer's residual mass with the reference's: NaN
// equals NaN, infinities must agree, and finite values must agree to 1e-9
// of the finite L1 the reference summed over the layer, sent and unsent
// (its rounding error scales with that sum, not with the difference it
// leaves).
func massMatches(got, want float64, ts *refScratch, acc []float32, layer int) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	if math.IsInf(got, 0) || math.IsInf(want, 0) {
		return got == want
	}
	var scale float64
	add := func(v float32) {
		if a := refAbs(v); !math.IsInf(a, 0) && a == a {
			scale += a
		}
	}
	for _, v := range acc {
		add(v)
	}
	if ts.filled[layer] {
		for _, v := range ts.chunks[layer].Val {
			add(v)
		}
	}
	return math.Abs(got-want) <= 1e-9*scale
}

// scratchOf returns a sparsifying rule's Top-k scratch.
func scratchOf(o WorkerOptimizer) *topkScratch {
	switch o := o.(type) {
	case *GradientDropping:
		return &o.ts
	case *DGC:
		return &o.ts
	case *SAMomentum:
		return &o.ts
	}
	panic("not a sparsifying rule")
}

// TestPrepareSteadyStateAllocs locks Prepare's zero-allocation contract at
// GOMAXPROCS 1 on drifting input: every call sees a fresh gradient set
// whose scale moves, so the boundary bucket of each layer's select changes
// size from call to call. Each measured call is counted exactly.
func TestPrepareSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sizes := []int{256 * 512, 512, 512 * 32, 32, 1}
	rng := tensor.NewRNG(43)
	grads := allocLike(sizes)
	for _, o := range []WorkerOptimizer{
		NewGradientDropping(sizes, 0.01),
		NewDGC(sizes, 0.7, 0.01),
		NewSAMomentum(sizes, 0.7, 0.01),
	} {
		step := func() {
			std := float32(0.1 + 2*rng.Float64())
			for _, g := range grads {
				rng.FillNormal(g, 0, std)
			}
			o.Prepare(grads, 0.05)
		}
		// The residual distributions drift for a while after the start,
		// and the selector's scratch grows geometrically to follow them.
		for range 100 {
			step()
		}
		var allocs float64
		for range 20 {
			allocs += testing.AllocsPerRun(1, step)
		}
		if allocs > 0 {
			t.Errorf("%s: %v allocations over 20 steady-state Prepare calls, want 0", o.Name(), allocs)
		}
	}
}

// BenchmarkPrepare times one Prepare of each sparsifying rule on the wide
// benchmark model (the 256-2048-256-32 MLP, 1.06M parameters) at a 1% keep
// ratio, cycling through four gradient sets.
func BenchmarkPrepare(b *testing.B) {
	sizes := []int{256 * 2048, 2048, 2048 * 256, 256, 256 * 32, 32}
	rng := tensor.NewRNG(44)
	sets := make([][][]float32, 4)
	for i := range sets {
		sets[i] = allocLike(sizes)
		for _, g := range sets[i] {
			rng.FillNormal(g, 0, 1)
		}
	}
	for _, o := range []WorkerOptimizer{
		NewGradientDropping(sizes, 0.01),
		NewDGC(sizes, 0.7, 0.01),
		NewSAMomentum(sizes, 0.7, 0.01),
	} {
		b.Run(o.Name(), func(b *testing.B) {
			o.Prepare(sets[0], 0.01)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				o.Prepare(sets[i%len(sets)], 0.01)
			}
		})
	}
}
