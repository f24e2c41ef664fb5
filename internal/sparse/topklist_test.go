package sparse

import (
	"math"
	"testing"

	"dgs/internal/tensor"
)

// TestTopKListMatchesTopK is the bitwise contract the ps secondary path
// rests on: selecting over a shuffled candidate list covering the full
// layer must pick exactly the coordinates a dense TopK picks, in the same
// (ascending-coordinate) order, regardless of how the list is laid out.
// Inputs deliberately include zeros, NaNs, infinities, and ~2^40 of
// dynamic range.
func TestTopKListMatchesTopK(t *testing.T) {
	rng := tensor.NewRNG(7)
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(200) + 1
		raw := make([]float32, n)
		for i := range raw {
			switch rng.Intn(12) {
			case 0:
				raw[i] = 0
			case 1:
				raw[i] = float32(math.NaN())
			case 2:
				raw[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
			default:
				raw[i] = (rng.Float32() - 0.5) * float32(math.Pow(2, float64(rng.Intn(41)-20)))
			}
		}
		k := rng.Intn(n) + 1

		var dense Selector
		want := append([]int32(nil), dense.TopK(raw, k)...)

		// Build a candidate list holding every coordinate in a random order.
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		val := make([]float32, n)
		for i, g := range perm {
			val[i] = raw[g]
		}
		var list Selector
		pos, thr := list.TopKList(val, perm, k)

		if len(pos) != len(want) {
			t.Fatalf("trial %d: selected %d, dense selected %d", trial, len(pos), len(want))
		}
		for i, p := range pos {
			if perm[p] != want[i] {
				t.Fatalf("trial %d entry %d: coordinate %d, dense has %d (n=%d k=%d)",
					trial, i, perm[p], want[i], n, k)
			}
			if math.Float32bits(val[p]) != math.Float32bits(raw[want[i]]) {
				t.Fatalf("trial %d entry %d: value bits differ", trial, i)
			}
		}
		// The threshold is the smallest selected magnitude in Rank space.
		minSel := float32(math.Inf(1))
		for _, i := range want {
			if r := Rank(raw[i]); r < minSel {
				minSel = r
			}
		}
		if math.Float32bits(thr) != math.Float32bits(minSel) {
			t.Fatalf("trial %d: thr %v, want %v", trial, thr, minSel)
		}
	}
}

// TestTopKListSubsetSelection checks the narrowing property itself: when
// the candidate list is only a superset of the dense top-k (plus arbitrary
// extra coordinates), the selection still matches the dense one.
func TestTopKListSubsetSelection(t *testing.T) {
	rng := tensor.NewRNG(99)
	x := make([]float32, 5000)
	rng.FillNormal(x, 0, 1)
	const k = 50
	var dense Selector
	want := append([]int32(nil), dense.TopK(x, k)...)

	// Candidates: the true top-k plus every 7th coordinate.
	var gidx []int32
	var val []float32
	seen := map[int32]bool{}
	for _, i := range want {
		seen[i] = true
	}
	for i := int32(0); i < int32(len(x)); i++ {
		if seen[i] || i%7 == 0 {
			gidx = append(gidx, i)
			val = append(val, x[i])
		}
	}
	var list Selector
	pos, _ := list.TopKList(val, gidx, k)
	if len(pos) != k {
		t.Fatalf("selected %d, want %d", len(pos), k)
	}
	for i, p := range pos {
		if gidx[p] != want[i] {
			t.Fatalf("entry %d: coordinate %d, dense top-k has %d", i, gidx[p], want[i])
		}
	}
}

// TestTopKListEdges pins the degenerate shapes.
func TestTopKListEdges(t *testing.T) {
	var s Selector
	if pos, thr := s.TopKList(nil, nil, 3); pos != nil || thr != 0 {
		t.Fatalf("empty list: got %v, %v", pos, thr)
	}
	if pos, thr := s.TopKList([]float32{1, 2}, []int32{5, 9}, 0); pos != nil || thr != 0 {
		t.Fatalf("k=0: got %v, %v", pos, thr)
	}
	// k >= n selects everything, sorted by coordinate, thr = min magnitude.
	gidx := []int32{9, 2, 5}
	pos, thr := s.TopKList([]float32{-4, 1, 3}, gidx, 10)
	if len(pos) != 3 {
		t.Fatalf("k>n selected %d of 3", len(pos))
	}
	wantOrder := []int32{2, 5, 9}
	for i, p := range pos {
		if gidx[p] != wantOrder[i] {
			t.Fatalf("entry %d: coordinate %d, want %d", i, gidx[p], wantOrder[i])
		}
	}
	if thr != 1 {
		t.Fatalf("thr = %v, want 1", thr)
	}
}

// TestRankTotalOrder: Rank must promote NaN to +Inf so selection has a
// strict total order — TopKList's results must not depend on array layout.
func TestRankTotalOrder(t *testing.T) {
	nan := float32(math.NaN())
	if r := Rank(nan); !math.IsInf(float64(r), 1) {
		t.Fatalf("Rank(NaN) = %v, want +Inf", r)
	}
	if Rank(-3) != 3 || Rank(3) != 3 || Rank(0) != 0 {
		t.Fatal("Rank must be |v| for non-NaN")
	}
	// −0 ranks as +0, and every NaN, whatever its sign and payload, as +Inf.
	if r := Rank(float32(math.Copysign(0, -1))); math.Float32bits(r) != 0 {
		t.Fatalf("Rank(−0) = %v (%#x), want +0", r, math.Float32bits(r))
	}
	for _, bits := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xff812345, 0x7fffffff} {
		if r := Rank(math.Float32frombits(bits)); math.Float32bits(r) != 0x7f800000 {
			t.Fatalf("Rank(NaN %#x) = %v (%#x), want +Inf", bits, r, math.Float32bits(r))
		}
	}
	// A NaN beats every finite value in selection.
	pos, _ := new(Selector).TopKList([]float32{1e30, nan}, []int32{0, 1}, 1)
	if len(pos) != 1 || pos[0] != 1 {
		t.Fatalf("NaN not selected first: %v", pos)
	}
}
