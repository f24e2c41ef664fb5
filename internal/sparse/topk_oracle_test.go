package sparse

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"dgs/internal/tensor"
)

// oracleOrder is the selection contract spelled out as a full sort: the
// coordinates of x in descending Rank, ties by ascending coordinate. The
// first k of it are the top k.
func oracleOrder(x []float32) []int32 {
	order := make([]int32, len(x))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := Rank(x[order[a]]), Rank(x[order[b]])
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	return order
}

// checkTopKOracle runs TopK, Threshold, TopKList and TopKInto on x for
// every k and compares each bit for bit against the oracle: the first k
// coordinates of the oracle order, ascending, and the Rank of the k-th one.
// TopKList sees x as a candidate list in perm's order: entry i holds
// x[perm[i]] at coordinate perm[i].
func checkTopKOracle(t *testing.T, sel *Selector, x []float32, perm []int32, ks ...int) {
	t.Helper()
	n := len(x)
	order := oracleOrder(x)
	val := make([]float32, n)
	for i, g := range perm {
		val[i] = x[g]
	}
	for _, k := range ks {
		kk := min(k, n)
		want := append([]int32(nil), order[:kk]...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		wantThr := Rank(x[order[kk-1]])

		got := sel.TopK(x, k)
		if len(got) != kk {
			t.Fatalf("n=%d k=%d: TopK selected %d, oracle %d", n, k, len(got), kk)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d k=%d: TopK entry %d is %d, oracle %d", n, k, i, got[i], want[i])
			}
		}
		if thr := sel.Threshold(x, k); math.Float32bits(thr) != math.Float32bits(wantThr) {
			t.Fatalf("n=%d k=%d: Threshold %v (%#x), oracle %v (%#x)",
				n, k, thr, math.Float32bits(thr), wantThr, math.Float32bits(wantThr))
		}
		pos, thr := sel.TopKList(val, perm, k)
		if len(pos) != kk {
			t.Fatalf("n=%d k=%d: TopKList selected %d, oracle %d", n, k, len(pos), kk)
		}
		for i, p := range pos {
			if perm[p] != want[i] {
				t.Fatalf("n=%d k=%d: TopKList entry %d is coordinate %d, oracle %d", n, k, i, perm[p], want[i])
			}
		}
		if math.Float32bits(thr) != math.Float32bits(wantThr) {
			t.Fatalf("n=%d k=%d: TopKList threshold %v, oracle %v", n, k, thr, wantThr)
		}
		for _, scale := range []float32{1, 1 / float32(0.7)} {
			checkTopKInto(t, sel, x, k, scale, want)
		}
	}
	checkTopKInto(t, sel, x, 0, 1/float32(0.9), nil)
}

// checkTopKInto runs TopKInto on a copy of x and checks it against TopK
// followed by GatherInto: the chunk holds the want coordinates with their
// values as they were, sent coordinates are untouched, unsent ones equal
// x*scale bit for bit (and are not stored at all when the scale is 1), and
// the returned mass is their L1 summed in index order.
func checkTopKInto(t *testing.T, sel *Selector, x []float32, k int, scale float32, want []int32) {
	t.Helper()
	n := len(x)
	y := append([]float32(nil), x...)
	var c Chunk
	l1 := sel.TopKInto(&c, 3, y, k, scale)
	if c.Layer != 3 || len(c.Idx) != len(want) || len(c.Val) != len(want) {
		t.Fatalf("n=%d k=%d: TopKInto chunk layer %d with %d/%d entries, want layer 3 with %d",
			n, k, c.Layer, len(c.Idx), len(c.Val), len(want))
	}
	sent := make([]bool, n)
	for i, j := range want {
		if c.Idx[i] != j || math.Float32bits(c.Val[i]) != math.Float32bits(x[j]) {
			t.Fatalf("n=%d k=%d: TopKInto entry %d is (%d, %v), want (%d, %v)", n, k, i, c.Idx[i], c.Val[i], j, x[j])
		}
		sent[j] = true
	}
	var wantL1 float64
	for j, v := range x {
		wv := v
		if !sent[j] && scale != 1 {
			wv = v * scale
		}
		if math.Float32bits(y[j]) != math.Float32bits(wv) {
			t.Fatalf("n=%d k=%d scale=%v: coordinate %d (sent %v) is %v after TopKInto, want %v", n, k, scale, j, sent[j], y[j], wv)
		}
		if !sent[j] {
			wantL1 += math.Abs(float64(wv))
		}
	}
	if l1 != wantL1 && !(l1 != l1 && wantL1 != wantL1) {
		t.Fatalf("n=%d k=%d scale=%v: TopKInto unsent L1 %v, want %v", n, k, scale, l1, wantL1)
	}
}

// edgeValue returns one of the values whose keys need care: NaNs of either
// sign and several payloads, ±0, ±Inf, subnormals and the finite extremes.
func edgeValue(rng *tensor.RNG) float32 {
	sign := uint32(rng.Intn(2)) << 31
	switch rng.Intn(6) {
	case 0:
		return math.Float32frombits(sign | 0x7f800000 | uint32(1+rng.Intn(0x7fffff)))
	case 1:
		return math.Float32frombits(sign)
	case 2:
		return math.Float32frombits(sign | 0x7f800000)
	case 3:
		return math.Float32frombits(sign | uint32(1+rng.Intn(0x7fffff)))
	case 4:
		return math.Float32frombits(sign | 0x7f7fffff)
	default:
		return math.Float32frombits(sign | 0x00800000)
	}
}

// oracleLayer builds one layer of the given shape.
func oracleLayer(rng *tensor.RNG, shape string, n int) []float32 {
	x := make([]float32, n)
	switch shape {
	case "normal":
		rng.FillNormal(x, 0, 1)
	case "special":
		for i := range x {
			if rng.Intn(3) == 0 {
				x[i] = edgeValue(rng)
			} else {
				x[i] = float32(rng.NormFloat64())
			}
		}
	case "equal":
		for i := range x {
			x[i] = 0.75
			if i%2 == 1 {
				x[i] = -0.75
			}
		}
	case "zeros":
		for i := range x {
			x[i] = math.Float32frombits(uint32(rng.Intn(2)) << 31)
		}
	case "tied":
		levels := []float32{0, 0.5, -0.5, 1, -1, 2, float32(math.Inf(-1)), float32(math.NaN())}
		for i := range x {
			x[i] = levels[rng.Intn(len(levels))]
		}
	case "bucket":
		// Keys sharing their top 11 bits, so the select lives in its
		// 10-bit rounds, with repeats inside the boundary bucket.
		for i := range x {
			x[i] = math.Float32frombits(uint32(rng.Intn(2))<<31 | 0x3f800000 | uint32(rng.Intn(1<<12))<<8)
		}
	}
	return x
}

// shuffled returns the coordinates 0..n−1 in random order.
func shuffled(rng *tensor.RNG, n int) []int32 {
	perm := make([]int32, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int32(p)
	}
	return perm
}

// TestTopKMatchesOracle is the exact differential check of the selection
// kernel (TopKInto included, at k = 0 too): every layer shape, at k ∈ {1, ~1%, n−1, n, >n} and a random k, on
// layers below and above 2^16 coordinates.
func TestTopKMatchesOracle(t *testing.T) {
	rng := tensor.NewRNG(12)
	var sel Selector
	for _, n := range []int{1, 2, 3, 17, 300, 4099, 1<<16 + 3} {
		for _, shape := range []string{"normal", "special", "equal", "zeros", "tied", "bucket"} {
			x := oracleLayer(rng, shape, n)
			perm := shuffled(rng, n)
			ks := []int{1, KForRatio(n, 0.01), n, n + 5, 1 + rng.Intn(n)}
			if n > 1 {
				ks = append(ks, n-1)
			}
			checkTopKOracle(t, &sel, x, perm, ks...)
		}
	}
}

// FuzzTopK checks the kernel against the oracle on arbitrary bit patterns:
// every 4 bytes of data are one float32, TopKList sees them in reverse
// coordinate order, and TopKInto is held to TopK plus GatherInto.
func FuzzTopK(f *testing.F) {
	enc := func(vs ...float32) []byte {
		b := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	f.Add(enc(0.1, -5, 3, -0.2, 4), uint16(3))
	f.Add(enc(nan, 1, 2), uint16(1))
	f.Add(enc(nan, 1, 2), uint16(3))
	f.Add(enc(-inf, inf, nan, -nan, 0, float32(math.Copysign(0, -1))), uint16(4))
	f.Add(enc(1, 1, -1, 1, 1), uint16(2))
	f.Add(enc(math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 0), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint16) {
		n := len(data) / 4
		if n == 0 {
			return
		}
		x := make([]float32, n)
		perm := make([]int32, n)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			perm[i] = int32(n - 1 - i)
		}
		var sel Selector
		checkTopKOracle(t, &sel, x, perm, 1+int(kRaw)%(n+2))
	})
}
