// Package sparse implements Top-k gradient sparsification: per-layer
// threshold selection (paper Algorithm 1 line 7: "thr ← R% of |r|"),
// sparse chunk representation, and a compact binary wire codec for
// exchanging sparse updates between workers and the parameter server.
package sparse

import "math"

// KForRatio returns the number of elements to keep for a layer of n
// elements at sparsification ratio R (keep fraction). The paper's R=1 means
// "top 1%": ratio = 0.01. At least one element is always kept for non-empty
// layers so progress is never fully blocked.
func KForRatio(n int, ratio float64) int {
	if n == 0 {
		return 0
	}
	k := int(float64(n) * ratio)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// TopKIndices returns the indices of the k largest |x| values.
// Ties are broken deterministically (lower index wins). The returned
// indices are in ascending order. x is not modified.
//
// Each call allocates fresh scratch; hot paths that select every iteration
// should hold a Selector instead.
func TopKIndices(x []float32, k int) []int32 {
	var s Selector
	return s.TopK(x, k)
}

// Selector is reusable Top-k scratch. The zero value is ready to use; after
// the first call on a layer its capacity is retained, so steady-state
// selection allocates nothing. A Selector is not safe for concurrent use.
type Selector struct {
	idx  []int32  // selection output (TopK) / list positions (TopKList)
	keys []uint32 // keys of the boundary bucket
	// hist is allocated on first use, so a Selector embedded in
	// per-worker or per-layer state stays a few words, not 8 KiB.
	hist *[1 << 11]uint32
}

// TopK returns the indices of the k largest |x| values in ascending order,
// with deterministic tie-breaks (lower index wins). x is not modified. The
// returned slice aliases the selector's scratch and is valid until the next
// call on this Selector.
func (s *Selector) TopK(x []float32, k int) []int32 {
	n := len(x)
	if k <= 0 || n == 0 {
		return nil
	}
	k = min(k, n)
	thr, ties := s.selectKey(x, k)
	if cap(s.idx) < k {
		s.idx = make([]int32, k)
	}
	// One in-order pass: every coordinate above the threshold plus the
	// first ties at it, so the output is already ascending.
	out := s.idx[:0]
	for i, v := range x {
		if kv := key(v); kv > thr {
			out = append(out, int32(i))
		} else if kv == thr && ties > 0 {
			out = append(out, int32(i))
			ties--
		}
	}
	s.idx = out
	return out
}

// TopKInto is TopK followed by GatherInto and a rescale of the rest, in one
// pass over x after the select. It fills c with layer, the ascending
// indices TopK(x, k) would return and their values as they were, multiplies
// every unsent coordinate of x by unsentScale in place (no stores when the
// scale is 1), and returns the L1 norm of the unsent coordinates after
// scaling, summed in index order. Sent coordinates of x are not touched.
// k <= 0 sends nothing, so every coordinate is scaled and counted. c's
// storage is reused, so steady-state calls allocate nothing.
//
// This is the sparsifying optimizers' per-layer step: send the top k of an
// accumulator, magnify what stays behind (SAMomentum's ×1/m; 1 for the
// residual rules) and report the residual mass.
func (s *Selector) TopKInto(c *Chunk, layer int, x []float32, k int, unsentScale float32) (unsentL1 float64) {
	k = max(0, min(k, len(x)))
	// No key exceeds or equals MaxUint32, so k == 0 selects nothing.
	thr, ties := uint32(math.MaxUint32), 0
	if k > 0 {
		thr, ties = s.selectKey(x, k)
	}
	c.Layer = layer
	idx, val := grow(c.Idx, k), grow(c.Val, k)
	m := 0
	for i, v := range x {
		if kv := key(v); kv > thr || kv == thr && ties > 0 {
			if kv == thr {
				ties--
			}
			idx[m], val[m] = int32(i), v
			m++
			continue
		}
		if unsentScale != 1 {
			v *= unsentScale
			x[i] = v
		}
		unsentL1 += float64(math.Float32frombits(math.Float32bits(v) &^ (1 << 31)))
	}
	c.Idx, c.Val = idx, val
	return unsentL1
}

// grow returns buf resliced to length n, reallocating only when its
// capacity is short — and then to at least twice that capacity (and never
// below 64), so inputs whose size drifts from call to call stop
// reallocating after a few calls.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, n, max(n, 2*cap(buf), 64))
	}
	return buf[:n]
}

// Threshold returns the k-th largest Rank of x (the paper's thr) without
// materialising the selection. k > len(x) gives the smallest Rank. It
// returns 0 for k <= 0 or empty x.
func (s *Selector) Threshold(x []float32, k int) float32 {
	if k <= 0 || len(x) == 0 {
		return 0
	}
	thr, _ := s.selectKey(x, min(k, len(x)))
	return math.Float32frombits(thr)
}

// Rank maps a value to its selection magnitude: |v|, with NaN promoted to
// +Inf. NaN payloads sort first (and deterministically, by index) instead of
// leaving the comparator without a total order — selection results must not
// depend on array layout, because TopKList runs the same selection over a
// compacted candidate list and has to pick the identical coordinate set.
// A NaN gradient coordinate is already a diverged run; shipping it first
// surfaces the divergence instead of hiding it. Exported because ps keeps
// per-block residual summaries in this same magnitude space (max Rank per
// block) and compares them against selection thresholds. Rank(−0) is +0.
func Rank(v float32) float32 {
	return math.Float32frombits(key(v))
}

// infKey is the key of +Inf; every NaN is clamped to it.
const infKey = 0x7f800000

// key is Rank as an order-preserving integer: the bits of |v|, which sort
// like the magnitudes themselves, with NaN clamped to +Inf. −0 and +0 share
// key 0. It is the one definition of the selection order; Rank is its
// float view.
func key(v float32) uint32 {
	return min(math.Float32bits(v)&0x7fffffff, infKey)
}

// selectKey is a radix select for the k-th largest key of x (1 <= k <=
// len(x)). It returns that key, thr, and how many of the coordinates with
// key == thr belong to the top k (ties >= 1). One histogram pass over the
// top 11 key bits finds the boundary bucket, a second pass collects that
// bucket's keys, and two 10-bit rounds over the short list resolve thr
// exactly. x is only ever read in order.
func (s *Selector) selectKey(x []float32, k int) (thr uint32, ties int) {
	if s.hist == nil {
		s.hist = new([1 << 11]uint32)
	}
	hist := s.hist
	clear(hist[:])
	for _, v := range x {
		hist[key(v)>>20]++
	}
	hi, need := descend(hist[:], k)
	s.keys = grow(s.keys, int(hist[hi]))
	keys := s.keys[:0]
	for _, v := range x {
		if kv := key(v); kv>>20 == hi {
			keys = append(keys, kv)
		}
	}
	thr = hi << 20
	for shift := uint32(10); ; shift -= 10 {
		h := hist[:1<<10]
		clear(h)
		for _, kv := range keys {
			h[kv>>shift&0x3ff]++
		}
		var b uint32
		b, need = descend(h, need)
		thr |= b << shift
		if shift == 0 {
			return thr, need
		}
		// Keep only the keys of the chosen bucket for the next round.
		j := 0
		for _, kv := range keys {
			if kv>>shift&0x3ff == b {
				keys[j] = kv
				j++
			}
		}
		keys = keys[:j]
	}
}

// descend walks histogram h from its top bucket down to the one holding the
// need-th largest element, and returns it with the rank still needed inside.
func descend(h []uint32, need int) (uint32, int) {
	b := len(h) - 1
	for ; need > int(h[b]); b-- {
		need -= int(h[b])
	}
	return uint32(b), need
}

// Threshold returns the k-th largest Rank of x (the paper's thr).
// It returns 0 for k <= 0 or empty x.
func Threshold(x []float32, k int) float32 {
	var s Selector
	return s.Threshold(x, k)
}

// TopKList is bounded Top-k over a sparse candidate list: val[i] is the
// value living at original coordinate gidx[i] (coordinates unique, order of
// the list arbitrary). It selects the k largest-|val| entries under exactly
// the ordering TopK applies to a full dense layer — descending Rank, ties
// broken by ascending original coordinate — so as long as the list
// contains every coordinate that could reach the top k, the selected set is
// bitwise-identical to a full-layer TopK, at O(len(val)) instead of
// O(layer). This is what lets ps.Server run secondary compression over only
// the dirty + residual-bearing blocks (DESIGN.md §13).
//
// It returns positions into val/gidx ordered by ascending gidx, plus the
// selection threshold in Rank space (the k-th magnitude; +Inf if the k-th
// entry is NaN) — comparable against per-block max-Rank summaries.
// The positions alias the selector's scratch, valid until the next call.
// k > len(val) selects everything.
func (s *Selector) TopKList(val []float32, gidx []int32, k int) ([]int32, float32) {
	n := len(val)
	if k <= 0 || n == 0 {
		return nil, 0
	}
	k = min(k, n)
	thr, ties := s.selectKey(val, k)
	s.idx = grow(s.idx, n)
	pos := s.idx
	// Positions above the threshold fill pos from the front, those at it
	// from the back; of the latter the ties with the smallest gidx win.
	above, at := 0, n
	for i, v := range val {
		if kv := key(v); kv > thr {
			pos[above] = int32(i)
			above++
		} else if kv == thr {
			at--
			pos[at] = int32(i)
		}
	}
	if n-at > ties {
		sortPosByIdx(pos[at:], gidx)
	}
	copy(pos[above:k], pos[at:at+ties])
	top := pos[:k]
	sortPosByIdx(top, gidx)
	return top, math.Float32frombits(thr)
}

// sortPosByIdx sorts list positions by their original coordinate ascending
// (coordinates are unique, so the order is total).
func sortPosByIdx(pos []int32, gidx []int32) {
	if len(pos) < 32 {
		for i := 1; i < len(pos); i++ {
			v := pos[i]
			j := i - 1
			for j >= 0 && gidx[pos[j]] > gidx[v] {
				pos[j+1] = pos[j]
				j--
			}
			pos[j+1] = v
		}
		return
	}
	qsortPosByIdx(pos, gidx, 0, len(pos)-1)
}

func qsortPosByIdx(pos []int32, gidx []int32, lo, hi int) {
	for lo < hi {
		p := gidx[pos[lo+(hi-lo)/2]]
		i, j := lo, hi
		for i <= j {
			for gidx[pos[i]] < p {
				i++
			}
			for gidx[pos[j]] > p {
				j--
			}
			if i <= j {
				pos[i], pos[j] = pos[j], pos[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			qsortPosByIdx(pos, gidx, lo, j)
			lo = i
		} else {
			qsortPosByIdx(pos, gidx, i, hi)
			hi = j
		}
	}
}
