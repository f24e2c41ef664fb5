package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"dgs/internal/telemetry"
)

// tailLadder lists the percentiles a tail is reported at, highest first.
// Standard percentiles keep the reported one the same across runs whose
// sample counts differ slightly.
var tailLadder = []float64{99.9, 99, 95, 90, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tail is a latency distribution's reported tail.
type tail struct {
	Pct   float64 // the percentile reported
	Value float64
	N     int // sample count
}

// rank is the nearest-rank position of the p-th percentile among n
// samples, guarded against p/100·n landing a rounding error above an
// integer.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// quantile returns the nearest-rank p-th percentile of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	r := min(max(rank(p, len(sorted)), 1), len(sorted))
	return sorted[r-1]
}

// median returns the 50th percentile of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 50)
}

// tailOf returns the highest ladder percentile of xs that has at least
// minBeyond samples beyond it. When none qualifies (fewer than 20 samples)
// it reports the maximum as the 100th percentile.
func tailOf(xs []float64) tail {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		if r := rank(p, n); r >= 1 && n-r >= minBeyond {
			return tail{Pct: p, Value: s[r-1], N: n}
		}
	}
	if n == 0 {
		return tail{Pct: 100, Value: math.NaN()}
	}
	return tail{Pct: 100, Value: s[n-1], N: n}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// lossPoint is one training step's loss and the time its step ended,
// relative to the start of the run.
type lossPoint struct {
	t    time.Duration
	loss float64
}

// smoothWindow is the number of steps training loss is averaged over: a
// tenth of the run.
func smoothWindow(steps int) int { return max(steps/10, 1) }

// timeToLoss returns the first time the mean loss of the last window steps
// (in order of completion, across trainers) is at or below target. ok is
// false when it never gets there.
func timeToLoss(pts []lossPoint, window int, target float64) (t time.Duration, ok bool) {
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].t < pts[b].t })
	var sum float64
	for i, p := range pts {
		sum += p.loss
		if i >= window {
			sum -= pts[i-window].loss
		}
		if i+1 >= window && sum/float64(window) <= target {
			return p.t, true
		}
	}
	return 0, false
}

// finalLoss is the mean loss of the last window steps to complete.
func finalLoss(pts []lossPoint, window int) float64 {
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].t < pts[b].t })
	window = min(window, len(pts))
	var sum float64
	for _, p := range pts[len(pts)-window:] {
		sum += p.loss
	}
	return sum / float64(window)
}

// lossByTenth formats the smoothed loss at the end of each tenth of pts.
func lossByTenth(pts []lossPoint, window int) string {
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].t < pts[b].t })
	var b strings.Builder
	for d := 1; d <= 10; d++ {
		n := len(pts) * d / 10
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, " %.3f", finalLoss(pts[:n], window))
	}
	return b.String()
}

// allFinite reports whether every loss is a finite number.
func allFinite(pts []lossPoint) bool {
	for _, p := range pts {
		if math.IsNaN(p.loss) || math.IsInf(p.loss, 0) {
			return false
		}
	}
	return true
}

// counters is a reading of the process-wide telemetry counters the
// benchmark reports. The registry is cumulative over the process, so a run
// reports the difference between a reading after it and one before it.
type counters struct {
	retries, dials, downValues, pushes float64
	lockWaitN, lockWaitSum             float64
	// encodeN and encodeSum are the pipelined trainers' encode stage.
	encodeN, encodeSum float64
}

func readCounters() counters {
	reg := telemetry.Default()
	lock := reg.Histogram("dgs_ps_push_lock_wait_seconds", "", telemetry.DurationBuckets())
	encode := reg.Histogram("dgs_pipeline_stage_seconds", "", telemetry.DurationBuckets(), "stage", "encode")
	return counters{
		retries:     float64(reg.Counter("dgs_transport_retries_total", "").Value()),
		dials:       float64(reg.Counter("dgs_transport_dials_total", "").Value()),
		downValues:  float64(reg.Counter("dgs_ps_down_values_total", "").Value()),
		pushes:      float64(reg.Counter("dgs_ps_pushes_total", "").Value()),
		lockWaitN:   float64(lock.Count()),
		lockWaitSum: lock.Sum(),
		encodeN:     float64(encode.Count()),
		encodeSum:   encode.Sum(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		retries:     c.retries - o.retries,
		dials:       c.dials - o.dials,
		downValues:  c.downValues - o.downValues,
		pushes:      c.pushes - o.pushes,
		lockWaitN:   c.lockWaitN - o.lockWaitN,
		lockWaitSum: c.lockWaitSum - o.lockWaitSum,
		encodeN:     c.encodeN - o.encodeN,
		encodeSum:   c.encodeSum - o.encodeSum,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
