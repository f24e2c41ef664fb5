package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. The spans of one training step, or
// of one exchange after the last step, share Step (worker<<32 | index);
// Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	Step   int64  `json:"step"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func stepID(worker, step int) int64 { return int64(worker)<<32 | int64(step) }

// interval is a raw [start, end] pair in nanoseconds since the run's epoch.
type interval struct{ start, end int64 }

func (iv interval) dur() time.Duration { return time.Duration(iv.end - iv.start) }

// recorder collects raw intervals per (layer, worker) while a traced run is
// in flight. Server layers call it from their connection goroutines, so it
// locks; each worker's calls into one layer are sequential, which is what
// lets spans be matched to their exchange by per-worker order afterwards.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	ivs   map[string]map[int][]interval
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, ivs: map[string]map[int][]interval{}}
}

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(layer string, worker int, start, end time.Time) {
	iv := interval{r.ns(start), r.ns(end)}
	r.mu.Lock()
	m := r.ivs[layer]
	if m == nil {
		m = map[int][]interval{}
		r.ivs[layer] = m
	}
	m[worker] = append(m[worker], iv)
	r.mu.Unlock()
}

// get returns the recorded intervals of one layer and worker. Call it only
// once the run is quiescent.
func (r *recorder) get(layer string, worker int) []interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ivs[layer][worker]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children. Children that overlap
// each other (a pipelined step's exchanges) are counted once, and the part
// of a child outside its parent is not subtracted from the parent.
func selfTimes(spans []span) []time.Duration {
	children := childrenOf(spans)
	self := make([]time.Duration, len(spans))
	var ivs []interval
	for i := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, spans[i].Start), min(spans[c].End, spans[i].End)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		self[i] = spans[i].dur() - unionLen(ivs)
	}
	return self
}

// childrenOf lists each span's children by index.
func childrenOf(spans []span) [][]int {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	return children
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs []interval) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if open && iv.start <= curHi {
			curHi = max(curHi, iv.end)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv.start, iv.end, true
	}
	if open {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// writeSpans writes one span per line as JSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
