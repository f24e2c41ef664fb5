package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"dgs/internal/checkpoint"
	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// read is one open-loop read: a server or replica snapshot.
type read struct {
	replica bool
	// latency runs from when the read was due, so a stalled generator's
	// wait counts against every read queued behind it; service is the
	// snapshot call alone.
	latency, service time.Duration
	staleness        time.Duration // replica staleness sampled at the read
}

// ckpt is one checkpoint capture and write.
type ckpt struct {
	capture, write time.Duration
	stats          checkpoint.CaptureStats
}

// run is everything one measured run of a stack observed.
type run struct {
	st         *stack
	start, end time.Time // end is the last step's end
	results    []*trainer.Result
	errs       []error
	reads      []read
	late       []time.Duration // how late the generator issued each read
	ckpts      []ckpt
	ckptErrs   int
	heapPeak   uint64
	tel        counters // over the training phase
	ps         ps.Stats // at the end of the training phase
	eo         transport.SessionStats
	gate       transport.GateStats
	syncDur    time.Duration
	drainDur   time.Duration // drain and checks after the last step
	checks     []check
}

// check is one correctness check's outcome.
type check struct {
	name string
	err  error
}

// execute trains every trainer of st to its step budget while the reader,
// checkpointer and heap sampler run beside them, then drains and checks.
func execute(st *stack, outDir string) (*run, error) {
	w := st.w
	r := &run{st: st}
	ckDir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckDir)

	wr := &checkpoint.Writer{Dir: ckDir, Keep: 2}
	state := st.server.NewCaptureState()

	tel0 := readCounters()
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { defer bg.Done(); r.readLoop(stop) }()
	go func() { defer bg.Done(); r.heapLoop(stop) }()
	if w.readPath {
		bg.Add(1)
		go func() {
			defer bg.Done()
			select {
			case <-st.progress.mid:
				r.checkpoint(wr, state)
			case <-stop:
			}
		}()
	}

	cfg := st.trainerConfig()
	r.results = make([]*trainer.Result, w.trainers)
	r.errs = make([]error, w.trainers)
	var wg sync.WaitGroup
	r.start = time.Now()
	for k := 0; k < w.trainers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r.results[k], r.errs[k] = trainer.RunWorkerLoop(cfg, k, st.clients[k])
		}(k)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	r.tel = readCounters().sub(tel0)
	r.ps = st.server.Stats()
	r.end = r.start
	for _, c := range st.clients {
		cl := clientOf(c)
		if n := len(cl.stepEnd); n > 0 && cl.stepEnd[n-1].After(r.end) {
			r.end = cl.stepEnd[n-1]
		}
	}
	t0 := time.Now()
	r.drainAndCheck()
	// The final checkpoint a graceful shutdown writes once drained.
	r.checkpoint(wr, state)
	r.drainDur = time.Since(t0)
	r.eo = st.eo.Stats()
	r.gate = st.gate.Stats()
	return r, nil
}

// readLoop is the open-loop generator: reads arrive as a Poisson process
// with mean gap readEvery, drawn from the run's seed, alternating between a
// server and a replica snapshot, and are due whether or not earlier reads
// have finished. Poisson arrivals sample the replica's staleness evenly
// over its poll cycle; reads on a fixed period would lock to one phase of
// the replica's poll ticker.
func (r *run) readLoop(stop <-chan struct{}) {
	st := r.st
	rng := rand.New(rand.NewPCG(st.seed, readStream))
	dst := make([][]float32, len(st.sizes))
	for l, n := range st.sizes {
		dst[l] = make([]float32, n)
	}
	due := time.Now()
	for i := 0; ; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() * float64(readEvery)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		begin := time.Now()
		r.late = append(r.late, begin.Sub(due))
		rd := read{replica: i%2 == 1, staleness: st.rep.Stats().Staleness}
		if rd.replica {
			st.rep.MSnapshot(dst)
		} else {
			st.server.MSnapshot(dst)
		}
		end := time.Now()
		rd.service, rd.latency = end.Sub(begin), end.Sub(due)
		r.reads = append(r.reads, rd)
	}
}

// checkpoint captures the server's model into state and writes it, as
// dgs-server's checkpointer does.
func (r *run) checkpoint(wr *checkpoint.Writer, state *checkpoint.State) {
	t0 := time.Now()
	cs, err := r.st.server.Capture(state)
	t1 := time.Now()
	if err == nil {
		_, err = wr.Write(state)
	}
	if err != nil {
		r.ckptErrs++
		return
	}
	r.ckpts = append(r.ckpts, ckpt{capture: t1.Sub(t0), write: time.Since(t1), stats: cs})
}

// heapLoop keeps the peak of the heap the garbage collector found live.
// Live bytes, unlike allocated bytes, do not depend on when collections
// happen to run.
func (r *run) heapLoop(stop <-chan struct{}) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > r.heapPeak {
			r.heapPeak = v
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// drainAndCheck quiesces the deployment and runs the correctness checks:
// Eq. 5 for every trainer, the replica drain, exactly-once apply, and the
// loss series.
func (r *run) drainAndCheck() {
	st := r.st
	for k, err := range r.errs {
		if err != nil {
			r.checks = append(r.checks, check{fmt.Sprintf("trainer %d", k), err})
		}
	}
	m := newModel(st.sizes)
	v := newModel(st.sizes)
	for k := range st.clients {
		err := drain(st.clients[k], k)
		if err == nil {
			st.server.MSnapshot(m)
			st.server.VSnapshot(k, v)
			err = eq5(m, v)
		}
		r.checks = append(r.checks, check{fmt.Sprintf("eq5 worker %d", k), err})
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t0 := time.Now()
	err := st.rep.Sync(ctx)
	r.syncDur = time.Since(t0)
	cancel()
	if err == nil {
		st.server.MSnapshot(m)
		st.rep.MSnapshot(v)
		err = bitwiseEqual(m, v)
	}
	r.checks = append(r.checks, check{"replica drain", err})

	// Stop the replica so the push count is final.
	st.rep.Close()
	issued := int64(st.hellos) + st.link.issued.Load()
	for _, c := range st.clients {
		issued += int64(clientOf(c).issued)
	}
	r.checks = append(r.checks, check{"exactly-once", exactlyOnce(st.server.Stats().Pushes, issued)})

	pts := r.lossPoints()
	r.checks = append(r.checks, check{"loss", lossCheck(pts, smoothWindow(len(pts)), st.w.lossTarget, st.w.lossCeiling)})
}

// drain pushes empty updates over a trainer's own transport until the
// server has nothing left to send it.
func drain(tr transport.Transport, worker int) error {
	empty := sparse.Encode(&sparse.Update{})
	var G sparse.Update
	for i := 0; i < 4096; i++ {
		resp, err := tr.Exchange(worker, empty)
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := sparse.DecodeAnyInto(&G, resp); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if G.NNZ() == 0 {
			return nil
		}
	}
	return errors.New("drain: downward difference did not empty")
}

func newModel(sizes []int) [][]float32 {
	m := make([][]float32, len(sizes))
	for l, n := range sizes {
		m[l] = make([]float32, n)
	}
	return m
}

// bitwiseEqual reports the first coordinate where a and b differ in bits.
func bitwiseEqual(a, b [][]float32) error {
	for l := range a {
		for i := range a[l] {
			if math.Float32bits(a[l][i]) != math.Float32bits(b[l][i]) {
				return fmt.Errorf("layer %d coord %d: %g != %g", l, i, a[l][i], b[l][i])
			}
		}
	}
	return nil
}

// eq5 checks the paper's Eq. 5 after drain: v_k equals M bitwise.
func eq5(m, v [][]float32) error {
	if err := bitwiseEqual(m, v); err != nil {
		return fmt.Errorf("v_k != M after drain: %w", err)
	}
	return nil
}

// exactlyOnce checks that the server applied exactly the exchanges the
// clients issued: none lost, none applied twice.
func exactlyOnce(pushes uint64, issued int64) error {
	if int64(pushes) != issued {
		return fmt.Errorf("server applied %d pushes, clients issued %d exchanges", pushes, issued)
	}
	return nil
}

// lossCheck requires a finite loss series whose smoothed loss reaches the
// target and that ends under the ceiling.
func lossCheck(pts []lossPoint, window int, target, ceiling float64) error {
	if len(pts) == 0 {
		return errors.New("no loss recorded")
	}
	if !allFinite(pts) {
		return errors.New("training loss is not finite")
	}
	if _, ok := timeToLoss(pts, window, target); !ok {
		return fmt.Errorf("smoothed loss never reached %.3f", target)
	}
	if f := finalLoss(pts, window); f > ceiling {
		return fmt.Errorf("final loss %.4f above the ceiling %.4f", f, ceiling)
	}
	return nil
}

// lossPoints pairs each trainer's i-th loss with the end of its i-th step.
func (r *run) lossPoints() []lossPoint {
	var pts []lossPoint
	for k, res := range r.results {
		if res == nil {
			continue
		}
		ends := clientOf(r.st.clients[k]).stepEnd
		for i, p := range res.Loss.Points() {
			if i < len(ends) {
				pts = append(pts, lossPoint{ends[i].Sub(r.start), p.Y})
			}
		}
	}
	return pts
}

// stepDurations returns every step's duration: from the previous step's
// end (or the start of the run) to its own.
func (r *run) stepDurations() []float64 {
	var out []float64
	for _, c := range r.st.clients {
		prev := r.start
		for _, e := range clientOf(c).stepEnd {
			out = append(out, ms(e.Sub(prev)))
			prev = e
		}
	}
	return out
}

func (r *run) totalSteps() int {
	n := 0
	for _, c := range r.st.clients {
		n += len(clientOf(c).stepEnd)
	}
	return n
}

// failures counts failed or refused operations and checks.
func (r *run) failures() (attempted, failed int) {
	for _, c := range r.st.clients {
		cl := clientOf(c)
		attempted += cl.issued
		failed += cl.failed
	}
	attempted += r.st.hellos + int(r.st.link.issued.Load())
	failed += int(r.st.link.failed.Load())
	failed += int(r.gate.RejectedOverload + r.gate.RejectedDrain)
	attempted += len(r.reads) + len(r.ckpts) + r.ckptErrs
	failed += r.ckptErrs
	attempted += len(r.checks)
	for _, c := range r.checks {
		if c.err != nil {
			failed++
		}
	}
	return attempted, failed
}
