package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{1000, 99},
		{999, 95}, // p99 would leave 9 beyond
		{10000, 99.9},
		{600, 95},
		{100, 90},
		{25, 50},
		{20, 50},
		{19, 100},
		{5, 100}, // too few for any percentile: the maximum
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		got := tailOf(xs)
		if got.Pct != tc.wantPct || got.N != tc.n {
			t.Fatalf("n=%d: got p%g n=%d, want p%g", tc.n, got.Pct, got.N, tc.wantPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if tc.wantPct < 100 && beyond < minBeyond {
			t.Fatalf("n=%d: only %d samples beyond p%g", tc.n, beyond, got.Pct)
		}
	}
}

func TestTimeToLossUsesSmoothedCrossing(t *testing.T) {
	// One noisy dip below the target at t=3 must not count; the smoothed
	// loss first reaches it at t=8.
	losses := []float64{4, 4, 0, 4, 4, 2, 2, 2, 2, 2}
	var pts []lossPoint
	for i, l := range losses {
		pts = append(pts, lossPoint{time.Duration(i+1) * time.Second, l})
	}
	got, ok := timeToLoss(pts, 3, 2)
	if !ok || got != 8*time.Second {
		t.Fatalf("got %v ok=%v, want 8s", got, ok)
	}
	if _, ok := timeToLoss(pts, 3, 1); ok {
		t.Fatal("reached a target the smoothed loss never reaches")
	}
	if f := finalLoss(pts, 3); f != 2 {
		t.Fatalf("final loss %v, want 2", f)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	// A pipelined step [0,100] with two exchanges in flight at once,
	// [10,60] and [40,120], the second running past the step's end.
	spans := []span{
		{Name: layerStep, Parent: -1, Start: 0, End: 100},
		{Name: layerExchange, Parent: 0, Start: 10, End: 60},
		{Name: layerExchange, Parent: 0, Start: 40, End: 120},
		{Name: layerGate, Parent: 1, Start: 20, End: 30},
	}
	self := selfTimes(spans)
	// The children cover [10,100] of the step, once.
	if self[0] != 10 {
		t.Fatalf("step self time %v, want 10ns", self[0])
	}
	if self[1] != 40 || self[2] != 80 || self[3] != 10 {
		t.Fatalf("self times %v", self)
	}
	// Overlap and spill both break closure; nested spans close exactly.
	if e := closureError(spans, self, []int{0}); e <= 0 {
		t.Fatalf("closure error %v for overlapping children, want > 0", e)
	}
	nested := spans[:2]
	if e := closureError(nested, selfTimes(nested), []int{0}); e != 0 {
		t.Fatalf("closure error %v for nested spans, want 0", e)
	}
}

// flakyLink loses the first response it receives, so the pipelined session
// redials and replays a frame the server already executed.
type flakyLink struct {
	transport.MuxLink
	fail *int
}

func (f flakyLink) Recv(buf []byte) (uint64, []byte, error) {
	if *f.fail > 0 {
		*f.fail--
		f.MuxLink.Recv(buf) //nolint:errcheck // the response is dropped either way
		f.MuxLink.Close()
		return 0, nil, errors.New("injected lost response")
	}
	return f.MuxLink.Recv(buf)
}

func TestBytesCountedOncePerSubmit(t *testing.T) {
	server := ps.NewServer(ps.Config{LayerSizes: []int{64}, Workers: 1})
	eo, err := trainer.ExactlyOnceHandlerWithCodec(server, "mirror")
	if err != nil {
		t.Fatal(err)
	}
	lis, err := transport.ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	fail := 1
	sess := transport.NewPipelinedSession(func() (transport.MuxLink, error) {
		c, err := transport.DialMux(lis.Addr())
		if err != nil {
			return nil, err
		}
		return flakyLink{c, &fail}, nil
	}, 2)
	sess.Backoff = 0
	wrapped := wrapClient(sess, 0, 2, nil, newProgress(1))
	pipe, ok := wrapped.(transport.Pipeliner)
	if !ok {
		t.Fatal("wrapper of a pipelined session is not a Pipeliner")
	}
	defer pipe.Close()

	upd := sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{1, 5}, Val: []float32{0.5, -1}}}}
	payload := sparse.Encode(&upd)
	var down int64
	for i := 0; i < 2; i++ {
		if err := pipe.Submit(0, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		resp, err := pipe.Await()
		if err != nil {
			t.Fatal(err)
		}
		down += int64(len(resp))
	}
	if st := eo.Stats(); st.Replays == 0 {
		t.Fatalf("no replay happened (%+v); the test does not exercise one", st)
	}
	c := clientOf(wrapped)
	if c.up != int64(2*len(payload)) || c.down != down || len(c.stepEnd) != 2 {
		t.Fatalf("up %d down %d steps %d; want up %d down %d steps 2",
			c.up, c.down, len(c.stepEnd), 2*len(payload), down)
	}
}

func TestCountersAreReadAsPerRunDeltas(t *testing.T) {
	pushRun := func() counters {
		before := readCounters()
		server := ps.NewServer(ps.Config{LayerSizes: []int{64}, Workers: 1})
		upd := sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{3}, Val: []float32{1}}}}
		for i := 0; i < 7; i++ {
			server.Push(0, &upd)
		}
		return readCounters().sub(before)
	}
	first, second := pushRun(), pushRun()
	for _, d := range []counters{first, second} {
		if d.pushes != 7 || d.lockWaitN != 7 || d.downValues != first.downValues {
			t.Fatalf("back-to-back runs reported %+v then %+v; want the same counts, 7 pushes each", first, second)
		}
	}
}

func TestLossCheckRejectsNaN(t *testing.T) {
	pts := []lossPoint{{time.Second, 2}, {2 * time.Second, math.NaN()}, {3 * time.Second, 1}}
	if err := lossCheck(pts, 1, 10, 10); err == nil {
		t.Fatal("a NaN loss series passed the loss check")
	}
	pts[1].loss = 1.5
	if err := lossCheck(pts, 1, 10, 10); err != nil {
		t.Fatalf("a finite series failed: %v", err)
	}
	if err := lossCheck(pts, 1, 10, 0.5); err == nil {
		t.Fatal("a final loss above the ceiling passed")
	}
	if err := lossCheck(pts, 2, 1.1, 10); err == nil {
		t.Fatal("a series whose smoothed loss never reaches the target passed")
	}
}
