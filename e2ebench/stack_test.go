package main

import (
	"math"
	"testing"
	"time"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// tinyWorkload has the shape of wide-secondary-pipelined (two depth-2
// trainers, secondary on, ternary replica) at a size a unit test can run,
// with wide-read's read side: the replica at its deployed poll interval and
// a checkpoint mid-run.
var tinyWorkload = &workload{
	name:     "tiny",
	model:    func(*tensor.RNG) *nn.Model { return nn.NewMLP(tensor.NewRNG(initSeed), 16, 32, 4) },
	dataset:  func(train int) data.Dataset { return data.NewGaussianMixture(16, 4, train, 64, 0.5, initSeed) },
	trainers: 2, batch: 8, depth: 2, lr: 0.05, secondary: 0.25,
	stepsPerSec: 100, lossTarget: 10, lossCeiling: 10, readPath: true,
}

// pusherOnly hides every method of the server but ps.Pusher's, as a
// careless timing wrapper would.
type pusherOnly struct{ ps.Pusher }

// readerPoll opens a read session on worker slot k and returns the codec id
// of the first downward frame it is sent for a ternary poll.
func readerPoll(t *testing.T, h transport.Handler, k int) byte {
	t.Helper()
	ternary, err := sparse.CodecByName("ternary")
	if err != nil {
		t.Fatal(err)
	}
	reader := transport.NewSessionClient(transport.NewLoopback(h))
	reader.Reader = true
	resp, err := reader.Exchange(k, ternary.AppendEncode(nil, &sparse.Update{}))
	if err != nil {
		t.Fatal(err)
	}
	id, err := sparse.FrameCodecID(resp)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestWrappedStackKeepsOptionalInterfaces(t *testing.T) {
	// Enough steps that the run spans several replica poll intervals.
	const steps = 600
	rec := newRecorder(time.Now())
	st, err := newStack(tinyWorkload, 1, steps, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	for k, c := range st.clients {
		if _, ok := c.(transport.Pipeliner); !ok {
			t.Fatalf("trainer %d: wrapped depth-2 client is not a transport.Pipeliner", k)
		}
	}
	r, err := execute(st, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.checks {
		if c.err != nil {
			t.Errorf("check %s: %v", c.name, c.err)
		}
	}
	// The mid-run checkpoint and the final one after the drain.
	if len(r.ckpts) != 2 || r.ckptErrs != 0 {
		t.Errorf("%d checkpoints written, %d failed; want 2 and 0", len(r.ckpts), r.ckptErrs)
	}
	// Every step reached the wrapper's Submit: the trainer drove the native
	// pipelined session, not a QueuedPipeliner over Exchange.
	for k := range st.clients {
		if n := len(rec.get(layerSubmit, k)); n != steps {
			t.Errorf("trainer %d: %d of %d steps submitted through the wrapper", k, n, steps)
		}
	}
	// The replica's ternary polls were answered lossily, so the server
	// folded their quantization error.
	if len(rec.get(layerFold, tinyWorkload.trainers)) == 0 {
		t.Error("no FoldDown on the replica slot: its ternary polls were answered raw")
	}
	// The same, frame by frame, through the timed server's handler, with a
	// wrapper that drops FoldDown as the control.
	if id := readerPoll(t, st.eo.Handle, tinyWorkload.trainers); id != sparse.CodecTernary {
		t.Errorf("ternary poll through the timed server got codec %d, want %d", id, sparse.CodecTernary)
	}
	bare, err := trainer.ExactlyOnceHandlerWithCodec(pusherOnly{st.server}, "mirror")
	if err != nil {
		t.Fatal(err)
	}
	if id := readerPoll(t, bare.Handle, tinyWorkload.trainers); id != sparse.CodecRaw {
		t.Errorf("control: a Pusher-only wrapper got codec %d, want raw", id)
	}

	sync := wrapClient(transport.NewSessionClient(transport.NewLoopback(st.eo.Handle)), 0, 1, nil, newProgress(1))
	if _, ok := sync.(transport.Pipeliner); ok {
		t.Error("wrapper of a synchronous session claims to be a Pipeliner")
	}
}

func TestEq5CheckCatchesPerturbedV(t *testing.T) {
	sizes := []int{40, 8}
	server := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 2, Secondary: true, SecondaryRatio: 0.1})
	tr := transport.NewLoopback(trainer.Handler(server))
	rng := tensor.NewRNG(3)
	for i := 0; i < 20; i++ {
		upd := sparse.Update{Chunks: []sparse.Chunk{{Layer: i % 2, Idx: []int32{int32(rng.Intn(8))}, Val: []float32{float32(rng.NormFloat64())}}}}
		if _, err := tr.Exchange(i%2, sparse.Encode(&upd)); err != nil {
			t.Fatal(err)
		}
	}
	m, v := newModel(sizes), newModel(sizes)
	for k := 0; k < 2; k++ {
		if err := drain(tr, k); err != nil {
			t.Fatal(err)
		}
		server.MSnapshot(m)
		server.VSnapshot(k, v)
		if err := eq5(m, v); err != nil {
			t.Fatalf("worker %d after drain: %v", k, err)
		}
	}
	perturbed := v[1][3]
	v[1][3] = math.Nextafter32(perturbed, float32(math.Inf(1)))
	if eq5(m, v) == nil {
		t.Fatal("a v_k one ULP off M passed the Eq. 5 check")
	}
	v[1][3] = perturbed
	m[0][0], v[0][0] = float32(math.Copysign(0, -1)), 0
	if eq5(m, v) == nil {
		t.Fatal("-0 and +0 compared equal; the check is not bitwise")
	}
}

func TestFailedChecksAreCounted(t *testing.T) {
	r := &run{st: &stack{link: &replicaLink{}}}
	r.checks = []check{
		{"eq5 worker 0", nil},
		{"eq5 worker 1", eq5([][]float32{{1}}, [][]float32{{2}})},
		{"loss", lossCheck([]lossPoint{{time.Second, math.NaN()}}, 1, 10, 10)},
		{"exactly-once", exactlyOnce(10, 11)},
	}
	attempted, failed := r.failures()
	if attempted != 4 || failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", attempted, failed)
	}
	if exactlyOnce(7, 7) != nil || exactlyOnce(7, 8) == nil {
		t.Fatal("exactly-once check misjudges its counts")
	}
}
