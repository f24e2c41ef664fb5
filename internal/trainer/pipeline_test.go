package trainer

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"dgs/internal/nn"
	"dgs/internal/ps"
	"dgs/internal/stats"
	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// loopOutcome is everything one single-worker training loop produced.
type loopOutcome struct {
	loss, acc []stats.Point
	up, down  int64
	// model is the replica as the loop returned it, before the final sync.
	model [][]float32
	// final is the accuracy after the final sync, as Run reports it.
	final float64
}

// runOneWorker drives loop as Run drives its single worker over the
// in-process loopback (fully deterministic: no scheduler interleaving), then
// records the traffic, the returned replica and the post-sync accuracy.
func runOneWorker(t *testing.T, cfg Config, loop func(*worker) (*nn.Model, error)) loopOutcome {
	t.Helper()
	if err := cfg.normalise(); err != nil {
		t.Fatal(err)
	}
	sizes := cfg.BuildModel(tensor.NewRNG(cfg.Seed)).LayerSizes()
	lb := transport.NewLoopback(Handler(ps.NewServer(serverConfig(&cfg, sizes))))
	totalIters := cfg.Epochs * cfg.Dataset.NumTrain() / cfg.BatchSize
	var iterCounter, computeNanos atomic.Int64
	res := &Result{Loss: stats.NewSeries("loss"), Accuracy: stats.NewSeries("acc")}
	w := worker{
		cfg: &cfg, id: 0, sizes: sizes, tr: lb,
		totalIters: totalIters, samplesPerEpoch: float64(cfg.Dataset.NumTrain()),
		iterCounter: &iterCounter, computeNanos: &computeNanos,
		lr: newSchedule(&cfg, totalIters), res: res,
	}
	model, err := loop(&w)
	if err != nil {
		t.Fatal(err)
	}
	out := loopOutcome{loss: res.Loss.Points(), acc: res.Accuracy.Points(), up: lb.Traffic.Up(), down: lb.Traffic.Down()}
	for _, p := range model.Params() {
		out.model = append(out.model, append([]float32(nil), p.Value.Data...))
	}
	if err := syncModel(lb, 0, model); err != nil {
		t.Fatal(err)
	}
	out.final = evaluate(&cfg, model)
	return out
}

// Depth 0 and depth 1 run the windowed loop with a window of one, which
// must reproduce the frozen synchronous loop (referenceRun) bit for bit:
// loss and accuracy series, wire bytes both ways, the trained replica and
// the final accuracy. This is the guard that the paper figures do not move
// with the pipelining machinery, across every method, every wire codec, the
// legacy ternary flag and the warm-up, clipping and weight-decay paths.
func TestPipelineDepthOneIsBitwiseIdentical(t *testing.T) {
	type variant struct {
		codec   string
		ternary bool
	}
	var variants []variant
	for _, c := range []string{"raw", "ternary", "sbc"} {
		variants = append(variants, variant{codec: c})
	}
	variants = append(variants, variant{codec: "raw", ternary: true})
	for _, m := range AllMethods {
		for _, v := range variants {
			m, v := m, v
			name := fmt.Sprintf("%s/%s/ternary-flag=%v", m, v.codec, v.ternary)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := quickConfig(m, 1)
				cfg.Epochs = 2
				cfg.Codec = v.codec
				cfg.Ternary = v.ternary
				cfg.GradClip = 1
				cfg.WeightDecay = 1e-4
				cfg.WarmupFrac = 0.25
				ref := runOneWorker(t, cfg, (*worker).referenceRun)
				for _, depth := range []int{0, 1} {
					cfg.PipelineDepth = depth
					got := runOneWorker(t, cfg, (*worker).run)
					if err := sameOutcome(ref, got); err != nil {
						t.Fatalf("depth %d: %v", depth, err)
					}
				}
			})
		}
	}
}

// sameOutcome reports the first bitwise difference between two outcomes.
func sameOutcome(want, got loopOutcome) error {
	for _, s := range []struct {
		name      string
		want, got []stats.Point
	}{{"loss", want.loss, got.loss}, {"accuracy", want.acc, got.acc}} {
		if len(s.want) != len(s.got) {
			return fmt.Errorf("%s series lengths differ: %d vs %d", s.name, len(s.want), len(s.got))
		}
		for i := range s.want {
			w, g := s.want[i], s.got[i]
			if math.Float64bits(w.X) != math.Float64bits(g.X) || math.Float64bits(w.Y) != math.Float64bits(g.Y) {
				return fmt.Errorf("%s point %d differs: %+v vs %+v", s.name, i, w, g)
			}
		}
	}
	if want.up != got.up || want.down != got.down {
		return fmt.Errorf("bytes up/down %d/%d vs %d/%d", want.up, want.down, got.up, got.down)
	}
	for l := range want.model {
		for i := range want.model[l] {
			if math.Float32bits(want.model[l][i]) != math.Float32bits(got.model[l][i]) {
				return fmt.Errorf("model layer %d coordinate %d: %v vs %v", l, i, want.model[l][i], got.model[l][i])
			}
		}
	}
	if math.Float64bits(want.final) != math.Float64bits(got.final) {
		return fmt.Errorf("final accuracy %v vs %v", want.final, got.final)
	}
	return nil
}

// Depth 2 over the in-process loopback: the QueuedPipeliner wrap of a
// synchronous transport. The extra ≤1 step of client-side staleness must
// not break convergence on the easy mixture.
func TestPipelinedTrainingConverges(t *testing.T) {
	cfg := quickConfig(DGS, 4)
	cfg.PipelineDepth = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.7 {
		t.Fatalf("depth-2 accuracy %.3f", res.FinalAccuracy)
	}
	first := res.Loss.Points()[0].Y
	last := res.Loss.Last().Y
	if last >= first {
		t.Fatalf("depth-2 loss did not decrease: %.3f -> %.3f", first, last)
	}
}

// Depth 2 over real TCP sockets inside Run.
func TestPipelinedTrainingOverTCP(t *testing.T) {
	cfg := quickConfig(DGS, 3)
	cfg.TCPAddr = "127.0.0.1:0"
	cfg.PipelineDepth = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.7 {
		t.Fatalf("pipelined TCP run accuracy %.3f", res.FinalAccuracy)
	}
	if res.BytesUp == 0 || res.BytesDown == 0 {
		t.Fatal("TCP traffic not recorded")
	}
}

// The multi-process deployment path end to end: RunWorkerLoop over a native
// PipelinedSession (wire-v2 mux + session envelope) against an
// exactly-once server, including the drained-window final model sync.
func TestWorkerLoopOverPipelinedSession(t *testing.T) {
	cfg := quickConfig(DGS, 1)
	cfg.PipelineDepth = 2
	if err := cfg.normalise(); err != nil {
		t.Fatal(err)
	}
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	server := ps.NewServer(ps.Config{LayerSizes: proto.LayerSizes(), Workers: 1})
	eo := ExactlyOnceHandler(server)
	srv, err := transport.ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ses := transport.NewPipelinedSession(func() (transport.MuxLink, error) {
		return transport.DialMux(srv.Addr())
	}, 2)
	defer ses.Close()
	res, err := RunWorkerLoop(cfg, 0, ses)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.7 {
		t.Fatalf("pipelined-session run accuracy %.3f", res.FinalAccuracy)
	}
	if eo.Stats().Hellos != 1 {
		t.Fatalf("stats %+v, want exactly one hello", eo.Stats())
	}
}

func TestPipelineDepthValidated(t *testing.T) {
	cfg := quickConfig(DGS, 2)
	cfg.PipelineDepth = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative pipeline depth accepted")
	}
	cfg.PipelineDepth = transport.DefaultReplayWindow + 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("pipeline depth beyond the replay window accepted; reconnect replay could not cover the in-flight frames")
	}
}
