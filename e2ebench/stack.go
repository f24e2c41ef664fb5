package main

import (
	"fmt"
	"time"

	"dgs/internal/data"
	"dgs/internal/ps"
	"dgs/internal/replica"
	"dgs/internal/sparse"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// exchangeTimeout bounds every exchange; a hung exchange fails the run.
const exchangeTimeout = 30 * time.Second

// stack is one deployment under test: the parameter server behind the
// production handler stack on a loopback TCP listener, a diff-fed replica
// on worker slot trainers, and one dialled session per trainer.
type stack struct {
	w       *workload
	seed    uint64
	steps   int // per trainer
	ds      data.Dataset
	sizes   []int
	server  *ps.Server
	eo      *transport.ExactlyOnce
	gate    *transport.Gate
	lis     *transport.TCPServer
	rep     *replica.Replica
	link    *replicaLink
	clients []transport.Transport // wrapped, one per trainer
	rec     *recorder             // nil in the untraced run
	// hellos counts the exchanges setup made to open each trainer session.
	hellos int
	// progress counts completed steps across trainers and signals the
	// middle of the step budget.
	progress *progress
}

// timedServer is the parameter server of the traced run: Push and FoldDown
// are timed, everything else is the embedded server's. It must stay a
// ps.DownFolder, or the codec layer answers every lossy request raw.
type timedServer struct {
	*ps.Server
	rec *recorder
}

var _ ps.DownFolder = (*timedServer)(nil)

func (s *timedServer) Push(worker int, g *sparse.Update) (sparse.Update, uint64) {
	t0 := time.Now()
	G, t := s.Server.Push(worker, g)
	s.rec.add(layerPush, worker, t0, time.Now())
	return G, t
}

func (s *timedServer) FoldDown(worker int, e *sparse.Update) {
	t0 := time.Now()
	s.Server.FoldDown(worker, e)
	s.rec.add(layerFold, worker, t0, time.Now())
}

// timed wraps a server handler layer with a span per call.
func timed(rec *recorder, layer string, h transport.Handler) transport.Handler {
	return func(worker int, payload []byte) ([]byte, error) {
		t0 := time.Now()
		resp, err := h(worker, payload)
		rec.add(layer, worker, t0, time.Now())
		return resp, err
	}
}

// newStack sets up everything a run needs up to its first step: dataset,
// geometry, server, listener, the replica's subscription and every
// trainer's session hello.
func newStack(w *workload, seed uint64, steps int, rec *recorder) (st *stack, err error) {
	st = &stack{w: w, seed: seed, steps: steps, rec: rec}
	st.progress = newProgress(int64(max(steps*w.trainers/2, 1)))
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	// One pass over the train split is exactly the run's step budget.
	st.ds = w.dataset(steps * w.batch * w.trainers)
	st.sizes = w.model(nil).LayerSizes()
	st.server = ps.NewServer(ps.Config{
		LayerSizes:     st.sizes,
		Workers:        w.trainers + 1,
		Secondary:      w.secondary > 0,
		SecondaryRatio: w.secondary,
	})
	var pusher ps.Pusher = st.server
	if rec != nil {
		pusher = &timedServer{Server: st.server, rec: rec}
	}
	if st.eo, err = trainer.ExactlyOnceHandlerWithCodec(pusher, "mirror"); err != nil {
		return st, err
	}
	session := st.eo.Handle
	if rec != nil {
		session = timed(rec, layerSession, session)
	}
	st.gate = transport.NewGate(session, 0)
	handle := st.gate.Handle
	if rec != nil {
		handle = timed(rec, layerGate, handle)
	}
	if st.lis, err = transport.ListenTCP("127.0.0.1:0", handle); err != nil {
		return st, err
	}
	st.lis.SetExchangeTimeout(exchangeTimeout)

	st.link = &replicaLink{worker: w.trainers, rec: rec}
	st.rep, err = replica.New(replica.Config{
		LayerSizes:   st.sizes,
		Worker:       w.trainers,
		Dial:         st.link.wrap(replica.DialStack(st.lis.Addr(), exchangeTimeout, 0, 0, 0)),
		Codec:        replicaCodec,
		PollInterval: w.pollEvery(),
	})
	if err != nil {
		return st, err
	}
	// The replica's subscription hello is part of setup.
	deadline := time.Now().Add(exchangeTimeout)
	for st.rep.Stats().Polls == 0 {
		if st.link.failed.Load() > 0 || time.Now().After(deadline) {
			return st, fmt.Errorf("replica subscription: %v", st.rep.LastErr())
		}
		time.Sleep(100 * time.Microsecond)
	}

	dial := trainer.NewDialStack(trainer.DialOptions{
		Addr: st.lis.Addr(), Pipeline: w.depth, Timeout: exchangeTimeout,
	})
	empty := sparse.Encode(&sparse.Update{})
	for k := 0; k < w.trainers; k++ {
		tr, err := dial()
		if err != nil {
			return st, err
		}
		// The hello: an empty push opens the session before the first step.
		st.hellos++
		if _, err := tr.Exchange(k, empty); err != nil {
			tr.Close()
			return st, fmt.Errorf("trainer %d hello: %w", k, err)
		}
		st.clients = append(st.clients, wrapClient(tr, k, steps, rec, st.progress))
	}
	return st, nil
}

// close releases the stack. It is safe on a partly built stack.
func (st *stack) close() {
	for _, c := range st.clients {
		c.Close()
	}
	if st.rep != nil {
		st.rep.Close()
	}
	if st.lis != nil {
		st.lis.Close()
	}
}

// trainerConfig is the DGS configuration every trainer of the stack runs.
func (st *stack) trainerConfig() trainer.Config {
	w := st.w
	return trainer.Config{
		Method:     trainer.DGS,
		Workers:    w.trainers,
		BatchSize:  w.batch,
		Epochs:     1,
		LR:         w.lr,
		Momentum:   momentum,
		KeepRatio:  keepRatio,
		Codec:      "raw",
		Seed:       st.seed,
		BuildModel: w.model,
		Dataset:    st.ds,
		// Evaluation is not part of a step: none during the run, and one
		// small batch for worker 0 after its last step.
		EvalEveryEpochs: 1 << 30,
		EvalLimit:       64,
		PipelineDepth:   w.depth,
	}
}
