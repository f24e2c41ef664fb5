package main

import (
	"sync/atomic"
	"time"

	"dgs/internal/sparse"
	"dgs/internal/transport"
)

// Layer names of the spans the benchmark records.
const (
	layerStep     = "trainer.step"
	layerExchange = "transport.exchange"
	layerSubmit   = "transport.submit"
	layerAwait    = "transport.await"
	layerGate     = "gate.handle"
	layerSession  = "session.handle"
	layerPush     = "ps.push"
	layerFold     = "ps.folddown"
)

// client times one trainer's transport from the outside. The first steps
// exchanges it carries (Exchange on a synchronous stack, Submit on a
// pipelined one) are the trainer's training steps; later ones are the final
// model sync and the benchmark's drain. For every step it records only the
// time the step's exchange was handed over or completed and the bytes it
// moved; with a recorder it also keeps each call's interval for the trace.
//
// It is used by one goroutine at a time: the trainer while it runs, then
// the benchmark's drain.
type client struct {
	inner  transport.Transport
	worker int
	steps  int
	rec    *recorder // nil in the untraced run
	// progress counts the steps of every trainer of the stack.
	progress *progress

	// stepEnd[j] is when step j's exchange completed (synchronous) or was
	// submitted (pipelined): the end of training step j.
	stepEnd []time.Time
	// up and down count payload bytes of step exchanges only: up once per
	// Exchange or Submit, down once per response. Retries and replays
	// happen below this wrapper and are not counted again.
	up, down int64
	issued   int // exchanges handed to the transport, steps or not
	resolved int // exchanges whose response came back
	failed   int
	// encode is the traced run's total time to re-encode step payloads at
	// depth 1, and probe the whole cost of doing so (decode and encode),
	// which lies inside the steps but outside every span.
	encode, probe time.Duration
	probeUpd      sparse.Update
	probeBuf      []byte
}

// progress counts the completed steps of a stack's trainers and closes mid
// when the count reaches mark: the checkpointer waits on it.
type progress struct {
	n    atomic.Int64
	mark int64
	mid  chan struct{}
}

func newProgress(mark int64) *progress {
	return &progress{mark: mark, mid: make(chan struct{})}
}

func (p *progress) step() {
	if p.n.Add(1) == p.mark {
		close(p.mid)
	}
}

// pipeClient is a client over a transport.Pipeliner. It exists so the
// wrapper implements Pipeliner exactly when the wrapped stack does: the
// trainer checks for the interface and would otherwise silently run its
// pipelined loop through a QueuedPipeliner.
type pipeClient struct {
	*client
	pipe transport.Pipeliner
}

// wrapClient returns the timing wrapper for tr, keeping its Pipeliner-ness.
func wrapClient(tr transport.Transport, worker, steps int, rec *recorder, progress *progress) transport.Transport {
	c := &client{inner: tr, worker: worker, steps: steps, rec: rec, progress: progress}
	c.stepEnd = make([]time.Time, 0, steps)
	if p, ok := tr.(transport.Pipeliner); ok {
		return &pipeClient{client: c, pipe: p}
	}
	return c
}

// clientOf unwraps what wrapClient returned.
func clientOf(tr transport.Transport) *client {
	if p, ok := tr.(*pipeClient); ok {
		return p.client
	}
	return tr.(*client)
}

// Exchange implements transport.Transport.
func (c *client) Exchange(worker int, payload []byte) ([]byte, error) {
	i := c.issued
	c.issued++
	c.timeEncode(i, payload)
	t0 := time.Now()
	resp, err := c.inner.Exchange(worker, payload)
	t1 := time.Now()
	if err != nil {
		c.failed++
		return nil, err
	}
	c.resolved = c.issued
	if i < c.steps {
		c.up += int64(len(payload))
		c.down += int64(len(resp))
		c.stepEnd = append(c.stepEnd, t1)
		c.progress.step()
	}
	if c.rec != nil {
		c.rec.add(layerExchange, c.worker, t0, t1)
	}
	return resp, nil
}

// Close implements transport.Transport.
func (c *client) Close() error { return c.inner.Close() }

// timeEncode measures, in the traced run only, what encoding a step's
// upward update costs on the synchronous path. There the trainer's own
// encode is not visible from outside, so the benchmark decodes the frame
// the trainer sent and times encoding it again with the same codec, before
// the exchange is timed. (The pipelined path times its encode stage itself,
// in telemetry.)
func (c *client) timeEncode(i int, payload []byte) {
	if c.rec == nil || i >= c.steps {
		return
	}
	t0 := time.Now()
	defer func() { c.probe += time.Since(t0) }()
	id, err := sparse.FrameCodecID(payload)
	if err != nil {
		return
	}
	codec, err := sparse.CodecByID(id)
	if err != nil {
		return
	}
	if sparse.DecodeAnyInto(&c.probeUpd, payload) != nil {
		return
	}
	e0 := time.Now()
	c.probeBuf = codec.AppendEncode(c.probeBuf[:0], &c.probeUpd)
	c.encode += time.Since(e0)
}

// Submit implements transport.Pipeliner.
func (p *pipeClient) Submit(worker int, payload []byte) error {
	i := p.issued
	p.issued++
	t0 := time.Now()
	err := p.pipe.Submit(worker, payload)
	t1 := time.Now()
	if err != nil {
		p.failed++
		return err
	}
	if i < p.steps {
		p.up += int64(len(payload))
		p.stepEnd = append(p.stepEnd, t1)
		p.progress.step()
	}
	if p.rec != nil {
		p.rec.add(layerSubmit, p.worker, t0, t1)
	}
	return nil
}

// Await implements transport.Pipeliner.
func (p *pipeClient) Await() ([]byte, error) {
	i := p.resolved
	p.resolved++
	t0 := time.Now()
	resp, err := p.pipe.Await()
	t1 := time.Now()
	if err != nil {
		p.failed++
		return nil, err
	}
	if i < p.steps {
		p.down += int64(len(resp))
	}
	if p.rec != nil {
		p.rec.add(layerAwait, p.worker, t0, t1)
	}
	return resp, nil
}

// InFlight implements transport.Pipeliner.
func (p *pipeClient) InFlight() int { return p.pipe.InFlight() }

// replicaLink counts, and in the traced run times, the replica's upstream
// exchanges across all of its incarnations.
type replicaLink struct {
	worker         int
	rec            *recorder
	issued, failed atomic.Int64
}

// wrap is a replica Config.Dial decorator.
func (l *replicaLink) wrap(dial func() (transport.Transport, error)) func() (transport.Transport, error) {
	return func() (transport.Transport, error) {
		tr, err := dial()
		if err != nil {
			return nil, err
		}
		return &linkTransport{inner: tr, link: l}, nil
	}
}

type linkTransport struct {
	inner transport.Transport
	link  *replicaLink
}

func (t *linkTransport) Exchange(worker int, payload []byte) ([]byte, error) {
	t0 := time.Now()
	resp, err := t.inner.Exchange(worker, payload)
	t.link.issued.Add(1)
	if err != nil {
		t.link.failed.Add(1)
		return nil, err
	}
	if t.link.rec != nil {
		t.link.rec.add(layerExchange, t.link.worker, t0, time.Now())
	}
	return resp, nil
}

func (t *linkTransport) Close() error { return t.inner.Close() }
