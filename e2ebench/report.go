package main

import (
	"math"
	"sort"
	"time"
)

// endToEnd sets the metrics a user of the system sees.
func (rep *report) endToEnd(r *run, setup float64) {
	w := r.st.w
	steps := r.totalSteps()
	wall := r.end.Sub(r.start)
	rep.set("setup_s", setup, "s")
	rep.note("run %.2f s, then drain and checks %.2f s (replica sync %.2f s)", wall.Seconds(), r.drainDur.Seconds(), r.syncDur.Seconds())
	rep.set("steps_per_s", float64(steps)/wall.Seconds(), "1/s")

	pts := r.lossPoints()
	window := smoothWindow(len(pts))
	ttl, ok := timeToLoss(pts, window, w.lossTarget)
	if !ok {
		// Reported as the whole run; the loss check has failed the run.
		ttl = wall
	}
	rep.set("time_to_loss_s", ttl.Seconds(), "s")
	rep.set("loss_final", finalLoss(pts, window), "loss")
	rep.note("smoothed loss at each tenth of the run: %s", lossByTenth(pts, window))

	durs := r.stepDurations()
	st := tailOf(durs)
	rep.set("step_p50_ms", median(durs), "ms")
	rep.set("step_tail_ms", st.Value, "ms")
	rep.note("step_tail_ms is p%g of n=%d steps; loss window %d steps", st.Pct, st.N, window)

	var up, down int64
	for _, c := range r.st.clients {
		cl := clientOf(c)
		up += cl.up
		down += cl.down
	}
	rep.set("up_bytes_per_step", float64(up)/float64(steps), "B")
	rep.set("down_bytes_per_step", float64(down)/float64(steps), "B")
	rep.set("peak_heap_mb", float64(r.heapPeak)/(1<<20), "MB")

	lat := make([]float64, 0, len(r.reads))
	stale := make([]float64, 0, len(r.reads))
	for _, rd := range r.reads {
		lat = append(lat, ms(rd.latency))
		stale = append(stale, ms(rd.staleness))
	}
	rt := tailOf(lat)
	rep.set("read_p50_ms", median(lat), "ms")
	rep.set("read_tail_ms", rt.Value, "ms")
	rep.note("read_tail_ms is p%g of n=%d reads", rt.Pct, rt.N)
	rep.set("replica_staleness_ms", mean(stale), "ms")
}

// perLayer assembles the traced run's spans and sets the per-layer metrics.
// plain is the untraced run of the same workload, for the tracing overhead.
func (rep *report) perLayer(r *run, rec *recorder, plain *run) []span {
	st := r.st
	w := st.w
	steps := r.totalSteps()
	end := rec.ns(r.end)
	var spans []span
	add := func(s span) int {
		spans = append(spans, s)
		return len(spans) - 1
	}

	var stepDur, exch, wire []float64
	var blocked time.Duration
	var stepRoots []int
	// addExchanges adds a worker's exchanges, in issue order, with the
	// server spans matched to each by order. The first roots of them are
	// training steps.
	addExchanges := func(k int, exs, gates, sessions []interval, roots []int) {
		for i, ex := range exs {
			id, parent := stepID(k, i), -1
			if i < len(roots) {
				exch = append(exch, ms(ex.dur()))
				if w.depth <= 1 {
					parent = roots[i]
					blocked += ex.dur()
				}
			}
			ei := add(span{layerExchange, k, id, parent, ex.start, ex.end})
			if i >= len(gates) || i >= len(sessions) {
				continue
			}
			g, s := gates[i], sessions[i]
			if i < len(roots) {
				wire = append(wire, ms(ex.dur()-g.dur()))
			}
			gi := add(span{layerGate, k, id, ei, g.start, g.end})
			si := add(span{layerSession, k, id, gi, s.start, s.end})
			for _, layer := range []string{layerPush, layerFold} {
				for _, iv := range within(rec.get(layer, k), s) {
					add(span{layer, k, id, si, iv.start, iv.end})
				}
			}
		}
	}
	for k, c := range st.clients {
		cl := clientOf(c)
		prev := rec.ns(r.start)
		roots := make([]int, len(cl.stepEnd))
		for j, e := range cl.stepEnd {
			t := rec.ns(e)
			roots[j] = add(span{layerStep, k, stepID(k, j), -1, prev, t})
			stepDur = append(stepDur, float64(t-prev)/1e6)
			prev = t
		}
		stepRoots = append(stepRoots, roots...)

		// A pipelined step j ends with its Submit; the Await that follows
		// it blocks in step j+1, and those after the last step drain the
		// window.
		subs, aws := rec.get(layerSubmit, k), rec.get(layerAwait, k)
		for j, s := range subs[:min(len(subs), len(roots))] {
			add(span{layerSubmit, k, stepID(k, j), roots[j], s.start, s.end})
			blocked += s.dur()
		}
		for _, a := range aws {
			if j := stepIndexAt(spans, roots, a.end); j < len(roots) {
				add(span{layerAwait, k, stepID(k, j), roots[j], a.start, a.end})
				blocked += a.dur()
			}
		}

		// The trainer's exchanges in issue order: pipelined ones first, then
		// synchronous ones (all of them at depth 1; the final sync and the
		// drain at depth 2). Setup's hello was the first server call.
		var exs []interval
		for i := range subs[:min(len(subs), len(aws))] {
			exs = append(exs, interval{subs[i].start, aws[i].end})
		}
		exs = append(exs, rec.get(layerExchange, k)...)
		addExchanges(k, exs, afterHello(rec.get(layerGate, k)), afterHello(rec.get(layerSession, k)), roots)
	}
	rk := w.trainers // the replica's slot
	addExchanges(rk, rec.get(layerExchange, rk), rec.get(layerGate, rk), rec.get(layerSession, rk), nil)

	self := selfTimes(spans)
	var gateWait, sessHandle, codecSrv []float64
	var pushes, folds []float64
	for i, s := range spans {
		switch s.Name {
		case layerGate:
			gateWait = append(gateWait, ms(self[i]))
		case layerSession:
			sessHandle = append(sessHandle, ms(s.dur()))
			codecSrv = append(codecSrv, ms(self[i]))
		case layerPush:
			if s.Worker < w.trainers && s.End <= end {
				pushes = append(pushes, ms(s.dur()))
			}
		case layerFold:
			folds = append(folds, ms(s.dur()))
		}
	}

	var compute float64
	for _, res := range r.results {
		if res != nil {
			compute += res.ComputePerIter * 1000 / float64(len(r.results))
		}
	}
	// The depth-1 encode probe runs inside the steps; its whole cost is the
	// benchmark's, not the trainer's.
	var encode, probe time.Duration
	for _, c := range st.clients {
		encode += clientOf(c).encode
		probe += clientOf(c).probe
	}
	stepMean := mean(stepDur)
	blockedMean := ms(blocked) / float64(steps)
	rep.set("trainer.compute_ms", compute, "ms")
	rep.set("trainer.worker_other_ms", stepMean-compute-blockedMean-ms(probe)/float64(steps), "ms")
	rep.set("trainer.await_blocked_ms", blockedMean, "ms")

	et := tailOf(exch)
	rep.set("transport.exchange_ms_p50", median(exch), "ms")
	rep.set("transport.exchange_ms_tail", et.Value, "ms")
	rep.note("transport.exchange_ms_tail is p%g of n=%d exchanges", et.Pct, et.N)
	rep.set("transport.wire_ms", mean(wire), "ms")
	rep.set("transport.retries", r.tel.retries, "count")
	rep.set("transport.dials", r.tel.dials, "count")

	rep.set("gate.wait_ms", mean(gateWait), "ms")
	rep.set("gate.rejected", float64(r.gate.RejectedOverload+r.gate.RejectedDrain), "count")
	rep.set("session.handle_ms", mean(sessHandle), "ms")
	rep.set("session.replays", float64(r.eo.Replays), "count")

	rep.set("codec.server_ms", mean(codecSrv), "ms")
	if w.depth > 1 {
		// The pipelined loop times its own encode stage.
		rep.set("codec.worker_encode_ms", 1000*ratio(r.tel.encodeSum, r.tel.encodeN), "ms")
	} else {
		rep.set("codec.worker_encode_ms", ms(encode)/float64(steps), "ms")
	}

	pt := tailOf(pushes)
	ps := r.ps
	rep.set("ps.push_ms_p50", median(pushes), "ms")
	rep.set("ps.push_ms_tail", pt.Value, "ms")
	rep.note("ps.push_ms_tail is p%g of n=%d trainer pushes", pt.Pct, pt.N)
	rep.set("ps.lock_wait_ms", 1000*ratio(r.tel.lockWaitSum, r.tel.lockWaitN), "ms")
	rep.set("ps.scan_skip_ratio", ratio(float64(ps.DiffBlocksSkipped), float64(ps.DiffBlocksScanned+ps.DiffBlocksSkipped)), "ratio")
	rep.set("ps.secondary_candidates_per_push", ratio(float64(ps.SecondaryCandidates), float64(ps.Pushes)), "count")
	rep.set("ps.secondary_rounds_per_push", ratio(float64(ps.SecondaryRounds), float64(ps.Pushes)), "count")
	rep.set("ps.down_values_per_push", ratio(r.tel.downValues, r.tel.pushes), "count")
	rep.set("ps.folddown_ms", mean(folds), "ms")
	rep.set("ps.staleness_mean", ratio(float64(ps.StalenessSum), float64(ps.Pushes)), "count")

	var snaps, replicaReads, late []float64
	for _, rd := range r.reads {
		if rd.replica {
			replicaReads = append(replicaReads, ms(rd.service))
		} else {
			snaps = append(snaps, ms(rd.service))
		}
	}
	for _, l := range r.late {
		late = append(late, ms(max(l, 0)))
	}
	sn := tailOf(snaps)
	rep.set("ps.snapshot_ms_p50", median(snaps), "ms")
	rep.set("ps.snapshot_ms_tail", sn.Value, "ms")
	rep.note("ps.snapshot_ms_tail is p%g of n=%d server snapshots", sn.Pct, sn.N)
	rep.set("ps.snapshot_copy_ratio", ratio(float64(ps.SnapshotBlocksCopied), float64(ps.SnapshotBlocksCopied+ps.SnapshotBlocksSkipped)), "ratio")

	rs := st.rep.Stats()
	rep.set("replica.empty_poll_ratio", ratio(float64(rs.EmptyPolls), float64(rs.Polls)), "ratio")
	rep.set("replica.applied_coords_per_poll", ratio(float64(rs.AppliedCoords), float64(rs.Polls)), "count")
	rep.set("replica.rebases", float64(rs.Rebases), "count")
	rep.set("replica.read_ms", mean(replicaReads), "ms")
	rep.set("replica.sync_ms", ms(r.syncDur), "ms")

	var capture, write []float64
	var copied, skipped uint64
	for _, c := range r.ckpts {
		capture = append(capture, ms(c.capture))
		write = append(write, ms(c.write))
		copied += c.stats.BlocksCopied
		skipped += c.stats.BlocksSkipped
	}
	rep.set("checkpoint.capture_ms", mean(capture), "ms")
	rep.set("checkpoint.write_ms", mean(write), "ms")
	rep.set("checkpoint.blocks_skipped_ratio", ratio(float64(skipped), float64(copied+skipped)), "ratio")

	rep.set("bench.generator_late_ms", mean(late), "ms")
	plainRate := float64(plain.totalSteps()) / plain.end.Sub(plain.start).Seconds()
	tracedRate := float64(steps) / r.end.Sub(r.start).Seconds()
	rep.set("bench.trace_overhead", plainRate/tracedRate-1, "ratio")
	rep.set("bench.closure_error", closureError(spans, self, stepRoots), "ratio")
	if w.depth > 1 {
		rep.note("depth %d: stages overlap, so the closure covers each step's own submit and await spans only", w.depth)
	}
	return spans
}

// within returns the intervals of sorted that lie inside outer.
func within(sorted []interval, outer interval) []interval {
	lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].start >= outer.start })
	hi := lo
	for hi < len(sorted) && sorted[hi].end <= outer.end {
		hi++
	}
	return sorted[lo:hi]
}

// stepIndexAt returns the index of the step whose span contains t, or
// len(roots) when t is after the last step.
func stepIndexAt(spans []span, roots []int, t int64) int {
	return sort.Search(len(roots), func(j int) bool { return t <= spans[roots[j]].End })
}

// afterHello drops a trainer's first server call, setup's session hello.
func afterHello(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	return ivs[1:]
}

// closureError is the mean over steps of |Σ self times − step wall| / step
// wall, summing self times over every span below each step. It is zero when
// the spans of a step nest inside it without overlapping each other.
func closureError(spans []span, self []time.Duration, roots []int) float64 {
	children := childrenOf(spans)
	var sum func(i int) time.Duration
	sum = func(i int) time.Duration {
		s := self[i]
		for _, c := range children[i] {
			s += sum(c)
		}
		return s
	}
	var errs []float64
	for _, ri := range roots {
		wall := spans[ri].dur()
		if wall <= 0 {
			continue
		}
		errs = append(errs, math.Abs(float64(sum(ri)-wall))/float64(wall))
	}
	return mean(errs)
}
