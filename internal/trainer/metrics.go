package trainer

import (
	"sync/atomic"
	"time"

	"dgs/internal/sparse"
	"dgs/internal/telemetry"
)

// Package-level trainer handles, resolved once at init.
var trmet = struct {
	steps       *telemetry.Counter
	stepSeconds *telemetry.Histogram
	upBytes     *telemetry.Counter
	downBytes   *telemetry.Counter
}{}

// pipeMet instruments the worker's exchange window at every depth.
// commSeconds shares its identity with the transport package (both
// Pipeliner implementations add each exchange's in-flight wall time there);
// blockedSeconds is the part of that time the worker actually spent stalled
// in Await, so
//
//	overlap_efficiency = (comm − blocked) / comm
//
// is the fraction of communication hidden behind compute: ~0 at depth 1,
// approaching 1 as deeper windows hide the round trip.
var pipeMet = struct {
	inflight       *telemetry.Gauge
	blockedSeconds *telemetry.Gauge
	commSeconds    *telemetry.Gauge
	stageEncode    *telemetry.Histogram
	stageSubmit    *telemetry.Histogram
	stageAwait     *telemetry.Histogram
	stageApply     *telemetry.Histogram
}{}

func init() {
	reg := telemetry.Default()
	trmet.steps = reg.Counter("dgs_trainer_steps_total",
		"Worker training iterations completed (compute + exchange + apply).")
	trmet.stepSeconds = reg.Histogram("dgs_trainer_step_seconds",
		"Latency of one full worker iteration.", telemetry.DurationBuckets())
	trmet.upBytes = reg.Counter("dgs_exchange_up_bytes_total",
		"Encoded bytes received from workers (sparse upward updates).")
	trmet.downBytes = reg.Counter("dgs_exchange_down_bytes_total",
		"Encoded bytes shipped to workers (model differences).")

	pipeMet.inflight = reg.Gauge("dgs_pipeline_inflight",
		"Exchanges currently in flight on the pipelined path (last observed depth).")
	pipeMet.blockedSeconds = reg.Gauge("dgs_pipeline_blocked_seconds_total",
		"Cumulative seconds workers spent stalled waiting on pipelined exchanges.")
	pipeMet.commSeconds = reg.Gauge("dgs_pipeline_comm_seconds_total",
		"Cumulative seconds exchanges spent in flight on the pipelined path.")
	stage := func(name string) *telemetry.Histogram {
		return reg.Histogram("dgs_pipeline_stage_seconds",
			"Latency of one pipelined-exchange stage, by stage.",
			telemetry.DurationBuckets(), "stage", name)
	}
	pipeMet.stageEncode = stage("encode")
	pipeMet.stageSubmit = stage("submit")
	pipeMet.stageAwait = stage("await")
	pipeMet.stageApply = stage("apply")
	reg.GaugeFunc("dgs_pipeline_overlap_efficiency",
		"Fraction of pipelined communication time hidden behind compute.",
		func() float64 {
			comm := pipeMet.commSeconds.Value()
			if comm <= 0 {
				return 0
			}
			eff := (comm - pipeMet.blockedSeconds.Value()) / comm
			if eff < 0 {
				return 0
			}
			if eff > 1 {
				return 1
			}
			return eff
		})
}

// handlerMetrics instruments one server-side Handler: wire bytes in both
// directions plus live compression ratios against the dense-gradient
// baseline (4 bytes per model coordinate per exchange — the ASGD wire
// cost the paper's Table 8 compares against). Local atomics keep each
// ratio self-consistent even when several handlers share the process;
// GaugeFunc re-registration means the latest handler's ratio wins.
type handlerMetrics struct {
	denseBytes float64
	exchanges  atomic.Uint64
	up, down   atomic.Uint64
}

func newHandlerMetrics(layerSizes []int) *handlerMetrics {
	hm := &handlerMetrics{denseBytes: float64(sparse.DenseBytes(layerSizes))}
	reg := telemetry.Default()
	reg.GaugeFunc("dgs_exchange_up_compression_ratio",
		"Dense gradient bytes divided by actual upward wire bytes.",
		func() float64 { return hm.ratio(&hm.up) })
	reg.GaugeFunc("dgs_exchange_down_compression_ratio",
		"Dense model bytes divided by actual downward wire bytes.",
		func() float64 { return hm.ratio(&hm.down) })
	return hm
}

func (hm *handlerMetrics) ratio(bytes *atomic.Uint64) float64 {
	b := bytes.Load()
	if b == 0 {
		return 0
	}
	return float64(hm.exchanges.Load()) * hm.denseBytes / float64(b)
}

func (hm *handlerMetrics) observe(upBytes, downBytes int) {
	hm.exchanges.Add(1)
	hm.up.Add(uint64(upBytes))
	hm.down.Add(uint64(downBytes))
	trmet.upBytes.Add(uint64(upBytes))
	trmet.downBytes.Add(uint64(downBytes))
}

// observeStep records one completed worker iteration.
func observeStep(start time.Time) {
	trmet.steps.Inc()
	trmet.stepSeconds.Observe(time.Since(start).Seconds())
}
