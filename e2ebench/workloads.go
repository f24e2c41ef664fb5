package main

import (
	"fmt"
	"time"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/tensor"
)

// workload is one traffic mix. Every workload is the same deployment shape
// — trainers pushing through the production server stack, one diff-fed
// replica on the last worker slot, an open-loop reader and a checkpointer,
// all at the read-side rates below — and the workloads differ in the
// training load. README.md records why each one was chosen.
type workload struct {
	name string
	// model builds the network from the workload's fixed initial weights;
	// dataset builds the fixed example pool with train examples. The run's
	// seed picks only the order trainers draw examples in, so runs of one
	// workload differ in their inputs but follow the same loss curve up to
	// the noise of that order.
	model    func(*tensor.RNG) *nn.Model
	dataset  func(train int) data.Dataset
	trainers int
	batch    int
	// depth is the trainer pipeline depth; 2 selects the native
	// PipelinedSession client.
	depth int
	lr    float32
	// secondary is the Eq.-6 downward keep ratio (0 disables it).
	secondary float64
	// stepsPerSec is the nominal training rate (all trainers together) on
	// the reference host. A run's step budget is seconds × stepsPerSec, so
	// every run of a workload does the same work and takes about --seconds.
	stepsPerSec float64
	// lossTarget is the smoothed training loss time_to_loss_s waits for;
	// lossCeiling is the largest loss_final a correct run may end at.
	lossTarget, lossCeiling float64
	// readPath marks the read-path workload: its replica and checkpointer
	// run at the repository's deployed rates. The training workloads run
	// the lightest read side that still reports every read metric.
	readPath bool
}

const (
	keepRatio    = 0.01
	momentum     = 0.7
	replicaCodec = "ternary"
)

// Read-side rates. README.md gives the basis of each.
//   - The open-loop reader issues on average one read per readEvery,
//     alternating server and replica snapshots, on every workload. It is
//     the lower of the two rates tried whose read tail stayed within its
//     bound across seeds on wide-secondary-pipelined: at half of it, a 15 s
//     run holds 300 reads and the p95 read tail spread past the bound.
//   - On the read-path workload the replica polls at dgs-replica's default
//     -poll interval. dgs-server's default -checkpoint-interval is 30 s, so
//     a 15 s run holds at most one periodic checkpoint: the checkpointer
//     writes one at the middle of the step budget.
//   - On the training workloads the replica polls once a second, which
//     still samples its staleness over more than ten poll cycles a run, and
//     no checkpoint is written during the run.
//   - Every run ends with the checkpoint dgs-server writes on graceful
//     shutdown, after the drain and outside the measured run.
const (
	readEvery    = 25 * time.Millisecond
	deployedPoll = 50 * time.Millisecond
	lightPoll    = time.Second
	// readStream separates the reader's random stream from the trainers'.
	readStream = 0x4EAD
)

// pollEvery is the replica's poll interval on w.
func (w *workload) pollEvery() time.Duration {
	if w.readPath {
		return deployedPoll
	}
	return lightPoll
}

// initSeed fixes every workload's initial weights and example pool.
const initSeed = 0x5EED

func cnnModel(*tensor.RNG) *nn.Model {
	return nn.NewResNetS(tensor.NewRNG(initSeed), nn.DefaultResNetS(10))
}

func cnnData(train int) data.Dataset {
	cfg := data.CIFARLike(initSeed)
	cfg.Train = train
	return data.NewSyntheticImages(cfg)
}

// wideModel is a 1.06M-parameter MLP whose largest layer (524,288 floats)
// does not fit in cache, so Top-k, gathers and frames are memory-bound.
func wideModel(*tensor.RNG) *nn.Model {
	return nn.NewMLP(tensor.NewRNG(initSeed), 256, 2048, 256, 32)
}

func wideData(train int) data.Dataset {
	return data.NewGaussianMixture(256, 32, train, 256, 0.5, initSeed)
}

var workloads = []*workload{
	{
		// Compute-bound: a small CNN whose 20k parameters fit in cache, two
		// synchronous trainers. The predicted no-change workload for
		// server, codec and read-path work. BENCHMARK.json does not gate it:
		// its timings follow the host's CPU speed (README.md).
		name: "cnn-sync", model: cnnModel, dataset: cnnData,
		trainers: 2, batch: 32, depth: 1, lr: 0.05,
		stepsPerSec: 44, lossTarget: 2.0, lossCeiling: 1.8,
	},
	{
		// Server- and comm-bound: the wide model with the Eq.-6 secondary
		// Top-k on every downward difference and two exchanges in flight
		// per trainer.
		name: "wide-secondary-pipelined", model: wideModel, dataset: wideData,
		trainers: 2, batch: 16, depth: 2, lr: 0.01, secondary: 0.01,
		stepsPerSec: 22, lossTarget: 2.0, lossCeiling: 1.5,
	},
	{
		// Reads beside writes: one trainer on the wide model, so the
		// reader, the replica and the checkpointer have the second core.
		name: "wide-read", model: wideModel, dataset: wideData,
		trainers: 1, batch: 16, depth: 1, lr: 0.01,
		stepsPerSec: 23, lossTarget: 2.0, lossCeiling: 1.5,
		readPath: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stepsPerTrainer is the run's step budget for each trainer.
func (w *workload) stepsPerTrainer(seconds float64) int {
	n := int(seconds*w.stepsPerSec/float64(w.trainers) + 0.5)
	if n < 20 {
		n = 20
	}
	return n
}
