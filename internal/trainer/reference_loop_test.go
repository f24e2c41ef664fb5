package trainer

import (
	"fmt"
	"time"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/optim"
	"dgs/internal/quant"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// referenceRun is a frozen copy of the synchronous worker loop as it stood
// before every pipeline depth ran through one windowed loop: one blocking
// Exchange per step, the v2 raw downgrade retried inline, and the downward
// difference applied before the step ends. It keeps no pipeline telemetry;
// TestPipelineDepthOneIsBitwiseIdentical holds worker.run at depths 0 and 1
// to it bit for bit.
func (w *worker) referenceRun() (*nn.Model, error) {
	cfg := w.cfg
	model := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	opt := buildOptimizer(cfg, w.sizes)
	if w.id == 0 {
		w.res.WorkerStateBytes = opt.StateBytes()
	}
	loader := data.NewLoader(cfg.Dataset, cfg.BatchSize, cfg.Seed+uint64(1000+w.id), true)
	qrng := tensor.NewRNG(cfg.Seed + uint64(7000+w.id))
	codec := newUpCodec(cfg.Codec, opt)

	var encBuf []byte
	nextEval := float64(cfg.EvalEveryEpochs)
	params := model.Params()

	for {
		iter := w.iterCounter.Add(1) - 1
		if iter >= int64(w.totalIters) {
			return model, nil
		}
		batch := loader.Next()

		t0 := time.Now()
		model.ZeroGrad()
		logits := model.Forward(batch.X, true)
		loss, g := nn.SoftmaxCrossEntropy(logits, batch.Labels)
		model.Backward(g)
		w.computeNanos.Add(time.Since(t0).Nanoseconds())

		grads := model.Gradients()
		if cfg.WeightDecay > 0 {
			for i, g := range grads {
				tensor.Axpy(cfg.WeightDecay, params[i].Value.Data, g)
			}
		}
		if cfg.GradClip > 0 {
			clipGlobalNorm(grads, cfg.GradClip)
		}
		stepLR := w.lr(iter)
		if cfg.WarmupFrac > 0 {
			progress := float64(iter) / float64(w.totalIters)
			stepLR *= float32(optim.LRWarmup(progress, cfg.WarmupFrac))
			if rs, ok := opt.(optim.RatioSetter); ok {
				rs.SetKeepRatio(optim.SparsityWarmup(progress, cfg.WarmupFrac, cfg.WarmupKeepStart, cfg.KeepRatio))
			}
		}
		upd := opt.Prepare(grads, stepLR)
		if cfg.Ternary {
			upd = quant.TernarizeUpdate(&upd, qrng)
		}
		encBuf = codec.encode(encBuf[:0], &upd, qrng)

		respBytes, err := w.tr.Exchange(w.id, encBuf)
		if codec.fallbackToRaw(err) {
			encBuf = sparse.AppendEncode(encBuf[:0], &codec.q)
			respBytes, err = w.tr.Exchange(w.id, encBuf)
		}
		if err != nil {
			return model, fmt.Errorf("trainer: worker %d exchange: %w", w.id, err)
		}
		if err := sparse.DecodeAnyInto(&w.down, respBytes); err != nil {
			return model, fmt.Errorf("trainer: worker %d decode response: %w", w.id, err)
		}
		for ci := range w.down.Chunks {
			c := &w.down.Chunks[ci]
			sparse.Scatter(c, params[c.Layer].Value.Data, 1)
		}

		epoch := float64(iter+1) * float64(cfg.BatchSize) / w.samplesPerEpoch
		w.res.Loss.Add(epoch, loss)

		if w.id == 0 && epoch >= nextEval {
			acc := evaluate(cfg, model)
			w.res.Accuracy.Add(epoch, acc)
			for epoch >= nextEval {
				nextEval += float64(cfg.EvalEveryEpochs)
			}
		}
	}
}
