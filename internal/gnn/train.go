package gnn

import (
	"context"
	"fmt"

	"graphite/internal/faultinject"
	"graphite/internal/telemetry"
)

// EpochResult reports one training epoch.
type EpochResult struct {
	Loss     float64
	Accuracy float64
	Timings  Timings
}

// Trainer drives full-batch training: forward, loss, backward, parameter
// update, per epoch. The paper's headline result is that CPUs make this
// full-batch loop practical on large graphs (no sampling, no
// mini-batching) once the memory bottleneck is treated.
//
// Weight updates are atomic per epoch: any error or cancellation inside an
// epoch (kernel failure, ctx cancel, injected fault) returns before the
// optimizer step, so the network always holds the weights of the last
// completed epoch and a checkpoint taken after a failed Train is still
// consistent.
type Trainer struct {
	Net  *Network
	W    *Workload
	Opts RunOptions
	// LR is the SGD learning rate used when Adam is nil.
	LR float32
	// Adam, when set, replaces plain SGD.
	Adam *Adam
	// Inject, when set, arms the "gnn/epoch" fault-injection site, checked
	// after backward and before the optimizer step — the worst place for a
	// real fault, proving the atomic-update contract above.
	Inject *faultinject.Injector

	grads *Gradients
	epoch int
}

// NewTrainer wires a trainer; opts.Train is forced on.
func NewTrainer(net *Network, w *Workload, opts RunOptions, lr float32) (*Trainer, error) {
	if w.Labels == nil {
		return nil, fmt.Errorf("gnn: training workload needs labels")
	}
	opts.Train = true
	return &Trainer{Net: net, W: w, Opts: opts, LR: lr, grads: NewGradients(net)}, nil
}

// CompletedEpochs returns how many epochs have finished through their
// optimizer step, i.e. which epoch's weights the network currently holds.
func (t *Trainer) CompletedEpochs() int { return t.epoch }

// Epoch runs one full-batch training epoch and returns loss/accuracy
// (computed on the pre-update logits) plus the phase timings. With a
// telemetry sink attached the whole epoch runs under an "epoch" span and
// pprof label, with the forward/backward phase spans nested inside.
func (t *Trainer) Epoch() (EpochResult, error) {
	return t.EpochContext(context.Background())
}

// EpochContext is Epoch under a context: cancellation aborts the epoch at
// kernel chunk granularity, and — because the ctx is re-checked after
// backward, before the optimizer step — a cancelled epoch never mutates the
// weights.
func (t *Trainer) EpochContext(ctx context.Context) (res EpochResult, err error) {
	t.Opts.Tel.Do(telemetry.PhaseEpoch, func() { res, err = t.runEpoch(ctx) })
	return res, err
}

func (t *Trainer) runEpoch(ctx context.Context) (EpochResult, error) {
	opts := t.Opts
	opts.DropoutSeed = int64(t.epoch) * 1_000_003
	st, err := Forward(ctx, t.Net, t.W, opts)
	if err != nil {
		return EpochResult{}, err
	}
	loss, dLogits, err := SoftmaxCrossEntropy(st.Logits(), t.W.Labels)
	if err != nil {
		return EpochResult{}, err
	}
	if st.Logits().HasNaN() {
		return EpochResult{}, fmt.Errorf("gnn: logits diverged to NaN/Inf at epoch %d", t.epoch+1)
	}
	acc := Accuracy(st.Logits(), t.W.Labels)
	if err := Backward(ctx, t.Net, t.W, st, dLogits, t.grads, opts); err != nil {
		return EpochResult{}, err
	}
	// Last exit before weights mutate: a cancellation or injected fault
	// landing here leaves the network exactly at the previous epoch.
	if cerr := ctxErr(ctx); cerr != nil {
		return EpochResult{}, cerr
	}
	if ferr := t.Inject.Fault("gnn/epoch"); ferr != nil {
		return EpochResult{}, fmt.Errorf("gnn: epoch %d aborted before weight update: %w", t.epoch+1, ferr)
	}
	if t.Adam != nil {
		t.Adam.Step(t.Net, t.grads)
	} else {
		SGD(t.Net, t.grads, t.LR)
	}
	t.epoch++
	return EpochResult{Loss: loss, Accuracy: acc, Timings: st.Timings}, nil
}

// Train runs epochs and returns the per-epoch results.
func (t *Trainer) Train(epochs int) ([]EpochResult, error) {
	return t.TrainContext(context.Background(), epochs)
}

// TrainContext runs up to the given number of epochs under ctx. On
// cancellation it returns the results of the epochs that completed plus
// ctx's error; the network holds the last completed epoch's weights, ready
// to checkpoint (Network.Save).
func (t *Trainer) TrainContext(ctx context.Context, epochs int) ([]EpochResult, error) {
	results := make([]EpochResult, 0, epochs)
	for i := 0; i < epochs; i++ {
		r, err := t.EpochContext(ctx)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// Infer runs an inference-only forward pass and returns the logits state,
// under an "infer" span and pprof label when a telemetry sink is attached.
func Infer(net *Network, w *Workload, opts RunOptions) (*ForwardState, error) {
	return InferContext(context.Background(), net, w, opts)
}

// InferContext is Infer under a context, cancellable at kernel chunk
// granularity.
func InferContext(ctx context.Context, net *Network, w *Workload, opts RunOptions) (st *ForwardState, err error) {
	opts.Train = false
	opts.Tel.Do(telemetry.PhaseInfer, func() { st, err = Forward(ctx, net, w, opts) })
	return st, err
}
