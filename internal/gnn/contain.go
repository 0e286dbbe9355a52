package gnn

import (
	"context"
	"fmt"
	"runtime/debug"

	"graphite/internal/sched"
	"graphite/internal/telemetry"
)

// contain is the package's panic→error boundary, deferred at the entry
// points that promise an error return (Forward, Backward, the sampled layer
// loop, and through them Infer, the trainers and the serving path). Two
// classes of panic reach it:
//
//   - *sched.WorkerError re-panicked by the uncancellable sched.Dynamic
//     under the ctx-free tensor helpers: already recovered and counted
//     inside the scheduler, so it is wrapped as-is.
//   - caller-goroutine panics (kernel shape checks like checkAggArgs, or
//     library bugs): recovered here, counted on tel, and reported with the
//     stack at the point of the panic.
//
// It must be deferred directly ("defer contain(tel, &err)") so recover()
// sees the in-flight panic.
func contain(tel *telemetry.Sink, err *error) {
	r := recover()
	if r == nil {
		return
	}
	if we, ok := r.(*sched.WorkerError); ok {
		*err = fmt.Errorf("gnn: contained worker panic: %w", we)
		return
	}
	tel.Inc(telemetry.CtrPanicsRecovered)
	*err = fmt.Errorf("gnn: contained panic: %v\n%s", r, debug.Stack())
}

// ctxErr returns ctx.Err(), tolerating a nil context, which the entry
// points treat like context.Background().
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
