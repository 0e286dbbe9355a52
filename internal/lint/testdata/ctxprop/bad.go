// Package goldenbadctx is known-bad input for the ctx-propagation checker:
// functions with a context.Context in scope calling the uncancellable sched
// entry points, next to functions that legitimately use them because no
// context has reached them.
package goldenbadctx

import (
	"context"

	"graphite/internal/sched"
	"graphite/internal/telemetry"
)

func fanOut(ctx context.Context, n, threads int, rows []float32) error {
	sched.Dynamic(n, 64, threads, nil, func(_, s, e int) { // want ctx-propagation
		for i := s; i < e; i++ {
			rows[i] = 0
		}
	})
	cur := sched.NewCursor(n, 64) // want ctx-propagation
	_, _, _ = cur.Next()
	return sched.DynamicCtx(ctx, n, 64, threads, nil, func(_, s, e int) {}) // clean: ctx variant
}

type opts struct {
	Ctx context.Context
}

func fieldScoped(o opts, n, threads int) {
	_ = o.Ctx
	sched.Dynamic(n, 64, threads, nil, func(_, s, e int) {}) // want ctx-propagation
}

func telForms(ctx context.Context, n, threads int, tel *telemetry.Sink) error {
	sched.Dynamic(n, 64, threads, tel, func(w, s, e int) {})  // want ctx-propagation
	sched.Dynamic(n, 256, threads, tel, func(w, s, e int) {}) // want ctx-propagation
	cur := sched.NewCursor(n, 8)                              // want ctx-propagation
	_, _, _ = cur.Next()
	if err := sched.StaticCtx(ctx, n, threads, tel, func(w, s, e int) {}); err != nil { // clean: ctx runner
		return err
	}
	return sched.ForEachThreadCtx(ctx, threads, tel, func(t int) {}) // clean: ctx runner
}

func pure(n, threads int, rows []float32) {
	sched.Dynamic(n, 64, threads, nil, func(_, s, e int) { // clean: no ctx in scope
		for i := s; i < e; i++ {
			rows[i] = 0
		}
	})
	cur := sched.NewCursor(n, 64) // clean: no ctx in scope
	_, _, _ = cur.Next()
}

func waived(ctx context.Context, threads int) {
	_ = ctx
	//lint:ignore ctx-propagation best-effort cache warm-up must complete even when the request is cancelled
	sched.Dynamic(threads, 1, threads, nil, func(t, _, _ int) {})
}
