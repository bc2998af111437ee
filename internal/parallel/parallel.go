// Package parallel provides the bounded worker-pool primitives behind the
// experiment sweeps. The design contract, and the reason this package exists
// instead of ad-hoc goroutines at each call site, is determinism: Map and
// ForEach assign work by index and collect results by index, so the output
// of a sweep is byte-identical regardless of worker count or goroutine
// scheduling. Parallelism may only change wall-clock time, never a result —
// the property the timing-attack reproductions depend on and the
// determinism test suite asserts.
//
// Worker-count convention: 0 (or negative) means runtime.NumCPU(), 1 means
// strictly sequential execution on the calling goroutine. Sequential
// execution is a real code path, not a degenerate pool, so `-workers=1`
// gives an honest single-threaded baseline for speedup measurements.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalises a worker-count flag: values <= 0 select
// runtime.NumCPU(), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// PanicError wraps a panic recovered from a worker so callers see a regular
// error with the offending item's index and the worker stack.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panicked on item %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// cellError pairs an error with the index it occurred at, so the error the
// caller sees is scheduling-independent (lowest index wins).
type cellError struct {
	index int
	err   error
}

// Map applies fn to every item with at most `workers` concurrent calls and
// returns results in item order. fn receives the item's index, so callers
// can derive per-cell seeds from it (see sim.DeriveSeed).
//
// Semantics:
//   - Results are positionally stable: out[i] corresponds to items[i],
//     whatever order the workers finished in.
//   - Panics inside fn are captured and returned as *PanicError.
//   - On error (or ctx cancellation) remaining items are not started; the
//     error reported is the one at the lowest item index, so failure output
//     is deterministic too.
//   - workers follows the Workers convention; workers==1 runs fn inline on
//     the calling goroutine with no channels or goroutines involved.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, index int, item T) (R, error)) ([]R, error) {
	workers = Workers(workers)
	out := make([]R, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 1 {
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			r, err := safeCall(ctx, i, item, fn)
			if err != nil {
				return out, err
			}
			out[i] = r
		}
		return out, nil
	}

	// Shared cursor: workers claim the next unclaimed index. Assignment
	// order is nondeterministic but irrelevant — results land by index.
	var next atomic.Int64
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make(chan cellError, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				r, err := safeCall(ctx, i, items[i], fn)
				if err != nil {
					errs <- cellError{index: i, err: err}
					cancel() // stop claiming new items
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	close(errs)
	var first *cellError
	for ce := range errs {
		ce := ce
		if first == nil || ce.index < first.index {
			first = &ce
		}
	}
	if first != nil {
		return out, first.err
	}
	return out, ctx.Err()
}

// safeCall invokes fn converting panics to *PanicError.
func safeCall[T, R any](ctx context.Context, i int, item T, fn func(context.Context, int, T) (R, error)) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Index: i, Value: v, Stack: buf}
		}
	}()
	return fn(ctx, i, item)
}

// ForEach is Map for side-effecting cells with no result value.
func ForEach[T any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, index int, item T) error) error {
	_, err := Map(ctx, workers, items, func(ctx context.Context, i int, item T) (struct{}, error) {
		return struct{}{}, fn(ctx, i, item)
	})
	return err
}
