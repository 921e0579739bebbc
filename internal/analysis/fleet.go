package analysis

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// RunResult pairs one Request's outcome with the error Run returned
// for it. Exactly the Run contract applies: a timed-out main pass
// yields both a populated Result and a *BudgetExceededError.
type RunResult struct {
	Result *Result
	Err    error
}

// RunAll executes every request through Run on a bounded worker pool
// and hands run i's outcome to done(i, rr) as the run ends, on the
// worker that ran it. done is called exactly once per request, from
// up to `workers` goroutines at once but never twice for one i, so a
// caller that writes slot i of its own slice assembles figure rows
// positionally, regardless of completion order, without a lock.
// RunAll holds no outcome itself: a caller that keeps only what it
// reads of each Result lets the rest go as each run ends, not when
// the whole fleet does.
//
// workers <= 0 selects runtime.NumCPU() — the machine's capacity, not
// GOMAXPROCS, so a lowered GOMAXPROCS (common in container test
// harnesses) no longer silently serializes a fleet. An explicit
// positive workers is honored as given; either way the pool never
// exceeds len(reqs).
//
// Cancelling ctx stops the fleet promptly: in-flight runs abort at
// their next stage boundary or solver check, and requests not yet
// started are not started — their outcome is the context error.
// Each run is fully isolated (own pta.Table, own solver state), so
// concurrent results are bit-for-bit identical to sequential ones.
//
// Observer callbacks are NOT serialized across the fleet: an Observer
// instance attached to several requests is invoked from up to
// `workers` goroutines concurrently and must be safe for concurrent
// use — see the Observer contract.
func RunAll(ctx context.Context, reqs []Request, workers int, done func(i int, rr RunResult)) {
	if len(reqs) == 0 {
		return
	}
	workers = poolSize(workers, len(reqs))

	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					done(i, RunResult{Err: fmt.Errorf("analysis: not started: %w", err)})
					continue
				}
				res, err := Run(ctx, reqs[i])
				done(i, RunResult{Result: res, Err: err})
			}
		}()
	}
	for i := range reqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// poolSize resolves the worker-count parameter of RunAll: non-positive
// means NumCPU, and the pool never exceeds the request count.
func poolSize(workers, nreqs int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > nreqs {
		workers = nreqs
	}
	return workers
}
