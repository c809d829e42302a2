package federate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/obs"
)

// ErrStreamClosed marks a sub-query abandoned because the consumer closed
// the stream (Limit reached, early break) — deliberate termination, not
// an upstream failure: it never marks the result Partial and never trips
// the fail-fast error.
var ErrStreamClosed = errors.New("federate: sub-query abandoned: stream closed by consumer")

// StreamingSelectClient is the optional streaming capability of a
// SelectClient: it opens a SELECT whose solutions decode incrementally
// from the wire. *endpoint.Client satisfies it (SelectSolutionStream).
// The executor probes its client for this interface; clients without it
// fall back to buffered per-endpoint fetches, merged streamingly all the
// same.
type StreamingSelectClient interface {
	SelectSolutionStream(ctx context.Context, endpointURL, queryText string) (eval.SolutionStream, error)
}

// Stream is an in-flight federated SELECT: per-endpoint sub-queries are
// dispatching concurrently while the consumer pulls merged, deduplicated,
// owl:sameAs-canonicalised solutions. The first solution is available as
// soon as the first endpoint produces one — long before slow endpoints
// answer. After the stream ends, Summary reports the per-dataset
// outcomes.
type Stream struct {
	vars   []string
	out    chan eval.Solution
	done   chan struct{} // closed once res and err are final
	res    *Result
	err    error
	cancel context.CancelFunc

	// stopped records that the consumer closed the stream deliberately.
	// stopMu orders Close against each sub-query's completion, so an
	// error is abandonment exactly when Close came first, whatever the
	// transport surfaced (a cancellation or a closed-connection read).
	stopMu    sync.Mutex
	stopped   bool
	closeOnce sync.Once
}

// settle classifies a finished sub-query's error: once the consumer has
// closed the stream, it is abandonment (ErrStreamClosed), never an
// upstream failure. It reports whether the answer was abandoned.
func (s *Stream) settle(a *DatasetAnswer) bool {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	if a.Err != nil && s.stopped {
		a.Err = ErrStreamClosed
		return true
	}
	return false
}

// Vars returns the projection variable names.
func (s *Stream) Vars() []string { return s.vars }

// Next returns the next merged solution, io.EOF at the end of the
// fan-out, or the fail-fast error that aborted it.
func (s *Stream) Next() (eval.Solution, error) {
	sol, ok := <-s.out
	if !ok {
		<-s.done
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	return sol, nil
}

// Close cancels the remaining upstream work and releases the stream. It
// is safe to call at any point and more than once; a consumer that stops
// early must call it so in-flight endpoint requests are torn down.
func (s *Stream) Close() error {
	s.closeOnce.Do(func() {
		s.stopMu.Lock()
		s.stopped = true
		s.stopMu.Unlock()
		s.cancel()
		// Unblock the producer; the fan-out notices the cancellation and
		// winds down, closing out.
		go func() {
			for range s.out {
			}
		}()
	})
	return nil
}

// Solutions adapts the stream into a lazy solution sequence: solutions
// yield as endpoints deliver them, and a fail-fast abort surfaces as the
// sequence's terminal error. The consumer breaking out of the loop stops
// the fan-out via Close.
func (s *Stream) Solutions() eval.SolutionSeq {
	return func(yield func(eval.Solution, error) bool) {
		for sol := range s.out {
			if !yield(sol, nil) {
				s.Close()
				return
			}
		}
		<-s.done
		if s.err != nil {
			yield(nil, s.err)
		}
	}
}

// Summary reports the fan-out's outcome: per-dataset answers, duplicate
// count and the partial flag (Solutions is nil on the streaming path —
// the solutions already flowed through the stream). It consumes whatever
// remains of the stream, then blocks until every worker has reported.
// The error is the fail-fast abort error, if any.
func (s *Stream) Summary() (*Result, error) {
	for range s.out { // drain: a blocked producer could never finish
	}
	<-s.done
	return s.res, s.err
}

// SelectStream starts the federated fan-out and returns immediately with
// the stream of merged solutions. The request's sub-queries dispatch
// through the usual pipeline — cached rewrite, bounded worker pool with
// in-order admission, per-endpoint concurrency bound, retries, circuit
// breakers — but each endpoint's response now flows through the
// owl:sameAs merge as it decodes, so the first merged solution is
// delivered while slower endpoints are still working. Cancelling ctx (or
// calling Close) aborts all in-flight sub-queries.
func (e *Executor) SelectStream(ctx context.Context, req Request) *Stream {
	ctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		vars:   req.Vars,
		out:    make(chan eval.Solution, 64),
		done:   make(chan struct{}),
		cancel: cancel,
	}
	go e.runFanout(ctx, req, s)
	return s
}

// runFanout executes the fan-out for one stream: admission, dispatch,
// merge, then the summary Result.
func (e *Executor) runFanout(ctx context.Context, req Request, s *Stream) {
	ctx, span := obs.StartSpan(ctx, "federate")
	span.SetAttr("targets", len(req.Targets))
	m := newMerger(e.coref, func(sol eval.Solution) bool {
		select {
		case s.out <- sol:
			return true
		case <-ctx.Done():
			return false
		}
	})
	solCh := make(chan eval.Solution, 64)
	mergeDone := make(chan struct{})
	go m.run(solCh, mergeDone)

	answers := make([]DatasetAnswer, len(req.Targets))
	sem := make(chan struct{}, e.opts.Concurrency)
	var (
		wg       sync.WaitGroup
		failMu   sync.Mutex
		firstErr error
	)
admit:
	for i, t := range req.Targets {
		// Admit first attempts in request order: the planner sorts targets
		// fastest-endpoint-first, and a free-for-all on the pool semaphore
		// would scramble that order. The acquired slot is handed to the
		// worker for its first dispatch.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			for j := i; j < len(req.Targets); j++ {
				answers[j] = DatasetAnswer{Dataset: req.Targets[j].Dataset,
					Shard: req.Targets[j].Shard, Shards: req.Targets[j].Shards,
					Query: targetQuery(req, req.Targets[j]), Err: ctx.Err()}
				s.settle(&answers[j])
			}
			break admit
		}
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			answers[i] = e.queryTarget(ctx, req, t, solCh, sem)
			if answers[i].Err != nil && !s.settle(&answers[i]) && e.opts.FailFast {
				failMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("federate: %s: %w", t.Dataset, answers[i].Err)
					s.cancel()
				}
				failMu.Unlock()
			}
		}(i, t)
	}
	wg.Wait()
	close(solCh)
	<-mergeDone

	res := &Result{
		Vars:       req.Vars,
		PerDataset: answers,
		Duplicates: m.duplicates,
	}
	var failed, ok int
	for _, a := range answers {
		switch {
		case errors.Is(a.Err, ErrStreamClosed):
			// neither failed nor ok: does not make the result Partial
		case a.Err != nil:
			failed++
		default:
			ok++
		}
	}
	res.Partial = failed > 0 && ok > 0
	s.res = res
	if e.opts.FailFast {
		s.err = firstErr // only failures settled before any Close
	}
	span.SetAttr("duplicates", res.Duplicates)
	span.SetAttr("partial", res.Partial)
	span.End()
	close(s.done)
	close(s.out)
}
