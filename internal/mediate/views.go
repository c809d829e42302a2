package mediate

import (
	"context"
	"fmt"
	"io"
	"iter"
	"sync"

	"sparqlrw/internal/decompose"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/view"
)

// This file is the mediator side of the materialized-view tier: the
// Runner the view manager materializes through, the answer hook that
// serves a covered SELECT from a view's embedded store, and the observe
// hook that feeds the shape miner from the decomposed-query stream.

// ctxNoViews marks a context whose queries must bypass the view tier —
// set on view materialization queries so a view is never built from
// another view (no recursion, no self-mining).
type ctxNoViews struct{}

func withoutViews(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxNoViews{}, true)
}

func viewsDisabled(ctx context.Context) bool {
	on, _ := ctx.Value(ctxNoViews{}).(bool)
	return on
}

// viewRunner adapts the mediator's federated pipeline to view.Runner.
type viewRunner struct{ m *Mediator }

// Materialize runs the view's covering query through the full federated
// pipeline (planning, decomposition, bound joins, sameAs merge) and
// drains it. Complete is true only when every contributing data set
// answered successfully — the storable rule the result cache uses.
func (r viewRunner) Materialize(ctx context.Context, queryText, sourceOnt string) (*view.MaterializeResult, error) {
	q, err := sparql.Parse(queryText)
	if err != nil {
		return nil, fmt.Errorf("mediate: parsing view query: %w", err)
	}
	req := QueryRequest{Query: queryText, SourceOnt: sourceOnt}
	qs, err := r.m.selectStream(withoutViews(ctx), req, q)
	if err != nil {
		return nil, err
	}
	defer qs.Close()
	res := &view.MaterializeResult{Vars: qs.Vars()}
	for {
		sol, err := qs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		res.Solutions = append(res.Solutions, sol)
	}
	sum, err := qs.Summary()
	if err != nil {
		return nil, err
	}
	res.Complete = storable(sum)
	return res, nil
}

// Canonicalise maps the patterns' ground IRIs to their owl:sameAs
// representatives — the refresh loop re-keys views with it when the
// sameAs closure may have moved.
func (r viewRunner) Canonicalise(patterns []rdf.Triple) []rdf.Triple {
	out := make([]rdf.Triple, len(patterns))
	for i, t := range patterns {
		out[i] = canonTriple(r.m.Coref, t)
	}
	return out
}

// viewAnswer serves the query from a covering materialized view, when
// one is ready, by evaluating it on the view's store in place. It
// returns ok=false — and the caller proceeds to the federated path — on
// a miss, a stale view, or an evaluation that fails to start.
func (m *Mediator) viewAnswer(ctx context.Context, req QueryRequest, q *sparql.Query) (*QueryStream, bool) {
	v, engine, ok := m.Views.Answer(q, m.canonical)
	if !ok {
		return nil, false
	}
	// The view store holds canonical representatives, so the query's
	// ground IRIs — in its patterns and in its FILTER constants — must be
	// canonicalised the same way before local evaluation.
	cq := q.Clone()
	canonicaliseGroup(cq.Where, m.Coref)
	for _, el := range cq.Where.Elements {
		if f, isFilter := el.(*sparql.Filter); isFilter {
			f.Expr = sparql.MapExprTerms(f.Expr, m.canonical)
		}
	}
	_, span := obs.StartSpan(ctx, "view")
	span.SetAttr("view", v.ID())
	sr, err := engine.SelectSeq(cq)
	if err != nil {
		// The query falls back to federation, so for the metrics the
		// paper's experiment reads this is a miss, not a hit.
		m.Views.CountMiss()
		span.SetAttr("error", err.Error())
		span.End()
		return nil, false
	}
	m.Views.CountHit(v)
	span.End()
	src := &viewSource{ctx: ctx, vars: sr.Vars, view: v}
	src.next, src.stop = iter.Pull2(sr.Seq)
	return &QueryStream{limit: req.Limit, src: src}, true
}

// observeViews feeds one decomposed multi-source query to the shape
// miner. It runs on the same path that just executed the query, so the
// decomposition's data sets and calibrated cardinality estimates are in
// hand for free; the largest fragment estimate bounds the join size the
// miner screens against MaxTriples.
func (m *Mediator) observeViews(q *sparql.Query, sourceOnt string, dcm *decompose.Decomposition) {
	var est int64
	for _, f := range dcm.Fragments {
		if f.EstCard > est {
			est = f.EstCard
		}
	}
	m.Views.Observe(q, sourceOnt, dcm.Datasets(), est, m.canonical)
}

// viewSource pulls solutions straight from the evaluator running over a
// view's store. Its Summary lists the view pseudo-dataset first and the
// view's source data sets after it — all with zero Attempts (nothing was
// dispatched over the federation), but present so the result cache's
// invalidate-by-dataset still covers entries filled from a view.
type viewSource struct {
	ctx  context.Context
	vars []string
	view *view.View

	// mu serialises the iter.Pull2 handles (Next and a concurrent Close
	// must not drive the coroutine simultaneously) and guards the fields
	// below it.
	mu   sync.Mutex
	n    int
	next func() (eval.Solution, error, bool)
	stop func()
	err  error
}

func (s *viewSource) Vars() []string { return s.vars }

// Next returns the next solution, io.EOF at the end, or the context's
// error once the query is cancelled — evaluation stops at the next row,
// as an endpoint stops when its client goes away.
func (s *viewSource) Next() (eval.Solution, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ctx.Err(); err != nil {
		s.stop()
		return nil, err
	}
	if s.err != nil {
		return nil, s.err
	}
	sol, err, ok := s.next()
	if !ok {
		return nil, io.EOF
	}
	if err != nil {
		s.err = err
		s.stop()
		return nil, err
	}
	s.n++
	return sol, nil
}

func (s *viewSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stop()
	return nil
}

func (s *viewSource) Summary() (*federate.Result, error) {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	per := []federate.DatasetAnswer{{Dataset: "view:" + s.view.ID(), Solutions: n}}
	for _, ds := range s.view.Datasets() {
		per = append(per, federate.DatasetAnswer{Dataset: ds})
	}
	return &federate.Result{Vars: s.vars, PerDataset: per}, nil
}
