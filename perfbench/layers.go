package main

// The traced run: per-layer attribution. Counts come from /api/stats
// deltas, from the benchmark's wrappers around the endpoints and the
// sameAs service, and from the self time of the program's own spans
// (read back from /api/trace); CPU costs of single layers come from
// replaying the run's inputs through each layer's public functions in
// this process, after the load has stopped.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/core"
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/plan"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/workload"
)

// responseSamples is how many answer bodies the traced phase keeps for
// the encode/decode replays.
const responseSamples = 300

// tracedRun runs three phases: an untraced closed loop (the
// baseline for the tracing overhead and the GC share), a traced closed
// loop (stats deltas, wrappers, spans, recorded exchanges) and a traced
// open loop (generator lag, the p99 latency and the p50 latency the
// layers must explain).
func (r *run) tracedRun(res *result) ([]*phaseResult, error) {
	closedDur, openDur := r.splitSeconds(time.Duration(r.f.seconds * float64(time.Second)))
	st0, err := r.stats()
	if err != nil {
		return nil, err
	}
	steal := startStealClock()
	defer steal.close()
	runStart := time.Now()
	phaseA, ticksA, err := r.sampledClosedLoop(closedDur / 2)
	if err != nil {
		return nil, err
	}
	st1, err := r.endPhase(st0)
	if err != nil {
		return nil, err
	}
	rtA0, rtA1 := ticksA[0].rt, ticksA[len(ticksA)-1].rt

	if err := r.g.getJSON(r.dep.info.Control+"/wrappers?on=1", &struct{}{}); err != nil {
		return nil, err
	}
	var layers0, layers1 map[string]handlerSnapshot
	if err := r.g.getJSON(r.dep.info.Control+"/layers", &layers0); err != nil {
		return nil, err
	}
	writes0 := r.g.writes.Load()
	r.g.keepBody.Store(responseSamples)
	phaseB, ticksB, err := r.sampledClosedLoop(closedDur / 2)
	if err != nil {
		return nil, err
	}
	r.g.keepBody.Store(0)
	st2, err := r.endPhase(st1)
	if err != nil {
		return nil, err
	}
	writesB := float64(r.g.writes.Load() - writes0)
	if err := r.g.getJSON(r.dep.info.Control+"/layers", &layers1); err != nil {
		return nil, err
	}
	var traces struct {
		Traces []obs.TraceJSON `json:"traces"`
	}
	if err := r.g.getJSON(r.dep.info.Mediator+"/api/trace?limit=128", &traces); err != nil {
		return nil, err
	}
	var samples []exchange
	if err := r.g.getJSON(r.dep.info.Control+"/samples", &samples); err != nil {
		return nil, err
	}

	phaseC := r.g.openLoop(r.spec.openRate, openDur)
	if _, err := r.endPhase(st2); err != nil {
		return nil, err
	}
	if err := r.g.getJSON(r.dep.info.Control+"/wrappers?on=0", &struct{}{}); err != nil {
		return nil, err
	}

	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	nq := float64(phaseB.queries())
	perQuery := func(d float64) float64 { return d / nq }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rt := routesOf(st1, st2)

	// Replays of single layers over the traced phase's inputs.
	rp := newReplayer(r.u, r.g.writes.Load())
	var texts []string
	var bodies [][]byte
	for _, o := range phaseB.outcomes {
		if o.write {
			continue
		}
		texts = append(texts, o.q.text)
		if o.body != nil {
			bodies = append(bodies, o.body)
		}
	}
	parseUS := rp.parse(texts)
	rewriteUS := rp.rewrite(texts)
	planUS := rp.plan(texts)
	decomposeUS := rp.decompose(texts)
	encodeUS, respDecodeUS := rp.encodeDecode(bodies)

	fedHits := float64(st2.Federation.CacheHits - st1.Federation.CacheHits)
	fedMisses := float64(st2.Federation.CacheMisses - st1.Federation.CacheMisses)
	var plans, subqueries float64
	if st1.Planner != nil && st2.Planner != nil {
		plans = float64(st2.Planner.Plans - st1.Planner.Plans)
		subqueries = float64(st2.Planner.SubQueries - st1.Planner.SubQueries)
	}
	var decomps, valuesRows, transferred, hashStages float64
	if st1.Decompose != nil && st2.Decompose != nil {
		d1, d2 := st1.Decompose, st2.Decompose
		decomps = float64(d2.Decompositions - d1.Decompositions)
		valuesRows = float64(d2.Engine.ValuesRows - d1.Engine.ValuesRows)
		transferred = float64(d2.Engine.SolutionsTransferred - d1.Engine.SolutionsTransferred)
		hashStages = float64(d2.Engine.HashJoinStages - d1.Engine.HashJoinStages)
	}
	streamed := float64(st2.SolutionsStreamed - st1.SolutionsStreamed)
	var retries float64
	retries0 := map[string]uint64{}
	for _, e := range st1.Federation.Endpoints {
		retries0[e.Endpoint] = e.Retries
	}
	for _, e := range st2.Federation.Endpoints {
		retries += float64(e.Retries - retries0[e.Endpoint])
	}
	ch1, cm1 := st1.cacheHits()
	ch2, cm2 := st2.cacheHits()
	vh1, vm1, vr1 := st1.viewCounts()
	vh2, vm2, vr2 := st2.viewCounts()
	viewHitsPQ := perQuery(float64(vh2 - vh1))

	// Endpoint and sameAs-service wrappers.
	delta := func(name string) handlerSnapshot {
		a, b := layers0[name], layers1[name]
		return handlerSnapshot{Requests: b.Requests - a.Requests, BusyNS: b.BusyNS - a.BusyNS,
			Bytes: b.Bytes - a.Bytes, Failed: b.Failed - a.Failed}
	}
	var ep handlerSnapshot
	var evalUS, decodeUS float64
	evalMean, decodeMean := rp.endpointReplays(samples)
	for _, name := range endpointNames {
		d := delta(name)
		ep.Requests += d.Requests
		ep.BusyNS += d.BusyNS
		ep.Bytes += d.Bytes
		ep.Failed += d.Failed
		evalUS += evalMean[name] * perQuery(float64(d.Requests))
		decodeUS += decodeMean[name] * perQuery(float64(d.Requests))
	}
	decodeUS += respDecodeUS * viewHitsPQ
	cf := delta("coref")

	self := spanSelfTimes(traces.Traces)
	nTraces := float64(len(traces.Traces))
	spanPQ := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += self[n]
		}
		return ratio(sum, nTraces)
	}

	var writeLat []float64
	for _, p := range []*phaseResult{phaseA, phaseB, phaseC} {
		for _, o := range p.outcomes {
			if o.write && o.ok {
				writeLat = append(writeLat, ms(o.latency))
			}
		}
	}
	var lags []float64
	for _, o := range phaseC.outcomes {
		if !o.write {
			lags = append(lags, ms(o.lag))
		}
	}
	if n := phaseC.queries(); n < openSamples-100 {
		return nil, fmt.Errorf("open loop sent %d queries; its p99 needs at least 1000", n)
	}
	p50C, p99C, _ := openWindows(phaseC, steal)

	rewritePQ := rewriteUS * perQuery(fedMisses)
	planPQ := planUS * perQuery(plans)
	decomposePQ := decomposeUS * perQuery(decomps)
	encodePQ := encodeUS * (1 + viewHitsPQ)
	put("sparql.parse_us", "us", parseUS)
	put("core.rewrite_us", "us", rewritePQ)
	put("federate.plan_cache_hit_ratio", "ratio", ratio(fedHits, fedHits+fedMisses))
	put("plan.plan_us", "us", planPQ)
	put("plan.subqueries_per_query", "count", perQuery(subqueries))
	put("decompose.decompose_us", "us", decomposePQ)
	put("decompose.values_rows_per_query", "count", perQuery(valuesRows))
	put("decompose.solutions_transferred_per_query", "count", perQuery(transferred))
	put("decompose.useful_ratio", "ratio", ratio(streamed*rt.share(rt.decomposed), transferred))
	put("decompose.hash_join_stages_per_query", "count", perQuery(hashStages))
	put("decompose.join_self_ms_per_query", "ms", spanPQ("fragment", "join"))
	put("endpoint.requests_per_query", "count", perQuery(float64(ep.Requests)))
	put("endpoint.busy_ms_per_query", "ms", perQuery(float64(ep.BusyNS)/1e6))
	put("endpoint.bytes_per_query", "B", perQuery(float64(ep.Bytes)))
	put("endpoint.failed_ratio", "ratio", ratio(float64(ep.Failed), float64(ep.Requests)))
	put("eval.select_us_per_query", "us", evalUS)
	put("srjson.decode_us_per_query", "us", decodeUS)
	put("srjson.encode_us_per_query", "us", encodePQ)
	put("coref.requests_per_query", "count", perQuery(float64(cf.Requests)))
	put("coref.busy_ms_per_query", "ms", perQuery(float64(cf.BusyNS)/1e6))
	put("federate.subquery_self_ms_per_query", "ms", spanPQ("subquery"))
	put("federate.retries_per_query", "count", perQuery(retries))
	put("serve.cache_hit_ratio", "ratio", ratio(float64(ch2-ch1), float64(ch2-ch1+cm2-cm1)))
	put("view.hit_ratio", "ratio", ratio(float64(vh2-vh1), float64(vh2-vh1+vm2-vm1)))
	put("view.refreshes_per_write", "count", ratio(float64(vr2-vr1), writesB))
	put("view.self_ms_per_query", "ms", spanPQ("view"))
	put("align.write_ms_p50", "ms", quantile(writeLat, 0.5))
	put("mediate.route_cache_share", "ratio", rt.share(rt.cache))
	put("mediate.route_view_share", "ratio", rt.share(rt.view))
	put("mediate.route_single_share", "ratio", rt.share(rt.single))
	put("mediate.route_decomposed_share", "ratio", rt.share(rt.decomposed))
	put("mediate.rows_per_query", "count", perQuery(streamed))
	put("runtime.gc_cpu_share", "ratio", ratio(rtA1.GCCPU-rtA0.GCCPU, rtA1.BusyCPU-rtA0.BusyCPU))
	put("runtime.goroutines_leaked", "count", float64(r.leaked))
	put("loadgen.lag_p99_ms", "ms", quantile(lags, 0.99))
	put("loadgen.failed_ratio", "ratio", ratio(float64(phaseA.failed+phaseB.failed+phaseC.failed),
		float64(phaseA.attempted+phaseB.attempted+phaseC.attempted)))
	// The layers' per-query costs on the request's critical path; the
	// endpoints' busy time already contains their evaluation and encoding.
	layerMS := (parseUS+rewritePQ+planPQ+decomposePQ+encodePQ)/1000 +
		perQuery(float64(cf.BusyNS)/1e6) + perQuery(float64(ep.BusyNS)/1e6) + spanPQ("view")
	put("mediate.unattributed_ms_per_query", "ms", p50C-layerMS)
	put("loadgen.latency_p99_ms", "ms", p99C)
	put("loadgen.open_queries", "count", float64(phaseC.queries()))
	qpsA, _ := closedWindows(ticksA, steal)
	qpsB, _ := closedWindows(ticksB, steal)
	put("harness.trace_overhead_pct", "%", 100*ratio(qpsA-qpsB, qpsA))
	put("harness.steal_share", "ratio", steal.between(runStart, time.Now()))
	return []*phaseResult{phaseA, phaseB, phaseC}, nil
}

var endpointNames = []string{"southampton", "kisti", "metrics"}

// spanSelfTimes sums, per span name, each span's duration minus its
// children's across the traces.
func spanSelfTimes(traces []obs.TraceJSON) map[string]float64 {
	out := map[string]float64{}
	var walk func(s obs.SpanJSON)
	walk = func(s obs.SpanJSON) {
		self := s.DurationMS
		for _, c := range s.Children {
			self -= c.DurationMS
			walk(c)
		}
		out[s.Name] += max(0, self)
	}
	for _, t := range traces {
		walk(t.Root)
	}
	return out
}

// replayer times single layers in this process over the run's inputs,
// with knowledge bases built the way the deployment builds them.
type replayer struct {
	u          *workload.Universe
	stores     map[string]eval.TripleSource
	planner    *plan.Planner
	decomposer *decompose.Decomposer
	rewriter   *core.Rewriter
}

func newReplayer(u *workload.Universe, writes int64) *replayer {
	metricsStore := workload.MetricsStore(u)
	// Endpoint URLs are never contacted by the replays.
	dsKB, err := datasetKB(u, metricsStore, "http://127.0.0.1:1/soton", "http://127.0.0.1:1/kisti", "http://127.0.0.1:1/metrics")
	if err != nil {
		panic(err)
	}
	alignKB := align.NewKB()
	_ = alignKB.Add(workload.AKT2KISTI())
	_ = alignKB.Add(workload.ECS2DBpedia())
	// The hot workload's re-posts grew the deployment's KB; replay over
	// the same size.
	for i := int64(0); i < writes; i++ {
		_ = alignKB.Add(workload.AKT2KISTI())
	}
	p := plan.New(dsKB, alignKB, nil, plan.Options{ValuesBatch: 50})
	rw := core.New(alignKB.Select(align.Selector{
		SourceOntology: rdf.AKTNS,
		TargetDataset:  workload.KistiVoidURI,
		TargetOntology: rdf.KISTINS,
	}), funcs.StandardRegistry(u.Coref))
	rw.Opts.RewriteFilters = true
	rw.Opts.TargetURISpace = workload.KistiURIPattern
	return &replayer{
		u: u,
		stores: map[string]eval.TripleSource{
			"southampton": u.Southampton, "kisti": u.KISTI, "metrics": metricsStore,
		},
		planner:    p,
		decomposer: decompose.New(p, decompose.Options{BindBatch: 30, MaxBindRows: 1024}),
		rewriter:   rw,
	}
}

// replayBudget is the least time one replay loop runs, to average out
// timer granularity.
const replayBudget = 150 * time.Millisecond

// meanMicros runs fn over n items, repeating the pass until the budget
// is spent, and returns the mean microseconds per item.
func meanMicros(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < replayBudget {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return float64(time.Since(start).Microseconds()) / float64(calls)
}

func (rp *replayer) parse(texts []string) float64 {
	texts = distinct(texts, 500)
	return meanMicros(len(texts), func(i int) { _, _ = sparql.Parse(texts[i]) })
}

// rewrite times core.Rewriter.RewriteQuery for the KISTI target over the
// AKT-vocabulary part of each query: the part the KISTI sub-queries and
// shared fragments carry.
func (rp *replayer) rewrite(texts []string) float64 {
	var qs []*sparql.Query
	for _, t := range distinct(texts, 500) {
		q, err := sparql.Parse(t)
		if err != nil {
			continue
		}
		var pats []string
		for _, b := range q.BGPs() {
			for _, tp := range b.Patterns {
				if tp.P.IsIRI() && strings.HasPrefix(tp.P.Value, rdf.AKTNS) {
					pats = append(pats, sparql.FormatTriplePattern(tp, nil)+" .")
				}
			}
		}
		if len(pats) == 0 {
			continue
		}
		if q, err = sparql.Parse("SELECT * WHERE {\n" + strings.Join(pats, "\n") + "\n}"); err == nil {
			qs = append(qs, q)
		}
	}
	return meanMicros(len(qs), func(i int) { _, _, _ = rp.rewriter.RewriteQuery(qs[i]) })
}

func (rp *replayer) plan(texts []string) float64 {
	texts = distinct(texts, 500)
	return meanMicros(len(texts), func(i int) { _, _ = rp.planner.Plan(texts[i], rdf.AKTNS) })
}

// decompose times the decomposer on the queries that need it (no single
// data set covers them).
func (rp *replayer) decompose(texts []string) float64 {
	var multi []string
	for _, t := range distinct(texts, 500) {
		if pl, err := rp.planner.Plan(t, rdf.AKTNS); err == nil && len(pl.Subs) == 0 {
			multi = append(multi, t)
		}
	}
	return meanMicros(len(multi), func(i int) { _, _ = rp.decomposer.Decompose(multi[i], rdf.AKTNS) })
}

// endpointReplays times, per endpoint, evaluating each recorded
// sub-query on the endpoint's store and decoding each recorded response
// body, in mean microseconds per request.
func (rp *replayer) endpointReplays(samples []exchange) (evalUS, decodeUS map[string]float64) {
	evalUS, decodeUS = map[string]float64{}, map[string]float64{}
	byEP := map[string][]exchange{}
	for _, s := range samples {
		byEP[s.Endpoint] = append(byEP[s.Endpoint], s)
	}
	for name, xs := range byEP {
		st := rp.stores[name]
		var qs []*sparql.Query
		var bodies [][]byte
		for _, x := range xs {
			if q, err := sparql.Parse(x.Query); err == nil && q.Form == sparql.Select {
				qs = append(qs, q)
				bodies = append(bodies, x.Body)
			}
		}
		engine := eval.New(st)
		evalUS[name] = meanMicros(len(qs), func(i int) {
			sr, err := engine.SelectSeq(qs[i])
			if err != nil {
				return
			}
			for _, err := range sr.Seq {
				if err != nil {
					return
				}
			}
		})
		decodeUS[name] = meanMicros(len(bodies), func(i int) { drainDecode(bodies[i]) })
	}
	return evalUS, decodeUS
}

// encodeDecode times srjson.EncodeSelectStream over the answers' rows
// and srjson.NewStreamDecoder over the answer bodies, in mean
// microseconds per answer.
func (rp *replayer) encodeDecode(bodies [][]byte) (encodeUS, decodeUS float64) {
	type answer struct {
		vars []string
		sols []eval.Solution
	}
	var answers []answer
	for _, b := range bodies {
		res, _, err := srjson.Decode(b)
		if err != nil || res == nil {
			continue
		}
		answers = append(answers, answer{res.Vars, res.Solutions})
	}
	encodeUS = meanMicros(len(answers), func(i int) {
		a := answers[i]
		seq := func(yield func(eval.Solution, error) bool) {
			for _, s := range a.sols {
				if !yield(s, nil) {
					return
				}
			}
		}
		_ = srjson.EncodeSelectStream(io.Discard, a.vars, seq, nil)
	})
	decodeUS = meanMicros(len(bodies), func(i int) { drainDecode(bodies[i]) })
	return encodeUS, decodeUS
}

func drainDecode(body []byte) {
	dec, err := srjson.NewStreamDecoder(bytes.NewReader(body))
	if err != nil {
		return
	}
	for {
		if _, err := dec.Next(); err != nil {
			return
		}
	}
}

// distinct returns up to n distinct strings of xs, in first-seen order.
func distinct(xs []string, n int) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if len(out) >= n {
			break
		}
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
