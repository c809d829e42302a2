package main

import "fmt"

// medStats is the part of the mediator's GET /api/stats document the
// benchmark reads.
type medStats struct {
	Federation struct {
		Endpoints []struct {
			Endpoint string `json:"endpoint"`
			Requests uint64 `json:"requests"`
			Retries  uint64 `json:"retries"`
		} `json:"endpoints"`
		CacheHits   uint64 `json:"cacheHits"`
		CacheMisses uint64 `json:"cacheMisses"`
	} `json:"federation"`
	Planner *struct {
		Plans      uint64 `json:"plans"`
		SubQueries uint64 `json:"subQueries"`
	} `json:"planner"`
	Decompose *struct {
		Decompositions uint64 `json:"decompositions"`
		Engine         struct {
			Runs                 uint64 `json:"runs"`
			BoundJoinStages      uint64 `json:"boundJoinStages"`
			HashJoinStages       uint64 `json:"hashJoinStages"`
			ValuesRows           uint64 `json:"valuesRows"`
			SolutionsTransferred uint64 `json:"solutionsTransferred"`
		} `json:"engine"`
	} `json:"decompose"`
	Queries struct {
		Select uint64 `json:"select"`
	} `json:"queries"`
	InFlight          int    `json:"inFlight"`
	SolutionsStreamed uint64 `json:"solutionsStreamed"`
	Serving           *struct {
		Cache *struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	} `json:"serving"`
	Views *viewsDoc `json:"views"`
}

func (s *medStats) cacheHits() (hits, misses uint64) {
	if s.Serving == nil || s.Serving.Cache == nil {
		return 0, 0
	}
	return s.Serving.Cache.Hits, s.Serving.Cache.Misses
}

func (s *medStats) viewCounts() (hits, misses, refreshes uint64) {
	if s.Views == nil {
		return 0, 0, 0
	}
	return s.Views.Hits, s.Views.Misses, s.Views.Refreshes
}

func (s *medStats) engineRuns() uint64 {
	if s.Decompose == nil {
		return 0
	}
	return s.Decompose.Engine.Runs
}

// routes is how a phase's SELECT queries were answered, from /api/stats
// deltas: by the result cache, by a materialized view, by a
// single-source fan-out, or by a decomposed join.
type routes struct {
	queries, cache, view, single, decomposed float64
}

func (r routes) share(n float64) float64 {
	if r.queries == 0 {
		return 0
	}
	return n / r.queries
}

func routesOf(before, after *medStats) routes {
	var r routes
	r.queries = float64(after.Queries.Select - before.Queries.Select)
	h1, _ := after.cacheHits()
	h0, _ := before.cacheHits()
	r.cache = float64(h1 - h0)
	v1, _, rf1 := after.viewCounts()
	v0, _, rf0 := before.viewCounts()
	r.view = float64(v1 - v0)
	// View refreshes re-run the covering query as a decomposed join of
	// their own; they are not user queries.
	r.decomposed = float64(after.engineRuns()-before.engineRuns()) - float64(rf1-rf0)
	r.decomposed = max(0, min(r.decomposed, r.queries-r.cache-r.view))
	r.single = max(0, r.queries-r.cache-r.view-r.decomposed)
	return r
}

// hotServedFloor is the least share of hot's queries the result cache
// and the views must answer together (first runs on a 2-core machine
// measured 0.74-0.78).
const hotServedFloor = 0.6

// guard fails a phase that stopped exercising the workload's layer.
func (s *workloadSpec) guard(r routes) error {
	if r.queries == 0 {
		return fmt.Errorf("route guard (%s): no queries answered", s.name)
	}
	switch s.name {
	case "fanout":
		if r.decomposed+r.cache+r.view > 0 {
			return fmt.Errorf("route guard (fanout): %v decomposed, %v cached, %v view answers; want single-source fan-outs only",
				r.decomposed, r.cache, r.view)
		}
	case "join":
		if r.decomposed != r.queries {
			return fmt.Errorf("route guard (join): %v of %v answers decomposed; want all", r.decomposed, r.queries)
		}
	case "hot":
		if served := r.share(r.cache + r.view); served < hotServedFloor {
			return fmt.Errorf("route guard (hot): cache+view share %.3f below floor %.2f", served, hotServedFloor)
		}
	}
	return nil
}
