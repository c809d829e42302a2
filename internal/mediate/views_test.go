package mediate

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/store"
	"sparqlrw/internal/view"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// TestCancelledViewAnswerStopsAndLeaksNothing: a query answered in place
// from a view's store stops at the next row once its context is
// cancelled, touches no endpoint, and leaves no goroutine behind after
// Close.
func TestCancelledViewAnswerStopsAndLeaksNothing(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 30, 90
	u := workload.Generate(cfg)
	var requests atomic.Int64
	serve := func(name string, st *store.Store) string {
		h := endpoint.NewServer(name, st)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	metrics := workload.MetricsStore(u)
	count := func(st *store.Store, p string) map[string]int64 {
		return map[string]int64{p: int64(st.PredicateCount(rdf.NewIRI(p)))}
	}
	dsKB := voidkb.NewKB()
	for _, ds := range []*voidkb.Dataset{{
		URI: workload.SotonVoidURI, SPARQLEndpoint: serve("southampton", u.Southampton),
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS},
		Triples:            int64(u.Southampton.Size()),
		PropertyPartitions: count(u.Southampton, rdf.AKTHasAuthor),
	}, {
		URI: workload.MetricsVoidURI, SPARQLEndpoint: serve("metrics", metrics),
		URISpace: workload.SotonURIPattern, Vocabularies: []string{workload.MetricsNS},
		Triples:            int64(metrics.Size()),
		PropertyPartitions: count(metrics, workload.MetricsCitationCount),
	}} {
		if err := dsKB.Add(ds); err != nil {
			t.Fatal(err)
		}
	}
	m := New(dsKB, align.NewKB(), u.Coref, WithViews(view.Options{MinFrequency: 1}))
	defer m.Close()

	// Every paper with its authors and citation count: many rows, so a
	// cancelled answer has work left to abandon.
	query := `PREFIX akt:<` + rdf.AKTNS + `>
PREFIX m:<` + workload.MetricsNS + `>
SELECT ?paper ?a ?c WHERE { ?paper akt:has-author ?a . ?paper m:citationCount ?c }`
	req := QueryRequest{Query: query, SourceOnt: rdf.AKTNS}
	fed, err := federatedSelect(m, query, rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Solutions) < 3 {
		t.Fatalf("federated answer has %d rows; the test needs several", len(fed.Solutions))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if vs := m.Stats().Views; vs != nil && len(vs.Views) == 1 && vs.Views[0].State == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("view never materialized")
		}
		time.Sleep(5 * time.Millisecond)
	}

	before := runtime.NumGoroutine()
	requests.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := m.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Bindings()
	if _, err := qs.Next(); err != nil {
		t.Fatal(err)
	}
	if hits := m.Stats().Views.Hits; hits != 1 {
		t.Fatalf("view hits = %d, want 1 (query not answered from the view)", hits)
	}
	cancel()
	if _, err := qs.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	res.Close()
	if n := requests.Load(); n != 0 {
		t.Fatalf("view answer made %d endpoint requests", n)
	}
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after Close, %d before the query", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
