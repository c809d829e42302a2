package main

import (
	"strings"
	"testing"

	"sparqlrw/internal/workload"
)

func smallUniverse() *workload.Universe {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 20, 60
	return workload.Generate(cfg)
}

// figure1Doc renders the oracle's own answer for person i as a decoded
// results document.
func figure1Doc(o *oracle, i int) *selectDoc {
	doc := &selectDoc{}
	doc.Head.Vars = []string{"a"}
	doc.Results = &struct {
		Bindings []map[string]term `json:"bindings"`
	}{}
	for _, a := range o.figure1[i] {
		doc.Results.Bindings = append(doc.Results.Bindings, map[string]term{"a": {Type: "uri", Value: a}})
	}
	return doc
}

// personWithAlias finds a person with at least two co-authors, one of
// whom has a sameAs alias that is not its canonical spelling.
func personWithAlias(t *testing.T, u *workload.Universe, o *oracle) (person int, row int, alias string) {
	for i := range o.figure1 {
		set := o.figure1[i]
		if len(set) < 2 {
			continue
		}
		for n, a := range set {
			for _, eq := range u.Coref.Equivalents(a) {
				if eq != a {
					return i, n, eq
				}
			}
		}
	}
	t.Fatal("no person with an aliased co-author in the test universe")
	return 0, 0, ""
}

func TestOracleAcceptsGroundTruth(t *testing.T) {
	u := smallUniverse()
	persons := []int{0, 1, 2, 3, 4, 5}
	o := newOracle(u, persons)
	for _, i := range persons {
		if err := o.check(makeQuery(shapeFigure1, i, -1, 0), figure1Doc(o, i)); err != nil {
			t.Fatalf("person %d: %v", i, err)
		}
	}
}

func TestOracleCatchesDroppedRow(t *testing.T) {
	u := smallUniverse()
	o := newOracle(u, []int{0, 1, 2, 3, 4, 5, 6, 7})
	i, _, _ := personWithAlias(t, u, o)
	doc := figure1Doc(o, i)
	doc.Results.Bindings = doc.Results.Bindings[1:]
	err := o.check(makeQuery(shapeFigure1, i, -1, 0), doc)
	if err == nil || !strings.Contains(err.Error(), "missing row") {
		t.Fatalf("dropped row not caught: %v", err)
	}
}

func TestOracleCatchesDuplicatedRow(t *testing.T) {
	u := smallUniverse()
	o := newOracle(u, []int{0, 1, 2, 3, 4, 5, 6, 7})
	i, _, _ := personWithAlias(t, u, o)
	doc := figure1Doc(o, i)
	doc.Results.Bindings = append(doc.Results.Bindings, doc.Results.Bindings[0])
	if err := o.check(makeQuery(shapeFigure1, i, -1, 0), doc); err == nil {
		t.Fatal("duplicated row not caught")
	}
}

func TestOracleCatchesNonCanonicalIRI(t *testing.T) {
	u := smallUniverse()
	o := newOracle(u, []int{0, 1, 2, 3, 4, 5, 6, 7})
	i, row, alias := personWithAlias(t, u, o)
	doc := figure1Doc(o, i)
	doc.Results.Bindings[row]["a"] = term{Type: "uri", Value: alias}
	err := o.check(makeQuery(shapeFigure1, i, -1, 0), doc)
	if err == nil || !strings.Contains(err.Error(), "non-canonical") {
		t.Fatalf("non-canonical IRI not caught: %v", err)
	}
}

func TestOracleAppliesCitationFilter(t *testing.T) {
	u := smallUniverse()
	o := newOracle(u, []int{3})
	_, all, err := o.expected(makeQuery(shapeCross, 3, -1, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, kept, err := o.expected(makeQuery(shapeCross, 3, 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range o.cross[3] {
		if r.citations > 50 {
			n++
		}
	}
	if len(kept) != n || len(all) != len(o.cross[3]) {
		t.Fatalf("filtered %d of %d rows, want %d", len(kept), len(all), n)
	}
}

func TestStreamIsDeterministic(t *testing.T) {
	hot := hotPopulation(42)
	for _, name := range workloadNames() {
		spec := workloads[name]
		for seq := uint64(0); seq < 50; seq++ {
			a, b := spec.next(7, seq, hot), spec.next(7, seq, hot)
			if a.text != b.text {
				t.Fatalf("%s: request %d differs between draws", name, seq)
			}
		}
		if spec.next(7, 3, hot).text == spec.next(8, 3, hot).text && name != "hot" {
			t.Fatalf("%s: seeds 7 and 8 drew the same request", name)
		}
	}
}

func TestHotFilterTextsAreUnique(t *testing.T) {
	hot := hotPopulation(42)
	seen := map[string]bool{}
	for seq := uint64(0); seq < 5000; seq++ {
		q := workloads["hot"].next(1, seq, hot)
		w := workloads["hot"].next(1, warmBase+seq, hot)
		if w.filtered() {
			if seen[w.text] {
				t.Fatalf("warm-up request %d repeats an earlier filtered query", seq)
			}
			seen[w.text] = true
		}
		if !q.filtered() {
			continue
		}
		if seen[q.text] {
			t.Fatalf("request %d repeats an earlier filtered query", seq)
		}
		seen[q.text] = true
	}
}

func TestRouteGuard(t *testing.T) {
	cases := []struct {
		workload string
		r        routes
		ok       bool
	}{
		{"fanout", routes{queries: 10, single: 10}, true},
		{"fanout", routes{queries: 10, single: 9, decomposed: 1}, false},
		{"join", routes{queries: 10, decomposed: 10}, true},
		{"join", routes{queries: 10, decomposed: 9, single: 1}, false},
		{"hot", routes{queries: 10, cache: 5, view: 3, decomposed: 2}, true},
		{"hot", routes{queries: 10, cache: 3, view: 2, decomposed: 5}, false},
	}
	for _, c := range cases {
		if err := workloads[c.workload].guard(c.r); (err == nil) != c.ok {
			t.Errorf("%s %+v: guard error %v, want ok=%v", c.workload, c.r, err, c.ok)
		}
	}
}
