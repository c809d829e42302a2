package main

// The answer oracle: expected rows for every query shape, computed from
// the generator's ground truth (Universe.Authors, workload.CitationCount
// and the owl:sameAs classes), never from the system under test. The
// mediator answers with each entity's sameAs-canonical IRI (the
// lexicographically smallest member of its class), so expected rows are
// written in canonical form; a dropped, extra or duplicated row, a wrong
// literal or a non-canonical IRI is a mismatch.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

// term is one RDF term of a results-JSON binding.
type term struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

func (t term) key() string {
	switch t.Type {
	case "uri":
		return "<" + t.Value + ">"
	case "bnode":
		return "_:" + t.Value
	}
	s := strconv.Quote(t.Value)
	if t.Lang != "" {
		return s + "@" + t.Lang
	}
	if t.Datatype != "" {
		return s + "^^<" + t.Datatype + ">"
	}
	return s
}

// selectDoc is a decoded SPARQL results-JSON SELECT document.
type selectDoc struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results *struct {
		Bindings []map[string]term `json:"bindings"`
	} `json:"results"`
}

// crossRow is one ground-truth solution of the cross-vocabulary query.
type crossRow struct {
	paper, author string
	citations     int
}

// oracle holds the precomputed expected answers of every distinct query
// shape: per person, the Figure-1 co-author set and the unfiltered
// cross-vocabulary rows (a FILTER threshold selects from them).
type oracle struct {
	canon   func(string) string
	figure1 map[int][]string
	cross   map[int][]crossRow
}

// newOracle precomputes the answers for the given persons.
func newOracle(u *workload.Universe, persons []int) *oracle {
	o := &oracle{
		canon:   u.Coref.Canonical,
		figure1: make(map[int][]string, len(persons)),
		cross:   make(map[int][]crossRow, len(persons)),
	}
	papersOf := map[int][]string{}
	for key, authors := range u.Authors {
		for _, a := range authors {
			papersOf[a] = append(papersOf[a], key)
		}
	}
	for _, i := range persons {
		coauthors := map[string]bool{}
		var rows []crossRow
		for _, key := range papersOf[i] {
			authors := u.Authors[key]
			for _, a := range authors {
				if a != i {
					coauthors[o.canon(workload.SotonPerson(a).Value)] = true
				}
			}
			// Only Southampton papers carry citation metrics.
			if key[0] != 's' {
				continue
			}
			j, _ := strconv.Atoi(key[1:])
			paper := o.canon(workload.SotonPaper(j).Value)
			for _, a := range authors {
				rows = append(rows, crossRow{paper: paper,
					author: o.canon(workload.SotonPerson(a).Value), citations: workload.CitationCount(j)})
			}
		}
		set := make([]string, 0, len(coauthors))
		for a := range coauthors {
			set = append(set, a)
		}
		sort.Strings(set)
		o.figure1[i] = set
		o.cross[i] = rows
	}
	return o
}

// expected returns the query's projection variables and expected rows
// as row keys (one entry per expected solution).
func (o *oracle) expected(q query) ([]string, []string, error) {
	switch q.shape {
	case shapeFigure1:
		set, ok := o.figure1[q.person]
		if !ok {
			return nil, nil, fmt.Errorf("oracle: no answer precomputed for person %d", q.person)
		}
		rows := make([]string, len(set))
		for n, a := range set {
			rows[n] = rowKey([]string{"a"}, map[string]term{"a": {Type: "uri", Value: a}})
		}
		return []string{"a"}, rows, nil
	case shapeCross:
		all, ok := o.cross[q.person]
		if !ok {
			return nil, nil, fmt.Errorf("oracle: no answer precomputed for person %d", q.person)
		}
		vars := []string{"paper", "a", "c"}
		var rows []string
		for _, r := range all {
			// FILTER(?c > t.frac) with frac > 0 over integer counts keeps c > t.
			if q.filtered() && r.citations <= q.threshold {
				continue
			}
			rows = append(rows, rowKey(vars, map[string]term{
				"paper": {Type: "uri", Value: r.paper},
				"a":     {Type: "uri", Value: r.author},
				"c":     {Type: "literal", Value: strconv.Itoa(r.citations), Datatype: rdf.XSDInteger},
			}))
		}
		return vars, rows, nil
	}
	return nil, nil, fmt.Errorf("oracle: unknown query shape %d", q.shape)
}

// check compares a decoded answer with the expected rows, as multisets.
func (o *oracle) check(q query, doc *selectDoc) error {
	vars, want, err := o.expected(q)
	if err != nil {
		return err
	}
	if doc.Results == nil {
		return fmt.Errorf("answer has no results member")
	}
	if strings.Join(doc.Head.Vars, ",") != strings.Join(vars, ",") {
		return fmt.Errorf("answer vars %v, want %v", doc.Head.Vars, vars)
	}
	for _, b := range doc.Results.Bindings {
		for v, t := range b {
			if t.Type == "uri" {
				if c := o.canon(t.Value); c != t.Value {
					return fmt.Errorf("non-canonical IRI for ?%s: %s (canonical %s)", v, t.Value, c)
				}
			}
		}
	}
	counts := make(map[string]int, len(want))
	for _, k := range want {
		counts[k]++
	}
	for _, b := range doc.Results.Bindings {
		k := rowKey(vars, b)
		if counts[k] == 0 {
			return fmt.Errorf("unexpected row %s (%d rows, want %d)", k, len(doc.Results.Bindings), len(want))
		}
		counts[k]--
	}
	for k, n := range counts {
		if n > 0 {
			return fmt.Errorf("missing row %s (%d rows, want %d)", k, len(doc.Results.Bindings), len(want))
		}
	}
	return nil
}

func rowKey(vars []string, b map[string]term) string {
	var sb strings.Builder
	for _, v := range vars {
		sb.WriteString(v)
		sb.WriteByte('=')
		if t, ok := b[v]; ok {
			sb.WriteString(t.key())
		}
		sb.WriteByte(' ')
	}
	return sb.String()
}
