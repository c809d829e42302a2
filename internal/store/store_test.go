package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sparqlrw/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func tr(s, p, o string) rdf.Triple {
	return rdf.NewTriple(iri(s), iri(p), iri(o))
}

func TestAddHasRemove(t *testing.T) {
	s := New()
	x := tr("s", "p", "o")
	if !s.Add(x) {
		t.Fatal("first Add must report true")
	}
	if s.Add(x) {
		t.Fatal("duplicate Add must report false")
	}
	if !s.Has(x) || s.Size() != 1 {
		t.Fatalf("Has/Size wrong after add: %v %d", s.Has(x), s.Size())
	}
	if !s.Remove(x) {
		t.Fatal("Remove of present triple must report true")
	}
	if s.Remove(x) {
		t.Fatal("Remove of absent triple must report false")
	}
	if s.Has(x) || s.Size() != 0 {
		t.Fatal("store not empty after remove")
	}
}

func TestRejectNonGround(t *testing.T) {
	s := New()
	if s.Add(rdf.NewTriple(rdf.NewVar("x"), iri("p"), iri("o"))) {
		t.Fatal("triple with variable must be rejected")
	}
	if s.Add(rdf.Triple{}) {
		t.Fatal("wildcard triple must be rejected")
	}
	// Blank nodes are allowed in data.
	if !s.Add(rdf.NewTriple(rdf.NewBlank("b"), iri("p"), iri("o"))) {
		t.Fatal("blank node subject must be accepted")
	}
}

func TestMatchAllAccessPaths(t *testing.T) {
	s := New()
	data := []rdf.Triple{
		tr("s1", "p1", "o1"), tr("s1", "p1", "o2"), tr("s1", "p2", "o1"),
		tr("s2", "p1", "o1"), tr("s2", "p2", "o3"),
	}
	for _, x := range data {
		s.Add(x)
	}
	w := rdf.Any
	cases := []struct {
		pat  rdf.Triple
		want int
	}{
		{rdf.Triple{S: iri("s1"), P: iri("p1"), O: iri("o1")}, 1},
		{rdf.Triple{S: iri("s1"), P: iri("p1"), O: w}, 2},
		{rdf.Triple{S: iri("s1"), P: w, O: iri("o1")}, 2},
		{rdf.Triple{S: w, P: iri("p1"), O: iri("o1")}, 2},
		{rdf.Triple{S: iri("s1"), P: w, O: w}, 3},
		{rdf.Triple{S: w, P: iri("p1"), O: w}, 3},
		{rdf.Triple{S: w, P: w, O: iri("o1")}, 3},
		{rdf.Triple{S: w, P: w, O: w}, 5},
		{rdf.Triple{S: iri("nope"), P: w, O: w}, 0},
		{rdf.Triple{S: iri("s1"), P: iri("p1"), O: iri("nope")}, 0},
	}
	for i, c := range cases {
		got := s.MatchAll(c.pat)
		if len(got) != c.want {
			t.Errorf("case %d: MatchAll(%v) returned %d, want %d", i, c.pat, len(got), c.want)
		}
		if n := s.Count(c.pat); n != c.want {
			t.Errorf("case %d: Count(%v) = %d, want %d", i, c.pat, n, c.want)
		}
	}
}

func TestVariablesActAsWildcards(t *testing.T) {
	s := New()
	s.Add(tr("s", "p", "o"))
	got := s.MatchAll(rdf.NewTriple(rdf.NewVar("x"), iri("p"), rdf.NewVar("y")))
	if len(got) != 1 {
		t.Fatalf("var pattern matched %d, want 1", len(got))
	}
}

func TestMatchEarlyStop(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Add(tr(fmt.Sprint("s", i), "p", "o"))
	}
	n := 0
	s.Match(rdf.Triple{}, func(rdf.Triple) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop failed: %d", n)
	}
}

func TestPredicateCount(t *testing.T) {
	s := New()
	s.Add(tr("a", "p", "b"))
	s.Add(tr("a", "p", "c"))
	s.Add(tr("a", "q", "b"))
	if s.PredicateCount(iri("p")) != 2 || s.PredicateCount(iri("q")) != 1 {
		t.Fatal("predicate counts wrong")
	}
	s.Remove(tr("a", "p", "b"))
	if s.PredicateCount(iri("p")) != 1 {
		t.Fatal("predicate count not decremented")
	}
	s.Remove(tr("a", "p", "c"))
	if s.PredicateCount(iri("p")) != 0 {
		t.Fatal("predicate count should be zero")
	}
}

func TestSubjectsObjectsFirstObject(t *testing.T) {
	s := New()
	s.Add(tr("paper1", "author", "alice"))
	s.Add(tr("paper1", "author", "bob"))
	s.Add(tr("paper2", "author", "alice"))
	subs := s.Subjects(iri("author"), iri("alice"))
	if len(subs) != 2 {
		t.Fatalf("Subjects = %v", subs)
	}
	objs := s.Objects(iri("paper1"), iri("author"))
	if len(objs) != 2 {
		t.Fatalf("Objects = %v", objs)
	}
	if _, ok := s.FirstObject(iri("paper1"), iri("author")); !ok {
		t.Fatal("FirstObject missing")
	}
	if _, ok := s.FirstObject(iri("paperX"), iri("author")); ok {
		t.Fatal("FirstObject on absent subject")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New()
	s.Add(tr("a", "p", "b"))
	c := s.Clone()
	c.Add(tr("a", "p", "c"))
	if s.Size() != 1 || c.Size() != 2 {
		t.Fatalf("sizes: orig %d clone %d", s.Size(), c.Size())
	}
}

func TestTriplesSortedDeterministic(t *testing.T) {
	s := New()
	s.Add(tr("b", "p", "x"))
	s.Add(tr("a", "p", "x"))
	g := s.Triples()
	if g[0].S != iri("a") {
		t.Fatalf("Triples not sorted: %v", g)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add(tr(fmt.Sprint("s", w, "-", i), "p", "o"))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.MatchAll(rdf.Triple{P: iri("p")})
				s.Size()
			}
		}()
	}
	wg.Wait()
	if s.Size() != 800 {
		t.Fatalf("size = %d, want 800", s.Size())
	}
}

// Property: after any interleaving of adds and removes, Size equals the
// cardinality of the set of present triples, and the three indexes agree.
func TestAddRemoveSetSemantics(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New()
		ref := map[rdf.Triple]bool{}
		for _, op := range ops {
			subj := fmt.Sprint("s", op%7)
			pred := fmt.Sprint("p", (op>>3)%5)
			obj := fmt.Sprint("o", (op>>6)%7)
			x := tr(subj, pred, obj)
			if op&1 == 0 {
				added := s.Add(x)
				if added == ref[x] {
					return false // Add must succeed iff absent
				}
				ref[x] = true
			} else {
				removed := s.Remove(x)
				if removed != ref[x] {
					return false
				}
				delete(ref, x)
			}
		}
		if s.Size() != len(ref) {
			return false
		}
		for x := range ref {
			if !s.Has(x) {
				return false
			}
			// each index must serve the triple back
			if len(s.MatchAll(rdf.Triple{S: x.S, P: x.P, O: x.O})) != 1 {
				return false
			}
		}
		return len(s.MatchAll(rdf.Triple{})) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: Match with every combination of wildcards agrees with a naive
// scan filter of the full dump.
func TestMatchAgreesWithNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	var all []rdf.Triple
	for i := 0; i < 300; i++ {
		x := tr(fmt.Sprint("s", rng.Intn(10)), fmt.Sprint("p", rng.Intn(5)), fmt.Sprint("o", rng.Intn(10)))
		if s.Add(x) {
			all = append(all, x)
		}
	}
	for mask := 0; mask < 8; mask++ {
		probe := all[rng.Intn(len(all))]
		pat := rdf.Triple{}
		if mask&1 != 0 {
			pat.S = probe.S
		}
		if mask&2 != 0 {
			pat.P = probe.P
		}
		if mask&4 != 0 {
			pat.O = probe.O
		}
		want := 0
		for _, x := range all {
			if (pat.S.IsZero() || x.S == pat.S) && (pat.P.IsZero() || x.P == pat.P) && (pat.O.IsZero() || x.O == pat.O) {
				want++
			}
		}
		if got := len(s.MatchAll(pat)); got != want {
			t.Fatalf("mask %d: MatchAll = %d, naive = %d", mask, got, want)
		}
	}
}

// Match and Count must agree for every pattern shape, including literal
// objects, variables as wildcards and never-interned terms.
func TestMatchCountAgree(t *testing.T) {
	s := New()
	for _, x := range []rdf.Triple{
		tr("s1", "p1", "o1"), tr("s1", "p1", "o2"), tr("s1", "p2", "o1"), tr("s2", "p1", "o1"),
		{S: iri("s2"), P: iri("p2"), O: rdf.NewLiteral("x")},
	} {
		s.Add(x)
	}
	v := rdf.NewVar("v")
	for _, pat := range []rdf.Triple{
		{}, {S: iri("s1")}, {P: iri("p1")}, {O: iri("o1")}, {O: rdf.NewLiteral("x")},
		tr("s1", "p1", "o2"),
		{S: iri("s1"), P: iri("p1"), O: v},
		{S: iri("s1"), P: v, O: iri("o1")},
		{S: v, P: iri("p1"), O: iri("o1")},
		{S: iri("nope")},
	} {
		got := s.MatchAll(pat)
		if n := s.Count(pat); n != len(got) {
			t.Fatalf("pattern %v: Count = %d, MatchAll returned %d", pat, n, len(got))
		}
		for _, x := range got {
			if !s.Has(x) {
				t.Fatalf("pattern %v: matched %v, which Has denies", pat, x)
			}
		}
	}
}

func TestAddRemoveStats(t *testing.T) {
	s := New()
	typ := rdf.NewIRI(rdf.RDFType)
	person := iri("Person")
	t1 := rdf.Triple{S: iri("a"), P: typ, O: person}
	t2 := rdf.Triple{S: iri("b"), P: typ, O: person}
	if !s.Add(t1) || !s.Add(t2) {
		t.Fatal("Add returned false for fresh triples")
	}
	if s.Add(t1) {
		t.Fatal("duplicate Add returned true")
	}
	if got := s.ClassCount(person); got != 2 {
		t.Fatalf("ClassCount = %d, want 2", got)
	}
	if got := s.PredicateCount(typ); got != 2 {
		t.Fatalf("PredicateCount = %d, want 2", got)
	}
	if !s.Remove(t1) {
		t.Fatal("Remove returned false for present triple")
	}
	if s.Remove(t1) {
		t.Fatal("double Remove returned true")
	}
	if got := s.ClassCount(person); got != 1 {
		t.Fatalf("ClassCount after remove = %d, want 1", got)
	}
	if s.Remove(tr("x", "y", "z")) {
		t.Fatal("Remove of never-seen triple returned true")
	}
	if s.Size() != 1 || !s.Has(t2) || s.Has(t1) {
		t.Fatal("Size/Has disagree with Add/Remove history")
	}
}

// The callback runs on a snapshot outside every lock: it may stop early
// and may write to the store without deadlocking or seeing its own
// writes. Re-adding removed triples reuses their dictionary ids.
func TestMatchSnapshotAllowsMutation(t *testing.T) {
	s := New()
	for i := 0; i < 3; i++ {
		s.Add(tr("s", "p", fmt.Sprint("o", i)))
	}
	n := 0
	s.Match(rdf.Triple{}, func(x rdf.Triple) bool {
		n++
		s.Add(tr("s", "q", fmt.Sprint("n", n)))
		return n < 2
	})
	if n != 2 || s.Size() != 5 {
		t.Fatalf("early break visited %d, size %d; want 2, 5", n, s.Size())
	}
	dictLen := s.dict.Len()
	for _, x := range s.MatchAll(rdf.Triple{}) {
		s.Remove(x)
	}
	if s.Size() != 0 || len(s.predCount) != 0 {
		t.Fatalf("removing everything left size %d, counters %v", s.Size(), s.predCount)
	}
	s.Add(tr("s", "p", "o0"))
	if s.dict.Len() != dictLen {
		t.Fatalf("refill grew the dictionary: %d -> %d", dictLen, s.dict.Len())
	}
}

func TestStoreClassCounts(t *testing.T) {
	s := New()
	typ := rdf.NewIRI(rdf.RDFType)
	paper := iri("Paper")
	t1 := rdf.Triple{S: iri("p1"), P: typ, O: paper}
	s.Add(t1)
	if got := s.ClassCount(paper); got != 1 {
		t.Fatalf("ClassCount = %d, want 1", got)
	}
	// Removing a never-present triple must not disturb the counters.
	s.Remove(rdf.Triple{S: iri("p2"), P: typ, O: paper})
	if got := s.ClassCount(paper); got != 1 {
		t.Fatalf("ClassCount after no-op remove = %d, want 1", got)
	}
	s.Remove(t1)
	if got := s.ClassCount(paper); got != 0 {
		t.Fatalf("ClassCount after remove = %d, want 0", got)
	}
	if got := len(s.classCount); got != 0 {
		t.Fatalf("class counters kept %d zero entries", got)
	}
}

func BenchmarkAddTriples(b *testing.B) {
	b.ReportAllocs()
	s := New()
	for i := 0; i < b.N; i++ {
		s.Add(tr(fmt.Sprint("s", i%1000), fmt.Sprint("p", i%10), fmt.Sprint("o", i)))
	}
}

func BenchmarkMatchByPredicate(b *testing.B) {
	s := New()
	for i := 0; i < 10000; i++ {
		s.Add(tr(fmt.Sprint("s", i%100), fmt.Sprint("p", i%10), fmt.Sprint("o", i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MatchAll(rdf.Triple{S: iri(fmt.Sprint("s", i%100)), P: iri("p1")})
	}
}
