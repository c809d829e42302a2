package store

import (
	"testing"

	"sparqlrw/internal/rdf"
)

func TestDictInternRoundTrip(t *testing.T) {
	d := NewDict()
	a := rdf.NewIRI("http://example.org/a")
	b := rdf.NewLiteral("hello")
	idA := d.Intern(a)
	idB := d.Intern(b)
	if idA == idB {
		t.Fatalf("distinct terms share id %d", idA)
	}
	if again := d.Intern(a); again != idA {
		t.Fatalf("re-interning a: id %d, want %d", again, idA)
	}
	if got := d.Term(idA); got != a {
		t.Fatalf("Term(%d) = %v, want %v", idA, got, a)
	}
	if got := d.Term(idB); got != b {
		t.Fatalf("Term(%d) = %v, want %v", idB, got, b)
	}
	if _, ok := d.Lookup(rdf.NewIRI("http://example.org/unseen")); ok {
		t.Fatal("Lookup of never-interned term reported ok")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}
