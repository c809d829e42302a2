package align_test

import (
	"testing"

	"sparqlrw/internal/align"
	"sparqlrw/internal/workload"
)

// Re-adding an alignment with the same URI replaces it instead of
// appending a duplicate, and still notifies subscribers each time.
func TestKBAddReplacesSameURI(t *testing.T) {
	kb := align.NewKB()
	calls := 0
	defer kb.Subscribe(func() { calls++ })()
	for i := 0; i < 2; i++ {
		if err := kb.Add(workload.AKT2KISTI()); err != nil {
			t.Fatal(err)
		}
	}
	if kb.Len() != 1 {
		t.Fatalf("Len = %d after re-adding one alignment, want 1", kb.Len())
	}
	if want := len(workload.AKT2KISTI().Alignments); kb.EntityAlignmentCount() != want {
		t.Fatalf("EntityAlignmentCount = %d, want %d", kb.EntityAlignmentCount(), want)
	}
	if calls != 2 {
		t.Fatalf("subscriber fired %d times, want 2", calls)
	}
	if err := kb.Add(workload.ECS2DBpedia()); err != nil {
		t.Fatal(err)
	}
	if kb.Len() != 2 {
		t.Fatalf("Len = %d after adding a second alignment, want 2", kb.Len())
	}
}
