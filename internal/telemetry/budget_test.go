package telemetry

import (
	"reflect"
	"testing"
)

func TestRecommendBudgets(t *testing.T) {
	traffic := []uint64{0, 100, 100, 10}
	eps := []float64{0.5, 0.02, 0.10, 0.10}
	// weights: 0, 2, 10, 1 (sum 13); shares of 1300: 0, 200, 1000, 100.
	got := RecommendBudgets(1300, traffic, eps)
	want := []int{0, 200, 1000, 100}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("budgets = %v, want %v", got, want)
	}
	if sum(got) != 1300 {
		t.Fatalf("sum = %d, want 1300", sum(got))
	}
}

func TestRecommendBudgetsLargestRemainder(t *testing.T) {
	// weights 1,1,1 over total 10: shares 3.333 each; the remainder goes
	// to the lowest indices (deterministic tie-break).
	got := RecommendBudgets(10, []uint64{1, 1, 1}, []float64{1, 1, 1})
	if !reflect.DeepEqual(got, []int{4, 3, 3}) {
		t.Fatalf("budgets = %v, want [4 3 3]", got)
	}
	// Determinism: identical input, identical output, every time.
	for i := 0; i < 50; i++ {
		if again := RecommendBudgets(10, []uint64{1, 1, 1}, []float64{1, 1, 1}); !reflect.DeepEqual(again, got) {
			t.Fatalf("nondeterministic apportionment: %v then %v", got, again)
		}
	}
}

func TestRecommendBudgetsUniformFallback(t *testing.T) {
	// No traffic at all: uniform split, first total%n classes get +1.
	got := RecommendBudgets(11, []uint64{0, 0, 0, 0}, []float64{1, 1, 1, 1})
	if !reflect.DeepEqual(got, []int{3, 3, 3, 2}) {
		t.Fatalf("uniform fallback = %v, want [3 3 3 2]", got)
	}
	// Negative epsilon is clamped, not propagated.
	got = RecommendBudgets(4, []uint64{5, 5}, []float64{-1, 1})
	if !reflect.DeepEqual(got, []int{0, 4}) {
		t.Fatalf("negative eps = %v, want [0 4]", got)
	}
}

func TestRecommendBudgetsEdges(t *testing.T) {
	if got := RecommendBudgets(0, []uint64{1}, []float64{1}); got[0] != 0 {
		t.Fatalf("zero total: %v", got)
	}
	if got := RecommendBudgets(5, nil, nil); len(got) != 0 {
		t.Fatalf("empty classes: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths must panic")
		}
	}()
	RecommendBudgets(5, []uint64{1, 2}, []float64{1})
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
