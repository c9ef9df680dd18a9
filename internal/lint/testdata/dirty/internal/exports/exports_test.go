package exports

import "testing"

// TestTestOnly is TestOnly's only caller.
func TestTestOnly(t *testing.T) {
	if TestOnly() != 3 {
		t.Fatal("TestOnly")
	}
}
