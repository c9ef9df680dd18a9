// Package exports holds the deadexport cases: exports with a non-test
// caller, one with none, one only its own tests call, one only a nested
// module calls, and one waived with a reason.
package exports

// Live is called from cmd/app; not flagged.
func Live() int { return 1 }

// Dead has no caller at all.
func Dead() int { return 2 } // want deadexport

// TestOnly is called only by this package's tests, which do not count.
func TestOnly() int { return 3 } // want deadexport

// Nested is called only from the nested module under nested/, the way
// perfbench keeps an export alive; not flagged.
func Nested() int { return 4 }

// Waived has no caller, and a reasoned waiver keeps it; not flagged.
//
//hdlint:allow deadexport fixture demonstrates a reasoned waiver
func Waived() int { return 5 }

// Counter is declared by cmd/app; not flagged.
type Counter struct{ n int }

// Inc is selected in cmd/app; not flagged.
func (c *Counter) Inc() { c.n++ }

// Reset is selected by no non-test file.
func (c *Counter) Reset() { c.n = 0 } // want deadexport
