// Package orphan is imported by no non-test file of another package. The
// package finding stands for its exports, which are not reported one by
// one.
package orphan // want deadexport

// Unreached has no caller either.
func Unreached() int { return 0 }
