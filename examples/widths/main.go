// Width extrapolation: the Section 5 payoff.
//
// Three small ripple-adder prototypes (widths 4, 10, 16 — the paper's THI
// reduced set) are characterized once. A linear complexity regression
// turns them into a width-parameterizable model, which then predicts the
// power of adders that were NEVER characterized — including a 24-bit
// instance beyond the largest prototype. Gate-level simulation of the
// real instances provides the verdict.
package main

import (
	"fmt"
	"log"

	"hdpower"
	"hdpower/internal/regress"
)

const module = "ripple-adder"

func main() {
	// Characterize the THI prototype set (3 instances only).
	var protos []regress.Prototype
	for _, w := range regress.SetThi.Widths() {
		nl, err := hdpower.Build(module, w)
		if err != nil {
			log.Fatal(err)
		}
		model, err := hdpower.Characterize(nl, fmt.Sprintf("%s-%d", module, w),
			hdpower.CharacterizeOptions{Patterns: 6000, Seed: int64(w)})
		if err != nil {
			log.Fatal(err)
		}
		protos = append(protos, regress.Prototype{Width: w, Model: model})
	}
	pm, err := regress.Fit(module, protos, regress.BasisFor(module))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted %s regression from prototypes %v (basis %s)\n\n",
		module, regress.SetThi.Widths(), pm.Basis.Name)

	// Predict and verify at unseen widths — interpolated and extrapolated.
	fmt.Printf("%6s %12s %14s %12s %8s\n", "width", "seen?", "predicted avg", "simulated", "eps")
	for _, w := range []int{6, 8, 12, 14, 20, 24} {
		model := pm.Synthesize(w)
		nl, err := hdpower.Build(module, w)
		if err != nil {
			log.Fatal(err)
		}
		stream := hdpower.OperandStream(hdpower.TypeRandom, w, 2, 99)
		report, err := hdpower.Estimate(model, nl, hdpower.TakeWords(stream, 3001))
		if err != nil {
			log.Fatal(err)
		}
		seen := "interpolated"
		if w > 16 {
			seen = "extrapolated"
		}
		fmt.Printf("%6d %12s %14.1f %12.1f %7.1f%%\n",
			w, seen, report.EstimatedAvg, report.SimulatedAvg, report.AvgErr)
	}
	fmt.Println("\n(no instance above was ever characterized; 3 prototypes carry the family)")
}
