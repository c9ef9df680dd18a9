package experiments

import (
	"fmt"
	"strings"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/power"
	"hdpower/internal/regress"
	"hdpower/internal/sim"
)

// RectStudyResult reproduces the eq. (8) claim: coefficients of a
// rectangular m1 x m0 multiplier (the paper's Figure 3 example is 6x4)
// predicted from prototypes of OTHER shapes, compared against direct
// instance characterization.
type RectStudyResult struct {
	Module     string
	Prototypes [][2]int
	Target     [2]int
	// Classes compared, instance vs regression coefficients, and the
	// relative error per class (%).
	Classes []int
	Inst    []float64
	Reg     []float64
	RelErr  []float64
	// AvgRelErr is the mean |relative error| over the compared classes.
	AvgRelErr float64
}

// RectStudy fits the rectangular basis on square and rectangular CSA
// multiplier prototypes and predicts the unseen 6x4 instance.
func (s *Suite) RectStudy() (*RectStudyResult, error) {
	const name = "csa-multiplier"
	shapes := [][2]int{{4, 4}, {8, 4}, {4, 8}, {8, 8}, {6, 6}}
	target := [2]int{6, 4}

	characterize := func(w1, w0 int) (*core.Model, error) {
		meter, err := power.NewMeter(dwlib.CSAMult(w1, w0), sim.EventDriven)
		if err != nil {
			return nil, err
		}
		return core.Characterize(meter, fmt.Sprintf("%s-%dx%d", name, w1, w0),
			core.CharacterizeOptions{
				Patterns: s.cfg.CharPatterns,
				Seed:     s.cfg.Seed + int64(100*w1+w0),
			})
	}

	protos := make([]regress.RectPrototype, len(shapes))
	for k, sh := range shapes {
		model, err := characterize(sh[0], sh[1])
		if err != nil {
			return nil, err
		}
		protos[k] = regress.RectPrototype{W1: sh[0], W0: sh[1], Model: model}
	}
	pm, err := regress.FitRect(name, protos)
	if err != nil {
		return nil, err
	}
	inst, err := characterize(target[0], target[1])
	if err != nil {
		return nil, err
	}

	res := &RectStudyResult{Module: name, Prototypes: shapes, Target: target}
	var sum float64
	for i := 1; i <= target[0]+target[1]; i++ {
		reg, ok := pm.Coefficient(i, target[0], target[1])
		if !ok || inst.P(i) == 0 {
			continue
		}
		rel := (reg - inst.P(i)) / inst.P(i) * 100
		res.Classes = append(res.Classes, i)
		res.Inst = append(res.Inst, inst.P(i))
		res.Reg = append(res.Reg, reg)
		res.RelErr = append(res.RelErr, rel)
		sum += abs(rel)
	}
	if len(res.Classes) > 0 {
		res.AvgRelErr = sum / float64(len(res.Classes))
	}
	return res, nil
}

// String renders the comparison.
func (r *RectStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rectangular regression (eq. 8), %s: predict %dx%d from %v\n\n",
		r.Module, r.Target[0], r.Target[1], r.Prototypes)
	fmt.Fprintf(&b, "%4s %12s %12s %8s\n", "Hd", "instance", "regression", "err %")
	for k, i := range r.Classes {
		fmt.Fprintf(&b, "%4d %12.2f %12.2f %+8.1f\n", i, r.Inst[k], r.Reg[k], r.RelErr[k])
	}
	fmt.Fprintf(&b, "\nmean |error|: %.1f%%\n", r.AvgRelErr)
	return b.String()
}
