package experiments

import (
	"fmt"
	"strings"

	"hdpower/internal/power"
	"hdpower/internal/regress"
	"hdpower/internal/stimuli"
	"hdpower/internal/textplot"
)

// regressionModules are the two families Section 5 studies.
func regressionModules() []string { return []string{"csa-multiplier", "ripple-adder"} }

// fitSets characterizes the full prototype set 4..16 step 2 for a module
// family and fits one parameterized model per reduction level.
func (s *Suite) fitSets(name string) (map[regress.PrototypeSet]*regress.ParamModel, []regress.Prototype, error) {
	basis := regress.BasisFor(name)
	widths := regress.SetAll.Widths()
	all := make([]regress.Prototype, len(widths))
	if err := forEachIndexed(len(widths), s.cfg.Workers, func(i int) error {
		model, err := s.Model(name, widths[i], false)
		if err != nil {
			return err
		}
		all[i] = regress.Prototype{Width: widths[i], Model: model}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	byWidth := make(map[int]regress.Prototype, len(all))
	for _, p := range all {
		byWidth[p.Width] = p
	}
	fits := make(map[regress.PrototypeSet]*regress.ParamModel)
	for _, set := range regress.AllSets() {
		var protos []regress.Prototype
		for _, w := range set.Widths() {
			protos = append(protos, byWidth[w])
		}
		pm, err := regress.Fit(name, protos, basis)
		if err != nil {
			return nil, nil, fmt.Errorf("fit %s/%s: %w", name, set, err)
		}
		fits[set] = pm
	}
	return fits, all, nil
}

// Figure4Series is the instance-vs-regression comparison for one
// coefficient index of one module family.
type Figure4Series struct {
	Module string
	Class  int       // Hd class i
	Widths []int     // prototype operand widths
	Inst   []float64 // instance-characterized p_i per width
	RegAll []float64 // regression p_i per width, ALL set
	RegThi []float64 // regression p_i per width, THI set
}

// Figure4Result reproduces Figure 4: coefficients from instance
// characterization vs from the regression equations.
type Figure4Result struct {
	Series []Figure4Series
}

// Figure4 compares instance and regression coefficients for
// representative classes of the csa-multiplier and ripple-adder families.
func (s *Suite) Figure4() (*Figure4Result, error) {
	res := &Figure4Result{}
	for _, name := range regressionModules() {
		fits, protos, err := s.fitSets(name)
		if err != nil {
			return nil, err
		}
		for _, class := range []int{1, 5, 8} {
			ser := Figure4Series{Module: name, Class: class}
			for _, p := range protos {
				if class > p.Model.InputBits {
					continue
				}
				ser.Widths = append(ser.Widths, p.Width)
				ser.Inst = append(ser.Inst, p.Model.P(class))
				pAll, _ := fits[regress.SetAll].Coefficient(class, p.Width)
				pThi, _ := fits[regress.SetThi].Coefficient(class, p.Width)
				ser.RegAll = append(ser.RegAll, pAll)
				ser.RegThi = append(ser.RegThi, pThi)
			}
			res.Series = append(res.Series, ser)
		}
	}
	return res, nil
}

// String renders one chart per series.
func (r *Figure4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: coefficients from instance characterization vs regression\n\n")
	for _, ser := range r.Series {
		xs := make([]float64, len(ser.Widths))
		for i, w := range ser.Widths {
			xs[i] = float64(w)
		}
		b.WriteString(textplot.Chart(
			fmt.Sprintf("%s p_%d over operand width", ser.Module, ser.Class),
			"operand width", xs, []textplot.Series{
				{Name: "instance characterization", Y: ser.Inst},
				{Name: "regression (ALL)", Y: ser.RegAll},
				{Name: "regression (THI)", Y: ser.RegThi},
			}, 56, 12))
		b.WriteByte('\n')
	}
	return b.String()
}

// Table3Row is one row of Table 3: where the Hd-model parameters came
// from, the resulting coefficient errors, and the average-power
// estimation errors for data types I, III and V.
type Table3Row struct {
	Module string
	Source string // "instance", "ALL", "SEC", "THI"
	// ParamErr holds the relative coefficient error (%) vs the instance
	// characterization for p_1, p_5, p_8 and the average over all classes.
	ParamErrP1, ParamErrP5, ParamErrP8, ParamErrAvg float64
	// EstErr maps data type -> average-power estimation error (%).
	EstErr map[stimuli.DataType]float64
}

// Table3Result reproduces Table 3 for the 8x8 csa-multiplier and the
// 8-bit ripple-adder.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 evaluates instance-characterized and regression-synthesized
// models of the width-8 instances on data types I, III and V.
func (s *Suite) Table3() (*Table3Result, error) {
	const evalWidth = 8
	dts := []stimuli.DataType{stimuli.TypeRandom, stimuli.TypeSpeech, stimuli.TypeCounter}
	res := &Table3Result{}
	for _, name := range regressionModules() {
		fits, _, err := s.fitSets(name)
		if err != nil {
			return nil, err
		}
		instModel, err := s.Model(name, evalWidth, false)
		if err != nil {
			return nil, err
		}
		// Reference traces per data type, shared by all rows.
		traces := make(map[stimuli.DataType]power.Trace)
		for _, dt := range dts {
			tr, err := s.runEval(name, evalWidth, dt)
			if err != nil {
				return nil, err
			}
			traces[dt] = tr
		}

		evalRow := func(source string, model interface{ P(int) float64 }) Table3Row {
			row := Table3Row{Module: name, Source: source, EstErr: make(map[stimuli.DataType]float64)}
			relErr := func(i int) float64 {
				inst := instModel.P(i)
				if inst == 0 {
					return 0
				}
				return abs(model.P(i)-inst) / inst * 100
			}
			row.ParamErrP1 = relErr(1)
			row.ParamErrP5 = relErr(5)
			row.ParamErrP8 = relErr(8)
			var sum float64
			n := 0
			for i := 1; i <= instModel.InputBits; i++ {
				sum += relErr(i)
				n++
			}
			row.ParamErrAvg = sum / float64(n)
			for _, dt := range dts {
				tr := traces[dt]
				est := make([]float64, len(tr.Hd))
				for j, h := range tr.Hd {
					est[j] = model.P(h)
				}
				e, _ := power.AvgError(est, tr.Q)
				row.EstErr[dt] = e
			}
			return row
		}

		res.Rows = append(res.Rows, evalRow("instance", instModel))
		for _, set := range regress.AllSets() {
			res.Rows = append(res.Rows, evalRow(string(set), fits[set].Synthesize(evalWidth)))
		}
	}
	return res, nil
}

// String renders the table in the paper's layout.
func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table 3: coefficient and estimation errors (in %) for regression tasks\n\n")
	fmt.Fprintf(&b, "%-16s %-9s | %6s %6s %6s %8s | %6s %6s %6s\n",
		"module", "params", "p1", "p5", "p8", "avg(pi)", "I", "III", "V")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %-9s | %6.0f %6.0f %6.0f %8.0f | %6.0f %6.0f %6.0f\n",
			row.Module, row.Source,
			row.ParamErrP1, row.ParamErrP5, row.ParamErrP8, row.ParamErrAvg,
			abs(row.EstErr[stimuli.TypeRandom]),
			abs(row.EstErr[stimuli.TypeSpeech]),
			abs(row.EstErr[stimuli.TypeCounter]))
	}
	return b.String()
}
