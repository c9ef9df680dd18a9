package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Residual returns ||A·x − b||₂.
func Residual(a *Matrix, x, b []float64) float64 {
	ax := a.MulVec(x)
	var s float64
	for i := range ax {
		d := ax[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestLeastSquaresExactSquare(t *testing.T) {
	a := FromRows([][]float64{{2, 0}, {0, 3}})
	x, err := LeastSquares(a, []float64{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Errorf("x = %v", x)
	}
}

func TestLeastSquaresOverdeterminedLine(t *testing.T) {
	// Fit y = 2m + 1 exactly through 5 points.
	var rows [][]float64
	var b []float64
	for m := 1; m <= 5; m++ {
		rows = append(rows, []float64{float64(m), 1})
		b = append(b, 2*float64(m)+1)
	}
	x, err := LeastSquares(FromRows(rows), b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-10) || !almostEq(x[1], 1, 1e-10) {
		t.Errorf("line fit = %v", x)
	}
}

func TestLeastSquaresQuadratic(t *testing.T) {
	// Fit p(m) = 0.5 m^2 + 3m + 7 through widths 4..16 step 2.
	var rows [][]float64
	var b []float64
	for m := 4; m <= 16; m += 2 {
		fm := float64(m)
		rows = append(rows, []float64{fm * fm, fm, 1})
		b = append(b, 0.5*fm*fm+3*fm+7)
	}
	x, err := LeastSquares(FromRows(rows), b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 3, 7}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-8) {
			t.Errorf("coef %d = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLeastSquaresNoisyRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var rows [][]float64
	var b []float64
	for i := 0; i < 200; i++ {
		m := float64(1 + rng.Intn(30))
		rows = append(rows, []float64{m, 1})
		b = append(b, 5*m-2+rng.NormFloat64()*0.1)
	}
	x, err := LeastSquares(FromRows(rows), b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 5, 0.05) || !almostEq(x[1], -2, 0.5) {
		t.Errorf("noisy fit = %v", x)
	}
}

func TestLeastSquaresRankDeficient(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("rank-deficient system accepted")
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}})
	if _, err := LeastSquares(a, []float64{1}); err == nil {
		t.Fatal("underdetermined system accepted")
	}
}

func TestLeastSquaresRhsMismatch(t *testing.T) {
	a := FromRows([][]float64{{1}, {2}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("rhs length mismatch accepted")
	}
}

func TestResidualZeroForExactFit(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {2, 1}, {3, 1}})
	x := []float64{2, 1}
	b := a.MulVec(x)
	if r := Residual(a, x, b); r > 1e-12 {
		t.Errorf("residual = %v", r)
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	a := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec with wrong length accepted")
		}
	}()
	a.MulVec([]float64{1})
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Error("Clone shares storage")
	}
}

func TestFromRowsValidation(t *testing.T) {
	for _, rows := range [][][]float64{nil, {{}}, {{1, 2}, {3}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromRows(%v) accepted", rows)
				}
			}()
			FromRows(rows)
		}()
	}
}

// Property: the LS solution's residual is never worse than that of small
// perturbations of it (first-order optimality probe).
func TestLeastSquaresOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := make([][]float64, 8)
		b := make([]float64, 8)
		for i := range rows {
			rows[i] = []float64{r.NormFloat64(), r.NormFloat64(), 1}
			b[i] = r.NormFloat64() * 5
		}
		a := FromRows(rows)
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // skip degenerate random instances
		}
		base := Residual(a, x, b)
		for trial := 0; trial < 10; trial++ {
			xp := append([]float64(nil), x...)
			for j := range xp {
				xp[j] += rng.NormFloat64() * 0.01
			}
			if Residual(a, xp, b) < base-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
