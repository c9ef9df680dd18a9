package hddist

import (
	"math"
	"testing"

	"hdpower/internal/stats"
)

// FuzzFromWordStatsPorts holds the memoized closed form behind
// /v1/estimate/stats to brute force over the domain that endpoint
// accepts: finite μ, σ > 0, ρ in [-1, 1], and ports streams of width
// bits. Per port the reference is eq. 13's explicit convolution of the
// merged regions' binomial and sign distributions; the ports are then
// convolved one by one. Every entry must agree within 1e-12, the length
// must be width·ports + 1 and the entries must sum to 1 within 1e-9.
func FuzzFromWordStatsPorts(f *testing.F) {
	f.Add(0.0, 1000.0, 0.9, uint8(16), uint8(2))
	f.Add(-3e4, 1e3, -0.5, uint8(16), uint8(1))
	f.Add(0.0, 1e308, 1.0, uint8(64), uint8(1))
	f.Add(5.0, 0.1, -1.0, uint8(8), uint8(4))
	f.Add(1e300, 1.0, 0.0, uint8(1), uint8(3))
	memo := NewMemo(64)
	f.Fuzz(func(t *testing.T, mean, std, rho float64, w, p uint8) {
		if math.IsNaN(mean) || math.IsInf(mean, 0) || !(std > 0) || math.IsInf(std, 1) || !(rho >= -1 && rho <= 1) {
			return // outside what the endpoint accepts
		}
		width, ports := 1+int(w)%64, 1+int(p)%4
		ws := stats.WordStats{Mean: mean, Std: std, Rho: rho}
		got := memo.FromWordStatsPorts(ws, width, ports)

		r := MergeRegions(stats.Regions(ws, width), width)
		sign := make(Dist, r.NSign+1)
		sign[0] = 1 - r.TSign
		sign[r.NSign] += r.TSign
		port := Convolve(Binomial(r.NRand, 0.5), sign)
		want := Dist{1}
		for k := 0; k < ports; k++ {
			want = Convolve(want, port)
		}
		if len(got) != width*ports+1 || len(want) != len(got) {
			t.Fatalf("%+v width %d ports %d: length %d, brute force %d, want %d",
				ws, width, ports, len(got), len(want), width*ports+1)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("%+v width %d ports %d: p(Hd = %d) = %v, brute force %v",
					ws, width, ports, i, got[i], want[i])
			}
		}
		if s := got.Sum(); math.Abs(s-1) > 1e-9 {
			t.Fatalf("%+v width %d ports %d: entries sum to %v", ws, width, ports, s)
		}
	})
}
