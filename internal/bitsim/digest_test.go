package bitsim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"hdpower/internal/bitsim"
	"hdpower/internal/dwlib"
	"hdpower/internal/sim"
)

// toggleDigests and chargeDigests pin every gate-level engine bit for
// bit. Per catalog module, in order: sim ZeroDelay, EventDriven and
// Inertial (toggles from sim.Simulator, charges from power.Meter), then
// bitsim ZeroDelay and UnitDelay. A toggle digest is the first 16 hex
// digits of the SHA-256 of the per-net toggle counts of 64 seeded pairs,
// a charge digest that of the per-pair charge bits. Kept apart, a change
// that must keep every toggle can re-record charges alone and still show
// that no toggle moved.
var toggleDigests = map[string][5]string{
	"absval":                   {"e2c3b5aba1ad2f05", "8cac4162ce2fc51b", "8cac4162ce2fc51b", "e2c3b5aba1ad2f05", "7fb369a52338fef8"},
	"barrel-shifter":           {"bda59adca64cb9c0", "48167844b9149f40", "9a2a3793f2cbf4dc", "bda59adca64cb9c0", "c0f30da50c5def54"},
	"booth-wallace-multiplier": {"e6e87f0b51b7490a", "8961a370623b741d", "74ea75ba887918ff", "e6e87f0b51b7490a", "ed062c58e52fd7ab"},
	"brent-kung-adder":         {"1e190c2dfdc1dd4f", "27c4fb025b36bf71", "a42b9d377afc1828", "1e190c2dfdc1dd4f", "04c4c07f0055cb3d"},
	"carry-select-adder":       {"05b250b2356e28d5", "1bd0a1682fc6c4f6", "3ff11a3c8dc22a09", "05b250b2356e28d5", "8b24de6a8040a0ff"},
	"cla-adder":                {"454175cbc838d2ba", "951a850b6980f9d8", "c275bb02d5a17cc4", "454175cbc838d2ba", "c7441dcc84af6e9e"},
	"comparator":               {"b66d54167d6a828b", "ed1c705b7cd88624", "9b6a19981f6ccc9c", "b66d54167d6a828b", "1abc46c006c54dbc"},
	"csa-multiplier":           {"1146ddd402baf786", "5f53a4272a9fb574", "7ff89678ce377fe0", "1146ddd402baf786", "0e0f04c944fa8de2"},
	"dadda-multiplier":         {"1708f617370faa65", "734eb8684c59e6d4", "ec6e114907fbb392", "1708f617370faa65", "1529d468224f47e6"},
	"gray-decoder":             {"e1a3912d1c9c4de7", "72624cd27cd98d0a", "72624cd27cd98d0a", "e1a3912d1c9c4de7", "2b0be31674ca8197"},
	"gray-encoder":             {"118c701b444f897b", "118c701b444f897b", "118c701b444f897b", "118c701b444f897b", "118c701b444f897b"},
	"incrementer":              {"8864ca26ea542b4e", "f34f4fd93bb53a68", "f1fc3909d797038d", "8864ca26ea542b4e", "18db592d4c49bea2"},
	"kogge-stone-adder":        {"aca027f31b7d8d50", "1c4cfb4060199384", "e448eafdef1108e1", "aca027f31b7d8d50", "96d13b1f6ce26f2c"},
	"leading-zeros":            {"2aae314346eccf3c", "4bf289cb82759756", "5461f70201864cba", "2aae314346eccf3c", "2148714630bf283a"},
	"mac":                      {"e633bed0c20612db", "a2d5adb96679da20", "14520a5915756f18", "e633bed0c20612db", "bab9d79d917ec411"},
	"min-max":                  {"69beee2475cd9639", "3201b56a16d8d740", "1335b35953087458", "69beee2475cd9639", "39b1a6fadeb54eab"},
	"parity-tree":              {"1bb32209c0b24912", "1bb32209c0b24912", "1bb32209c0b24912", "1bb32209c0b24912", "1bb32209c0b24912"},
	"ripple-adder":             {"c31469d02a1a010a", "2772937a24a9e502", "2772937a24a9e502", "c31469d02a1a010a", "d7b28abc6e53b859"},
	"ripple-subtractor":        {"178e31599c84238e", "0a40994532c0e330", "0a40994532c0e330", "178e31599c84238e", "c7adda072eddfbfc"},
	"saturating-adder":         {"5e5ad4e22bd85467", "4a16e39c78f99bdd", "4a16e39c78f99bdd", "5e5ad4e22bd85467", "617dcffe4523e055"},
	"squarer":                  {"26ecdbcd384706c7", "3425ff8aecfba791", "6fc3182df9f6350c", "26ecdbcd384706c7", "373069704b9b8982"},
}

var chargeDigests = map[string][5]string{
	"absval":                   {"6ff3fdc3e03e0e54", "c6067807109e4ef6", "c6067807109e4ef6", "861d0c9fca04a51f", "426b62ffd52e0191"},
	"barrel-shifter":           {"a874ecd0c927af0e", "1727fcd17eddcb3b", "5e20ff379478c7a0", "85092973c15cb55a", "bde6fd2121cd849c"},
	"booth-wallace-multiplier": {"d1c1d7914d47852d", "82a95348915e33fc", "086a23f2650df8f7", "0019c8e50f58dd78", "268250ec549ecda3"},
	"brent-kung-adder":         {"2e727e864b65f53b", "2fb295e13feb748f", "c48a06df766907a1", "aa33bca0802bb068", "ecb2f0a8f3b69d6c"},
	"carry-select-adder":       {"42c3d4d2d56eb034", "1280900a0ca2a0ca", "1280900a0ca2a0ca", "b7bdc8a31ac51bb2", "094d39f37f47b076"},
	"cla-adder":                {"782c3daa3d3f9245", "4106b9cbfdec3c8c", "9fac273f5a5c06c3", "8a687dddca9ba817", "d564bc085a6faf50"},
	"comparator":               {"bbad0a5253a94ba6", "9b26b35cbed2de84", "25e6105ba26894e1", "18f8dfb517c8a1aa", "6d6460409336bff2"},
	"csa-multiplier":           {"bafdc0a27867ca1e", "9d23cd202e5b20a6", "37d754d50b3c5929", "02eddbbb6569e426", "8157fe65fb322ebc"},
	"dadda-multiplier":         {"8cda48ccb9c43687", "1af343025a928f69", "d32c031b48d3839d", "2a3b74aa5e7ce958", "64cbd45f72e978cd"},
	"gray-decoder":             {"db01410dc4696b5b", "964890d5d959605a", "964890d5d959605a", "1f6e4297a79c9170", "08e79e7847146db1"},
	"gray-encoder":             {"f59fde8b61fc7727", "f59fde8b61fc7727", "f59fde8b61fc7727", "642754240ab93670", "642754240ab93670"},
	"incrementer":              {"22952fe6d71fea21", "6fe4a0e2276583c8", "73ec5efcccd6a5ff", "4cb851385711afa2", "833b667be22ad551"},
	"kogge-stone-adder":        {"a265c8efe811f231", "83f05d3e4f58e4d8", "d2699fed5334f1c6", "c3581c3464c00f00", "46f90dab3cbbe466"},
	"leading-zeros":            {"05e5dd9d21d762a4", "40cbdabc2010e106", "6054d7b0e1e08f47", "d7ebcd7596c16fcf", "f45b16ced1b2d56e"},
	"mac":                      {"25feaef994cd6b1d", "342d940f073f90a7", "6094a7f0b8f6fd12", "780a53738090982b", "7f7671b959039277"},
	"min-max":                  {"39a2e83bbd98b29e", "50f20e9536b40fdc", "9bc623db3c1755fa", "4c037ddd42c9bd20", "6ecf91f8ce3264ae"},
	"parity-tree":              {"bc559f62d6dd4f6c", "bc559f62d6dd4f6c", "bc559f62d6dd4f6c", "9026874f78b1e774", "9026874f78b1e774"},
	"ripple-adder":             {"71d410c8f7ed651e", "8da47ec994113fa0", "8da47ec994113fa0", "40a42c349999577e", "f117a4dcde18d8a8"},
	"ripple-subtractor":        {"601456d9fd1ecd19", "e07efa3e12b6e5a4", "e07efa3e12b6e5a4", "a1e55ec044690dd3", "353aee1b5f8285a0"},
	"saturating-adder":         {"a7f0311283ee0a62", "662b84a642ee76b9", "662b84a642ee76b9", "b496fb5860676195", "d18de015adbf1e37"},
	"squarer":                  {"f63e1ffed1e7ceae", "2d6124343769bf0c", "f6ed2eb3ef3bdb8d", "da8e91b36e4a8faf", "3e6450c6afceac08"},
}

// toggleDigest hashes per-net toggle counts.
func toggleDigest(toggles []int64) string {
	h := sha256.New()
	var buf [8]byte
	for _, n := range toggles {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// chargeDigest hashes per-pair charge bits.
func chargeDigest(q []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, c := range q {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestEngineDigests prices 64 seeded pairs per catalog module at width 8
// (or the module's MinWidth) on all five engines and checks each toggle
// and charge digest against toggleDigests and chargeDigests. Unlike the
// model digests, which see the event engine only through averaged
// coefficients, this pins every net's toggle count and every pair's
// charge, including the same-bucket hazards of the multipliers and the
// barrel shifter and the Inertial ablation engine.
func TestEngineDigests(t *testing.T) {
	labels := [5]string{"sim zero-delay", "sim event-driven", "sim inertial",
		"bitsim zero-delay", "bitsim unit-delay"}
	for _, name := range dwlib.Names() {
		t.Run(name, func(t *testing.T) {
			mod, err := dwlib.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			wantT, okT := toggleDigests[name]
			wantQ, okQ := chargeDigests[name]
			if !okT || !okQ {
				t.Fatalf("no recorded digests for %s", name)
			}
			width := 8
			if mod.MinWidth > width {
				width = mod.MinWidth
			}
			nl := buildModule(t, name, width)
			us, vs := randPairs(rand.New(rand.NewSource(64)), nl.NumInputBits(), 64)
			var toggles [5][]int64
			var charges [5][]float64
			for i, e := range []sim.Engine{sim.ZeroDelay, sim.EventDriven, sim.Inertial} {
				toggles[i], charges[i] = scalarReference(t, nl, e, us, vs)
			}
			for i, mode := range []bitsim.Mode{bitsim.ZeroDelay, bitsim.UnitDelay} {
				m, err := bitsim.New(nl, mode)
				if err != nil {
					t.Fatal(err)
				}
				toggles[3+i], charges[3+i] = batchAll(t, m, us, vs)
			}
			for i := range labels {
				if got := toggleDigest(toggles[i]); got != wantT[i] {
					t.Errorf("%s: toggle digest %s, want %s", labels[i], got, wantT[i])
				}
				if got := chargeDigest(charges[i]); got != wantQ[i] {
					t.Errorf("%s: charge digest %s, want %s", labels[i], got, wantQ[i])
				}
			}
		})
	}
}
