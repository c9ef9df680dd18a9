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
// that no toggle moved. power.Meter and bitsim both sum exact int64
// tenths, so the two zero-delay engines' charge digests are equal.
var toggleDigests = map[string][5]string{
	"absval":                   {"e2c3b5aba1ad2f05", "21b35dc31bf30b73", "8cac4162ce2fc51b", "e2c3b5aba1ad2f05", "7fb369a52338fef8"},
	"barrel-shifter":           {"bda59adca64cb9c0", "c0f30da50c5def54", "9a2a3793f2cbf4dc", "bda59adca64cb9c0", "c0f30da50c5def54"},
	"booth-wallace-multiplier": {"e6e87f0b51b7490a", "fdd5b91ffd5b2975", "74ea75ba887918ff", "e6e87f0b51b7490a", "ed062c58e52fd7ab"},
	"brent-kung-adder":         {"1e190c2dfdc1dd4f", "f0f82350ead917f3", "a42b9d377afc1828", "1e190c2dfdc1dd4f", "04c4c07f0055cb3d"},
	"carry-select-adder":       {"05b250b2356e28d5", "f2d19278417ee039", "3ff11a3c8dc22a09", "05b250b2356e28d5", "8b24de6a8040a0ff"},
	"cla-adder":                {"454175cbc838d2ba", "2900bfc657e7c4fc", "c275bb02d5a17cc4", "454175cbc838d2ba", "c7441dcc84af6e9e"},
	"comparator":               {"b66d54167d6a828b", "6fe70cdee8efb8dd", "9b6a19981f6ccc9c", "b66d54167d6a828b", "1abc46c006c54dbc"},
	"csa-multiplier":           {"1146ddd402baf786", "be8028d1ccf96088", "7ff89678ce377fe0", "1146ddd402baf786", "0e0f04c944fa8de2"},
	"dadda-multiplier":         {"1708f617370faa65", "f094687213bd0cb2", "ec6e114907fbb392", "1708f617370faa65", "1529d468224f47e6"},
	"gray-decoder":             {"e1a3912d1c9c4de7", "72624cd27cd98d0a", "72624cd27cd98d0a", "e1a3912d1c9c4de7", "2b0be31674ca8197"},
	"gray-encoder":             {"118c701b444f897b", "118c701b444f897b", "118c701b444f897b", "118c701b444f897b", "118c701b444f897b"},
	"incrementer":              {"8864ca26ea542b4e", "040804f990cba63c", "f1fc3909d797038d", "8864ca26ea542b4e", "18db592d4c49bea2"},
	"kogge-stone-adder":        {"aca027f31b7d8d50", "eccf85370c7b5604", "e448eafdef1108e1", "aca027f31b7d8d50", "96d13b1f6ce26f2c"},
	"leading-zeros":            {"2aae314346eccf3c", "97243c736e23fcd8", "5461f70201864cba", "2aae314346eccf3c", "2148714630bf283a"},
	"mac":                      {"e633bed0c20612db", "46842cb1577f1c9a", "14520a5915756f18", "e633bed0c20612db", "bab9d79d917ec411"},
	"min-max":                  {"69beee2475cd9639", "b47d2a09645cf16a", "1335b35953087458", "69beee2475cd9639", "39b1a6fadeb54eab"},
	"parity-tree":              {"1bb32209c0b24912", "1bb32209c0b24912", "1bb32209c0b24912", "1bb32209c0b24912", "1bb32209c0b24912"},
	"ripple-adder":             {"c31469d02a1a010a", "2772937a24a9e502", "2772937a24a9e502", "c31469d02a1a010a", "d7b28abc6e53b859"},
	"ripple-subtractor":        {"178e31599c84238e", "0a40994532c0e330", "0a40994532c0e330", "178e31599c84238e", "c7adda072eddfbfc"},
	"saturating-adder":         {"5e5ad4e22bd85467", "4d8cb5811f5d2653", "4a16e39c78f99bdd", "5e5ad4e22bd85467", "617dcffe4523e055"},
	"squarer":                  {"26ecdbcd384706c7", "afcc8b7e37bdc6eb", "6fc3182df9f6350c", "26ecdbcd384706c7", "373069704b9b8982"},
}

var chargeDigests = map[string][5]string{
	"absval":                   {"861d0c9fca04a51f", "67dbdc2bd016d1ba", "913edca081bbd1c2", "861d0c9fca04a51f", "426b62ffd52e0191"},
	"barrel-shifter":           {"85092973c15cb55a", "bde6fd2121cd849c", "f5bf88261d933ecd", "85092973c15cb55a", "bde6fd2121cd849c"},
	"booth-wallace-multiplier": {"0019c8e50f58dd78", "f327fe29a3922012", "6f514c5f92b2f27a", "0019c8e50f58dd78", "268250ec549ecda3"},
	"brent-kung-adder":         {"aa33bca0802bb068", "a49f5a60251c6d7c", "d7cd578d2574e2ae", "aa33bca0802bb068", "ecb2f0a8f3b69d6c"},
	"carry-select-adder":       {"b7bdc8a31ac51bb2", "c5dcefddc3025277", "8b2899160811f08d", "b7bdc8a31ac51bb2", "094d39f37f47b076"},
	"cla-adder":                {"8a687dddca9ba817", "49d572f18d73b0e1", "4cdbf23886a6f8fc", "8a687dddca9ba817", "d564bc085a6faf50"},
	"comparator":               {"18f8dfb517c8a1aa", "2db7b51fd6b96872", "843d576d3fca9067", "18f8dfb517c8a1aa", "6d6460409336bff2"},
	"csa-multiplier":           {"02eddbbb6569e426", "ad532bb9a3ab14fe", "d0e6eaf832a75aee", "02eddbbb6569e426", "8157fe65fb322ebc"},
	"dadda-multiplier":         {"2a3b74aa5e7ce958", "e6085fa2a55da193", "7871b92632816422", "2a3b74aa5e7ce958", "64cbd45f72e978cd"},
	"gray-decoder":             {"1f6e4297a79c9170", "964890d5d959605a", "964890d5d959605a", "1f6e4297a79c9170", "08e79e7847146db1"},
	"gray-encoder":             {"642754240ab93670", "642754240ab93670", "642754240ab93670", "642754240ab93670", "642754240ab93670"},
	"incrementer":              {"4cb851385711afa2", "5a5a9f3c3877eb1a", "d6be3249e25cb2b1", "4cb851385711afa2", "833b667be22ad551"},
	"kogge-stone-adder":        {"c3581c3464c00f00", "2479eed3dceccdaf", "3b11b7a30f79265d", "c3581c3464c00f00", "46f90dab3cbbe466"},
	"leading-zeros":            {"d7ebcd7596c16fcf", "db1770eeed4bc097", "a7b2e6473b96a739", "d7ebcd7596c16fcf", "f45b16ced1b2d56e"},
	"mac":                      {"780a53738090982b", "f2bef9d309b2b025", "d64a317c32dbb8b5", "780a53738090982b", "7f7671b959039277"},
	"min-max":                  {"4c037ddd42c9bd20", "a18b1e14df67696b", "cf62db9f08105fb1", "4c037ddd42c9bd20", "6ecf91f8ce3264ae"},
	"parity-tree":              {"9026874f78b1e774", "9026874f78b1e774", "9026874f78b1e774", "9026874f78b1e774", "9026874f78b1e774"},
	"ripple-adder":             {"40a42c349999577e", "e01f075c9cd92e33", "e01f075c9cd92e33", "40a42c349999577e", "f117a4dcde18d8a8"},
	"ripple-subtractor":        {"a1e55ec044690dd3", "262903230a3a9405", "262903230a3a9405", "a1e55ec044690dd3", "353aee1b5f8285a0"},
	"saturating-adder":         {"b496fb5860676195", "d18d189a29c1259f", "e8d2531dfda1ec1c", "b496fb5860676195", "d18de015adbf1e37"},
	"squarer":                  {"da8e91b36e4a8faf", "93bad0d9e0fcb47e", "e13e74f47f2f1ecd", "da8e91b36e4a8faf", "3e6450c6afceac08"},
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
			if a, b := chargeDigest(charges[0]), chargeDigest(charges[3]); a != b {
				t.Errorf("zero-delay charges differ: sim %s, bitsim %s", a, b)
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
