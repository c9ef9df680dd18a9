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

// engineDigests pins every gate-level engine bit for bit. Per catalog
// module, in order: sim ZeroDelay, EventDriven and Inertial (toggles from
// sim.Simulator, charges from power.Meter), then bitsim ZeroDelay and
// UnitDelay. Each entry is the first 16 hex digits of the SHA-256 of the
// per-net toggle counts and the per-pair charge bits of 64 seeded pairs.
var engineDigests = map[string][5]string{
	"absval":                   {"50021d2f8b4814d3", "2806af7b3ceefdda", "2806af7b3ceefdda", "50021d2f8b4814d3", "d0858f336fac2fc0"},
	"barrel-shifter":           {"537712845e6ea80b", "556f2c9ff5141bd7", "9381d9290d25d98c", "537712845e6ea80b", "9265a4ef7f025659"},
	"booth-wallace-multiplier": {"e009d3062bd5980b", "c5084d1bb977ab65", "e879ce08659fb8c9", "e1bf047a8a2c56ad", "5f5c797ed43b06b4"},
	"brent-kung-adder":         {"bf1ef845ae12b220", "a2dd525e9d710bf1", "91c335a381a8e9a9", "815075d12db69806", "26fdf8f09596226f"},
	"carry-select-adder":       {"32f46752e97ef312", "0895bcc5da8e5092", "d8f79da69d327d43", "2a84bc96ab4c6636", "955002a302906aba"},
	"cla-adder":                {"76f5dd45c86adcec", "7de20852bded9702", "6cc09a483d9d6eac", "fd5a9c3295f3ecde", "a34c1931a690ff36"},
	"comparator":               {"efd455a035e7d56d", "3359f8f63328a46b", "8d36765068d9d806", "8e50a275a4b43498", "3e561efca3474e49"},
	"csa-multiplier":           {"a4c3121d3bb141e7", "f55f110bb8354549", "a50e7fe87f40a5c3", "c8f3ec1519b6b9c3", "4d199e170581bbc6"},
	"dadda-multiplier":         {"6c471e7a3f39715f", "9b0bf4bcdd240dc6", "81b78a74c918a64f", "219021ff18ff8867", "a9de4cee63b10695"},
	"gray-decoder":             {"162c2f5f6fdd8b68", "c4affa0e068b0c60", "c4affa0e068b0c60", "162c2f5f6fdd8b68", "0c3b05d514a2e387"},
	"gray-encoder":             {"00ac83a5f1ef92e3", "00ac83a5f1ef92e3", "00ac83a5f1ef92e3", "00ac83a5f1ef92e3", "00ac83a5f1ef92e3"},
	"incrementer":              {"b254bf521ba26a52", "6c9905dd9e20aa31", "e86c0887b7b9fae7", "b254bf521ba26a52", "5cef11771c35f68a"},
	"kogge-stone-adder":        {"bccccb4988cb2c17", "8d6aaee80e8aa377", "fdb0ecdd49e7c629", "fc7fbe155bc0e10b", "d24776a6db730d69"},
	"leading-zeros":            {"ad8c9a44440aecc8", "cc14cf0c73ec7685", "3af79fcfa6af8ac8", "ad8c9a44440aecc8", "145e96e16051f2f5"},
	"mac":                      {"3a492994bf2c1f51", "da786e182ffe8a55", "2b08cbb940f1ef25", "2ea9258d5178fb92", "081c6becbb2037e6"},
	"min-max":                  {"d5ac669b12482c5f", "426ff1564d4e2219", "a3699ea4cbd92496", "9d7d858848d1d2bc", "b315fb7036510ac1"},
	"parity-tree":              {"878d70621ea9e096", "878d70621ea9e096", "878d70621ea9e096", "878d70621ea9e096", "878d70621ea9e096"},
	"ripple-adder":             {"37108f13a5986f47", "a6e2f1058761f4d7", "a6e2f1058761f4d7", "2d4da527c2db7970", "99d3be4b0ac00590"},
	"ripple-subtractor":        {"19c553d2b3929a94", "37f611487b08f87e", "37f611487b08f87e", "547b0feabe80f55a", "16787fb943b71f4b"},
	"saturating-adder":         {"433a1c37b94c0370", "e3d8724a4b1c2a73", "e3d8724a4b1c2a73", "e2744afa2d799098", "c5deeae9a93f3512"},
	"squarer":                  {"5d99148553b0d8b4", "408f79511d3ef173", "c800dcb5576477d5", "e1fb7995eaf969b4", "039779d2dbd0a90d"},
}

// activityDigest hashes per-net toggles and per-pair charge bits.
func activityDigest(toggles []int64, q []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, n := range toggles {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	for _, c := range q {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestEngineDigests prices 64 seeded pairs per catalog module at width 8
// (or the module's MinWidth) on all five engines and checks each
// activity digest against engineDigests. Unlike the model digests, which
// see the event engine only through averaged coefficients, this pins
// every net's toggle count and every pair's charge, including the
// same-bucket hazards of the multipliers and the barrel shifter and the
// Inertial ablation engine.
func TestEngineDigests(t *testing.T) {
	for _, name := range dwlib.Names() {
		t.Run(name, func(t *testing.T) {
			mod, err := dwlib.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := engineDigests[name]
			if !ok {
				t.Fatalf("no recorded digests for %s", name)
			}
			width := 8
			if mod.MinWidth > width {
				width = mod.MinWidth
			}
			nl := buildModule(t, name, width)
			us, vs := randPairs(rand.New(rand.NewSource(64)), nl.NumInputBits(), 64)
			var got [5]string
			for i, e := range []sim.Engine{sim.ZeroDelay, sim.EventDriven, sim.Inertial} {
				got[i] = activityDigest(scalarReference(t, nl, e, us, vs))
			}
			for i, mode := range []bitsim.Mode{bitsim.ZeroDelay, bitsim.UnitDelay} {
				m, err := bitsim.New(nl, mode)
				if err != nil {
					t.Fatal(err)
				}
				got[3+i] = activityDigest(batchAll(t, m, us, vs))
			}
			labels := [5]string{"sim zero-delay", "sim event-driven", "sim inertial",
				"bitsim zero-delay", "bitsim unit-delay"}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s: digest %s, want %s", labels[i], got[i], want[i])
				}
			}
		})
	}
}
