package dwlib

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"hdpower/internal/netlist"
)

// structureDigests pins every catalog generator's netlist at every width
// from its MinWidth to 16 (even widths only for the Booth multiplier):
// the first 16 hex digits of the SHA-256 over, width by width, the
// instance name, every input and output bus (name and nets), every gate
// (kind, input nets, output net) and every net name. A generator change
// that moves one gate, wire or name fails it, even where the simulated
// behaviour stays the same.
var structureDigests = map[string]string{
	"absval":                   "0e231e6d693b068d",
	"barrel-shifter":           "80d999700fc0c23f",
	"booth-wallace-multiplier": "084971292d8aee52",
	"brent-kung-adder":         "9cb1f359c5e38adf",
	"carry-select-adder":       "f79861f4b87e8de6",
	"cla-adder":                "c7d8c4375f39fe5d",
	"comparator":               "88720ada431553bf",
	"csa-multiplier":           "80746c34be1c61bd",
	"dadda-multiplier":         "eb0fba87b8a6a068",
	"gray-decoder":             "020b156d812c6e17",
	"gray-encoder":             "adf2f9fc2d1b39c1",
	"incrementer":              "4917435180a6d44b",
	"kogge-stone-adder":        "d0c9d257adb86438",
	"leading-zeros":            "9e9a846737990b1b",
	"mac":                      "ae2d2b3349b39ab7",
	"min-max":                  "15db5b8c34c4a0a6",
	"parity-tree":              "750f6a8a4c967554",
	"ripple-adder":             "d8a69f4e924804a4",
	"ripple-subtractor":        "88ccdc4f74721c30",
	"saturating-adder":         "e043fb6823ecaa1c",
	"squarer":                  "f1eecb57b8ca215c",
}

func hashInt(h hash.Hash, v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

func hashString(h hash.Hash, s string) {
	hashInt(h, len(s))
	h.Write([]byte(s))
}

func hashBuses(h hash.Hash, buses []netlist.Bus) {
	hashInt(h, len(buses))
	for _, b := range buses {
		hashString(h, b.Name)
		hashInt(h, len(b.Nets))
		for _, id := range b.Nets {
			hashInt(h, int(id))
		}
	}
}

// hashNetlist feeds the netlist's whole structure into h.
func hashNetlist(h hash.Hash, nl *netlist.Netlist) {
	hashString(h, nl.Name)
	hashBuses(h, nl.Inputs())
	hashBuses(h, nl.Outputs())
	hashInt(h, nl.NumGates())
	for g := 0; g < nl.NumGates(); g++ {
		id := netlist.GateID(g)
		hashString(h, nl.GateKind(id).String())
		in := nl.GateInputs(id)
		hashInt(h, len(in))
		for _, n := range in {
			hashInt(h, int(n))
		}
		hashInt(h, int(nl.GateOutput(id)))
	}
	hashInt(h, nl.NumNets())
	for n := 0; n < nl.NumNets(); n++ {
		hashString(h, nl.NetName(netlist.NetID(n)))
	}
}

func TestStructureDigests(t *testing.T) {
	if len(structureDigests) != len(Names()) {
		t.Fatalf("%d digests for %d catalog modules", len(structureDigests), len(Names()))
	}
	for _, name := range Names() {
		mod, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		step := 1
		if name == "booth-wallace-multiplier" {
			step = 2 // the radix-4 Booth encoder takes even widths only
		}
		h := sha256.New()
		for m := mod.MinWidth; m <= 16; m += step {
			hashNetlist(h, mod.Build(m))
		}
		got := hex.EncodeToString(h.Sum(nil))[:16]
		if want := structureDigests[name]; got != want {
			t.Errorf("%s: structure digest %s, want %s", name, got, want)
		}
	}
}

// topoDigests pins the evaluation order and logic depth Finalize gives
// every catalog module at widths 4, 8, 12 and 16: the first 16 hex
// digits of the SHA-256 over, width by width, every gate id of
// TopoOrder and then Depth. Every engine compiles its schedule from that
// order, so a change to how a netlist is ordered or validated must leave
// it unedited.
var topoDigests = map[string]string{
	"absval":                   "1e02856e649c281d",
	"barrel-shifter":           "958285a504381029",
	"booth-wallace-multiplier": "bda63a88633bab47",
	"brent-kung-adder":         "dcb5d313caaf8c8d",
	"carry-select-adder":       "5a26cb756fbf1d8c",
	"cla-adder":                "23228826c65bd8ea",
	"comparator":               "b90ccc2946a836a0",
	"csa-multiplier":           "e37b1eeb427a0c12",
	"dadda-multiplier":         "15d0b7c2c4a8f62c",
	"gray-decoder":             "c13e239c1f3b3b70",
	"gray-encoder":             "a15753f4505a05f8",
	"incrementer":              "6bb0103ea694a2a3",
	"kogge-stone-adder":        "bc5788b2aa9c4180",
	"leading-zeros":            "e29a48a0eb0da845",
	"mac":                      "bc807e088a2b1745",
	"min-max":                  "64598518414d22bb",
	"parity-tree":              "585a31a5d6b342b5",
	"ripple-adder":             "ea9de8dd13a86be8",
	"ripple-subtractor":        "17d18eaf8aa204c0",
	"saturating-adder":         "d8c8ee531db31bdc",
	"squarer":                  "57cc4f26fe3f48a5",
}

func TestTopoDigests(t *testing.T) {
	if len(topoDigests) != len(Names()) {
		t.Errorf("%d digests for %d catalog modules", len(topoDigests), len(Names()))
	}
	for _, name := range Names() {
		mod, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, m := range []int{4, 8, 12, 16} {
			nl := mod.Build(m)
			order := nl.TopoOrder()
			hashInt(h, len(order))
			for _, g := range order {
				hashInt(h, int(g))
			}
			hashInt(h, nl.Depth())
		}
		got := hex.EncodeToString(h.Sum(nil))[:16]
		if want := topoDigests[name]; got != want {
			t.Errorf("%s: topo digest %s, want %s", name, got, want)
		}
	}
}
