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
