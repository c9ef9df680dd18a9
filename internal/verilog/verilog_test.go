package verilog

import (
	"strings"
	"testing"

	"hdpower/internal/bdd"
	"hdpower/internal/dwlib"
	"hdpower/internal/netlist"
)

func TestWriteBasicStructure(t *testing.T) {
	var sb strings.Builder
	if err := Write(&sb, dwlib.RippleAdder(4)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"module ripple_adder_4 (a, b, sum, cout);",
		"input [3:0] a;",
		"output [3:0] sum;",
		"output [0:0] cout;",
		"xor", "and", "or",
		"endmodule",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRoundTripEquivalence(t *testing.T) {
	// Write then Parse must preserve function — proven with BDDs.
	builds := map[string]*netlist.Netlist{
		"ripple-adder":   dwlib.RippleAdder(6),
		"cla-adder":      dwlib.CLAAdder(5),
		"absval":         dwlib.AbsVal(6),
		"csa-multiplier": dwlib.CSAMult(4, 4),
		"comparator":     dwlib.Comparator(5),
		"barrel-shifter": dwlib.BarrelShifter(4), // exercises MUX2 decomposition
		"incrementer":    dwlib.Incrementer(6),   // exercises const inputs
	}
	for name, nl := range builds {
		var sb strings.Builder
		if err := Write(&sb, nl); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		back, err := Parse(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", name, err, sb.String())
		}
		eq, cex, err := bdd.Equivalent(nl, back)
		if err != nil {
			t.Fatalf("%s: equivalence check: %v", name, err)
		}
		if !eq {
			t.Errorf("%s: round trip changed function at %+v", name, cex)
		}
	}
}

func TestRoundTripPreservesPorts(t *testing.T) {
	var sb strings.Builder
	if err := Write(&sb, dwlib.MinMax(3)); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumInputBits() != 6 {
		t.Errorf("input bits = %d", back.NumInputBits())
	}
	outs := back.Outputs()
	if len(outs) != 2 || outs[0].Name != "lo" || outs[1].Name != "hi" {
		t.Errorf("outputs = %+v", outs)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"no module":     "input [1:0] a;\nendmodule\n",
		"bad statement": "module m (a);\ninput [0:0] a;\nfrobnicate x;\nendmodule\n",
		"bad range":     "module m (a);\ninput [1:1] a;\nendmodule\n",
		"double driver": "module m (a, y);\ninput [0:0] a;\noutput [0:0] y;\nnot g0 (y[0], a[0]);\nbuf g1 (y[0], a[0]);\nendmodule\n",
		"undriven loop": "module m (a, y);\ninput [0:0] a;\noutput [0:0] y;\nnot g0 (y[0], q);\nnot g1 (q, y[0]);\nendmodule\n",
		"missing semi":  "module m (a);\ninput [0:0] a\nendmodule\n",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseMinimalHandwritten(t *testing.T) {
	src := `
// a hand-written majority gate
module maj (a, y);
  input [2:0] a;
  output [0:0] y;
  wire t0;
  wire t1;
  wire t2;
  wire t3;
  and g0 (t0, a[0], a[1]);
  and g1 (t1, a[0], a[2]);
  and g2 (t2, a[1], a[2]);
  or g3 (t3, t0, t1);
  or g4 (y[0], t3, t2);
endmodule
`
	nl, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if nl.NumGates() != 5 {
		t.Errorf("gates = %d", nl.NumGates())
	}
	if nl.Name != "maj" {
		t.Errorf("name = %q", nl.Name)
	}
}

func TestIdent(t *testing.T) {
	if ident("csa_mult_8x8") != "csa_mult_8x8" {
		t.Error("valid name mangled")
	}
	if got := ident("8bad name!"); got != "_bad_name_" {
		t.Errorf("ident = %q", got)
	}
	if ident("") != "top" {
		t.Error("empty name")
	}
}
