// Package verilog writes gate-level structural Verilog for the
// repository's netlists, so generated datapath components can be inspected
// with standard EDA tooling.
//
// The writer emits only two-input and single-input Verilog built-in
// primitives (and, or, xor, xnor, not, buf) — MUX2 is decomposed — plus
// `assign` statements for constants and output aliases. The package's
// tests read that subset back and prove the round trip functionally
// equivalent with internal/bdd.
package verilog

import (
	"fmt"
	"io"
	"strings"

	"hdpower/internal/cells"
	"hdpower/internal/netlist"
)

// primitives names the Verilog built-in primitive of every kind but Mux2.
var primitives = [...]string{
	cells.Buf:   "buf",
	cells.Inv:   "not",
	cells.And2:  "and",
	cells.Or2:   "or",
	cells.Xor2:  "xor",
	cells.Xnor2: "xnor",
}

// Write emits the netlist as structural Verilog.
func Write(w io.Writer, nl *netlist.Netlist) error {
	if err := nl.Finalize(); err != nil {
		return err
	}
	names, aliases := netNames(nl)

	var ports []string
	for _, b := range nl.Inputs() {
		ports = append(ports, b.Name)
	}
	for _, b := range nl.Outputs() {
		ports = append(ports, b.Name)
	}
	if _, err := fmt.Fprintf(w, "module %s (%s);\n", ident(nl.Name), strings.Join(ports, ", ")); err != nil {
		return err
	}
	for _, b := range nl.Inputs() {
		if _, err := fmt.Fprintf(w, "  input [%d:0] %s;\n", b.Width()-1, b.Name); err != nil {
			return err
		}
	}
	for _, b := range nl.Outputs() {
		if _, err := fmt.Fprintf(w, "  output [%d:0] %s;\n", b.Width()-1, b.Name); err != nil {
			return err
		}
	}
	// Wire declarations for internal nets (anything not named after an
	// input or output bit).
	for id := 0; id < nl.NumNets(); id++ {
		name := names[id]
		if strings.ContainsRune(name, '[') {
			continue // bus bits are declared by their bus
		}
		if _, err := fmt.Fprintf(w, "  wire %s;\n", name); err != nil {
			return err
		}
	}

	// Constants.
	for id := 0; id < nl.NumNets(); id++ {
		if v, isC := nl.IsConst(netlist.NetID(id)); isC {
			bit := "1'b0"
			if v {
				bit = "1'b1"
			}
			if _, err := fmt.Fprintf(w, "  assign %s = %s;\n", names[id], bit); err != nil {
				return err
			}
		}
	}

	// Gates.
	gateIdx := 0
	emit := func(prim string, out string, ins ...string) error {
		_, err := fmt.Fprintf(w, "  %s g%d (%s, %s);\n", prim, gateIdx, out, strings.Join(ins, ", "))
		gateIdx++
		return err
	}
	tmpIdx := 0
	tmp := func() (string, error) {
		name := fmt.Sprintf("t%d", tmpIdx)
		tmpIdx++
		_, err := fmt.Fprintf(w, "  wire %s;\n", name)
		return name, err
	}
	for _, g := range nl.TopoOrder() {
		ins := nl.GateInputs(g)
		in := make([]string, len(ins))
		for i, id := range ins {
			in[i] = names[id]
		}
		out := names[nl.GateOutput(g)]
		var err error
		if kind := nl.GateKind(g); kind != cells.Mux2 {
			err = emit(primitives[kind], out, in...)
		} else {
			// out = sel ? d1 : d0 decomposed into primitives.
			var nsel, t0, t1 string
			if nsel, err = tmp(); err != nil {
				return err
			}
			if err = emit("not", nsel, in[2]); err != nil {
				return err
			}
			if t0, err = tmp(); err != nil {
				return err
			}
			if err = emit("and", t0, in[0], nsel); err != nil {
				return err
			}
			if t1, err = tmp(); err != nil {
				return err
			}
			if err = emit("and", t1, in[1], in[2]); err != nil {
				return err
			}
			err = emit("or", out, t0, t1)
		}
		if err != nil {
			return err
		}
	}

	// Output aliases: an output bit whose net is primarily named
	// something else (another bus bit or an input).
	for _, a := range aliases {
		if _, err := fmt.Fprintf(w, "  assign %s = %s;\n", a[0], a[1]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "endmodule")
	return err
}

// netNames assigns each net a primary Verilog name and collects alias
// assignments for output bits whose nets already carry another name.
func netNames(nl *netlist.Netlist) (names []string, aliases [][2]string) {
	names = make([]string, nl.NumNets())
	for _, b := range nl.Inputs() {
		for i, id := range b.Nets {
			names[id] = fmt.Sprintf("%s[%d]", b.Name, i)
		}
	}
	for _, b := range nl.Outputs() {
		for i, id := range b.Nets {
			bit := fmt.Sprintf("%s[%d]", b.Name, i)
			if names[id] == "" {
				names[id] = bit
			} else {
				aliases = append(aliases, [2]string{bit, names[id]})
			}
		}
	}
	for id := range names {
		if names[id] == "" {
			names[id] = fmt.Sprintf("n%d", id)
		}
	}
	return names, aliases
}

// ident sanitizes a module name into a Verilog identifier.
func ident(name string) string {
	if name == "" {
		return "top"
	}
	b := []byte(name)
	for i, c := range b {
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}
