// Package cells defines the primitive gate library used by all generated
// datapath netlists: the available gate kinds, their logic functions, and
// the electrical data (input capacitance, output drive capacitance,
// intrinsic delay) the charge-based power simulator needs.
//
// The library plays the role of the standard-cell library underneath the
// Synopsys DesignWare components in the paper. Capacitances are expressed
// in arbitrary charge units (a net transition deposits the net's total
// capacitance of charge, with the supply voltage normalized to 1), so all
// power figures produced on top of it are meaningful relatively — which is
// all the paper's error metrics require.
package cells

import "fmt"

// Kind identifies a primitive gate.
type Kind int

// The primitive gate kinds. All are single-output.
const (
	Buf Kind = iota
	Inv
	And2
	And3
	Or2
	Or3
	Nand2
	Nand3
	Nor2
	Nor3
	Xor2
	Xor3
	Xnor2
	Mux2  // inputs: d0, d1, sel; output: sel ? d1 : d0
	Aoi21 // inputs: a, b, c; output: !((a&b)|c)
	Oai21 // inputs: a, b, c; output: !((a|b)&c)
	numKinds
)

var kindNames = [...]string{
	Buf:   "BUF",
	Inv:   "INV",
	And2:  "AND2",
	And3:  "AND3",
	Or2:   "OR2",
	Or3:   "OR3",
	Nand2: "NAND2",
	Nand3: "NAND3",
	Nor2:  "NOR2",
	Nor3:  "NOR3",
	Xor2:  "XOR2",
	Xor3:  "XOR3",
	Xnor2: "XNOR2",
	Mux2:  "MUX2",
	Aoi21: "AOI21",
	Oai21: "OAI21",
}

// String returns the conventional library name of the gate kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Valid reports whether k is a defined gate kind.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// Cell carries the per-kind library data.
type Cell struct {
	Kind Kind
	// NumInputs is the pin count of the gate.
	NumInputs int
	// InputCap is the capacitance presented by each input pin, in charge
	// units. Larger, more complex gates load their drivers more.
	InputCap float64
	// OutputCap is the intrinsic capacitance of the gate's output node
	// (drain/diffusion capacitance), added to the fanout load.
	OutputCap float64
	// Delay is the intrinsic propagation delay in integer time units used
	// by the event-driven simulator. Different delays per kind are what
	// make glitches (and thus data-dependent power) appear.
	Delay int
}

// table is indexed by Kind. The relative magnitudes follow typical
// standard-cell libraries: an XOR costs roughly twice a NAND in both load
// and delay; inverting gates are cheapest.
var table = [numKinds]Cell{
	Buf:   {Buf, 1, 1.0, 1.0, 1},
	Inv:   {Inv, 1, 1.0, 0.8, 1},
	And2:  {And2, 2, 1.2, 1.4, 2},
	And3:  {And3, 3, 1.3, 1.7, 2},
	Or2:   {Or2, 2, 1.2, 1.4, 2},
	Or3:   {Or3, 3, 1.3, 1.7, 2},
	Nand2: {Nand2, 2, 1.1, 1.1, 1},
	Nand3: {Nand3, 3, 1.2, 1.4, 2},
	Nor2:  {Nor2, 2, 1.1, 1.2, 1},
	Nor3:  {Nor3, 3, 1.2, 1.5, 2},
	Xor2:  {Xor2, 2, 1.8, 2.2, 3},
	Xor3:  {Xor3, 3, 2.2, 3.0, 3},
	Xnor2: {Xnor2, 2, 1.8, 2.2, 3},
	Mux2:  {Mux2, 3, 1.4, 1.8, 2},
	Aoi21: {Aoi21, 3, 1.2, 1.5, 2},
	Oai21: {Oai21, 3, 1.2, 1.5, 2},
}

// Lookup returns the library data for a gate kind.
// It panics if k is not a defined kind.
func Lookup(k Kind) Cell {
	if !k.Valid() {
		panic(fmt.Sprintf("cells: unknown gate kind %d", int(k)))
	}
	return table[k]
}

// Kinds returns all defined gate kinds in a stable order.
//
//hdlint:allow deadexport test support: the sim and bitsim fuzz tests enumerate every gate kind with it
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Eval computes the gate's boolean function on the given inputs.
// It panics if the input count does not match the kind's pin count.
func Eval(k Kind, in []bool) bool {
	c := Lookup(k)
	if len(in) != c.NumInputs {
		panic(fmt.Sprintf("cells: %s expects %d inputs, got %d", k, c.NumInputs, len(in)))
	}
	switch k {
	case Buf:
		return in[0]
	case Inv:
		return !in[0]
	case And2:
		return in[0] && in[1]
	case And3:
		return in[0] && in[1] && in[2]
	case Or2:
		return in[0] || in[1]
	case Or3:
		return in[0] || in[1] || in[2]
	case Nand2:
		return !(in[0] && in[1])
	case Nand3:
		return !(in[0] && in[1] && in[2])
	case Nor2:
		return !(in[0] || in[1])
	case Nor3:
		return !(in[0] || in[1] || in[2])
	case Xor2:
		return in[0] != in[1]
	case Xor3:
		return (in[0] != in[1]) != in[2]
	case Xnor2:
		return in[0] == in[1]
	case Mux2:
		if in[2] {
			return in[1]
		}
		return in[0]
	case Aoi21:
		return !((in[0] && in[1]) || in[2])
	case Oai21:
		return !((in[0] || in[1]) && in[2])
	}
	panic("cells: unreachable")
}
