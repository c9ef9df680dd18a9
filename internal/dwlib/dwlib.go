// Package dwlib generates gate-level netlists for the datapath components
// the paper evaluates. It stands in for the Synopsys DesignWare library:
// every module is built from scratch out of the primitive gates in
// internal/cells, following the standard textbook architecture its name
// implies, and is parameterizable in its input bit-width — the property
// Section 5 of the paper exploits.
//
// Port conventions: two-operand modules expose input buses "a" and "b"
// (LSB first) and single-operand modules just "a". The main result bus is
// named per module ("sum", "diff", "prod", "y", …); carry/borrow outputs
// are separate 1-bit buses.
package dwlib

import (
	"fmt"
	"sort"

	"hdpower/internal/netlist"
)

// Module describes one catalog entry: a named generator parameterizable in
// the operand bit-width.
type Module struct {
	// Name is the catalog key, e.g. "ripple-adder".
	Name string
	// Description is a one-line human-readable summary.
	Description string
	// TwoOperand reports whether Build(m) creates a module with two m-bit
	// operands (total input bits 2m) or a single m-bit operand.
	TwoOperand bool
	// MinWidth is the smallest operand width the generator supports.
	MinWidth int
	// Build generates the netlist for operand width m.
	Build func(m int) *netlist.Netlist
}

var catalog = map[string]Module{
	"ripple-adder": {
		Name:        "ripple-adder",
		Description: "ripple-carry adder, two m-bit operands, m-bit sum + carry out",
		TwoOperand:  true,
		MinWidth:    1,
		Build:       RippleAdder,
	},
	"cla-adder": {
		Name:        "cla-adder",
		Description: "carry-lookahead adder with 4-bit lookahead blocks",
		TwoOperand:  true,
		MinWidth:    1,
		Build:       CLAAdder,
	},
	"absval": {
		Name:        "absval",
		Description: "two's-complement absolute value of an m-bit operand",
		TwoOperand:  false,
		MinWidth:    2,
		Build:       AbsVal,
	},
	"csa-multiplier": {
		Name:        "csa-multiplier",
		Description: "unsigned carry-save array multiplier, m x m bits",
		TwoOperand:  true,
		MinWidth:    2,
		Build:       func(m int) *netlist.Netlist { return CSAMult(m, m) },
	},
	"booth-wallace-multiplier": {
		Name:        "booth-wallace-multiplier",
		Description: "radix-4 Booth-coded Wallace-tree multiplier, signed m x m bits",
		TwoOperand:  true,
		MinWidth:    4,
		Build:       func(m int) *netlist.Netlist { return BoothWallaceMult(m) },
	},
	"ripple-subtractor": {
		Name:        "ripple-subtractor",
		Description: "two's-complement ripple-borrow subtractor a - b",
		TwoOperand:  true,
		MinWidth:    1,
		Build:       RippleSubtractor,
	},
	"incrementer": {
		Name:        "incrementer",
		Description: "a + 1 half-adder chain",
		TwoOperand:  false,
		MinWidth:    1,
		Build:       Incrementer,
	},
	"comparator": {
		Name:        "comparator",
		Description: "unsigned magnitude comparator: eq, lt outputs",
		TwoOperand:  true,
		MinWidth:    1,
		Build:       Comparator,
	},
	"parity-tree": {
		Name:        "parity-tree",
		Description: "XOR reduction tree over an m-bit operand",
		TwoOperand:  false,
		MinWidth:    2,
		Build:       ParityTree,
	},
	"barrel-shifter": {
		Name:        "barrel-shifter",
		Description: "logarithmic logical left shifter, m-bit data + log2(m)-bit shamt",
		TwoOperand:  false, // irregular ports; total input bits = m + ceil(log2 m)
		MinWidth:    2,
		Build:       BarrelShifter,
	},
	"carry-select-adder": {
		Name:        "carry-select-adder",
		Description: "carry-select adder with 4-bit groups",
		TwoOperand:  true,
		MinWidth:    1,
		Build:       CarrySelectAdder,
	},
	"mac": {
		Name:        "mac",
		Description: "fused multiply-accumulate a*b + c, m-bit factors, 2m-bit addend",
		TwoOperand:  false, // irregular ports: m + m + 2m input bits
		MinWidth:    2,
		Build:       MAC,
	},
	"squarer": {
		Name:        "squarer",
		Description: "unsigned squarer y = a^2 with folded partial-product array",
		TwoOperand:  false,
		MinWidth:    2,
		Build:       Squarer,
	},
	"gray-encoder": {
		Name:        "gray-encoder",
		Description: "binary to Gray code converter",
		TwoOperand:  false,
		MinWidth:    2,
		Build:       GrayEncoder,
	},
	"gray-decoder": {
		Name:        "gray-decoder",
		Description: "Gray code to binary converter",
		TwoOperand:  false,
		MinWidth:    2,
		Build:       GrayDecoder,
	},
	"leading-zeros": {
		Name:        "leading-zeros",
		Description: "leading-zero counter with popcount reduction",
		TwoOperand:  false,
		MinWidth:    2,
		Build:       LeadingZeros,
	},
	"min-max": {
		Name:        "min-max",
		Description: "two-output unsigned sorter: lo = min(a,b), hi = max(a,b)",
		TwoOperand:  true,
		MinWidth:    1,
		Build:       MinMax,
	},
	"saturating-adder": {
		Name:        "saturating-adder",
		Description: "two's-complement adder with overflow saturation",
		TwoOperand:  true,
		MinWidth:    2,
		Build:       SaturatingAdder,
	},
	"kogge-stone-adder": {
		Name:        "kogge-stone-adder",
		Description: "Kogge-Stone parallel-prefix adder (minimal depth)",
		TwoOperand:  true,
		MinWidth:    1,
		Build:       KoggeStoneAdder,
	},
	"brent-kung-adder": {
		Name:        "brent-kung-adder",
		Description: "Brent-Kung parallel-prefix adder (minimal cell count)",
		TwoOperand:  true,
		MinWidth:    1,
		Build:       BrentKungAdder,
	},
	"dadda-multiplier": {
		Name:        "dadda-multiplier",
		Description: "unsigned m x m multiplier with Dadda column reduction",
		TwoOperand:  true,
		MinWidth:    2,
		Build:       DaddaMult,
	},
}

// Lookup returns a catalog module by name.
func Lookup(name string) (Module, error) {
	mod, ok := catalog[name]
	if !ok {
		return Module{}, fmt.Errorf("dwlib: unknown module %q (have %v)", name, Names())
	}
	return mod, nil
}

// Names returns all catalog module names, sorted.
func Names() []string {
	out := make([]string, 0, len(catalog))
	for name := range catalog {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PaperModules returns the five module types evaluated in the paper's
// Table 1, in the paper's row order.
func PaperModules() []Module {
	names := []string{
		"ripple-adder", "cla-adder", "absval", "csa-multiplier",
		"booth-wallace-multiplier",
	}
	out := make([]Module, len(names))
	for i, n := range names {
		mod, err := Lookup(n)
		if err != nil {
			panic(err) // catalog is static; a miss is a programming error
		}
		out[i] = mod
	}
	return out
}

func checkWidth(module string, m, min int) {
	if m < min {
		panic(fmt.Sprintf("dwlib: %s requires width >= %d, got %d", module, min, m))
	}
}

// rippleSum wires a ripple-carry adder over existing nets inside n and
// returns the m sum nets plus the carry-out net. cin may be a constant
// net. It is the shared vector-merge primitive of the multipliers and
// absval.
func rippleSum(n *netlist.Netlist, a, b []netlist.NetID, cin netlist.NetID) (sum []netlist.NetID, cout netlist.NetID) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("dwlib: rippleSum width mismatch %d vs %d", len(a), len(b)))
	}
	sum = make([]netlist.NetID, len(a))
	carry := cin
	for i := range a {
		sum[i], carry = n.FullAdder(a[i], b[i], carry)
	}
	return sum, carry
}
