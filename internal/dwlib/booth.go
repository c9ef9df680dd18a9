package dwlib

import (
	"fmt"

	"hdpower/internal/netlist"
)

// BoothWallaceMult generates a signed (two's-complement) m x m multiplier
// built from a radix-4 (modified) Booth encoder, a Wallace reduction tree
// of full/half adders, and a final ripple carry-propagate adder — the
// "booth-cod. wallace-tree mult." of the paper's Table 1.
// Ports: a[m], b[m] -> prod[2m]. m must be even and >= 4.
func BoothWallaceMult(m int) *netlist.Netlist {
	checkWidth("booth-wallace-multiplier", m, 4)
	if m%2 != 0 {
		panic(fmt.Sprintf("dwlib: booth-wallace-multiplier requires even width, got %d", m))
	}
	n := netlist.New(fmt.Sprintf("booth_wallace_mult_%dx%d", m, m))
	a := n.AddInputBus("a", m)
	b := n.AddInputBus("b", m)
	p := 2 * m
	zero := n.Const(false)

	// cols[k] collects all partial-product bits of absolute weight k.
	cols := make([][]netlist.NetID, p)
	addBit := func(k int, id netlist.NetID) {
		if k < p { // weight 2^p and above vanish mod 2^p
			cols[k] = append(cols[k], id)
		}
	}

	bit := func(bus netlist.Bus, i int) netlist.NetID {
		if i < 0 {
			return zero
		}
		return bus.Nets[i]
	}

	rows := m / 2
	for r := 0; r < rows; r++ {
		// Booth digit r is encoded from bits (b[2r+1], b[2r], b[2r-1]).
		x2 := bit(b, 2*r+1)
		x1 := bit(b, 2*r)
		x0 := bit(b, 2*r-1)

		neg := x2            // digit is negative (-1 or -2)
		one := n.Xor(x1, x0) // |digit| == 1
		// |digit| == 2: (1,0,0) or (0,1,1).
		nx1 := n.Not(x1)
		nx0 := n.Not(x0)
		nx2 := n.Not(x2)
		two := n.Or(n.And(x2, n.And(nx1, nx0)), n.And(nx2, n.And(x1, x0)))

		// Partial-product row: m+1 magnitude bits (x2 shifts left by one),
		// conditionally inverted by neg. Bit j of the row has absolute
		// weight 2r+j.
		var rowSign netlist.NetID
		for j := 0; j <= m; j++ {
			var aj, ajm1 netlist.NetID
			if j < m {
				aj = a.Nets[j]
			} else {
				aj = a.Nets[m-1] // sign extension of a for the x1 case
			}
			if j-1 >= 0 && j-1 < m {
				ajm1 = a.Nets[j-1]
			} else if j-1 >= m {
				ajm1 = a.Nets[m-1]
			} else {
				ajm1 = zero
			}
			mag := n.Or(n.And(one, aj), n.And(two, ajm1))
			ppBit := n.Xor(mag, neg)
			addBit(2*r+j, ppBit)
			if j == m {
				rowSign = ppBit
			}
		}
		// Naive sign extension: replicate the row's top bit up to 2m-1.
		for k := 2*r + m + 1; k < p; k++ {
			addBit(k, rowSign)
		}
		// Two's-complement correction: +neg at the row LSB weight.
		addBit(2*r, neg)
	}
	n.MarkOutputBus("prod", reduceAndMerge(n, cols, zero))
	return n
}
