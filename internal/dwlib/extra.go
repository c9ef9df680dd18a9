package dwlib

import (
	"fmt"

	"hdpower/internal/cells"
	"hdpower/internal/netlist"
)

// MAC generates an unsigned multiply-accumulate unit: acc = a·b + c with
// m-bit factors and a 2m-bit addend. The addend is folded into the
// multiplier's carry-save reduction, the classic fused-MAC structure.
// Ports: a[m], b[m], c[2m] -> acc[2m+1].
func MAC(m int) *netlist.Netlist {
	checkWidth("mac", m, 2)
	n := netlist.New(fmt.Sprintf("mac_%d", m))
	a := n.AddInputBus("a", m)
	b := n.AddInputBus("b", m)
	c := n.AddInputBus("c", 2*m)
	p := 2*m + 1
	zero := n.Const(false)

	cols := make([][]netlist.NetID, p)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			cols[i+j] = append(cols[i+j], n.And(a.Nets[j], b.Nets[i]))
		}
	}
	for k := 0; k < 2*m; k++ {
		cols[k] = append(cols[k], c.Nets[k])
	}
	acc := reduceAndMerge(n, cols, zero)
	n.MarkOutputBus("acc", acc)
	return n
}

// Squarer generates y = a² for an unsigned m-bit operand, exploiting the
// partial-product symmetry a_i·a_j + a_j·a_i = 2·a_i·a_j (one AND gate at
// the next column up) and a_i·a_i = a_i (no gate at all) — roughly half
// the array of a general multiplier. Ports: a[m] -> y[2m].
func Squarer(m int) *netlist.Netlist {
	checkWidth("squarer", m, 2)
	n := netlist.New(fmt.Sprintf("squarer_%d", m))
	a := n.AddInputBus("a", m)
	p := 2 * m
	zero := n.Const(false)

	cols := make([][]netlist.NetID, p)
	for i := 0; i < m; i++ {
		cols[2*i] = append(cols[2*i], a.Nets[i]) // diagonal term
		for j := i + 1; j < m; j++ {
			if i+j+1 < p {
				cols[i+j+1] = append(cols[i+j+1], n.And(a.Nets[i], a.Nets[j]))
			}
		}
	}
	y := reduceAndMerge(n, cols, zero)
	n.MarkOutputBus("y", y[:p])
	return n
}

// reduceAndMerge Wallace-reduces bit columns to two rows and merges them
// with a ripple carry-propagate adder. Carries out of the top column are
// dropped (callers size the column array to the full result width). It
// is the column reduction of the Booth multiplier, MAC, squarer and
// leading-zero counter, and the final adder of the Dadda multiplier,
// whose columns arrive at most two high.
func reduceAndMerge(n *netlist.Netlist, cols [][]netlist.NetID, zero netlist.NetID) []netlist.NetID {
	p := len(cols)
	for maxHeight(cols) > 2 {
		next := make([][]netlist.NetID, p)
		for k, col := range cols {
			i := 0
			for len(col)-i >= 3 {
				s, c := n.FullAdder(col[i], col[i+1], col[i+2])
				next[k] = append(next[k], s)
				if k+1 < p {
					next[k+1] = append(next[k+1], c)
				}
				i += 3
			}
			if len(col)-i == 2 {
				s, c := n.HalfAdder(col[i], col[i+1])
				next[k] = append(next[k], s)
				if k+1 < p {
					next[k+1] = append(next[k+1], c)
				}
			} else if len(col)-i == 1 {
				next[k] = append(next[k], col[i])
			}
		}
		cols = next
	}
	out := make([]netlist.NetID, p)
	carry := zero
	for k := 0; k < p; k++ {
		x, y := zero, zero
		if len(cols[k]) > 0 {
			x = cols[k][0]
		}
		if len(cols[k]) > 1 {
			y = cols[k][1]
		}
		out[k], carry = add3(n, x, y, carry)
	}
	return out
}

func maxHeight(cols [][]netlist.NetID) int {
	h := 0
	for _, col := range cols {
		if len(col) > h {
			h = len(col)
		}
	}
	return h
}

// GrayEncoder generates the binary-to-Gray converter g = b ^ (b >> 1).
// Ports: a[m] -> g[m].
func GrayEncoder(m int) *netlist.Netlist {
	checkWidth("gray-encoder", m, 2)
	n := netlist.New(fmt.Sprintf("gray_encoder_%d", m))
	a := n.AddInputBus("a", m)
	g := make([]netlist.NetID, m)
	for i := 0; i < m-1; i++ {
		g[i] = n.Xor(a.Nets[i], a.Nets[i+1])
	}
	g[m-1] = n.AddGate(cells.Buf, a.Nets[m-1])
	n.MarkOutputBus("g", g)
	return n
}

// GrayDecoder generates the Gray-to-binary converter b_i = ⊕_{j>=i} g_j,
// built as the XOR suffix chain from the MSB. Ports: a[m] -> b[m].
func GrayDecoder(m int) *netlist.Netlist {
	checkWidth("gray-decoder", m, 2)
	n := netlist.New(fmt.Sprintf("gray_decoder_%d", m))
	a := n.AddInputBus("a", m)
	b := make([]netlist.NetID, m)
	b[m-1] = n.AddGate(cells.Buf, a.Nets[m-1])
	for i := m - 2; i >= 0; i-- {
		b[i] = n.Xor(a.Nets[i], b[i+1])
	}
	n.MarkOutputBus("b", b)
	return n
}

// LeadingZeros generates a leading-zero counter: y = number of zero bits
// above the most significant one of a (y = m for a = 0). The prefix
// "still all zero" chain feeds a population counter built from half/full
// adders. Ports: a[m] -> y[ceil(log2(m+1))].
func LeadingZeros(m int) *netlist.Netlist {
	checkWidth("leading-zeros", m, 2)
	n := netlist.New(fmt.Sprintf("leading_zeros_%d", m))
	a := n.AddInputBus("a", m)

	// nf[i] = 1 when bits m-1..i are all zero; the count of leading
	// zeros is Σ nf[i].
	nf := make([]netlist.NetID, m)
	nf[m-1] = n.Not(a.Nets[m-1])
	for i := m - 2; i >= 0; i-- {
		nf[i] = n.And(nf[i+1], n.Not(a.Nets[i]))
	}
	// Population count of the prefix flags via column reduction.
	outBits := 1
	for 1<<uint(outBits) < m+1 {
		outBits++
	}
	cols := make([][]netlist.NetID, outBits)
	cols[0] = append(cols[0], nf...)
	y := reduceAndMerge(n, cols, n.Const(false))
	n.MarkOutputBus("y", y)
	return n
}

// MinMax generates a two-output unsigned sorter: lo = min(a,b),
// hi = max(a,b), using the comparator borrow chain and a mux rank.
// Ports: a[m], b[m] -> lo[m], hi[m].
func MinMax(m int) *netlist.Netlist {
	checkWidth("min-max", m, 1)
	n := netlist.New(fmt.Sprintf("min_max_%d", m))
	a := n.AddInputBus("a", m)
	b := n.AddInputBus("b", m)

	// borrow of a-b: 1 when a < b
	borrow := n.Const(false)
	for i := 0; i < m; i++ {
		gen := n.And(n.Not(a.Nets[i]), b.Nets[i])
		propagate := n.Xnor(a.Nets[i], b.Nets[i])
		borrow = n.Or(gen, n.And(propagate, borrow))
	}
	lo := make([]netlist.NetID, m)
	hi := make([]netlist.NetID, m)
	for i := 0; i < m; i++ {
		lo[i] = n.Mux(b.Nets[i], a.Nets[i], borrow) // a<b ? a : b
		hi[i] = n.Mux(a.Nets[i], b.Nets[i], borrow) // a<b ? b : a
	}
	n.MarkOutputBus("lo", lo)
	n.MarkOutputBus("hi", hi)
	return n
}

// SaturatingAdder generates a two's-complement adder that clamps on
// overflow: sum = clamp(a + b, MIN, MAX). Overflow occurs when the
// operands share a sign the result does not. Ports: a[m], b[m] -> sum[m],
// sat[1] (saturation indicator).
func SaturatingAdder(m int) *netlist.Netlist {
	checkWidth("saturating-adder", m, 2)
	n := netlist.New(fmt.Sprintf("saturating_adder_%d", m))
	a := n.AddInputBus("a", m)
	b := n.AddInputBus("b", m)
	raw, _ := rippleSum(n, a.Nets, b.Nets, n.Const(false))

	as, bs, ss := a.Nets[m-1], b.Nets[m-1], raw[m-1]
	sameSign := n.Xnor(as, bs)
	flipped := n.Xor(as, ss)
	sat := n.And(sameSign, flipped)

	// Saturation value: sign of a decides MIN (10..0) or MAX (01..1).
	out := make([]netlist.NetID, m)
	for i := 0; i < m-1; i++ {
		out[i] = n.Mux(raw[i], n.Not(as), sat) // MAX bits are ~sign below MSB
	}
	out[m-1] = n.Mux(raw[m-1], as, sat)
	n.MarkOutputBus("sum", out)
	n.MarkOutputBus("sat", []netlist.NetID{sat})
	return n
}
