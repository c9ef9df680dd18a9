package dwlib

import (
	"fmt"

	"hdpower/internal/netlist"
)

// prefixCell combines two (generate, propagate) pairs: the fundamental
// associative operator of parallel-prefix adders:
//
//	(g, p) ∘ (g', p') = (g ∨ (p ∧ g'), p ∧ p')
func prefixCell(n *netlist.Netlist, g, p, gPrev, pPrev netlist.NetID) (netlist.NetID, netlist.NetID) {
	return n.Or(g, n.And(p, gPrev)), n.And(p, pPrev)
}

// prefixAdder builds an adder from per-bit (g, p) signals and a prefix
// network strategy that fills carries[1..m] given the per-bit pairs.
func prefixAdder(name string, m int, network func(n *netlist.Netlist, g, p []netlist.NetID) []netlist.NetID) *netlist.Netlist {
	n := netlist.New(name)
	a := n.AddInputBus("a", m)
	b := n.AddInputBus("b", m)
	p := make([]netlist.NetID, m)
	g := make([]netlist.NetID, m)
	for i := 0; i < m; i++ {
		p[i] = n.Xor(a.Nets[i], b.Nets[i])
		g[i] = n.And(a.Nets[i], b.Nets[i])
	}
	carries := network(n, g, p) // carries[i] = carry INTO bit i+1 (group G of bits 0..i)
	sum := make([]netlist.NetID, m)
	sum[0] = p[0] // carry-in is zero
	for i := 1; i < m; i++ {
		sum[i] = n.Xor(p[i], carries[i-1])
	}
	n.MarkOutputBus("sum", sum)
	n.MarkOutputBus("cout", []netlist.NetID{carries[m-1]})
	return n
}

// KoggeStoneAdder generates an m-bit Kogge-Stone parallel-prefix adder:
// log2(m) levels, minimal depth, maximal wiring — the "fast, power-hungry"
// end of the adder design space. Ports: a[m], b[m] -> sum[m], cout[1].
func KoggeStoneAdder(m int) *netlist.Netlist {
	checkWidth("kogge-stone-adder", m, 1)
	return prefixAdder(fmt.Sprintf("kogge_stone_adder_%d", m), m,
		func(n *netlist.Netlist, g, p []netlist.NetID) []netlist.NetID {
			gg := append([]netlist.NetID(nil), g...)
			pp := append([]netlist.NetID(nil), p...)
			for d := 1; d < m; d <<= 1 {
				ng := append([]netlist.NetID(nil), gg...)
				np := append([]netlist.NetID(nil), pp...)
				for i := d; i < m; i++ {
					ng[i], np[i] = prefixCell(n, gg[i], pp[i], gg[i-d], pp[i-d])
				}
				gg, pp = ng, np
			}
			return gg // gg[i] = generate of group 0..i = carry out of bit i
		})
}

// BrentKungAdder generates an m-bit Brent-Kung parallel-prefix adder:
// ~2·log2(m) levels with minimal cell count — the "lean" prefix network.
// Ports: a[m], b[m] -> sum[m], cout[1].
func BrentKungAdder(m int) *netlist.Netlist {
	checkWidth("brent-kung-adder", m, 1)
	return prefixAdder(fmt.Sprintf("brent_kung_adder_%d", m), m,
		func(n *netlist.Netlist, g, p []netlist.NetID) []netlist.NetID {
			gg := append([]netlist.NetID(nil), g...)
			pp := append([]netlist.NetID(nil), p...)
			// Up-sweep: combine at strides 1, 2, 4, ...
			for d := 1; d < m; d <<= 1 {
				for i := 2*d - 1; i < m; i += 2 * d {
					gg[i], pp[i] = prefixCell(n, gg[i], pp[i], gg[i-d], pp[i-d])
				}
			}
			// Down-sweep: fill in the remaining prefixes.
			for d := largestPow2Below(m); d >= 1; d >>= 1 {
				for i := 3*d - 1; i < m; i += 2 * d {
					gg[i], pp[i] = prefixCell(n, gg[i], pp[i], gg[i-d], pp[i-d])
				}
			}
			return gg
		})
}

// largestPow2Below returns the starting stride of the Brent-Kung
// down-sweep: half the largest power of two below m.
func largestPow2Below(m int) int {
	d := 1
	for d*2 < m {
		d *= 2
	}
	return d / 2
}

// DaddaMult generates an unsigned m x m multiplier with Dadda column
// reduction: the partial-product matrix is compressed just enough at each
// stage to meet the Dadda height sequence (2, 3, 4, 6, 9, 13, …), which
// minimizes full-adder count compared to Wallace's eager reduction.
// Ports: a[m], b[m] -> prod[2m].
func DaddaMult(m int) *netlist.Netlist {
	checkWidth("dadda-multiplier", m, 2)
	n := netlist.New(fmt.Sprintf("dadda_mult_%dx%d", m, m))
	a := n.AddInputBus("a", m)
	b := n.AddInputBus("b", m)
	p := 2 * m
	zero := n.Const(false)

	cols := make([][]netlist.NetID, p)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			cols[i+j] = append(cols[i+j], n.And(a.Nets[j], b.Nets[i]))
		}
	}
	// Dadda height sequence below the current maximum height.
	target := 2
	for {
		next := target * 3 / 2
		if next >= maxHeight(cols) {
			break
		}
		target = next
	}
	for maxHeight(cols) > 2 {
		next := make([][]netlist.NetID, p)
		carryIn := make([][]netlist.NetID, p)
		for k := 0; k < p; k++ {
			// Columns are processed LSB-first, so carries generated into
			// column k (from k-1, this stage) are already present; they
			// count toward this stage's height, per Dadda's algorithm.
			col := append(append([]netlist.NetID(nil), cols[k]...), carryIn[k]...)
			carryIn[k] = nil
			// Reduce only as much as needed to reach the target height.
			for len(col) > target {
				if len(col) == target+1 {
					s, c := n.HalfAdder(col[len(col)-2], col[len(col)-1])
					col = append(col[:len(col)-2], s)
					if k+1 < p {
						carryIn[k+1] = append(carryIn[k+1], c)
					}
				} else {
					s, c := n.FullAdder(col[len(col)-3], col[len(col)-2], col[len(col)-1])
					col = append(col[:len(col)-3], s)
					if k+1 < p {
						carryIn[k+1] = append(carryIn[k+1], c)
					}
				}
			}
			next[k] = col
		}
		cols = next
		if target > 2 {
			target = (target*2 + 2) / 3
			if target < 2 {
				target = 2
			}
		}
	}
	// Every column is now at most two high, so this is the final merge.
	n.MarkOutputBus("prod", reduceAndMerge(n, cols, zero))
	return n
}
