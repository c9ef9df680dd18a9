// Package propagate computes word-level signal statistics (mean, variance,
// lag-1 autocorrelation) at every node of a linear dataflow graph from the
// statistics of its input streams — the capability the paper's Section 6
// leans on (refs. [9, 10]: Landman's and Ramprasad's propagation of
// word-level statistics through adders, constant multipliers and delays).
//
// Combined with internal/stats (breakpoints) and internal/hddist (analytic
// Hd distribution) this enables power estimation of a whole datapath with
// no bit-level simulation at all: propagate → distribution → Σ p(Hd=i)·p_i.
//
// The implementation is exact for linear operators over AR(1) Gaussian
// inputs: every node is represented as a lag polynomial over the primary
// inputs, y[n] = c0 + Σ_i Σ_k a_{i,k}·x_i[n−k], and second-order statistics
// follow from the AR(1) autocovariance cov(x[n], x[n−k]) = σ²ρ^|k|.
// Distinct primary inputs are assumed mutually independent. This subsumes
// FIR filters, IIR-free accumulator trees, delays and constant gains —
// the DSP kernels the paper's introduction targets.
package propagate

import (
	"fmt"
	"math"

	"hdpower/internal/stats"
)

// NodeID identifies a node within one Graph.
type NodeID int

type input struct {
	name string
	ws   stats.WordStats
}

// node is a lag polynomial: coeff[inputIdx][lag] plus a constant offset.
type node struct {
	coeffs []map[int]float64 // indexed by input index
	offset float64
}

// Graph is a linear dataflow graph under construction. The zero value is
// not usable; create one with New.
type Graph struct {
	inputs []input
	nodes  []node
}

// New returns an empty dataflow graph.
func New() *Graph { return &Graph{} }

func (g *Graph) newNode() (NodeID, *node) {
	n := node{coeffs: make([]map[int]float64, len(g.inputs))}
	for i := range n.coeffs {
		n.coeffs[i] = map[int]float64{}
	}
	g.nodes = append(g.nodes, n)
	return NodeID(len(g.nodes) - 1), &g.nodes[len(g.nodes)-1]
}

func (g *Graph) check(id NodeID) {
	if id < 0 || int(id) >= len(g.nodes) {
		panic(fmt.Sprintf("propagate: node %d out of range", id))
	}
}

// grow extends every node's coefficient table after a new input is added.
func (g *Graph) grow() {
	for i := range g.nodes {
		g.nodes[i].coeffs = append(g.nodes[i].coeffs, map[int]float64{})
	}
}

// Input declares a primary input stream modeled as a stationary AR(1)
// Gaussian process with the given word-level statistics.
func (g *Graph) Input(name string, ws stats.WordStats) NodeID {
	if ws.Std < 0 {
		panic(fmt.Sprintf("propagate: negative std for input %q", name))
	}
	g.inputs = append(g.inputs, input{name: name, ws: ws})
	g.grow()
	id, n := g.newNode()
	n.coeffs[len(g.inputs)-1][0] = 1
	return id
}

// Const declares a constant-valued node.
func (g *Graph) Const(v float64) NodeID {
	id, n := g.newNode()
	n.offset = v
	return id
}

// Delay returns a[n−k]. k must be non-negative.
func (g *Graph) Delay(a NodeID, k int) NodeID {
	g.check(a)
	if k < 0 {
		panic(fmt.Sprintf("propagate: negative delay %d", k))
	}
	src := g.nodes[a]
	id, n := g.newNode()
	n.offset = src.offset
	for i, lags := range src.coeffs {
		for lag, c := range lags {
			n.coeffs[i][lag+k] = c
		}
	}
	return id
}

// Gain returns c·a.
func (g *Graph) Gain(a NodeID, c float64) NodeID {
	g.check(a)
	src := g.nodes[a]
	id, n := g.newNode()
	n.offset = c * src.offset
	for i, lags := range src.coeffs {
		for lag, v := range lags {
			n.coeffs[i][lag] = c * v
		}
	}
	return id
}

// Add returns a + b.
func (g *Graph) Add(a, b NodeID) NodeID { return g.linComb(a, b, 1) }

// Sub returns a − b.
func (g *Graph) Sub(a, b NodeID) NodeID { return g.linComb(a, b, -1) }

func (g *Graph) linComb(a, b NodeID, sign float64) NodeID {
	g.check(a)
	g.check(b)
	na, nb := g.nodes[a], g.nodes[b]
	id, n := g.newNode()
	n.offset = na.offset + sign*nb.offset
	for i, lags := range na.coeffs {
		for lag, v := range lags {
			n.coeffs[i][lag] += v
		}
	}
	for i, lags := range nb.coeffs {
		for lag, v := range lags {
			n.coeffs[i][lag] += sign * v
		}
	}
	return id
}

// Stats returns the exact word-level statistics of a node under the AR(1)
// input model: mean, standard deviation and lag-1 autocorrelation.
func (g *Graph) Stats(id NodeID) stats.WordStats {
	g.check(id)
	n := g.nodes[id]
	mean := n.offset
	var variance, lag1 float64
	for i, lags := range n.coeffs {
		ws := g.inputs[i].ws
		var coefSum float64
		for _, c := range lags {
			coefSum += c
		}
		mean += coefSum * ws.Mean
		// Autocovariance of input i at integer lag k.
		cov := func(k int) float64 {
			return ws.Std * ws.Std * math.Pow(clampRho(ws.Rho), math.Abs(float64(k)))
		}
		for l1, c1 := range lags {
			for l2, c2 := range lags {
				variance += c1 * c2 * cov(l1-l2)
				lag1 += c1 * c2 * cov(l2+1-l1)
			}
		}
	}
	ws := stats.WordStats{Mean: mean}
	if variance > 0 {
		ws.Std = math.Sqrt(variance)
		ws.Rho = lag1 / variance
	}
	return ws
}

func clampRho(r float64) float64 {
	if r > 1 {
		return 1
	}
	if r < -1 {
		return -1
	}
	return r
}
