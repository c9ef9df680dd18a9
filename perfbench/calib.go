package main

// calib.go is the benchmark's yardstick. The host lends its cores to other
// tenants, and how fast a core runs moves with what they run: CPU time
// leaves out the time another tenant held the core, not the time it slowed
// it. On a 2-vCPU VM the same char-multipliers build cost from 97k to 160k
// pairs per CPU second minutes apart. Each timed unit is therefore paired
// with a fixed kernel, frozen here so that no change to the program moves
// it, and its CPU time is rescaled to what it would have been had the
// kernel run at its nominal speed (see yardstick.scale). The kernel has
// three parts, each a stand-in for a kind of work the timed units do:
// gate evaluation with popcounts and bit scans as in bitsim, pair
// generation and Hd classification as in core and logic, and number
// rendering and parsing as in serve.

import (
	"math/bits"
	"math/rand"
	"strconv"
	"time"
)

// Each part runs for about a millisecond or two: long next to the
// microsecond resolution of the CPU clock, short next to a round.
const (
	calInputs = 64
	calGates  = 1024
	calSweeps = 40
	calPairs  = 2000
	calWidth  = 32
	calTexts  = 4000
)

// calPart is one part of the kernel.
type calPart int

const (
	calGate calPart = iota
	calPair
	calText
	calParts
)

// calNominal is each part's CPU time on a 2-vCPU Xeon VM in its quiet
// stretches (the 10th percentile over three minutes of rounds), so scaled
// times read as CPU seconds there.
var calNominal = [calParts]time.Duration{
	calGate: 1900 * time.Microsecond,
	calPair: 1050 * time.Microsecond,
	calText: 870 * time.Microsecond,
}

type calGateRec struct {
	kind uint8
	in   [3]int32
}

// calWork is the kernel's fixed netlist and its working state.
type calWork struct {
	gates []calGateRec
	val   []uint64
	q     [64]float64
	class [calWidth + 1][2]float64
	idx   [calWidth]int
	buf   []byte
}

var calState = func() calWork {
	rng := rand.New(rand.NewSource(1))
	var s calWork
	s.gates = make([]calGateRec, calGates)
	for i := range s.gates {
		g := &s.gates[i]
		g.kind = uint8(rng.Intn(6))
		for k := range g.in {
			g.in[k] = int32(rng.Intn(calInputs + i))
		}
	}
	s.val = make([]uint64, calInputs+calGates)
	return s
}()

// calGateRun sweeps a fixed random netlist 64 lanes at a time, counting
// toggles and scattering per-lane charge.
func calGateRun() {
	s := &calState
	x := uint64(0x9E3779B97F4A7C15)
	for sweep := 0; sweep < calSweeps; sweep++ {
		for i := 0; i < calInputs; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s.val[i] = x
		}
		for i := range s.gates {
			g := &s.gates[i]
			a, b, c := s.val[g.in[0]], s.val[g.in[1]], s.val[g.in[2]]
			var v uint64
			switch g.kind {
			case 0:
				v = a & b
			case 1:
				v = ^(a | b)
			case 2:
				v = a ^ b ^ c
			case 3:
				v = (a &^ c) | (b & c)
			case 4:
				v = ^((a & b) | c)
			default:
				v = ^(a ^ b)
			}
			id := calInputs + i
			changed := v ^ s.val[id]
			s.val[id] = v
			w := float64(bits.OnesCount64(changed)) * 0.5
			for m := changed; m != 0; m &= m - 1 {
				s.q[bits.TrailingZeros64(m)] += w
			}
		}
	}
	sinkF += s.q[0]
}

// calPairRun draws biased pattern pairs bit by bit, flips a random number
// of distinct bits, and accumulates a charge per Hd class.
func calPairRun() {
	s := &calState
	rng := rand.New(rand.NewSource(2))
	for i := range s.idx {
		s.idx[i] = i
	}
	for p := 0; p < calPairs; p++ {
		density := 0.05 + 0.9*rng.Float64()
		u := make([]uint64, 1)
		for b := 0; b < calWidth; b++ {
			if rng.Float64() < density {
				u[0] |= 1 << b
			}
		}
		n := 1 + rng.Intn(calWidth)
		for k := 0; k < n; k++ {
			j := k + rng.Intn(calWidth-k)
			s.idx[k], s.idx[j] = s.idx[j], s.idx[k]
		}
		v := append([]uint64(nil), u...)
		for k := 0; k < n; k++ {
			v[0] ^= 1 << s.idx[k]
		}
		hd := bits.OnesCount64(u[0] ^ v[0])
		q := float64(bits.OnesCount64(v[0])) + 0.25*float64(hd)
		s.class[hd][0] += q
		s.class[hd][1] += q * q
	}
	sinkF += s.class[1][0]
}

// calTextRun renders numbers as serve's JSON writer does and parses them
// back.
func calTextRun() {
	s := &calState
	x := uint64(12345)
	for k := 0; k < calTexts; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		s.buf = strconv.AppendFloat(s.buf[:0], float64(x>>11)/float64(1<<53)*1e-12, 'g', -1, 64)
		f, _ := strconv.ParseFloat(string(s.buf), 64)
		s.buf = strconv.AppendInt(s.buf[:0], int64(x>>40), 10)
		n, _ := strconv.Atoi(string(s.buf))
		sinkF += f + float64(n&1)
	}
}

var calRuns = [calParts]func(){calGate: calGateRun, calPair: calPairRun, calText: calTextRun}

// calTimes are the CPU times of one run of each part.
type calTimes [calParts]time.Duration

// yardstick weighs the kernel's parts by the share of a workload's time
// that each kind of work takes.
type yardstick [calParts]float64

// measure runs once each part of the kernel that y weighs and returns
// their CPU times.
func (y yardstick) measure() calTimes {
	var t calTimes
	for p, run := range calRuns {
		if y[p] == 0 {
			continue
		}
		c0 := cpuTime()
		run()
		t[p] = cpuTime() - c0
	}
	return t
}

// scale returns the factor that takes CPU seconds measured between the
// kernel runs before and after to CPU seconds of the machine calNominal
// describes.
func (y yardstick) scale(before, after calTimes) float64 {
	var nominal, measured float64
	for p, w := range y {
		nominal += w * float64(2*calNominal[p])
		measured += w * float64(before[p]+after[p])
	}
	return nominal / measured
}
