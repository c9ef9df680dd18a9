package verilog

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hdpower/internal/cells"
	"hdpower/internal/netlist"
)

// Parse reads the structural Verilog subset produced by Write and
// rebuilds a netlist. Supported constructs: one module; `input`/`output`
// bus declarations; `wire` declarations; the built-in primitives and,
// or, xor, xnor (2 inputs each), not, buf; and `assign` of a constant
// (1'b0/1'b1) or of another net (alias).
func Parse(r io.Reader) (*netlist.Netlist, error) {
	type gateDecl struct {
		prim string
		out  string
		ins  []string
		line int
	}
	type busDecl struct {
		name  string
		width int
	}
	var (
		moduleName string
		inputs     []busDecl
		outputs    []busDecl
		gates      []gateDecl
		assigns    [][2]string // lhs, rhs (rhs may be 1'b0/1'b1)
	)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" || line == "endmodule" {
			continue
		}
		if !strings.HasSuffix(line, ";") {
			if strings.HasPrefix(line, "module ") {
				// handled below
			} else {
				return nil, fmt.Errorf("verilog: line %d: missing semicolon: %q", lineNo, line)
			}
		}
		stmt := strings.TrimSuffix(line, ";")
		fields := strings.Fields(stmt)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "module":
			rest := strings.TrimPrefix(stmt, "module")
			if i := strings.Index(rest, "("); i >= 0 {
				rest = rest[:i]
			}
			moduleName = strings.TrimSpace(rest)
		case "input", "output":
			name, width, err := parseBusDecl(stmt)
			if err != nil {
				return nil, fmt.Errorf("verilog: line %d: %w", lineNo, err)
			}
			if fields[0] == "input" {
				inputs = append(inputs, busDecl{name, width})
			} else {
				outputs = append(outputs, busDecl{name, width})
			}
		case "wire":
			// declarations carry no connectivity; ignore
		case "assign":
			rest := strings.TrimPrefix(stmt, "assign")
			parts := strings.SplitN(rest, "=", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("verilog: line %d: bad assign %q", lineNo, stmt)
			}
			assigns = append(assigns, [2]string{
				strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]),
			})
		case "and", "or", "xor", "xnor", "not", "buf":
			open := strings.Index(stmt, "(")
			closeIdx := strings.LastIndex(stmt, ")")
			if open < 0 || closeIdx < open {
				return nil, fmt.Errorf("verilog: line %d: bad primitive %q", lineNo, stmt)
			}
			var conns []string
			for _, c := range strings.Split(stmt[open+1:closeIdx], ",") {
				conns = append(conns, strings.TrimSpace(c))
			}
			if len(conns) < 2 {
				return nil, fmt.Errorf("verilog: line %d: primitive needs output and inputs", lineNo)
			}
			gates = append(gates, gateDecl{
				prim: fields[0], out: conns[0], ins: conns[1:], line: lineNo,
			})
		default:
			return nil, fmt.Errorf("verilog: line %d: unsupported statement %q", lineNo, stmt)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if moduleName == "" {
		return nil, fmt.Errorf("verilog: no module declaration")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("verilog: module %s has no inputs", moduleName)
	}

	nl := netlist.New(moduleName)
	nets := make(map[string]netlist.NetID)
	for _, in := range inputs {
		bus := nl.AddInputBus(in.name, in.width)
		for i, id := range bus.Nets {
			nets[fmt.Sprintf("%s[%d]", in.name, i)] = id
		}
	}

	// Resolve constants first, then iterate gates and aliases to a fixed
	// point (the netlist is acyclic, so every pass resolves at least one
	// declaration until done).
	pendingGates := gates
	pendingAssigns := assigns
	for {
		progress := false
		var nextGates []gateDecl
		for _, g := range pendingGates {
			ins := make([]netlist.NetID, 0, len(g.ins))
			ready := true
			for _, name := range g.ins {
				id, ok := nets[name]
				if !ok {
					ready = false
					break
				}
				ins = append(ins, id)
			}
			if !ready {
				nextGates = append(nextGates, g)
				continue
			}
			kind, err := primKind(g.prim, len(ins))
			if err != nil {
				return nil, fmt.Errorf("verilog: line %d: %w", g.line, err)
			}
			if _, dup := nets[g.out]; dup {
				return nil, fmt.Errorf("verilog: line %d: net %q driven twice", g.line, g.out)
			}
			nets[g.out] = nl.AddGate(kind, ins...)
			progress = true
		}
		var nextAssigns [][2]string
		for _, a := range pendingAssigns {
			switch a[1] {
			case "1'b0":
				nets[a[0]] = nl.Const(false)
				progress = true
			case "1'b1":
				nets[a[0]] = nl.Const(true)
				progress = true
			default:
				if id, ok := nets[a[1]]; ok {
					if _, dup := nets[a[0]]; dup {
						return nil, fmt.Errorf("verilog: net %q driven twice", a[0])
					}
					nets[a[0]] = id
					progress = true
				} else {
					nextAssigns = append(nextAssigns, a)
				}
			}
		}
		pendingGates = nextGates
		pendingAssigns = nextAssigns
		if len(pendingGates) == 0 && len(pendingAssigns) == 0 {
			break
		}
		if !progress {
			first := ""
			if len(pendingGates) > 0 {
				first = pendingGates[0].out
			} else if len(pendingAssigns) > 0 {
				first = pendingAssigns[0][0]
			}
			return nil, fmt.Errorf("verilog: %d gates / %d assigns reference undriven nets (first: %q)",
				len(pendingGates), len(pendingAssigns), first)
		}
	}

	for _, out := range outputs {
		ids := make([]netlist.NetID, out.width)
		for i := range ids {
			name := fmt.Sprintf("%s[%d]", out.name, i)
			id, ok := nets[name]
			if !ok {
				return nil, fmt.Errorf("verilog: output bit %s undriven", name)
			}
			ids[i] = id
		}
		nl.MarkOutputBus(out.name, ids)
	}
	if err := nl.Finalize(); err != nil {
		return nil, err
	}
	return nl, nil
}

// parseBusDecl parses `input [7:0] a` / `output [0:0] y`.
func parseBusDecl(stmt string) (name string, width int, err error) {
	fields := strings.Fields(stmt)
	if len(fields) != 3 {
		return "", 0, fmt.Errorf("bad bus declaration %q (want e.g. `input [7:0] a`)", stmt)
	}
	r := fields[1]
	if !strings.HasPrefix(r, "[") || !strings.HasSuffix(r, "]") {
		return "", 0, fmt.Errorf("bad range %q", r)
	}
	parts := strings.Split(r[1:len(r)-1], ":")
	if len(parts) != 2 || parts[1] != "0" {
		return "", 0, fmt.Errorf("bad range %q (want [msb:0])", r)
	}
	msb, err := strconv.Atoi(parts[0])
	if err != nil || msb < 0 {
		return "", 0, fmt.Errorf("bad msb in %q", r)
	}
	return fields[2], msb + 1, nil
}

// primKind maps a Verilog primitive name and input count to a cell kind.
func primKind(prim string, inputs int) (cells.Kind, error) {
	type key struct {
		prim string
		n    int
	}
	kinds := map[key]cells.Kind{
		{"buf", 1}:  cells.Buf,
		{"not", 1}:  cells.Inv,
		{"and", 2}:  cells.And2,
		{"or", 2}:   cells.Or2,
		{"xor", 2}:  cells.Xor2,
		{"xnor", 2}: cells.Xnor2,
	}
	k, ok := kinds[key{prim, inputs}]
	if !ok {
		return 0, fmt.Errorf("unsupported primitive %s with %d inputs", prim, inputs)
	}
	return k, nil
}
