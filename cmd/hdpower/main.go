// Command hdpower is the workflow CLI for the Hd power macro-model
// library: list modules, inspect netlists, characterize models, and
// estimate stream power.
//
// Subcommands:
//
//	hdpower modules
//	hdpower stats -module csa-multiplier -width 8
//	hdpower dot -module ripple-adder -width 4 > adder.dot
//	hdpower characterize -module csa-multiplier -width 8 -patterns 8000 \
//	        -enhanced -o csa8.json
//	hdpower estimate -model csa8.json -module csa-multiplier -width 8 \
//	        -data III -n 5000
//	hdpower hddist -data III -width 16 -n 20000
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"

	"hdpower"
	"hdpower/internal/atomicio"
	"hdpower/internal/bdd"
	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/fleet"
	"hdpower/internal/hddist"
	"hdpower/internal/modellib"
	"hdpower/internal/netlist"
	"hdpower/internal/obs"
	"hdpower/internal/regress"
	"hdpower/internal/sim"
	"hdpower/internal/stats"
	"hdpower/internal/stimuli"
	"hdpower/internal/textplot"
	"hdpower/internal/verilog"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "modules":
		err = cmdModules()
	case "stats", "dot", "verilog":
		err = cmdNetlist(os.Args[1], os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "characterize":
		err = cmdCharacterize(os.Args[2:])
	case "estimate":
		err = cmdEstimate(os.Args[2:])
	case "hddist":
		err = cmdHdDist(os.Args[2:])
	case "vcd":
		err = cmdVCD(os.Args[2:])
	case "equiv":
		err = cmdEquiv(os.Args[2:])
	case "library":
		err = cmdLibrary(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "fit":
		err = cmdFit(os.Args[2:])
	case "synthesize":
		err = cmdSynthesize(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hdpower: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdpower: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hdpower <subcommand> [flags]

subcommands:
  modules       list the datapath module catalog
  stats         print netlist statistics for a module instance
  verify        statically lint a module's netlist (loops, floating or
                multiply-driven nets, width mismatches, unreachable gates)
  dot           emit the netlist as Graphviz DOT
  characterize  fit an Hd model and write it as JSON
  estimate      estimate stream power with a stored model
  hddist        analytic vs extracted Hamming-distance distribution
  vcd           dump event-driven waveforms (with glitches) as VCD
  verilog       emit a module as gate-level structural Verilog
  equiv         formally check two catalog modules for equivalence (BDD)
  show          pretty-print a stored model's coefficient table
  library       list the models stored in a library directory
  fit           characterize prototype widths and fit a width-regression model
  synthesize    produce a model for any width from a fitted regression`)
	os.Exit(2)
}

func cmdModules() error {
	for _, name := range dwlib.Names() {
		mod, err := dwlib.Lookup(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-26s %s\n", mod.Name, mod.Description)
	}
	return nil
}

func moduleFlags(fs *flag.FlagSet) (*string, *int) {
	module := fs.String("module", "", "catalog module name")
	width := fs.Int("width", 8, "operand width")
	return module, width
}

// cmdNetlist runs stats, dot or verilog (name): it builds the module
// instance the flags name and writes it to stdout.
func cmdNetlist(name string, args []string) error {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	module, width := moduleFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	nl, err := hdpower.Build(*module, *width)
	switch {
	case err != nil:
		return err
	case name == "stats":
		_, err = fmt.Println(nl.Stats())
		return err
	case name == "dot":
		return nl.WriteDOT(os.Stdout)
	}
	return verilog.Write(os.Stdout, nl)
}

// cmdVerify runs the static netlist linter (internal/netlist Verify)
// over one module instance or the whole catalog. -inject deliberately
// breaks the netlist first — the same surgery the chaos tests use — so
// the linter's rejection path can be demonstrated from the command line.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	module, width := moduleFlags(fs)
	all := fs.Bool("all", false, "verify every catalog module at -width")
	inject := fs.String("inject", "", "break the netlist first: loop | multidrive")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := []string{*module}
	if *all {
		names = dwlib.Names()
	} else if *module == "" {
		return fmt.Errorf("verify: -module or -all required")
	}
	failed := 0
	for _, name := range names {
		mod, err := dwlib.LookupWidth(name, *width)
		if err != nil {
			if !*all {
				return err
			}
			fmt.Printf("%s-%d: skipped: %v\n", name, *width, err)
			continue
		}
		// Build without finalizing: Verify's subject matter includes
		// netlists Finalize would reject.
		nl := mod.Build(*width)
		switch *inject {
		case "":
		case "loop":
			nl.RewireGateInput(0, 0, nl.GateOutput(0))
		case "multidrive":
			nl.RedriveGateOutput(1, nl.GateOutput(0))
		default:
			return fmt.Errorf("verify: unknown -inject %q (want loop or multidrive)", *inject)
		}
		diags := nl.Verify()
		errs := 0
		for _, d := range diags {
			if d.Severity == netlist.SevError {
				errs++
			}
			fmt.Printf("%s-%d: %s\n", name, *width, d)
		}
		if errs > 0 {
			failed++
		} else if *all || len(diags) == 0 {
			fmt.Printf("%s-%d: ok (%d gates, %d warning(s))\n",
				name, *width, nl.NumGates(), len(diags))
		}
	}
	if failed > 0 {
		return fmt.Errorf("verify: %d module(s) failed", failed)
	}
	return nil
}

func cmdCharacterize(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ExitOnError)
	module, width := moduleFlags(fs)
	patterns := fs.Int("patterns", 5000, "characterization pairs")
	enhanced := fs.Bool("enhanced", false, "also fit the enhanced (stable-zero) classes")
	zclusters := fs.Int("zclusters", 0, "cluster the stable-zero axis into N buckets (0 = full)")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "simulation worker goroutines (0 = all CPUs); results are identical for any value")
	out := fs.String("o", "", "output file (default stdout)")
	libDir := fs.String("library", "", "also store the model in this library directory")
	traceOut := fs.String("trace", "", "write the run's flight-recorder manifest (JSON) to this file")
	logFormat := fs.String("log-format", "", "structured progress log on stderr: text or json (off when empty)")
	ckptDir := fs.String("checkpoint", "", "checkpoint the run's merged state into this directory (crash-safe)")
	resume := fs.Bool("resume", false, "resume from the checkpoint left by an interrupted identical run")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint interval in merged shards (0 = default 16)")
	backendName := fs.String("backend", "bitparallel", "simulation backend: bitparallel (64 pattern pairs per pass) or event (golden event-driven reference)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := core.ParseBackendKind(*backendName); err != nil {
		return err
	}
	if !obs.ValidLogFormat(*logFormat) {
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint DIR to know where the checkpoint lives")
	}
	// The job is the build's one recipe, the one hdserve builds too: its
	// netlist, run name, options and checkpoint file, so either tool
	// resumes the other's checkpoint and writes the same model.
	job := fleet.JobSpec{Module: *module, Width: *width, Seed: *seed, Patterns: *patterns,
		Enhanced: *enhanced, ZClusters: *zclusters, Backend: *backendName}
	opt := job.Options()
	opt.Workers = *workers
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
		opt.Checkpoint = core.CheckpointOptions{
			Path:        job.CheckpointPath(*ckptDir),
			EveryShards: *ckptEvery,
			Resume:      *resume,
		}
		opt.Hooks = core.JoinHooks(opt.Hooks, &core.Hooks{
			Resumed: func(phase string, shards, _, _ int) {
				fmt.Fprintf(os.Stderr, "resumed from checkpoint: phase %s, %d shards already merged\n",
					phase, shards)
			},
		})
	}
	var rec *core.RunRecorder
	if *traceOut != "" {
		rec = core.NewRunRecorder(job.Name(), opt)
		opt.Hooks = core.JoinHooks(opt.Hooks, rec.Hooks())
	}
	if *logFormat != "" {
		logger := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
		opt.Hooks = core.JoinHooks(opt.Hooks, progressLogHooks(logger))
	}
	model, err := job.Characterize(opt)
	if rec != nil {
		// The manifest is written even when the run fails: a failed run's
		// flight record is the one worth keeping.
		man := rec.Finish(model, err)
		man.Width = *width
		if werr := atomicio.WriteJSON(*traceOut, man); werr != nil {
			if err == nil {
				err = werr
			} else {
				fmt.Fprintf(os.Stderr, "hdpower: %v\n", werr)
			}
		}
	}
	if err != nil {
		return err
	}
	if *libDir != "" {
		lib, err := modellib.Open(*libDir)
		if err != nil {
			return err
		}
		if err := lib.PutModel(*module, *width, model); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "stored in library %s\n", *libDir)
	}
	return writeJSONOutput(*out, model)
}

// writeJSONOutput marshals v as indented JSON to stdout (empty path) or
// to a file through atomicio.WriteOutput, so an interrupted run leaves a
// regular file's previous model intact, a FIFO or device is written in
// place, and either carries a checksum trailer; atomicio.ReadFile-based
// loaders verify it and plain JSON parsers still work because the
// trailer is a trailing comment-style line they never reach (loads here
// always strip it first).
func writeJSONOutput(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path != "" {
		return atomicio.WriteOutput(path, data)
	}
	_, err = os.Stdout.Write(data)
	return err
}

// readJSONInput loads a JSON artifact written by writeJSONOutput (or by
// hand): checksummed files are verified, legacy trailer-less files load
// as-is.
func readJSONInput(path string) ([]byte, error) {
	raw, err := atomicio.ReadFile(path)
	if err != nil && !errors.Is(err, atomicio.ErrNoChecksum) {
		return nil, err
	}
	return raw, nil
}

// progressLogHooks turns the characterization hook stream into structured
// progress records: phase transitions and convergence checkpoints.
func progressLogHooks(logger *slog.Logger) *core.Hooks {
	return &core.Hooks{
		PhaseStart: func(phase string, shards, patterns int) {
			logger.Info("phase start", "phase", phase, "shards", shards, "patterns", patterns)
		},
		PhaseEnd: func(phase string) { logger.Info("phase end", "phase", phase) },
		Convergence: func(patterns int, worst float64) {
			// The first checkpoint has no predecessor to diff against and
			// reports +Inf, which JSON handlers cannot encode.
			if math.IsInf(worst, 1) {
				logger.Info("convergence", "patterns", patterns, "worst_change", "first checkpoint")
				return
			}
			logger.Info("convergence", "patterns", patterns, "worst_change", worst)
		},
	}
}

func cmdEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	module, width := moduleFlags(fs)
	modelPath := fs.String("model", "", "model JSON file from `characterize`")
	libDir := fs.String("library", "", "resolve the model from this library (instance or regression)")
	data := fs.String("data", "I", "data type: I, II, III, IV, V")
	n := fs.Int("n", 5000, "stream length")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var model *core.Model
	switch {
	case *modelPath != "":
		raw, err := readJSONInput(*modelPath)
		if err != nil {
			return err
		}
		if model, err = core.LoadModel(raw); err != nil {
			return err
		}
	case *libDir != "":
		lib, err := modellib.Open(*libDir)
		if err != nil {
			return err
		}
		var synthesized bool
		model, synthesized, err = lib.Model(*module, *width, false)
		if err != nil {
			return err
		}
		if synthesized {
			fmt.Fprintf(os.Stderr, "using width-regression synthesis for %s width %d\n",
				*module, *width)
		}
	default:
		return fmt.Errorf("estimate needs -model or -library")
	}
	nl, words, err := operandWords(*module, *width, *data, *n, *seed)
	if err != nil {
		return err
	}
	report, err := hdpower.Estimate(model, nl, words)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func cmdHdDist(args []string) error {
	fs := flag.NewFlagSet("hddist", flag.ExitOnError)
	data := fs.String("data", "III", "data type: I, II, III, IV, V")
	width := fs.Int("width", 16, "word width")
	n := fs.Int("n", 20000, "stream length")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dt, err := parseDataType(*data)
	if err != nil {
		return err
	}
	if *width < 1 || *width > 64 {
		return fmt.Errorf("hddist needs -width in 1..64, got %d", *width)
	}
	words := stimuli.Take(stimuli.NewStream(dt, *width, *seed), *n)
	extracted, err := hddist.FromWords(words)
	if err != nil {
		return err
	}
	ws, err := stats.FromWords(words)
	if err != nil {
		return err
	}
	analytic := hddist.FromWordStats(ws, *width)
	xs := make([]float64, *width+1)
	for i := range xs {
		xs[i] = float64(i)
	}
	fmt.Print(textplot.Chart(
		fmt.Sprintf("Hd distribution, data type %s, %d bits", dt, *width),
		"Hd", xs, []textplot.Series{
			{Name: "extracted", Y: extracted},
			{Name: "analytic (eq. 18)", Y: analytic},
		}, 64, 14))
	tv, err := extracted.TotalVariation(analytic)
	if err != nil {
		return err
	}
	bp := stats.ComputeBreakpoints(ws, *width)
	fmt.Printf("\nword stats: mean %.1f std %.1f rho %.3f | BP0 %d BP1 %d | TV %.3f\n",
		ws.Mean, ws.Std, ws.Rho, bp.BP0, bp.BP1, tv)
	return nil
}

func cmdVCD(args []string) error {
	fs := flag.NewFlagSet("vcd", flag.ExitOnError)
	module, width := moduleFlags(fs)
	data := fs.String("data", "I", "data type: I, II, III, IV, V")
	n := fs.Int("n", 16, "number of cycles to dump")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nl, words, err := operandWords(*module, *width, *data, *n, *seed)
	if err != nil {
		return err
	}
	return sim.DumpVCD(os.Stdout, nl, words, 0)
}

// operandWords is the set-up estimate and vcd share: a module instance
// and the n+1 words of a data-type stream on its operand ports, which
// drive it for n cycles. Only random words (type I) come wider than 64
// bits.
func operandWords(module string, width int, data string, n int, seed int64) (*netlist.Netlist, []hdpower.Word, error) {
	dt, err := parseDataType(data)
	if err != nil {
		return nil, nil, err
	}
	if width > 64 && dt != stimuli.TypeRandom {
		return nil, nil, fmt.Errorf("data type %s needs operands of at most 64 bits, got %d", dt, width)
	}
	nl, err := hdpower.Build(module, width)
	if err != nil {
		return nil, nil, err
	}
	ports := 1
	if mod, _ := dwlib.Lookup(module); mod.TwoOperand { // Build found it
		ports = 2
	}
	return nl, hdpower.TakeWords(hdpower.OperandStream(dt, width, ports, seed), n+1), nil
}

func cmdEquiv(args []string) error {
	fs := flag.NewFlagSet("equiv", flag.ExitOnError)
	a := fs.String("a", "", "first catalog module")
	b := fs.String("b", "", "second catalog module")
	width := fs.Int("width", 8, "operand width")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nlA, err := hdpower.Build(*a, *width)
	if err != nil {
		return err
	}
	nlB, err := hdpower.Build(*b, *width)
	if err != nil {
		return err
	}
	eq, cex, err := bdd.Equivalent(nlA, nlB)
	if err != nil {
		return err
	}
	if eq {
		fmt.Printf("EQUIVALENT: %s and %s at width %d compute the same functions\n",
			*a, *b, *width)
		return nil
	}
	fmt.Printf("NOT EQUIVALENT: differ on bus %s bit %d for input %v\n",
		cex.Bus, cex.Bit, cex.Assignment)
	return nil
}

func parseDataType(s string) (stimuli.DataType, error) {
	for _, dt := range stimuli.AllDataTypes() {
		if dt.String() == s {
			return dt, nil
		}
	}
	return 0, fmt.Errorf("unknown data type %q (want I..V)", s)
}

func cmdFit(args []string) error {
	fs := flag.NewFlagSet("fit", flag.ExitOnError)
	module := fs.String("module", "", "catalog module name")
	set := fs.String("set", "ALL", "prototype set: ALL, SEC, THI")
	patterns := fs.Int("patterns", 5000, "characterization pairs per prototype")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "simulation worker goroutines (0 = all CPUs); results are identical for any value")
	out := fs.String("o", "", "output file (default stdout)")
	libDir := fs.String("library", "", "also store the regression in this library directory")
	traceDir := fs.String("trace", "", "write one flight-recorder manifest per prototype into this directory")
	backendName := fs.String("backend", "bitparallel", "simulation backend: bitparallel (64 pattern pairs per pass) or event (golden event-driven reference)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := core.ParseBackendKind(*backendName); err != nil {
		return err
	}
	if _, err := dwlib.Lookup(*module); err != nil {
		return err
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
	}
	widths := regress.PrototypeSet(*set).Widths()
	if widths == nil {
		return fmt.Errorf("unknown prototype set %q (want ALL, SEC, THI)", *set)
	}
	var protos []regress.Prototype
	for _, w := range widths {
		job := fleet.JobSpec{Module: *module, Width: w, Seed: *seed + int64(w), Patterns: *patterns, Backend: *backendName}
		opt := job.Options()
		opt.Workers = *workers
		var rec *core.RunRecorder
		if *traceDir != "" {
			rec = core.NewRunRecorder(job.Name(), opt)
			opt.Hooks = rec.Hooks()
		}
		model, err := job.Characterize(opt)
		if rec != nil {
			man := rec.Finish(model, err)
			man.Width = w
			path := filepath.Join(*traceDir, job.Name()+".manifest.json")
			if werr := atomicio.WriteJSON(path, man); werr != nil {
				fmt.Fprintf(os.Stderr, "hdpower: %v\n", werr)
			}
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "characterized %s width %d (%d input bits)\n",
			*module, w, model.InputBits)
		protos = append(protos, regress.Prototype{Width: w, Model: model})
	}
	pm, err := regress.Fit(*module, protos, regress.BasisFor(*module))
	if err != nil {
		return err
	}
	if *libDir != "" {
		lib, err := modellib.Open(*libDir)
		if err != nil {
			return err
		}
		if err := lib.PutParam(pm); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "stored regression in library %s\n", *libDir)
	}
	return writeJSONOutput(*out, pm)
}

func cmdSynthesize(args []string) error {
	fs := flag.NewFlagSet("synthesize", flag.ExitOnError)
	paramPath := fs.String("param", "", "parameterized model JSON from `fit`")
	width := fs.Int("width", 8, "operand width to synthesize")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *width < 1 {
		return fmt.Errorf("-width %d: want at least 1", *width)
	}
	raw, err := readJSONInput(*paramPath)
	if err != nil {
		return err
	}
	pm, err := regress.LoadParamModel(raw)
	if err != nil {
		return err
	}
	return writeJSONOutput(*out, pm.Synthesize(*width))
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	modelPath := fs.String("model", "", "model JSON file from characterize")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := readJSONInput(*modelPath)
	if err != nil {
		return err
	}
	model, err := core.LoadModel(raw)
	if err != nil {
		return err
	}
	fmt.Print(model.Report())
	return nil
}

func cmdLibrary(args []string) error {
	fs := flag.NewFlagSet("library", flag.ExitOnError)
	dir := fs.String("dir", "", "library directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lib, err := modellib.Open(*dir)
	if err != nil {
		return err
	}
	entries, err := lib.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("(library is empty)")
		return nil
	}
	for _, e := range entries {
		kind := "basic"
		if e.Enhanced {
			kind = "enhanced"
		}
		fmt.Printf("%-26s width %3d  %s\n", e.Module, e.Width, kind)
	}
	return nil
}
