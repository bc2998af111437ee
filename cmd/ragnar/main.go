// Command ragnar regenerates the paper's tables and figures by id.
//
// Usage:
//
//	ragnar [-nic cx4|cx5|cx6] [-full] [-seed N] <experiment> [...]
//	ragnar [-nic cx4|cx5|cx6] [-full] [-seed N] all
//
// Run it without arguments to list the experiments.
//
// The trace subcommand re-runs an experiment rig with the flight recorder
// attached and exports the event stream:
//
//	ragnar trace [-o out.json] [-text] <rig>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"github.com/thu-has/ragnar/internal/experiments"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/trace"
)

func main() {
	p := experiments.DefaultParams()
	nicName := flag.String("nic", p.Profile.Name, "adapter for single-NIC experiments (cx4, cx5, cx6, cx5-iso)")
	flag.BoolVar(&p.Full, "full", p.Full, "run paper-scale parameter spaces (slower)")
	flag.Int64Var(&p.Seed, "seed", p.Seed, "deterministic seed")
	flag.IntVar(&p.Workers, "workers", runtime.NumCPU(), "worker goroutines for sweeps (1 = sequential; results are identical at any count)")
	flag.IntVar(&p.PerClass, "perclass", p.PerClass, "CNN side-channel traces per class (paper: ~395)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of rendered tables")
	flag.Parse()
	if p.Workers <= 0 {
		fmt.Fprintf(os.Stderr, "ragnar: -workers %d invalid, using %d\n", p.Workers, runtime.GOMAXPROCS(0))
		p.Workers = runtime.GOMAXPROCS(0)
	}

	var names []string
	for _, e := range experiments.Registry {
		names = append(names, e.Name)
	}
	if flag.NArg() == 0 {
		fmt.Fprintf(os.Stderr, "usage: ragnar [flags] <%s|all>\n", strings.Join(names, "|"))
		fmt.Fprintf(os.Stderr, "       ragnar [flags] trace [-o out.json] [-text] <%s>\n", strings.Join(experiments.TraceRigs, "|"))
		flag.PrintDefaults()
		os.Exit(2)
	}
	prof, ok := nic.ProfileByName(*nicName)
	if !ok {
		fatalf("unknown NIC %q (available: %s)", *nicName, strings.Join(nic.ProfileNames(), ", "))
	}
	p.Profile = prof

	if flag.Arg(0) == "trace" {
		if err := runTrace(flag.Args()[1:], prof, p.Seed, os.Stdout); err != nil {
			fatalf("trace: %v", err)
		}
		return
	}

	exps := experiments.Registry
	if args := flag.Args(); len(args) != 1 || args[0] != "all" {
		exps = nil
		for _, name := range args {
			e, ok := experiments.Lookup(name)
			if !ok {
				fatalf("%s: unknown experiment (try %s all)", name, strings.Join(names, " "))
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		r, err := e.Run(p)
		if err == nil {
			err = emit(r, *jsonOut)
		}
		if err != nil {
			fatalf("%s: %v", e.Name, err)
		}
	}
}

// emit prints a result either rendered or as JSON.
func emit(r experiments.Result, asJSON bool) error {
	if !asJSON {
		_, err := fmt.Print(r.Render())
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// runTrace handles the trace subcommand: run one experiment rig with the
// flight recorder attached, then export Chrome trace JSON (default) or the
// text timeline. Without -o, JSON goes to trace.json and the text timeline
// to stdout. A summary of the run and the metrics digest go to stderr so
// stdout stays machine-readable.
func runTrace(argv []string, prof nic.Profile, seed int64, stdout io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "", "output path, - for stdout (default trace.json, or stdout with -text)")
	text := fs.Bool("text", false, "emit the text timeline instead of Chrome JSON")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: ragnar trace [-o out.json] [-text] <%s>", strings.Join(experiments.TraceRigs, "|"))
	}
	if *out == "" {
		*out = "trace.json"
		if *text {
			*out = "-"
		}
	}
	o, err := experiments.Trace(fs.Arg(0), prof, seed)
	if err != nil {
		return err
	}
	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *text {
		err = o.WriteText(w)
	} else {
		err = o.WriteChrome(w)
	}
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, o.Summary)
	fmt.Fprint(os.Stderr, trace.Summary(o.Recorder))
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "trace: %d events (%d dropped by ring) -> %s\n",
			o.Recorder.Len(), o.Recorder.Dropped(), *out)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ragnar: "+format+"\n", args...)
	os.Exit(1)
}
