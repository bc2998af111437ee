// Command rebench runs the reverse-engineering microbenchmarks directly:
// Grain-I/II contention pairs and Grain-III/IV ULI sweeps with custom
// parameters — the exploratory tool behind Section IV.
//
// Usage examples:
//
//	rebench -nic cx5 pair -aop write -asize 64 -aqp 4 -bop read -bsize 1024 -bqp 2
//	rebench -nic cx4 offsets -size 64 -from 0 -to 4096 -step 8
//	rebench -nic cx4 linearity
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/revengine"
	"github.com/thu-has/ragnar/internal/uli"
)

func main() {
	nicName := flag.String("nic", "cx4", "adapter (cx4, cx5, cx6, cx5-iso)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines for sweeps (1 = sequential; results are identical at any count)")
	flag.Parse()
	if *workers <= 0 {
		fmt.Fprintf(os.Stderr, "rebench: -workers %d invalid, using %d\n", *workers, runtime.GOMAXPROCS(0))
		*workers = runtime.GOMAXPROCS(0)
	}
	prof, ok := nic.ProfileByName(*nicName)
	if !ok {
		fatalf("unknown NIC %q (available: %s)", *nicName, strings.Join(nic.ProfileNames(), ", "))
	}
	if flag.NArg() == 0 {
		fatalf("usage: rebench [flags] <pair|offsets|reloffsets|intermr|linearity>")
	}
	cmd, rest := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "pair":
		err = pair(prof, rest)
	case "offsets":
		err = offsets(prof, rest, *seed, false, *workers)
	case "reloffsets":
		err = offsets(prof, rest, *seed, true, *workers)
	case "intermr":
		err = interMR(prof, rest, *seed, *workers)
	case "linearity":
		err = linearity(prof)
	default:
		err = fmt.Errorf("unknown subcommand %q", cmd)
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func pair(prof nic.Profile, args []string) error {
	fs := flag.NewFlagSet("pair", flag.ExitOnError)
	aop := fs.String("aop", "write", "inducer opcode (write/read/send/atomic)")
	asize := fs.Int("asize", 64, "inducer message bytes")
	aqp := fs.Int("aqp", 4, "inducer QP count")
	bop := fs.String("bop", "read", "indicator opcode")
	bsize := fs.Int("bsize", 1024, "indicator message bytes")
	bqp := fs.Int("bqp", 2, "indicator QP count")
	rev := fs.Bool("reverse", false, "indicator posted from the server")
	fs.Parse(args)

	aOp, err := parseOp(*aop)
	if err != nil {
		return err
	}
	bOp, err := parseOp(*bop)
	if err != nil {
		return err
	}
	a := nic.FlowSpec{Name: "inducer", Op: aOp, MsgBytes: *asize, QPNum: *aqp, Client: 0}
	b := nic.FlowSpec{Name: "indicator", Op: bOp, MsgBytes: *bsize, QPNum: *bqp, Client: 1, FromServer: *rev}
	soloA, soloB := nic.Solo(prof, a), nic.Solo(prof, b)
	res := nic.Solve(prof, []nic.FlowSpec{a, b})
	fmt.Printf("%s\n", prof.Name)
	fmt.Printf("inducer   %6s %6dB qp%d: solo %7.2f Gbps, contended %7.2f Gbps (%+.0f%%)\n",
		a.Op, a.MsgBytes, a.QPNum, soloA.GoodputGbps, res[0].GoodputGbps, -nic.ReductionPct(soloA, res[0]))
	fmt.Printf("indicator %6s %6dB qp%d: solo %7.2f Gbps, contended %7.2f Gbps (%+.0f%%)\n",
		b.Op, b.MsgBytes, b.QPNum, soloB.GoodputGbps, res[1].GoodputGbps, -nic.ReductionPct(soloB, res[1]))
	return nil
}

// parseOp maps a -aop/-bop value onto its opcode.
func parseOp(s string) (nic.Opcode, error) {
	switch s {
	case "write":
		return nic.OpWrite, nil
	case "read":
		return nic.OpRead, nil
	case "send":
		return nic.OpSend, nil
	case "atomic":
		return nic.OpAtomicFAA, nil
	}
	return 0, fmt.Errorf("unknown opcode %q (want write, read, send or atomic)", s)
}

// maxOffsets bounds one sweep; every offset is a full probe run.
const maxOffsets = 1 << 20

// offsetList is the sweep axis from, from+step, ... up to to, without 0 in
// a relative sweep. The count is computed before the loop, so a range that
// ends near 2^64 cannot wrap around.
func offsetList(from, to, step uint64, relative bool) ([]uint64, error) {
	if step == 0 {
		return nil, errors.New("-step must be positive")
	}
	if to < from {
		return nil, fmt.Errorf("-from %d is past -to %d", from, to)
	}
	last := (to - from) / step
	if last >= maxOffsets {
		return nil, fmt.Errorf("-from %d -to %d -step %d spans more than %d offsets", from, to, step, maxOffsets)
	}
	offs := make([]uint64, 0, last+1)
	for i := uint64(0); i <= last; i++ {
		if o := from + i*step; o != 0 || !relative {
			offs = append(offs, o)
		}
	}
	return offs, nil
}

func offsets(prof nic.Profile, args []string, seed int64, relative bool, workers int) error {
	fs := flag.NewFlagSet("offsets", flag.ExitOnError)
	size := fs.Int("size", 64, "read size")
	from := fs.Uint64("from", 0, "first offset")
	to := fs.Uint64("to", 4096, "last offset")
	step := fs.Uint64("step", 8, "offset step")
	probes := fs.Int("probes", 300, "probes per offset")
	fs.Parse(args)

	offs, err := offsetList(*from, *to, *step, relative)
	if err != nil {
		return err
	}
	var points []revengine.OffsetPoint
	if relative {
		points, err = revengine.RelOffsetSweep(prof, *size, offs, *probes, seed, workers)
	} else {
		points, err = revengine.AbsOffsetSweep(prof, *size, offs, *probes, seed, workers)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: ULI vs %s offset, %dB reads\n", prof.Name, mode(relative), *size)
	for _, pt := range points {
		fmt.Printf("%8d %10.1f [%8.1f, %8.1f]\n", pt.Offset, pt.Trace.Mean, pt.Trace.P10, pt.Trace.P90)
	}
	return nil
}

func mode(rel bool) string {
	if rel {
		return "relative"
	}
	return "absolute"
}

func interMR(prof nic.Profile, args []string, seed int64, workers int) error {
	fs := flag.NewFlagSet("intermr", flag.ExitOnError)
	probes := fs.Int("probes", 300, "probes per point")
	fs.Parse(args)
	points, err := revengine.InterMRSweep(prof, []int{64, 128, 256, 512, 1024, 2048, 4096}, *probes, seed, workers)
	if err != nil {
		return err
	}
	fmt.Printf("%s: ULI same vs different remote MR\n", prof.Name)
	for _, pt := range points {
		fmt.Printf("%6dB same %8.1f diff %8.1f (+%.1f ns)\n",
			pt.MsgSize, pt.SameMR.Mean, pt.DiffMR.Mean, pt.DiffMR.Mean-pt.SameMR.Mean)
	}
	return nil
}

func linearity(prof nic.Profile) error {
	c := lab.New(lab.DefaultConfig(prof))
	mr, err := c.RegisterServerMR(2 << 20)
	if err != nil {
		return err
	}
	mk := func(depth int) *uli.Prober {
		conn, err := c.Dial(0, depth+2)
		if err != nil {
			fatalf("%v", err)
		}
		if err := c.Warm(conn, mr); err != nil {
			fatalf("%v", err)
		}
		return &uli.Prober{QP: conn.QP, CQ: conn.CQ, Remote: mr.Describe(0), MsgSize: 1024, Depth: depth}
	}
	rep, err := uli.VerifyLinearity(c.Eng, mk, []int{4, 8, 16, 32, 64, 128, 256}, 120)
	if err != nil {
		return err
	}
	fmt.Printf("%s: Lat_total = k*(len_sq+1) + C\n", prof.Name)
	for i, d := range rep.Depths {
		fmt.Printf("depth %4d: %10.0f ns\n", d, rep.MeanLat[i])
	}
	fmt.Printf("k = %.1f ns, C = %.1f ns, Pearson = %.5f (paper: 0.9998)\n", rep.K, rep.C, rep.Pearson)
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rebench: "+format+"\n", args...)
	os.Exit(1)
}
