// Command custodyperf runs the repository benchmark: one workload per
// process, a closed loop with one caller, no goroutines of its own.
//
//	custodyperf -workload paper-grid -seed 1 [-seconds 10] [-trace 0|1] [-json out.json]
//	custodyperf -workload all -runs 5 -json base.json      # five seeds per workload, one process each
//	custodyperf -compare base.json new.json                # rate a change against its parent
//
// A run prints every metric with its unit, the output digest, and as its
// last line a JSON object {"correct","attempted","failed","metrics"}. It
// exits 1 when an output check fails and 2 on bad flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/bench"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("custodyperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run, or all with -runs")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measuring budget in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory the run writes service state and trace files under")
	jsonOut := fs.String("json", "", "also write the runs as JSON to this file")
	runs := fs.Int("runs", 0, "run each workload this many times, seeds seed..seed+runs-1, and summarize")
	compare := fs.String("compare", "", "parent runs file; the change's runs file is the first argument")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "custodyperf: "+format+" (run 'custodyperf -h' for usage)\n", a...)
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return usage("-compare needs the parent's file as its value and the change's file as the argument")
		}
		return compareFiles(*compare, fs.Arg(0))
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %v", fs.Args())
	case *workload == "":
		return usage("-workload is required")
	case !known(*workload):
		return usage("unknown -workload %q", *workload)
	case *trace != 0 && *trace != 1:
		return usage("-trace must be 0 or 1, got %d", *trace)
	case *seconds <= 0:
		return usage("-seconds must be positive")
	case *runs < 0:
		return usage("-runs must not be negative")
	}
	opts := bench.Options{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Dir: *dir}
	if *runs > 0 {
		return repeat(opts, *runs, *jsonOut)
	}
	if *workload == "all" {
		return usage("-workload all needs -runs")
	}
	res, err := bench.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "custodyperf: %s: %v\n", *workload, err)
		return 1
	}
	if *jsonOut != "" {
		if err := bench.WriteRunSet(*jsonOut, &bench.RunSet{Runs: []bench.Result{*res}}); err != nil {
			fmt.Fprintf(os.Stderr, "custodyperf: %v\n", err)
			return 1
		}
	}
	report(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func known(name string) bool {
	for _, w := range bench.Workloads {
		if w.Name == name {
			return true
		}
	}
	return name == "all"
}

// report prints the run; the JSON object must stay the last line.
func report(res *bench.Result) {
	tab := bench.EndToEnd
	if res.Trace {
		tab = bench.Layers
	}
	for _, m := range tab {
		v := res.Metrics[m.Name]
		fmt.Printf("%-32s %.6g %s\n", m.Name, v.Value, v.Unit)
	}
	fmt.Printf("%-32s %s\n", "output_digest", res.Digest)
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	line, err := json.Marshal(res.Line())
	if err != nil {
		fmt.Fprintf(os.Stderr, "custodyperf: %v\n", err)
		return
	}
	fmt.Println(string(line))
}

// repeat runs every requested workload n times, each in a fresh process of
// this binary with its own seed, and prints the summary.
func repeat(opts bench.Options, n int, jsonOut string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "custodyperf: %v\n", err)
		return 1
	}
	names := []string{opts.Workload}
	if opts.Workload == "all" {
		names = names[:0]
		for _, w := range bench.Workloads {
			names = append(names, w.Name)
		}
	}
	tmp := filepath.Join(opts.Dir, "runs")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "custodyperf: %v\n", err)
		return 1
	}
	var set bench.RunSet
	code := 0
	for _, w := range names {
		for i := 0; i < n; i++ {
			seed := opts.Seed + uint64(i)
			out := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w, seed))
			trace := "0"
			if opts.Trace {
				trace = "1"
			}
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(opts.Seconds, 'g', -1, 64), "-trace", trace,
				"-dir", opts.Dir, "-json", out)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "custodyperf: %s seed %d: %v\n", w, seed, err)
				code = 1
			}
			rs, err := bench.ReadRunSet(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "custodyperf: %v\n", err)
				code = 1
				continue
			}
			set.Runs = append(set.Runs, rs.Runs...)
		}
	}
	fmt.Print(bench.Summarize(set.Runs))
	if jsonOut != "" {
		if err := bench.WriteRunSet(jsonOut, &set); err != nil {
			fmt.Fprintf(os.Stderr, "custodyperf: %v\n", err)
			return 1
		}
	}
	return code
}

func compareFiles(basePath, curPath string) int {
	base, err := bench.ReadRunSet(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "custodyperf: %v\n", err)
		return 1
	}
	cur, err := bench.ReadRunSet(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "custodyperf: %v\n", err)
		return 1
	}
	table, bad := bench.Compare(base.Runs, cur.Runs)
	fmt.Print(table)
	if bad {
		return 1
	}
	return 0
}
