// Command custodysim runs one cluster simulation and prints its metrics.
//
// Example:
//
//	custodysim -nodes 100 -manager custody -workload Sort -jobs 30 -apps 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/custody"
	"repro/internal/metrics"
	"repro/internal/obsv"
)

func main() {
	log.SetFlags(0)
	var (
		nodes    = flag.Int("nodes", 100, "worker nodes in the cluster")
		execs    = flag.Int("executors", 2, "executors per node")
		slots    = flag.Int("slots", 4, "task slots per executor")
		mgr      = flag.String("manager", "custody", "cluster manager: custody | spark | yarn | offer")
		wl       = flag.String("workload", "WordCount", "workload: WordCount | Sort | PageRank")
		apps     = flag.Int("apps", 4, "number of applications")
		jobs     = flag.Int("jobs", 30, "jobs per application")
		arrival  = flag.Float64("arrival", 4.0, "mean job inter-arrival time (s)")
		wait     = flag.Float64("wait", 3.0, "delay-scheduling locality wait (s)")
		seed     = flag.Uint64("seed", 1, "random seed")
		policy   = flag.String("policy", "custody", "allocation policy (custody manager only): custody | quincy | wfair | locmatch")
		spec     = flag.Bool("speculation", false, "enable speculative execution")
		cacheMB  = flag.Int64("cache-mb", 0, "per-node block-cache capacity in MB (0 disables the cache tier)")
		cachePol = flag.String("cache-policy", "lru", "block-cache eviction policy: lru | 2q")
		sched    = flag.String("scheduler", "delay", "task scheduler: delay | delay-taskset | fifo | locality-hard | quincy")
		traceOut = flag.String("trace", "", "write an execution-timeline CSV to this file")
		explain  = flag.String("explain", "", "print the decision chain behind every grant of one job, as app.job (e.g. 0.5)")
		obsvOut  = flag.String("obsv-out", "", "write decision-provenance artifacts to <prefix>.jsonl, <prefix>.csv, <prefix>.om")
		verbose  = flag.Bool("v", false, "print per-workload breakdown")
		mcMode   = flag.Bool("modelcheck", false, "run the model-based checker instead of a simulation")
		mcSeeds  = flag.Int("seeds", 100, "modelcheck: number of seeds to sweep")
		mcCmds   = flag.Int("mc-cmds", 40, "modelcheck: commands per seed")
		mcOut    = flag.String("mc-out", "", "modelcheck: write the minimal reproducer to this .repro file on violation")
		mcServer = flag.Bool("mc-server", false, "modelcheck: drive the custodyd service harness (op log, crash/recovery) instead of the bare driver")
		mcReplay = flag.String("mc-replay", "", "replay a serialized .repro file and exit")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, cliFlags{
		manager: *mgr, scheduler: *sched, workload: *wl, policy: *policy,
		nodes: *nodes, execs: *execs, slots: *slots, apps: *apps, jobs: *jobs,
		arrival: *arrival, wait: *wait,
		cacheMB: *cacheMB, cachePolicy: *cachePol, explain: *explain,
		mcMode: *mcMode, mcServer: *mcServer, mcSeeds: *mcSeeds, mcCmds: *mcCmds,
		mcReplay: *mcReplay, mcOut: *mcOut,
	}); err != nil {
		log.Printf("custodysim: %v (run 'custodysim -h' for usage)", err)
		os.Exit(2)
	}

	if *mcReplay != "" {
		runModelCheckReplay(*mcReplay)
		return
	}
	if *mcMode {
		runModelCheck(*mcSeeds, *mcCmds, *mcOut, *mcServer)
		return
	}

	cfg := custody.Config{
		Nodes:            *nodes,
		ExecutorsPerNode: *execs,
		SlotsPerExecutor: *slots,
		Seed:             *seed,
		Manager:          custody.ManagerName(*mgr),
		Policy:           *policy,
		Scheduler:        *sched,
		LocalityWaitSec:  *wait,
		Speculation:      *spec,
		Trace:            *traceOut != "",
		CacheMB:          *cacheMB,
		CachePolicy:      *cachePol,
	}
	w := custody.Workload{
		Kind:             *wl,
		Apps:             *apps,
		JobsPerApp:       *jobs,
		MeanInterarrival: *arrival,
		Seed:             *seed,
	}

	// Decision provenance: a hub records every Algorithm 1 pick and grant;
	// -obsv-out additionally streams them into JSONL/CSV sinks and writes an
	// OpenMetrics exposition when the run finishes.
	var hub *custody.Observability
	if *explain != "" || *obsvOut != "" {
		hub = custody.NewObservability(0)
		cfg.Obsv = hub
	}
	if *obsvOut != "" {
		hub.AddSink(obsv.NewJSONLSink(create(*obsvOut + ".jsonl")))
		hub.AddSink(obsv.NewCSVSink(create(*obsvOut + ".csv")))
	}

	res, err := custody.Run(cfg, w)
	if err != nil {
		log.Printf("custodysim: %v", err)
		os.Exit(1)
	}
	if hub != nil {
		if err := hub.Close(); err != nil {
			log.Printf("custodysim: provenance sink: %v", err)
			os.Exit(1)
		}
	}
	if *obsvOut != "" {
		f := create(*obsvOut + ".om")
		err := obsv.RenderOpenMetrics(f, res.Collector, hub.Flight, hub.Counts())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Printf("custodysim: %v", err)
			os.Exit(1)
		}
	}
	col := res.Collector
	fmt.Printf("manager=%s workload=%s nodes=%d apps=%d jobs=%d seed=%d\n",
		*mgr, *wl, *nodes, *apps, res.Jobs(), *seed)
	fmt.Printf("  locality (per job):   %s\n", metrics.Summarize(col.LocalityPerJob()))
	fmt.Printf("  job completion (s):   %s\n", metrics.Summarize(col.JobCompletionTimes()))
	fmt.Printf("  input stage (s):      %s\n", metrics.Summarize(col.InputStageTimes()))
	fmt.Printf("  scheduler delay (s):  %s\n", metrics.Summarize(col.SchedulerDelays()))
	fmt.Printf("  perfectly local jobs: %.3f   min-app locality: %.3f   Jain fairness: %.3f\n",
		col.PctLocalJobs(), col.MinAppLocality(), col.JainFairness())
	fmt.Printf("  reallocations=%d migrations=%d offer-rejections=%d\n",
		col.Reallocations, col.ExecutorMigrations, col.OfferRejections)
	if *verbose {
		perApp := col.PerApp()
		names := make([]int, 0, len(perApp))
		for name := range perApp {
			names = append(names, name)
		}
		sort.Ints(names)
		for _, name := range names {
			c := perApp[name]
			fmt.Printf("  app %d: localJobs=%.3f jct=%.2fs\n", name,
				c.PctLocalJobs(), metrics.Summarize(c.JobCompletionTimes()).Mean)
		}
	}
	if *traceOut != "" && res.Trace != nil {
		f := create(*traceOut)
		err := res.Trace.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Printf("custodysim: %v", err)
			os.Exit(1)
		}
		fmt.Printf("  trace: %d events → %s (utilization %.3f)\n",
			len(res.Trace.Events), *traceOut,
			res.Trace.Utilization(cfg.TotalSlots()))
	}
	if *obsvOut != "" {
		d, g := hub.Flight.Dropped()
		fmt.Printf("  provenance: %s.{jsonl,csv,om} (%d rounds, dropped %d decisions / %d grants)\n",
			*obsvOut, hub.Flight.Rounds(), d, g)
	}
	if *explain != "" {
		appID, jobID, err := parseExplain(*explain)
		if err == nil {
			err = hub.Flight.Explain(os.Stdout, appID, jobID)
		}
		if err != nil {
			log.Printf("custodysim: %v", err)
			os.Exit(1)
		}
	}
}

// create opens an output file, exiting on failure.
func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		log.Printf("custodysim: %v", err)
		os.Exit(1)
	}
	return f
}
