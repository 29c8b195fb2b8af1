// Command custodybench regenerates the paper's tables and figures
// (Figures 7–10 of the evaluation) and the ablation studies listed in
// DESIGN.md.
//
// Examples:
//
//	custodybench -fig all            # the full §VI evaluation grid
//	custodybench -fig 7 -quick       # fast, shrunken workload
//	custodybench -fig approx         # ablation A1 (2-approx vs optimal)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		fig     = flag.String("fig", "all", figUsage())
		quick   = flag.Bool("quick", false, "shrink the workload (6 jobs/app) for fast runs")
		seed    = flag.Uint64("seed", 1, "random seed")
		repeats = flag.Int("repeats", 1, "pool results over this many seeds (figures 7-10 only)")
		bars    = flag.Bool("bars", false, "render figures as ASCII bar charts")
		mdOut   = flag.String("md", "", "also write a Markdown report of the figure sweep to this file")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, *fig, *repeats); err != nil {
		log.Printf("custodybench: %v (run 'custodybench -h' for usage)", err)
		os.Exit(2)
	}

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	opts.Quick = *quick
	opts.Repeats = *repeats

	if sweepFigs[*fig] {
		sw, err := experiments.RunSweep(experiments.PaperSizes, workload.Kinds(),
			[]experiments.ManagerKind{experiments.Standalone, experiments.Custody}, opts)
		if err != nil {
			fail(err)
		}
		if *mdOut != "" {
			f, ferr := os.Create(*mdOut)
			if ferr != nil {
				fail(ferr)
			}
			werr := experiments.WriteMarkdownReport(f, sw)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fail(werr)
			}
			fmt.Printf("markdown report written to %s\n", *mdOut)
		}
		render := func(t experiments.Table) string {
			if *bars {
				return t.RenderBars()
			}
			return t.Render()
		}
		switch *fig {
		case "7":
			fmt.Println(render(sw.Fig7()))
		case "8":
			fmt.Println(render(sw.Fig8()))
		case "9":
			fmt.Println(render(sw.Fig9()))
		case "10":
			fmt.Println(render(sw.Fig10()))
		default:
			fmt.Println(render(sw.Fig7()))
			fmt.Println(render(sw.Fig8()))
			fmt.Println(render(sw.Fig9()))
			fmt.Println(render(sw.Fig10()))
			fmt.Printf("headline: avg locality gain %.2f%% (paper: +36.9%%), avg JCT gain %.2f%% (paper: −4.9%% JCT)\n",
				sw.Fig7().AverageGain(), sw.Fig8().AverageGain())
		}
		return
	}

	out, err := ablations[*fig](opts)
	if err != nil {
		fail(err)
	}
	fmt.Println(out)
}

func fail(err error) {
	log.Printf("custodybench: %v", err)
	os.Exit(1)
}

// ablations maps each single-study -fig name to the study that prints it.
// Validation and the usage text read its keys, so every accepted name has a
// runner.
var ablations = map[string]func(experiments.Options) (string, error){
	"approx": func(o experiments.Options) (string, error) {
		n := 200
		if o.Quick {
			n = 40
		}
		return experiments.RunApprox(n, o.Seed).Render(), nil
	},
	"intra":    study(experiments.RunIntra),
	"scarlett": study(experiments.RunScarlett),
	"offer":    study(experiments.RunOffer),
	"wait": study(func(o experiments.Options) (experiments.WaitResult, error) {
		return experiments.RunWait(o, nil)
	}),
	"spec":       study(experiments.RunSpeculation),
	"managers":   study(experiments.RunManagers),
	"schedulers": study(experiments.RunSchedulers),
	"failures":   study(experiments.RunFailures),
	"selectors":  study(experiments.RunSelectors),
	"hetero":     study(experiments.RunHetero),
	"hints":      study(experiments.RunHints),
	"chaos":      study(experiments.RunChaos),
	"cache":      study(experiments.RunCache),
	"tournament": study(experiments.RunTournament),
}

// study adapts a runner to the ablations table: it runs and renders.
func study[R interface{ Render() string }](run func(experiments.Options) (R, error)) func(experiments.Options) (string, error) {
	return func(o experiments.Options) (string, error) {
		res, err := run(o)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}
}
