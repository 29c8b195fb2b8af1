package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/modelcheck"
)

// runModelCheck is custodysim's long-run model-checking mode: sweep `seeds`
// xrand seeds, each driving `cmds` randomized commands through the
// allocation/driver state machine with the independent model watching. When
// server is set the commands drive the custodyd service stack instead —
// every step a committed op, with crash/recovery cycles in the alphabet —
// under the same check battery. On the first violation it shrinks to a
// minimal reproducer, prints the report (commands, violations,
// decision-provenance chain), optionally writes a .repro file that records
// the mode, and exits nonzero.
func runModelCheck(seeds, cmds int, out string, server bool) {
	generate := modelcheck.Generate
	if server {
		generate = modelcheck.GenerateServer
	}
	checked := 0
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		r := modelcheck.Replay(modelcheck.Repro{Seed: seed, Commands: generate(seed, cmds), Server: server})
		checked++
		if !r.Failed() {
			continue
		}
		fmt.Printf("modelcheck: seed %d violated invariants; shrinking...\n", seed)
		min := modelcheck.ShrinkResult(r)
		if err := min.WriteReport(os.Stdout); err != nil {
			log.Printf("custodysim: %v", err)
		}
		if out != "" {
			if err := modelcheck.WriteRepro(out, min.Repro()); err != nil {
				log.Printf("custodysim: %v", err)
				os.Exit(1)
			}
			fmt.Printf("modelcheck: minimal reproducer written to %s (replay with -mc-replay %s)\n", out, out)
		}
		os.Exit(1)
	}
	fmt.Printf("modelcheck: %d seeds x %d commands, no invariant violations\n", checked, cmds)
}

// runModelCheckReplay replays a serialized .repro file on the stack it was
// recorded from and reports whether the violation still reproduces (exit 1
// if it does, 0 if it no longer fails — e.g. after a fix).
func runModelCheckReplay(path string) {
	repro, err := modelcheck.ReadRepro(path)
	if err != nil {
		log.Printf("custodysim: %v", err)
		os.Exit(1)
	}
	r := modelcheck.Replay(repro)
	if err := r.WriteReport(os.Stdout); err != nil {
		log.Printf("custodysim: %v", err)
	}
	if r.Failed() {
		fmt.Println("modelcheck: reproducer still fails")
		os.Exit(1)
	}
	fmt.Println("modelcheck: reproducer no longer fails")
}
