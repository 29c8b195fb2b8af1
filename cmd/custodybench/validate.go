package main

import (
	"fmt"
	"sort"
	"strings"
)

// sweepFigs are the -fig values that run the full figure sweep; only they
// accept -repeats, -md, and -bars.
var sweepFigs = map[string]bool{"7": true, "8": true, "9": true, "10": true, "all": true}

func validFigNames() string {
	names := make([]string, 0, len(sweepFigs)+len(ablations))
	for f := range sweepFigs {
		names = append(names, f)
	}
	for f := range ablations {
		names = append(names, f)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// figUsage is the -fig flag's help text, built from the accepted names so
// the two cannot drift apart.
func figUsage() string { return "what to reproduce: " + validFigNames() }

// validateFlags rejects unknown -fig names and contradictory flag
// combinations up front, before any experiment starts. set holds the flags
// explicitly provided on the command line, so defaults never trip the
// contradiction checks.
func validateFlags(set map[string]bool, fig string, repeats int) error {
	if _, ok := ablations[fig]; !ok && !sweepFigs[fig] {
		return fmt.Errorf("unknown -fig %q (valid: %s)", fig, validFigNames())
	}
	if repeats < 1 {
		return fmt.Errorf("-repeats must be at least 1, got %d", repeats)
	}
	if !sweepFigs[fig] {
		for _, name := range []string{"repeats", "md", "bars"} {
			if set[name] {
				return fmt.Errorf("-%s applies only to the figure sweep (-fig 7 | 8 | 9 | 10 | all), not -fig %s", name, fig)
			}
		}
	}
	return nil
}
