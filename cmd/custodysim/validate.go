package main

import (
	"fmt"
	"strings"

	"repro/internal/policy"
	"repro/internal/workload"
)

// The closed name sets the CLI accepts. Unknown names used to fall through
// to silent defaults (custody.Config defaults an unrecognized manager to
// custody); now they are rejected up front with a one-line error.
var (
	validManagers   = []string{"custody", "spark", "yarn", "offer"}
	validSchedulers = []string{"delay", "delay-taskset", "fifo", "locality-hard", "quincy"}
	validPolicies   = policy.Names()
)

// cliFlags carries the parsed flag values through validation.
type cliFlags struct {
	manager, scheduler, workload string
	policy                       string
	nodes, execs, slots          int
	apps, jobs                   int
	arrival, wait                float64
	cacheMB                      int64
	cachePolicy                  string
	mcMode, mcServer             bool
	mcSeeds, mcCmds              int
	mcReplay, mcOut              string
}

func oneOf(val string, valid []string) bool {
	for _, v := range valid {
		if val == v {
			return true
		}
	}
	return false
}

// validateFlags rejects unknown names and contradictory combinations. set
// holds the flags explicitly provided on the command line (via flag.Visit),
// so defaults never trip the contradiction checks.
func validateFlags(set map[string]bool, f cliFlags) error {
	if !oneOf(f.manager, validManagers) {
		return fmt.Errorf("unknown -manager %q (valid: %s)", f.manager, strings.Join(validManagers, " | "))
	}
	if !oneOf(f.scheduler, validSchedulers) {
		return fmt.Errorf("unknown -scheduler %q (valid: %s)", f.scheduler, strings.Join(validSchedulers, " | "))
	}
	kinds := make([]string, 0, len(workload.Kinds()))
	for _, k := range workload.Kinds() {
		kinds = append(kinds, string(k))
	}
	if !oneOf(f.workload, kinds) {
		return fmt.Errorf("unknown -workload %q (valid: %s)", f.workload, strings.Join(kinds, " | "))
	}
	for _, c := range []struct {
		name string
		val  int
	}{
		{"nodes", f.nodes}, {"executors", f.execs}, {"slots", f.slots},
		{"apps", f.apps}, {"jobs", f.jobs},
		{"seeds", f.mcSeeds}, {"mc-cmds", f.mcCmds},
	} {
		if c.val < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", c.name, c.val)
		}
	}
	if f.policy != "" && !oneOf(f.policy, validPolicies) {
		return fmt.Errorf("unknown -policy %q (valid: %s)", f.policy, strings.Join(validPolicies, " | "))
	}
	if set["policy"] && f.policy != policy.Custody && f.manager != "custody" {
		return fmt.Errorf("-policy applies to the custody manager, not -manager %s", f.manager)
	}
	if f.arrival <= 0 {
		return fmt.Errorf("-arrival must be positive, got %g", f.arrival)
	}
	if f.cacheMB < 0 {
		return fmt.Errorf("-cache-mb must be non-negative, got %d", f.cacheMB)
	}
	if !oneOf(f.cachePolicy, []string{"", "lru", "2q"}) {
		return fmt.Errorf("unknown -cache-policy %q (valid: lru | 2q)", f.cachePolicy)
	}
	if set["cache-policy"] && !set["cache-mb"] {
		return fmt.Errorf("-cache-policy requires -cache-mb (the cache tier is disabled by default)")
	}
	if f.wait < 0 {
		return fmt.Errorf("-wait must be non-negative, got %g", f.wait)
	}
	if f.mcMode && f.mcReplay != "" {
		return fmt.Errorf("-modelcheck and -mc-replay are mutually exclusive (the replay file fixes its own commands)")
	}
	if !f.mcMode {
		for _, name := range []string{"seeds", "mc-cmds", "mc-out", "mc-server"} {
			if set[name] {
				return fmt.Errorf("-%s requires -modelcheck", name)
			}
		}
	} else {
		for _, name := range []string{"trace", "explain", "obsv-out", "speculation", "workload", "manager", "scheduler", "policy", "cache-mb", "cache-policy"} {
			if set[name] {
				return fmt.Errorf("-%s applies to simulation runs and contradicts -modelcheck", name)
			}
		}
	}
	return nil
}
