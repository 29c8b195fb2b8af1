package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/driver"
	"repro/internal/hdfs"
	"repro/internal/policy"
	"repro/internal/workload"
)

// The closed name sets the CLI accepts. Unknown names used to fall through
// to silent defaults (custody.Config defaults an unrecognized manager to
// custody); now they are rejected up front with a one-line error.
var (
	validManagers   = []string{"custody", "spark", "yarn", "offer"}
	validSchedulers = names(driver.SchedulerKinds())
	validWorkloads  = names(workload.Kinds())
	validPolicies   = policy.Names()
)

// names spells a package's kind list as the strings the flags take.
func names[K ~string](kinds []K) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = string(k)
	}
	return out
}

// cliFlags carries the parsed flag values through validation.
type cliFlags struct {
	manager, scheduler, workload string
	policy                       string
	nodes, execs, slots          int
	apps, jobs                   int
	arrival, wait                float64
	cacheMB                      int64
	cachePolicy                  string
	explain                      string
	mcMode, mcServer             bool
	mcSeeds, mcCmds              int
	mcReplay, mcOut              string
}

// parseExplain splits -explain's app.job into its two IDs.
func parseExplain(s string) (appID, jobID int, err error) {
	appStr, jobStr, _ := strings.Cut(s, ".")
	appID, err1 := strconv.Atoi(appStr)
	jobID, err2 := strconv.Atoi(jobStr)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("-explain wants app.job (e.g. 0.5), got %q", s)
	}
	return appID, jobID, nil
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
	if !oneOf(f.workload, validWorkloads) {
		return fmt.Errorf("unknown -workload %q (valid: %s)", f.workload, strings.Join(validWorkloads, " | "))
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
	if !hdfs.ValidCachePolicy(hdfs.CachePolicy(f.cachePolicy)) {
		return fmt.Errorf("unknown -cache-policy %q (valid: lru | 2q)", f.cachePolicy)
	}
	if set["cache-policy"] && !set["cache-mb"] {
		return fmt.Errorf("-cache-policy requires -cache-mb (the cache tier is disabled by default)")
	}
	if f.wait < 0 {
		return fmt.Errorf("-wait must be non-negative, got %g", f.wait)
	}
	if f.explain != "" {
		if _, _, err := parseExplain(f.explain); err != nil {
			return err
		}
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
