package main

import (
	"strings"
	"testing"
)

// goodFlags is a valid baseline every case perturbs.
func goodFlags() cliFlags {
	return cliFlags{
		manager: "custody", scheduler: "delay", workload: "WordCount",
		nodes: 10, execs: 2, slots: 4, apps: 2, jobs: 5,
		arrival: 4, wait: 3, mcSeeds: 10, mcCmds: 40,
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name   string
		set    map[string]bool
		mutate func(*cliFlags)
		want   string // "" means accept
	}{
		{name: "defaults-ok"},
		{
			name:   "unknown-manager",
			mutate: func(f *cliFlags) { f.manager = "mesos" },
			want:   `unknown -manager "mesos"`,
		},
		{
			name:   "unknown-scheduler",
			mutate: func(f *cliFlags) { f.scheduler = "fair" },
			want:   `unknown -scheduler "fair"`,
		},
		{
			name:   "unknown-workload",
			mutate: func(f *cliFlags) { f.workload = "TeraSort" },
			want:   `unknown -workload "TeraSort"`,
		},
		{
			name:   "zero-nodes",
			mutate: func(f *cliFlags) { f.nodes = 0 },
			want:   "-nodes must be at least 1",
		},
		{
			name:   "negative-arrival",
			mutate: func(f *cliFlags) { f.arrival = -1 },
			want:   "-arrival must be positive",
		},
		{
			name: "mc-flag-without-modelcheck",
			set:  map[string]bool{"mc-cmds": true},
			want: "-mc-cmds requires -modelcheck",
		},
		{
			name: "mc-server-without-modelcheck",
			set:  map[string]bool{"mc-server": true},
			mutate: func(f *cliFlags) {
				f.mcServer = true
			},
			want: "-mc-server requires -modelcheck",
		},
		{
			name:   "modelcheck-with-replay",
			mutate: func(f *cliFlags) { f.mcMode = true; f.mcReplay = "x.repro" },
			want:   "mutually exclusive",
		},
		{
			name:   "modelcheck-with-sim-flag",
			set:    map[string]bool{"trace": true},
			mutate: func(f *cliFlags) { f.mcMode = true },
			want:   "-trace applies to simulation runs",
		},
		{
			name:   "modelcheck-with-explicit-workload",
			set:    map[string]bool{"workload": true},
			mutate: func(f *cliFlags) { f.mcMode = true },
			want:   "-workload applies to simulation runs",
		},
		{
			name:   "modelcheck-server-ok",
			set:    map[string]bool{"modelcheck": true, "mc-server": true},
			mutate: func(f *cliFlags) { f.mcMode = true; f.mcServer = true },
		},
		{
			name:   "cache-ok",
			set:    map[string]bool{"cache-mb": true, "cache-policy": true},
			mutate: func(f *cliFlags) { f.cacheMB = 256; f.cachePolicy = "2q" },
		},
		{
			name:   "negative-cache-mb",
			set:    map[string]bool{"cache-mb": true},
			mutate: func(f *cliFlags) { f.cacheMB = -1 },
			want:   "-cache-mb must be non-negative",
		},
		{
			name:   "unknown-cache-policy",
			set:    map[string]bool{"cache-mb": true, "cache-policy": true},
			mutate: func(f *cliFlags) { f.cacheMB = 256; f.cachePolicy = "arc" },
			want:   `unknown -cache-policy "arc"`,
		},
		{
			name:   "cache-policy-without-cache-mb",
			set:    map[string]bool{"cache-policy": true},
			mutate: func(f *cliFlags) { f.cachePolicy = "2q" },
			want:   "-cache-policy requires -cache-mb",
		},
		{
			name:   "explain-ok",
			set:    map[string]bool{"explain": true},
			mutate: func(f *cliFlags) { f.explain = "0.5" },
		},
		{
			name:   "explain-without-dot",
			set:    map[string]bool{"explain": true},
			mutate: func(f *cliFlags) { f.explain = "foo" },
			want:   `-explain wants app.job (e.g. 0.5), got "foo"`,
		},
		{
			name:   "explain-non-numeric-job",
			set:    map[string]bool{"explain": true},
			mutate: func(f *cliFlags) { f.explain = "0.x" },
			want:   `-explain wants app.job (e.g. 0.5), got "0.x"`,
		},
		{
			name:   "explain-three-parts",
			set:    map[string]bool{"explain": true},
			mutate: func(f *cliFlags) { f.explain = "0.5.1" },
			want:   `-explain wants app.job (e.g. 0.5), got "0.5.1"`,
		},
		{
			name:   "modelcheck-with-cache",
			set:    map[string]bool{"cache-mb": true},
			mutate: func(f *cliFlags) { f.mcMode = true; f.cacheMB = 256 },
			want:   "-cache-mb applies to simulation runs",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := goodFlags()
			if c.mutate != nil {
				c.mutate(&f)
			}
			set := c.set
			if set == nil {
				set = map[string]bool{}
			}
			err := validateFlags(set, f)
			if c.want == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("validateFlags = %v, want error containing %q", err, c.want)
			}
		})
	}
}
