package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name     string
		set      map[string]bool
		fig      string
		repeats  int
		emitJSON string
		baseline string
		pprofDir string
		want     string // "" means accept
	}{
		{name: "sweep-default", fig: "all", repeats: 1},
		{name: "single-figure", fig: "7", repeats: 1},
		{name: "ablation", fig: "chaos", repeats: 1},
		{
			name: "unknown-fig", fig: "11", repeats: 1,
			want: `unknown -fig "11"`,
		},
		{
			name: "zero-repeats", fig: "all", repeats: 0,
			want: "-repeats must be at least 1",
		},
		{
			name: "baseline-without-emit", fig: "all", repeats: 1, baseline: "BENCH.json",
			want: "-baseline requires -emit-json",
		},
		{
			name: "pprof-without-emit", fig: "all", repeats: 1, pprofDir: "/tmp/prof",
			want: "-pprof requires -emit-json",
		},
		{
			name: "emit-with-explicit-fig", fig: "7", repeats: 1, emitJSON: "out.json",
			set:  map[string]bool{"fig": true},
			want: "-fig applies to figure runs and contradicts -emit-json",
		},
		{
			name: "emit-with-bars", fig: "all", repeats: 1, emitJSON: "out.json",
			set:  map[string]bool{"bars": true},
			want: "-bars applies to figure runs and contradicts -emit-json",
		},
		{name: "emit-plain", fig: "all", repeats: 1, emitJSON: "out.json"},
		{
			name: "repeats-on-ablation", fig: "approx", repeats: 3,
			set:  map[string]bool{"repeats": true},
			want: "-repeats applies only to the figure sweep",
		},
		{
			name: "md-on-ablation", fig: "hints", repeats: 1,
			set:  map[string]bool{"md": true},
			want: "-md applies only to the figure sweep",
		},
		{
			name: "repeats-on-sweep-ok", fig: "8", repeats: 3,
			set: map[string]bool{"repeats": true},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set := c.set
			if set == nil {
				set = map[string]bool{}
			}
			err := validateFlags(set, c.fig, c.repeats, c.emitJSON, c.baseline, c.pprofDir)
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
