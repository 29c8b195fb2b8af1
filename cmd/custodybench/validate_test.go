package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     map[string]bool
		fig     string
		repeats int
		want    string // "" means accept
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
	t.Run("usage-lists-every-fig", func(t *testing.T) {
		listed := map[string]bool{}
		for _, name := range strings.Split(strings.TrimPrefix(figUsage(), "what to reproduce: "), " | ") {
			listed[name] = true
		}
		for _, figs := range []map[string]bool{sweepFigs, ablationFigs} {
			for name := range figs {
				if !listed[name] {
					t.Errorf("-fig %s is accepted but missing from the usage %q", name, figUsage())
				}
			}
		}
	})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set := c.set
			if set == nil {
				set = map[string]bool{}
			}
			err := validateFlags(set, c.fig, c.repeats)
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
