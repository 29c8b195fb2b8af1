package modelcheck

// ShrinkCommands minimizes a failing command sequence with delta debugging
// (ddmin): repeatedly try removing chunks of the sequence, halving the
// chunk size when no removal preserves the failure, finishing with a
// single-command removal pass so the result is 1-minimal — removing any
// one remaining command makes the violation disappear.
//
// Shrinking is sound because commands are state-independent data: every
// subsequence of a valid sequence is itself a valid sequence (inapplicable
// targets degrade to no-ops), so `fails` is well-defined on any subset.
func ShrinkCommands(cmds []Command, fails func([]Command) bool) []Command {
	if len(cmds) == 0 || fails(nil) {
		// An empty-sequence failure means the harness itself is broken;
		// return the input untouched rather than "shrinking" to nothing.
		return cmds
	}
	cur := append([]Command(nil), cmds...)
	for chunk := len(cur) / 2; chunk >= 1; {
		removed := false
		for start := 0; start+chunk <= len(cur); {
			trial := make([]Command, 0, len(cur)-chunk)
			trial = append(trial, cur[:start]...)
			trial = append(trial, cur[start+chunk:]...)
			if fails(trial) {
				cur = trial
				removed = true
				// Do not advance: the next chunk slid into this window.
			} else {
				start += chunk
			}
		}
		if !removed {
			chunk /= 2
		} else if chunk > len(cur) {
			chunk = len(cur)
		}
	}
	return cur
}

// ShrinkResult shrinks a failing Result to a minimal reproducer, re-running
// the harness of the Result's mode under the same seed for every candidate
// subsequence, and returns the Result of the minimal sequence (so its
// report and explain chain describe exactly the commands in the
// reproducer).
func ShrinkResult(r *Result) *Result {
	if !r.Failed() {
		return r
	}
	minimal := ShrinkCommands(r.Commands, func(cmds []Command) bool {
		return run(r.Seed, cmds, r.Server).Failed()
	})
	return run(r.Seed, minimal, r.Server)
}
