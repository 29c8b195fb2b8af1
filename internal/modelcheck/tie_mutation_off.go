//go:build !custodymutatetie

package modelcheck

// tieMutationEnabled mirrors internal/core's custodymutatetie build tag
// (the seeded executor tie-break bug) so the tie mutation smoke test can
// live in an always-compiled file and skip itself when the bug is not
// compiled in.
const tieMutationEnabled = false
