//go:build custodymutatetie

package core

// mutateTieStamp: the seeded tie-break bug is live. See mutate_tie_off.go
// for the contract; internal/modelcheck's TestTieMutationSmoke must detect
// the resulting divergence from the reference allocation and shrink it to a
// minimal reproducer, proving the manager's self-check has teeth. Never set
// this tag in a production build.
const mutateTieStamp = true
