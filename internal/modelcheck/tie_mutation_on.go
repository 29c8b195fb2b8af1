//go:build custodymutatetie

package modelcheck

// tieMutationEnabled mirrors internal/core's custodymutatetie build tag;
// see tie_mutation_off.go.
const tieMutationEnabled = true
