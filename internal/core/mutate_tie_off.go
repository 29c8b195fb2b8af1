//go:build !custodymutatetie

package core

// mutateTieStamp is the build-tag-gated seeded bug used by the model
// checker's tie-break mutation smoke test (internal/modelcheck): when the
// custodymutatetie tag is set, execPool.reset indexes executors in
// descending ID order, so per-node executor lists come out descending and
// same-node ties resolve to the highest executor ID instead of the lowest.
// In normal builds the constant is false and the compiler eliminates the
// mutated branch entirely.
const mutateTieStamp = false
