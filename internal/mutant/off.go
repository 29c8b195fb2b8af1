//go:build !custodymutate

package mutant

// Active is the selected mutant: always None in an untagged build.
const Active = None

// Select reports false: an untagged build has no mutant compiled in.
func Select(Name) bool { return false }
