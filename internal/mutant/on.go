//go:build custodymutate

package mutant

// Active is the selected mutant; None until Select picks one.
var Active = None

// Select makes n the active mutant and reports true. Never set the tag in a
// production build.
func Select(n Name) bool {
	Active = n
	return true
}
