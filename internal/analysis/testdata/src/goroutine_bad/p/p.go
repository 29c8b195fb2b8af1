// Package p is a negative fixture: goroutines capturing package-level
// state and unguarded struct fields.
package p

var total int

// stats has no declared guard.
type stats struct {
	hits int
}

// Fan spawns the classic capture bugs.
func Fan(xs []int, st *stats) {
	for range xs {
		go func() {
			total++
			st.hits++
		}()
	}
}
