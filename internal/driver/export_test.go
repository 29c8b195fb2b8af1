package driver

import "fmt"

// TaskAuditVerdicts runs both of Audit's task-conservation checks on the
// current state: live is the live check's verdict, walk the violations the
// full walk finds, and tallied whether the per-state tally equals the
// walk's recount. The equivalence tests drive their fault storms through
// internal/chaos, which imports this package, so they live in package
// driver_test and reach the checks through this hook.
func (d *Driver) TaskAuditVerdicts() (live bool, walk []string, tallied bool) {
	live = d.liveTasksConserved()
	counted := d.walkTasks(func(format string, args ...any) {
		walk = append(walk, fmt.Sprintf(format, args...))
	})
	return live, walk, counted == d.tally
}
