// Package queue is a fixture stub of the discipline registry; the analyzer
// identifies Register and Spec by this import path.
package queue

// Spec names a discipline and its parameters.
type Spec struct {
	Name   string
	Params map[string]string
}

// Discipline is the queue interface (stubbed).
type Discipline interface{ Len() int }

// Factory builds a discipline from its spec.
type Factory func(Spec) (Discipline, error)

var factories = map[string]Factory{}

// Register installs a factory.
func Register(name string, f Factory) { factories[name] = f }

// Registered reports whether a name has a factory.
func Registered(name string) bool { _, ok := factories[name]; return ok }

// Build constructs the named discipline.
func Build(spec Spec) (Discipline, error) { return factories[spec.Name](spec) }

func init() {
	Register("fifo", nil) // registration from init inside the registry: fine
}

// install is a convenience wrapper a refactor might grow; registration
// must stay in init even here.
func install() {
	Register("sneaky", nil) // want `queue\.Register outside an init function`
}

// Label is a sanctioned name-dispatch site: inside the registry package
// the switch is fine.
func Label(s Spec) (string, bool) {
	switch s.Name {
	case "fifo", "red", "drr":
		return s.Name, true
	}
	return "", false
}

var _ = install
