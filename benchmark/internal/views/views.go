// Package views names the eight simple views every workload maintains.
// It imports nothing from the repository, so the end-to-end runner and
// the in-process probes can share it.
package views

import "fmt"

// Names lists the views: V<r>_<a> selects the tuples of relation r whose
// age exceeds a.
func Names() []string {
	var out []string
	for r := 0; r < 2; r++ {
		for _, a := range []int{10, 20, 30, 40} {
			out = append(out, fmt.Sprintf("V%d_%d", r, a))
		}
	}
	return out
}

// Query returns the definition of the named view. It is a simple view
// (constant path), which is what gsdbserve -feed accepts.
func Query(name string) string {
	var r, a int
	fmt.Sscanf(name, "V%d_%d", &r, &a)
	return fmt.Sprintf("SELECT REL.r%d.tuple X WHERE X.age > %d", r, a)
}
