// Package sweep (fixture) stands in for the repository's fan-out: the
// goroutine fixture hands Each its loop bodies, which goroutine-hygiene
// checks as it checks a go statement's closure.
package sweep

// Each runs f(0), …, f(n−1) and returns the lowest index's error. The
// fixture runs them in order; the analyzer reads only the call.
func Each(n, workers int, f func(i int) error) error {
	var first error
	for i := 0; i < n; i++ {
		if err := f(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}
