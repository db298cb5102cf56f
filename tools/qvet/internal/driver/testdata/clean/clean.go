// Package clean passes every check: one well-formed annotation of each
// kind, no violations.
package clean

// Sum is reply-phase.
//
//qvet:phase=reply
func Sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
