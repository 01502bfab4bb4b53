//go:build !vouchcheck

package rel

// vouchCheck reports whether this build checks vouched appends eagerly.
// The default build does not: a vouched duplicate is caught when the
// relation's table is built over it (see Relation), and every call of
// checkVouch and checkStored below sits behind this constant, so the
// compiler drops it. Build with -tags vouchcheck for the eager check
// (vouchcheck.go).
const vouchCheck = false

func checkVouch(*Relation, Tuple, string) {}

func checkStored(*Relation, string) {}
