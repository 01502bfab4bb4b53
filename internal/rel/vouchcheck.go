//go:build vouchcheck

package rel

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"weak"
)

// vouchCheck is on: this build checks every vouched append when it
// happens — AddDistinct, UnionDistinct, AbsorbNew's push into its
// result and the decoder's ascending run — and panics on a duplicate,
// naming the relation and the call site, instead of leaving it to the
// relation's first table build. It is the test the appends and
// by-reference adoptions that trust a caller's word are held to:
// `go test -tags vouchcheck ./...`.
const vouchCheck = true

// vouched holds, per relation a vouched append has reached, the set of
// its stored tuples the check has seen. A relation is keyed weakly, and
// its entry dropped when it is collected, so the check keeps no
// relation alive.
var vouched = struct {
	sync.Mutex
	sets map[weak.Pointer[Relation]]*vouchSet
}{sets: make(map[weak.Pointer[Relation]]*vouchSet)}

// vouchSet is the check's own membership index of one relation's first
// n stored tuples, by table hash. The relation only grows, so it is
// caught up, never rebuilt.
type vouchSet struct {
	n      int
	byHash map[uint64][]int32
}

// setOf returns r's vouch set, registering an empty one on first use.
func setOf(r *Relation) *vouchSet {
	k := weak.Make(r)
	vouched.Lock()
	defer vouched.Unlock()
	s := vouched.sets[k]
	if s == nil {
		s = &vouchSet{byHash: make(map[uint64][]int32)}
		vouched.sets[k] = s
		runtime.AddCleanup(r, func(k weak.Pointer[Relation]) {
			vouched.Lock()
			delete(vouched.sets, k)
			vouched.Unlock()
		}, k)
	}
	return s
}

// holds reports whether the set holds a tuple of r equal to t.
func (s *vouchSet) holds(r *Relation, t Tuple) bool {
	for _, i := range s.byHash[tableHash(t)] {
		if r.tupleAt(i).Equal(t) {
			return true
		}
	}
	return false
}

// catchUp adds r's stored tuples the set has not seen yet, panicking on
// one it holds already.
func (s *vouchSet) catchUp(r *Relation, by string) {
	for ; s.n < r.count; s.n++ {
		t := r.tupleAt(int32(s.n))
		if s.holds(r, t) {
			vouchPanic(r, t, by)
		}
		h := tableHash(t)
		s.byHash[h] = append(s.byHash[h], int32(s.n))
	}
}

// checkVouch panics unless t, which the vouched append by is about to
// store in r, is not in r yet.
func checkVouch(r *Relation, t Tuple, by string) {
	s := setOf(r)
	s.catchUp(r, by)
	if s.holds(r, t) {
		vouchPanic(r, t, by)
	}
}

// checkStored panics unless r's stored tuples, written in bulk by the
// vouched path by, are distinct.
func checkStored(r *Relation, by string) { setOf(r).catchUp(r, by) }

// vouchPanic reports a vouch broken by by's caller: the first frame on
// the stack outside this package's own (non-test) code.
func vouchPanic(r *Relation, t Tuple, by string) {
	site := "unknown call site"
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if !strings.HasPrefix(f.Function, "mpclogic/internal/rel.") || strings.HasSuffix(f.File, "_test.go") {
			site = fmt.Sprintf("%s (%s:%d)", f.Function, filepath.Base(f.File), f.Line)
			break
		}
		if !more {
			break
		}
	}
	panic(fmt.Sprintf("rel: vouchcheck: %s stored duplicate tuple %v in %s, vouched distinct by %s", by, t, r.Name, site))
}
