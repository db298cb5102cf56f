// Package a seeds stealing-protocol hint violations: acquiring before
// the publish, exits that strand a published mask, and publishes with
// no panic cover.
package a

import (
	"sync/atomic"

	"stealfix/locking"
)

type worker struct {
	activeHint atomic.Uint64
}

// --- seeded violations -------------------------------------------------

// AcquireFirst locks the region before other workers can see the mask.
//
//qvet:phase=exec
func AcquireFirst(w *worker, r *locking.Region) {
	g := r.Acquire()      // want "may acquire a region before publishing activeHint"
	w.activeHint.Store(3) // want "not panic-covered"
	g.Release()
	w.activeHint.Store(0)
}

// LeakyPark parks an entry without clearing the published mask.
//
//qvet:phase=exec
func LeakyPark(w *worker, r *locking.Region) bool {
	w.activeHint.Store(5) // want "not panic-covered"
	if ok := tryExec(r); !ok {
		return true // want "exit path leaves activeHint published in LeakyPark"
	}
	w.activeHint.Store(0)
	return false
}

// Uncovered is clean on the happy path but a panic inside the guarded
// section would strand the mask: no defer here, no caller cover.
//
//qvet:phase=exec
func Uncovered(w *worker, r *locking.Region) {
	w.activeHint.Store(9) // want "activeHint publish in Uncovered is not panic-covered"
	g := r.Acquire()
	g.Release()
	w.activeHint.Store(0)
}

// tryExec acquires one helper deep: the transitive-acquirer closure
// must classify the call in LeakyPark as may-acquire (no report there —
// it happens after the publish — but it proves the closure works in
// AcquireIndirect below).
func tryExec(r *locking.Region) bool {
	g, ok := r.TryAcquire()
	if !ok {
		return false
	}
	g.Release()
	return true
}

// AcquireIndirect reaches TryAcquire through the helper before
// publishing.
//
//qvet:phase=exec
func AcquireIndirect(w *worker, r *locking.Region) {
	defer w.activeHint.Store(0)
	if !tryExec(r) { // want "may acquire a region before publishing activeHint"
		return
	}
	w.activeHint.Store(6)
}

// --- correct patterns: must stay silent --------------------------------

// SafeRun mirrors the live safeExecPoolEntry/execPoolEntry split: the
// wrapper arms the panic cover, the entry publishes and clears inline.
//
//qvet:phase=exec
func SafeRun(w *worker, r *locking.Region) bool {
	defer w.activeHint.Store(0)
	return run(w, r)
}

// run is the unannotated entry reached from the exec phase.
func run(w *worker, r *locking.Region) bool {
	w.activeHint.Store(maskOf(r))
	g, ok := r.TryAcquire()
	if !ok {
		w.activeHint.Store(0)
		return false
	}
	g.Release()
	w.activeHint.Store(0)
	return true
}

// SelfCovered publishes under its own deferred clear.
//
//qvet:phase=exec
func SelfCovered(w *worker, r *locking.Region) {
	defer w.activeHint.Store(0)
	w.activeHint.Store(7)
	g := r.Acquire()
	g.Release()
}

// InlineExec never publishes: inline (non-pooled) execution has no hint
// discipline, so stealcheck stays quiet.
//
//qvet:phase=exec
func InlineExec(r *locking.Region) {
	g := r.Acquire()
	g.Release()
}

func maskOf(r *locking.Region) uint64 {
	if r == nil {
		return 0
	}
	return 1
}

// --- path termination --------------------------------------------------

// ClearedEarlyReturn clears and returns on the skip path, so the Acquire
// after it only runs with the hint published: silent.
//
//qvet:phase=exec
func ClearedEarlyReturn(w *worker, r *locking.Region, skip bool) {
	defer w.activeHint.Store(0)
	w.activeHint.Store(7)
	if skip {
		w.activeHint.Store(0)
		return
	}
	g := r.Acquire()
	g.Release()
}

// SafeBreak arms the panic cover for breakLeavesPublished.
//
//qvet:phase=exec
func SafeBreak(w *worker, n int) {
	defer w.activeHint.Store(0)
	breakLeavesPublished(w, n)
}

// breakLeavesPublished clears at the end of each iteration, but the
// break skips the clear and leaves the loop with the hint published.
func breakLeavesPublished(w *worker, n int) {
	for i := 0; i < n; i++ {
		w.activeHint.Store(uint64(i) + 1)
		if i == 3 {
			break
		}
		w.activeHint.Store(0)
	}
	return // want "exit path leaves activeHint published"
}
